//! Regenerate the golden container fixtures under `tests/fixtures/`.
//!
//! The fixture field is built from exact dyadic arithmetic only (integer
//! products scaled by powers of two) so its bytes are identical on every
//! platform — no libm calls whose last bit could differ between systems.
//!
//! Run with `cargo run --example gen_golden_fixtures` after an *intentional*
//! container format change, and commit the updated fixtures together with the
//! format bump. It writes the current writer's output — the three
//! single-field `*_packed.bin` containers and the `container_v4_hoisted.bin`
//! archive — and `expected_values.bin`, into `tests/fixtures/` or the
//! directory given as the first argument. Those five files are the whole
//! fixture set: CI regenerates into a temporary directory and requires
//! `diff -r` against `tests/fixtures/` to be empty, so this tool and the
//! tests' copies of the golden fields cannot drift apart and no fixture this
//! tool cannot write can sit beside them. Retired layouts (version 1, the
//! interleaved v2/v3/v4 framings, the shared-grid v3) are refused by the reader, not read.

use ipcomp_suite::core::{compress, ArchiveBuilder, ArchiveConfig, Config};
use ipcomp_suite::tensor::{ArrayD, Shape};

/// Deterministic smooth-ish field: exact dyadic values on a 20×16×12 grid.
fn golden_field() -> ArrayD<f64> {
    let shape = Shape::d3(20, 16, 12);
    ArrayD::from_fn(shape, |c| {
        let (x, y, z) = (c[0] as i64, c[1] as i64, c[2] as i64);
        let a = ((x * x * 3 + y * 7 + z * 11) % 257 - 128) as f64 / 32.0;
        let b = ((x * 5 + y * y * 2 + z * z * 13) % 127 - 63) as f64 / 64.0;
        a + b * 0.5
    })
}

/// Absolute error bound used by every fixture: 2^-10, exactly representable.
const GOLDEN_EB: f64 = 0.0009765625;

/// The archive fixture's timesteps: the golden field plus a small dyadic
/// per-step drift, so residual payloads are exact dyadic values too.
fn golden_archive_fields() -> Vec<ArrayD<f64>> {
    let shape = Shape::d3(20, 16, 12);
    (0..4)
        .map(|t| {
            ArrayD::from_fn(shape.clone(), |c| {
                let (x, y, z) = (c[0] as i64, c[1] as i64, c[2] as i64);
                let a = ((x * x * 3 + y * 7 + z * 11) % 257 - 128) as f64 / 32.0;
                let b = ((x * 5 + y * y * 2 + z * z * 13) % 127 - 63) as f64 / 64.0;
                let drift = ((x * 2 + y * 3 + z * 5 + 17 * t as i64) % 61 - 30) as f64 / 256.0;
                a + b * 0.5 + drift * t as f64
            })
        })
        .collect()
}

/// The archive fixture's knobs: keyframes every 2 steps, reference bound
/// 2^-6, finest bound 2^-10 — all exactly representable.
fn golden_archive_config() -> ArchiveConfig {
    let mut config = ArchiveConfig::new(GOLDEN_EB, 0.015625);
    config.keyframe_interval = 2;
    config
}

fn main() {
    let field = golden_field();
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/fixtures".into());
    let dir = std::path::Path::new(&dir);
    std::fs::create_dir_all(dir).expect("create fixture dir");

    let c = compress(&field, GOLDEN_EB, &Config::default()).unwrap();
    let bytes = c.to_bytes();
    std::fs::write(dir.join("container_v2_packed.bin"), &bytes).unwrap();
    println!("container_v2_packed.bin: {} bytes", bytes.len());

    // Same field with a tiny chunk size, so the fixture pins the multi-chunk
    // index layout that full-size planes (> 64 KiB packed) produce.
    let chunked_config = Config {
        chunk_bytes: 64,
        ..Config::default()
    };
    let chunked = compress(&field, GOLDEN_EB, &chunked_config).unwrap();
    let chunked_bytes = chunked.to_bytes();
    std::fs::write(dir.join("container_v2_chunked_packed.bin"), &chunked_bytes).unwrap();
    println!(
        "container_v2_chunked_packed.bin: {} bytes",
        chunked_bytes.len()
    );

    // Version-3 precinct layout of the same field: ragged final precincts
    // along every axis (20 = 8+8+4, 16 = 6+6+4, 12 = 5+5+2). Pins the
    // precinct extents in the header and the one-chunk-per-(plane, precinct)
    // index.
    let tiled = compress(&field, GOLDEN_EB, &Config::with_precincts(&[8, 6, 5])).unwrap();
    let tiled_bytes = tiled.to_bytes();
    std::fs::write(dir.join("container_v3_packed.bin"), &tiled_bytes).unwrap();
    println!("container_v3_packed.bin: {} bytes", tiled_bytes.len());

    let decoded = c.decompress().unwrap();
    let mut value_bytes = Vec::with_capacity(decoded.len() * 8);
    for v in decoded.as_slice() {
        value_bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(dir.join("expected_values.bin"), &value_bytes).unwrap();
    println!("expected_values.bin: {} bytes", value_bytes.len());

    // Version-4 time-series archive: 4 steps of the drifting golden field,
    // keyframes every 2 steps, residuals against the 2^-6 reference
    // reconstruction. Pins the v4 framing (header, directory, hoisted
    // metadata, embedded per-step containers) byte for byte.
    let fields = golden_archive_fields();
    let config = golden_archive_config();
    let mut builder =
        ArchiveBuilder::new(vec!["golden".into()], fields[0].shape().clone(), config).unwrap();
    for f in &fields {
        builder.push_step(std::slice::from_ref(f)).unwrap();
    }
    let archive = builder.finish().unwrap();
    std::fs::write(dir.join("container_v4_hoisted.bin"), &archive).unwrap();
    println!("container_v4_hoisted.bin: {} bytes", archive.len());
}
