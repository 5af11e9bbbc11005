//! Golden-bytes regression tests for the on-disk container format.
//!
//! The fixtures under `tests/fixtures/` are exactly what the current writer
//! produces for a deterministic golden field (`cargo run --example
//! gen_golden_fixtures` regenerates them, and CI checks the directory equals
//! its output):
//!
//! * `container_v2_packed.bin` / `container_v2_chunked_packed.bin` /
//!   `container_v3_packed.bin` — version 2 at the default and a tiny chunk
//!   size, and the version-3 precinct layout of
//!   `Config::with_precincts(&[8, 6, 5])`: prelude, LZR-packed metadata
//!   block, then all payload. Encoding the golden field must reproduce them
//!   byte for byte, so any accidental format change fails here instead of
//!   corrupting archives in the wild.
//! * `container_v4_hoisted.bin` — the archive writer's output: a prefix
//!   holding the framing header, the directory and a copy of each embedded
//!   container's prelude and metadata block, then the containers. The
//!   archive encode must reproduce it byte for byte.
//! * `expected_values.bin` — the bit-exact `f64` reconstruction all of the
//!   single-field containers above must decode to.
//!
//! Retired layouts — version 1 and the interleaved v2/v3/v4 framings — are
//! refused, not read (`tests/container_hardening.rs` pins the refusals); git
//! history keeps their fixtures and their reader.
//!
//! The golden field uses only exact dyadic arithmetic (integer products
//! scaled by powers of two), so every byte is reproducible across platforms.
//! Regenerate the fixtures after an *intentional* format bump, and commit
//! them with it.

use std::sync::Arc;

use ipcomp_suite::core::container::LAYOUT_PACKED;
use ipcomp_suite::core::{
    composition_reference, compress, ArchiveBuilder, ArchiveConfig, ArchiveMap, ArchiveReader,
    ArchiveRequest, Compressed, Config, ContainerMap, MemorySource, ProgressiveDecoder,
    RetrievalRequest, RoiBox, StepKind,
};
use ipcomp_suite::tensor::{ArrayD, Shape};

/// Deterministic smooth-ish field: exact dyadic values on a 20×16×12 grid.
/// Must match `examples/gen_golden_fixtures.rs` exactly.
fn golden_field() -> ArrayD<f64> {
    let shape = Shape::d3(20, 16, 12);
    ArrayD::from_fn(shape, |c| {
        let (x, y, z) = (c[0] as i64, c[1] as i64, c[2] as i64);
        let a = ((x * x * 3 + y * 7 + z * 11) % 257 - 128) as f64 / 32.0;
        let b = ((x * 5 + y * y * 2 + z * z * 13) % 127 - 63) as f64 / 64.0;
        a + b * 0.5
    })
}

const GOLDEN_EB: f64 = 0.0009765625; // 2^-10, exactly representable

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

fn expected_values() -> Vec<f64> {
    fixture("expected_values.bin")
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// The single-field container fixtures.
const CONTAINERS: [&str; 3] = [
    "container_v2_packed.bin",
    "container_v2_chunked_packed.bin",
    "container_v3_packed.bin",
];

/// The archive fixture.
const ARCHIVE: &str = "container_v4_hoisted.bin";

/// The current writer must reproduce the committed v2 fixture byte for byte.
#[test]
fn v2_encode_is_byte_exact() {
    let c = compress(&golden_field(), GOLDEN_EB, &Config::default()).unwrap();
    let bytes = c.to_bytes();
    let golden = fixture("container_v2_packed.bin");
    assert_eq!(
        bytes.len(),
        golden.len(),
        "serialized size changed — container format drifted"
    );
    assert!(
        bytes == golden,
        "serialized bytes changed — container format drifted"
    );
    // And the fixture is a version-2 container in the packed layout.
    assert_eq!(&golden[4..8], &(2 | LAYOUT_PACKED).to_le_bytes());
}

/// Same guarantee for the multi-chunk index layout.
#[test]
fn v2_chunked_encode_is_byte_exact() {
    let config = Config {
        chunk_bytes: 64,
        ..Config::default()
    };
    let c = compress(&golden_field(), GOLDEN_EB, &config).unwrap();
    let golden = fixture("container_v2_chunked_packed.bin");
    assert!(
        c.to_bytes() == golden,
        "chunk-index serialization changed — container format drifted"
    );
    // The tiny chunk size must actually produce multi-chunk planes.
    let parsed = Compressed::from_bytes(&golden).unwrap();
    assert!(
        parsed
            .levels
            .iter()
            .any(|l| l.planes.iter().any(|p| p.chunks.len() > 1)),
        "fixture must exercise the multi-chunk layout"
    );
}

/// Precinct extents of the v3 fixture. Must match
/// `examples/gen_golden_fixtures.rs` exactly.
const GOLDEN_PRECINCTS: [usize; 3] = [8, 6, 5];

/// The precinct-major writer must reproduce the committed v3 fixture byte
/// for byte: header extents, per-(plane, precinct) chunk index, payload.
#[test]
fn v3_encode_is_byte_exact() {
    let config = Config::with_precincts(&GOLDEN_PRECINCTS);
    let c = compress(&golden_field(), GOLDEN_EB, &config).unwrap();
    let golden = fixture("container_v3_packed.bin");
    assert!(
        c.to_bytes() == golden,
        "precinct-layout serialization changed — container format drifted"
    );
    assert_eq!(&golden[4..8], &(3 | LAYOUT_PACKED).to_le_bytes());
    assert_eq!(
        Compressed::from_bytes(&golden).unwrap().header.precincts,
        Some(GOLDEN_PRECINCTS.to_vec())
    );
}

/// Region retrievals from the v3 fixture — an interior box and one on the
/// far domain edge, resident and ranged — equal crops of the committed
/// reconstruction (the expectation never comes from `retrieve_roi` itself).
#[test]
fn v3_fixture_regions_equal_crops_of_expected_values() {
    let golden = fixture("container_v3_packed.bin");
    let expected = expected_values();
    let c = Compressed::from_bytes(&golden).unwrap();
    let source = MemorySource::new(golden);
    for (lo, hi) in [([5, 4, 3], [13, 11, 8]), ([14, 9, 7], [20, 16, 12])] {
        let mut crop = Vec::new();
        for x in lo[0]..hi[0] {
            for y in lo[1]..hi[1] {
                for z in lo[2]..hi[2] {
                    crop.push(expected[(x * 16 + y) * 12 + z]);
                }
            }
        }
        let bounds = RoiBox::new(&lo, &hi);
        let resident = ProgressiveDecoder::new(&c)
            .retrieve_roi(bounds, RetrievalRequest::Full)
            .unwrap();
        assert_eq!(
            resident.data.as_slice(),
            &crop[..],
            "resident {lo:?}..{hi:?}"
        );
        let ranged = ProgressiveDecoder::from_source(&source)
            .unwrap()
            .retrieve_roi(bounds, RetrievalRequest::Full)
            .unwrap();
        assert_eq!(ranged.data.as_slice(), &crop[..], "ranged {lo:?}..{hi:?}");
    }
}

/// The v2 and v3 fixtures re-decode losslessly to the committed
/// reconstruction.
#[test]
fn v2_fixtures_decode_to_expected_values() {
    let expected = expected_values();
    for name in CONTAINERS {
        let c = Compressed::from_bytes(&fixture(name)).unwrap();
        let decoded = c.decompress().unwrap();
        assert_eq!(decoded.as_slice(), &expected[..], "{name}");
    }
}

/// The archive fixture's timesteps: the golden field plus a small dyadic
/// per-step drift. Must match `examples/gen_golden_fixtures.rs` exactly.
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

fn golden_archive_config() -> ArchiveConfig {
    let mut config = ArchiveConfig::new(GOLDEN_EB, 0.015625);
    config.keyframe_interval = 2;
    config
}

/// The current archive writer must reproduce the committed v4 fixture byte
/// for byte — framing header, directory, hoisted metadata, and every
/// embedded container.
#[test]
fn v4_archive_encode_is_byte_exact() {
    let fields = golden_archive_fields();
    let mut builder = ArchiveBuilder::new(
        vec!["golden".into()],
        fields[0].shape().clone(),
        golden_archive_config(),
    )
    .unwrap();
    for f in &fields {
        builder.push_step(std::slice::from_ref(f)).unwrap();
    }
    let bytes = builder.finish().unwrap();
    let golden = fixture(ARCHIVE);
    assert_eq!(
        bytes.len(),
        golden.len(),
        "serialized size changed — archive format drifted"
    );
    assert!(
        bytes == golden,
        "serialized bytes changed — archive format drifted"
    );
    // And the fixture is a version-4 archive in the hoisted layout.
    assert_eq!(&golden[..4], b"IPCP");
    assert_eq!(&golden[4..8], &(4 | LAYOUT_PACKED).to_le_bytes());
}

/// For every entry, the map built from its hoisted copy is the map
/// `ContainerMap::open` reads from the embedded container itself.
#[test]
fn hoisted_maps_equal_maps_of_the_embedded_containers() {
    let hoisted = fixture(ARCHIVE);
    let map = ArchiveMap::open(&MemorySource::new(hoisted.clone())).unwrap();
    for step in 0..map.num_steps() {
        let e = map.entry(step, 0);
        let window =
            MemorySource::new(hoisted[e.offset as usize..(e.offset + e.len) as usize].to_vec());
        assert_eq!(
            **map.container(step, 0),
            ContainerMap::open(&window).unwrap(),
            "step {step}"
        );
    }
}

/// The committed v4 fixture parses, exposes the expected framing, embeds a
/// keyframe container byte-identical to the standalone writer's output, and
/// every step decodes bit-identically to the independent-encoding
/// composition.
#[test]
fn v4_fixture_decodes_to_independent_composition() {
    let golden = fixture(ARCHIVE);
    let fields = golden_archive_fields();
    let config = golden_archive_config();

    let source: Arc<dyn ipcomp_suite::core::ChunkSource> =
        Arc::new(MemorySource::new(golden.clone()));
    let map = ArchiveMap::open(&source).unwrap();
    assert_eq!(map.num_steps(), 4);
    assert_eq!(map.variables(), ["golden"]);
    assert_eq!(map.keyframe_interval(), 2);
    assert_eq!(map.dims(), &[20, 16, 12]);
    for (step, kind) in [
        (0, StepKind::Keyframe),
        (1, StepKind::Residual),
        (2, StepKind::Keyframe),
        (3, StepKind::Residual),
    ] {
        assert_eq!(map.entry(step, 0).kind, kind);
    }
    // A keyframe's embedded container is exactly the standalone writer's
    // output for the same field.
    let e = map.entry(2, 0);
    let standalone = compress(&fields[2], GOLDEN_EB, &Config::default())
        .unwrap()
        .to_bytes();
    assert!(
        golden[e.offset as usize..(e.offset + e.len) as usize] == standalone[..],
        "embedded keyframe container drifted from the standalone writer"
    );

    let request = RetrievalRequest::ErrorBound(GOLDEN_EB);
    let reference = composition_reference(&fields, &config, request).unwrap();
    let mut reader = ArchiveReader::open(source).unwrap();
    let steps = reader
        .retrieve_steps(&ArchiveRequest::steps(0, 0..4, request))
        .unwrap();
    for (s, out) in steps.iter().enumerate() {
        assert_eq!(out.data.as_slice(), reference[s].as_slice(), "step {s}");
        for (a, b) in fields[s].as_slice().iter().zip(out.data.as_slice()) {
            assert!((a - b).abs() <= GOLDEN_EB * (1.0 + 1e-12));
        }
    }
}

/// The reconstruction (shared by every fixture) honours the error bound —
/// guards against a fixture regenerated from a broken pipeline.
#[test]
fn expected_values_respect_error_bound() {
    let field = golden_field();
    let expected = expected_values();
    assert_eq!(field.len(), expected.len());
    for (a, b) in field.as_slice().iter().zip(&expected) {
        assert!(
            (a - b).abs() <= GOLDEN_EB * (1.0 + 1e-12),
            "error bound violated: {a} vs {b}"
        );
    }
}

/// Every container the pinned-plans ladder plans: the three single-field
/// fixtures and each step container of the archive fixture, as a map plus
/// its resident parse.
fn planned_containers() -> Vec<(String, ContainerMap, Compressed)> {
    let mut out: Vec<_> = CONTAINERS
        .iter()
        .map(|name| {
            let bytes = fixture(name);
            let map = ContainerMap::open(&MemorySource::new(bytes.clone())).unwrap();
            (
                name.to_string(),
                map,
                Compressed::from_bytes(&bytes).unwrap(),
            )
        })
        .collect();
    let archive = fixture(ARCHIVE);
    let map = ArchiveMap::open(&MemorySource::new(archive.clone())).unwrap();
    for step in 0..map.num_steps() {
        let e = map.entry(step, 0);
        let bytes = &archive[e.offset as usize..(e.offset + e.len) as usize];
        let c = Compressed::from_bytes(bytes).unwrap();
        out.push((
            format!("{ARCHIVE} step {step}"),
            (**map.container(step, 0)).clone(),
            c,
        ));
    }
    out
}

/// The request ladder of one container: error-bound decades from the value
/// range down past `eb`, relative bounds, byte budgets from below the
/// always-loaded base up to the whole container, bitrates and `Full`.
fn plan_ladder(map: &ContainerMap) -> Vec<RetrievalRequest> {
    let h = &map.header;
    let mut ladder = Vec::new();
    let mut k = 0;
    loop {
        let target = h.value_range / 10f64.powi(k);
        ladder.push(RetrievalRequest::ErrorBound(target));
        if target < h.error_bound {
            break;
        }
        k += 1;
    }
    ladder.extend([1e-2, 1e-4].map(RetrievalRequest::RelErrorBound));
    let total = map.total_len() as usize;
    ladder.push(RetrievalRequest::SizeBudget(map.base_bytes() / 2));
    ladder.extend([4, 2, 1].map(|d| RetrievalRequest::SizeBudget(total * 3 / 4 / d)));
    ladder.push(RetrievalRequest::SizeBudget(total));
    ladder.extend([0.5, 2.0, 8.0].map(RetrievalRequest::Bitrate));
    ladder.push(RetrievalRequest::Full);
    ladder
}

/// `(planes_loaded, payload_bytes, extra_error_bound bits)` of one plan.
type Pinned = (&'static [u8], usize, u64);

/// The optimizer's plans for every fixture container under
/// [`plan_ladder`], then region byte budgets on the v3 fixture, in order.
/// Planning is pure arithmetic on the fixtures' metadata, so a change to
/// the optimizer that moves any plan — a plane, a byte or an error bit —
/// fails here.
const PINNED_PLANS: &[Pinned] = &[
    // container_v2_packed.bin
    (&[8, 9, 8, 6, 4], 1168, 0x40218df539500000),
    (&[8, 12, 11, 10, 7], 2628, 0x3fec4e3140000000),
    (&[8, 12, 13, 14, 10], 3981, 0x3fb3100000000000),
    (&[8, 12, 13, 14, 13], 5184, 0x3f7e800000000000),
    (&[13, 14, 14, 14, 14], 5631, 0x0),
    (&[8, 12, 13, 14, 10], 3981, 0x3fb3100000000000),
    (&[13, 14, 14, 14, 14], 5631, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[8, 13, 10, 5, 3], 845, 0x402d4a5172000000),
    (&[8, 14, 14, 12, 5], 1946, 0x4004029200000000),
    (&[13, 14, 14, 14, 10], 4012, 0x3fb3100000000000),
    (&[9, 13, 14, 14, 14], 5615, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[8, 11, 10, 6, 2], 702, 0x40343834c1880000),
    (&[13, 14, 14, 12, 9], 3563, 0x3fc7bd2000000000),
    (&[13, 14, 14, 14, 14], 5631, 0x0),
    // container_v2_chunked_packed.bin
    (&[8, 9, 8, 6, 4], 1383, 0x40218df539500000),
    (&[8, 12, 11, 10, 7], 2880, 0x3fec4e3140000000),
    (&[8, 12, 13, 14, 10], 4320, 0x3fb3100000000000),
    (&[8, 12, 13, 14, 13], 5591, 0x3f7e800000000000),
    (&[13, 14, 14, 14, 14], 6051, 0x0),
    (&[8, 12, 13, 14, 10], 4320, 0x3fb3100000000000),
    (&[13, 14, 14, 14, 14], 6051, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[8, 12, 11, 7, 2], 878, 0x4032d6974a000000),
    (&[10, 14, 14, 10, 5], 2069, 0x4004f0da00000000),
    (&[13, 14, 14, 14, 10], 4351, 0x3fb3100000000000),
    (&[9, 14, 14, 14, 14], 6039, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[5, 7, 6, 4, 2], 644, 0x40419aea11ce8000),
    (&[13, 14, 14, 13, 8], 3517, 0x3fd4f24800000000),
    (&[13, 14, 14, 14, 14], 6051, 0x0),
    // container_v3_packed.bin
    (&[8, 9, 8, 6, 4], 2878, 0x40218df539500000),
    (&[8, 12, 11, 10, 7], 5030, 0x3fec4e3140000000),
    (&[8, 12, 13, 14, 10], 7035, 0x3fb3100000000000),
    (&[8, 12, 13, 14, 13], 8481, 0x3f7e800000000000),
    (&[13, 14, 14, 14, 14], 9089, 0x0),
    (&[8, 12, 13, 14, 10], 7035, 0x3fb3100000000000),
    (&[13, 14, 14, 14, 14], 9089, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[13, 7, 8, 6, 0], 1353, 0x404665c423a80000),
    (&[8, 12, 9, 7, 4], 3135, 0x401ab701c8000000),
    (&[10, 12, 13, 11, 10], 6693, 0x3fc2d6d000000000),
    (&[13, 13, 14, 14, 14], 9059, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[6, 7, 6, 0, 0], 534, 0x405fe97780e74000),
    (&[13, 10, 8, 6, 5], 3405, 0x401614b00c400000),
    (&[13, 14, 14, 14, 14], 9089, 0x0),
    // container_v4_hoisted.bin step 0
    (&[8, 9, 8, 6, 4], 1168, 0x40218df539500000),
    (&[8, 12, 11, 10, 7], 2628, 0x3fec4e3140000000),
    (&[8, 12, 13, 14, 10], 3981, 0x3fb3100000000000),
    (&[8, 12, 13, 14, 13], 5184, 0x3f7e800000000000),
    (&[13, 14, 14, 14, 14], 5631, 0x0),
    (&[8, 12, 13, 14, 10], 3981, 0x3fb3100000000000),
    (&[13, 14, 14, 14, 14], 5631, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[8, 13, 10, 5, 3], 845, 0x402d4a5172000000),
    (&[8, 14, 14, 12, 5], 1946, 0x4004029200000000),
    (&[13, 14, 14, 14, 10], 4012, 0x3fb3100000000000),
    (&[9, 13, 14, 14, 14], 5615, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[8, 11, 10, 6, 2], 702, 0x40343834c1880000),
    (&[13, 14, 14, 12, 9], 3563, 0x3fc7bd2000000000),
    (&[13, 14, 14, 14, 14], 5631, 0x0),
    // container_v4_hoisted.bin step 1
    (&[1, 7, 8, 4, 2], 823, 0x3fce248000000000),
    (&[1, 7, 8, 8, 6], 2272, 0x3f8e800000000000),
    (&[1, 7, 8, 8, 8], 3082, 0x0),
    (&[7, 8, 8, 8, 8], 3104, 0x0),
    (&[1, 7, 8, 8, 8], 3082, 0x0),
    (&[7, 8, 8, 8, 8], 3104, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x4030a2a9ea3a0000),
    (&[6, 8, 8, 6, 0], 444, 0x3fed0c4800000000),
    (&[7, 8, 8, 8, 2], 1044, 0x3fbe800000000000),
    (&[2, 8, 8, 8, 6], 2279, 0x3f8e800000000000),
    (&[4, 8, 8, 8, 8], 3095, 0x0),
    (&[1, 7, 5, 0, 0], 71, 0x4004f6bce4000000),
    (&[6, 8, 8, 3, 2], 787, 0x3fda3da000000000),
    (&[7, 8, 8, 8, 8], 3104, 0x0),
    (&[7, 8, 8, 8, 8], 3104, 0x0),
    // container_v4_hoisted.bin step 2
    (&[9, 11, 8, 6, 4], 1210, 0x4021ea3bca634000),
    (&[11, 13, 11, 10, 7], 2732, 0x3fec4e3140000000),
    (&[11, 13, 13, 13, 10], 4181, 0x3fb6c92000000000),
    (&[11, 13, 13, 14, 13], 5505, 0x3f7e800000000000),
    (&[13, 14, 14, 14, 14], 5946, 0x0),
    (&[11, 13, 13, 13, 10], 4181, 0x3fb6c92000000000),
    (&[13, 14, 14, 14, 14], 5946, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x408fb802c8b6af00),
    (&[12, 13, 11, 6, 3], 921, 0x4028c5a694000000),
    (&[11, 14, 13, 13, 5], 2075, 0x40045ec900000000),
    (&[13, 14, 14, 14, 10], 4254, 0x3fb3100000000000),
    (&[11, 13, 14, 14, 14], 5936, 0x0),
    (&[1, 0, 0, 0, 0], 3, 0x4081d957f382af00),
    (&[12, 13, 10, 6, 2], 722, 0x40359c74b9000000),
    (&[11, 14, 13, 10, 9], 3597, 0x3fd350d000000000),
    (&[13, 14, 14, 14, 14], 5946, 0x0),
    // container_v4_hoisted.bin step 3
    (&[7, 10, 10, 6, 3], 1337, 0x3fe6866800000000),
    (&[7, 10, 10, 8, 7], 2997, 0x3fb0fa4000000000),
    (&[7, 10, 10, 10, 10], 4375, 0x0),
    (&[8, 10, 10, 10, 10], 4378, 0x0),
    (&[7, 10, 10, 10, 10], 4375, 0x0),
    (&[8, 10, 10, 10, 10], 4378, 0x0),
    (&[0, 0, 0, 0, 0], 0, 0x404596aa0b503800),
    (&[8, 10, 10, 9, 0], 639, 0x4005ae4900000000),
    (&[8, 10, 10, 9, 3], 1505, 0x3fe2562400000000),
    (&[8, 10, 10, 10, 7], 3110, 0x3fa3100000000000),
    (&[8, 10, 10, 10, 9], 3955, 0x3f7e800000000000),
    (&[2, 5, 3, 0, 0], 50, 0x40283c1ce0902000),
    (&[8, 10, 9, 6, 1], 769, 0x40051bc694000000),
    (&[8, 10, 10, 10, 8], 3533, 0x3f8e800000000000),
    (&[8, 10, 10, 10, 10], 4378, 0x0),
    // container_v3_packed.bin, region [5, 4, 3]..[13, 11, 8]
    (&[0, 0, 0, 0, 0], 0, 0x408fca2b58d66800),
    (&[6, 5, 0, 0, 0], 168, 0x40706884e4405000),
    (&[9, 10, 7, 6, 3], 1951, 0x402c3b5b8a200000),
];

#[test]
fn fixture_plans_are_pinned() {
    use ipcomp_suite::core::planner::plan_request;
    let containers = planned_containers();
    let mut got = Vec::new();
    for (name, map, resident) in &containers {
        for request in plan_ladder(map) {
            let plan = plan_request(map, &[], request, None).unwrap().load;
            let direct = ProgressiveDecoder::new(resident).plan(request).unwrap();
            assert_eq!(
                plan, direct,
                "{name} {request:?}: map and resident plans differ"
            );
            got.push((format!("{name} {request:?}"), plan));
        }
    }
    let v3 = &containers[2].1;
    let roi = RoiBox::new(&[5, 4, 3], &[13, 11, 8]);
    let total = v3.total_len() as usize;
    for budget in [v3.base_bytes() / 2, total / 16, total / 4] {
        let request = RetrievalRequest::SizeBudget(budget);
        let plan = plan_request(v3, &[], request, Some(roi)).unwrap().load;
        got.push((format!("v3 roi {request:?}"), plan));
    }
    assert_eq!(got.len(), PINNED_PLANS.len(), "ladder length");
    for ((label, plan), &(planes, payload, bits)) in got.iter().zip(PINNED_PLANS) {
        assert_eq!(plan.planes_loaded, planes, "{label}");
        assert_eq!(plan.payload_bytes, payload, "{label}");
        assert_eq!(plan.extra_error_bound.to_bits(), bits, "{label}");
    }
}
