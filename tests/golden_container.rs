//! Golden-bytes regression tests for the on-disk container format.
//!
//! The fixtures under `tests/fixtures/` pin the byte-exact output of the
//! container writer and the decode of historical containers:
//!
//! * `container_v1.bin` — frozen output of the version-1 writer (PR 1,
//!   monolithic Huffman plane blocks). It can no longer be regenerated; the
//!   current reader must keep decoding it to the exact same values forever.
//! * `container_v2.bin` / `container_v2_chunked.bin` / `container_v3.bin` /
//!   `container_v4.bin` — frozen output of the interleaved-layout writer
//!   (level records alternating with payload; version 2 at the default and a
//!   tiny chunk size, the version-3 precinct layout of
//!   `Config::with_precincts(&[8, 6, 5])`, the version-4 archive embedding
//!   such containers). Like v1 they are read pins: no writer produces them
//!   any more and the reader must keep decoding them to the same values.
//! * `container_v2_packed.bin` / `container_v2_chunked_packed.bin` /
//!   `container_v3_packed.bin` — the same three single-field encodes from the
//!   current writer (packed layout: prelude, LZR-packed metadata block, then
//!   all payload). Encoding the deterministic golden field must reproduce
//!   them byte for byte, so any accidental format change fails here instead
//!   of corrupting archives in the wild; they decode to the same values, and
//!   their chunk payload is byte-identical to their interleaved twins' — only
//!   where the entropy streams sit changed.
//! * `container_v4_packed.bin` — frozen output of the archive writer that
//!   embedded packed containers but kept their metadata in them (plain
//!   version-4 framing): a read pin, opened one probe per step.
//! * `container_v4_hoisted.bin` — the current archive writer's output: the
//!   same embedded containers byte for byte, behind a prefix that also holds
//!   a copy of each one's prelude and metadata block. The archive encode must
//!   reproduce it byte for byte.
//! * `expected_values.bin` — the bit-exact `f64` reconstruction all of the
//!   single-field containers above must decode to.
//!
//! The golden field uses only exact dyadic arithmetic (integer products
//! scaled by powers of two), so every byte is reproducible across platforms.
//! Regenerate the current writer's fixtures with `cargo run --example
//! gen_golden_fixtures` after an *intentional* format bump, and commit them
//! with it.

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

/// The (interleaved, packed) fixture pairs of the single-field containers.
const FIXTURE_PAIRS: [(&str, &str); 3] = [
    ("container_v2.bin", "container_v2_packed.bin"),
    (
        "container_v2_chunked.bin",
        "container_v2_chunked_packed.bin",
    ),
    ("container_v3.bin", "container_v3_packed.bin"),
];

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

/// Region retrievals from the v3 fixtures — an interior box and one on the
/// far domain edge, resident and ranged — equal crops of the committed
/// reconstruction (the expectation never comes from `retrieve_roi` itself).
#[test]
fn v3_fixture_regions_equal_crops_of_expected_values() {
    for name in ["container_v3.bin", "container_v3_packed.bin"] {
        v3_regions_equal_crops(fixture(name));
    }
}

fn v3_regions_equal_crops(golden: Vec<u8>) {
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

/// The v2 and v3 fixtures, interleaved and packed, re-decode losslessly to
/// the committed reconstruction.
#[test]
fn v2_fixtures_decode_to_expected_values() {
    let expected = expected_values();
    for name in FIXTURE_PAIRS.iter().flat_map(|&(old, new)| [old, new]) {
        let c = Compressed::from_bytes(&fixture(name)).unwrap();
        let decoded = c.decompress().unwrap();
        assert_eq!(decoded.as_slice(), &expected[..], "{name}");
    }
}

/// Every chunk of a serialized container, concatenated in index order, read
/// at the offsets its map records.
fn chunk_payload(bytes: &[u8]) -> Vec<u8> {
    let map = ContainerMap::open(&MemorySource::new(bytes.to_vec())).unwrap();
    let mut payload = Vec::new();
    for level in &map.levels {
        for r in level.run_ranges(0, level.num_planes, &level.chunk_runs(None)) {
            payload.extend_from_slice(&bytes[r.offset as usize..r.end() as usize]);
        }
    }
    payload
}

/// The packed layout moved the entropy streams, it did not change them: the
/// chunk payload of each packed fixture is its interleaved twin's byte for
/// byte, and sits in one piece after the metadata block. The same holds for
/// every container the two archive fixtures embed.
#[test]
fn packed_and_interleaved_fixtures_share_chunk_payload() {
    let mut pairs: Vec<(String, Vec<u8>, Vec<u8>)> = FIXTURE_PAIRS
        .iter()
        .map(|&(old, new)| (new.to_string(), fixture(old), fixture(new)))
        .collect();
    let (old, new) = (
        fixture("container_v4.bin"),
        fixture("container_v4_packed.bin"),
    );
    for (step, (o, n)) in embedded(&old).into_iter().zip(embedded(&new)).enumerate() {
        pairs.push((format!("container_v4_packed.bin step {step}"), o, n));
    }
    assert_eq!(pairs.len(), 3 + 4);
    for (name, old, new) in pairs {
        let payload = chunk_payload(&new);
        assert!(!payload.is_empty(), "{name}");
        assert!(payload == chunk_payload(&old), "{name}: payload drifted");
        assert!(new.ends_with(&payload), "{name}: payload not contiguous");
        assert!(new.len() < old.len(), "{name}: packing must not grow it");
    }
}

/// The frozen version-1 container still parses and decodes byte-identically
/// to the current pipeline's reconstruction.
#[test]
fn v1_container_decodes_byte_identically() {
    let golden = fixture("container_v1.bin");
    assert_eq!(&golden[4..8], &1u32.to_le_bytes(), "fixture must be v1");
    let c = Compressed::from_bytes(&golden).unwrap();
    // v1 levels carry monolithic plane blocks.
    assert!(c
        .levels
        .iter()
        .all(|l| l.planes.iter().all(|p| p.chunks.len() == 1)));
    let decoded = c.decompress().unwrap();
    assert_eq!(decoded.as_slice(), &expected_values()[..]);
}

/// The v1 and v2 containers of the same field agree at every retrieval
/// fidelity, not just full decode — partial-plane loading must be
/// version-transparent.
#[test]
fn v1_and_v2_agree_under_progressive_retrieval() {
    let v1 = Compressed::from_bytes(&fixture("container_v1.bin")).unwrap();
    let v2 = Compressed::from_bytes(&fixture("container_v2.bin")).unwrap();
    let mut d1 = ProgressiveDecoder::new(&v1);
    let mut d2 = ProgressiveDecoder::new(&v2);
    for request in [
        RetrievalRequest::ErrorBound(0.25),
        RetrievalRequest::ErrorBound(0.015625),
        RetrievalRequest::Full,
    ] {
        let r1 = d1.retrieve(request).unwrap();
        let r2 = d2.retrieve(request).unwrap();
        assert_eq!(
            r1.data.as_slice(),
            r2.data.as_slice(),
            "divergence at {request:?}"
        );
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

/// The three v4 fixtures, oldest layout first.
const ARCHIVES: [&str; 3] = [
    "container_v4.bin",
    "container_v4_packed.bin",
    "container_v4_hoisted.bin",
];

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
    let golden = fixture("container_v4_hoisted.bin");
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

/// The committed v4 fixtures parse, expose the expected framing, and every
/// step decodes bit-identically to the independent-encoding composition; the
/// two written since the packed layout embed a keyframe container
/// byte-identical to the standalone writer's output.
#[test]
fn v4_fixture_decodes_to_independent_composition() {
    for (name, current_writer) in ARCHIVES.into_iter().zip([false, true, true]) {
        v4_decodes_to_independent_composition(fixture(name), current_writer);
    }
}

/// Each embedded container of `bytes` (one variable), in step order.
fn embedded(bytes: &[u8]) -> Vec<Vec<u8>> {
    let map = ArchiveMap::open(&MemorySource::new(bytes.to_vec())).unwrap();
    (0..map.num_steps())
        .map(|s| map.entry(s, 0))
        .map(|e| bytes[e.offset as usize..(e.offset + e.len) as usize].to_vec())
        .collect()
}

/// Hoisting changed the archive's prefix and nothing after it: the hoisted
/// fixture's embedded containers are the packed one's byte for byte, and
/// its payload is theirs back to back to the last byte.
#[test]
fn hoisted_archive_embeds_the_packed_archives_containers() {
    let (packed, hoisted) = (
        fixture("container_v4_packed.bin"),
        fixture("container_v4_hoisted.bin"),
    );
    assert_eq!(embedded(&hoisted), embedded(&packed));
    let map = ArchiveMap::open(&MemorySource::new(hoisted.clone())).unwrap();
    let payload = &hoisted[map.meta_len() as usize..];
    assert_eq!(payload, &embedded(&packed).concat()[..]);
}

/// For every entry, the map built from its hoisted copy is the map
/// `ContainerMap::open` reads from the embedded container itself.
#[test]
fn hoisted_maps_equal_maps_of_the_embedded_containers() {
    let hoisted = fixture("container_v4_hoisted.bin");
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

fn v4_decodes_to_independent_composition(golden: Vec<u8>, current_writer: bool) {
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
    assert_eq!(
        golden[e.offset as usize..(e.offset + e.len) as usize] == standalone[..],
        current_writer,
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
