//! Container robustness: corrupt input must fail with `IpcompError`, never
//! panic, hang, or balloon memory.
//!
//! The sweeps run over a *real* compressed container and exercise three
//! corruption families the issue tracker calls out:
//!
//! * **Truncation** — every prefix of the container must be rejected at parse
//!   time (the serializer accounts for every byte, so any cut lands inside
//!   some field or payload).
//! * **Bit flips** — for every byte offset, each of several flip patterns is
//!   applied and the full parse + decompress pipeline must either error or
//!   produce a (possibly different) reconstruction. No outcome may panic;
//!   the per-chunk rANS final-state check and the container's consistency
//!   checks catch the overwhelming majority.
//! * **Length-field forgeries** — varint length/count fields patched to
//!   absurd values must be rejected by validation *before* any proportional
//!   allocation (the decode paths cap every allocation by what the header
//!   geometry admits).
//!
//! Everything runs on a freshly written container and on every committed
//! fixture version (v1, v2, v2 multi-chunk, v3 precincts), through both
//! entry points of the one parser: the resident `Compressed::from_bytes` +
//! `decompress`, and the ranged `ContainerMap::open` + `retrieve(Full)` a
//! remote store runs. Truncations and forged lengths additionally go through
//! `ArchiveMap::open` on the v4 archive fixture.

use ipcomp_suite::core::{
    compress, ArchiveMap, Compressed, Config, IpcompError, MemorySource, ProgressiveDecoder,
    RetrievalRequest,
};
use ipcomp_suite::tensor::{ArrayD, Shape};

/// Small but real container: multiple levels, mixed entropy modes.
fn real_container_bytes() -> Vec<u8> {
    let shape = Shape::d3(18, 14, 10);
    let field = ArrayD::from_fn(shape, |c| {
        let (x, y, z) = (c[0] as i64, c[1] as i64, c[2] as i64);
        ((x * x * 5 + y * 3 + z * z * 7) % 101 - 50) as f64 / 16.0
    });
    compress(&field, 1.0 / 512.0, &Config::default())
        .unwrap()
        .to_bytes()
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name),
    )
    .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Every container the sweeps corrupt — the writer's current output plus one
/// fixture per readable layout — with the stride the bit-flip sweep walks its
/// payload at. The fresh container and the v1 fixture flip every payload
/// byte; the other fixtures repeat those layouts' payload coding (or, for
/// v3, cost three times as much per decode), so they stride the payload to
/// keep the suite's runtime bounded. Metadata bytes are never strided.
fn containers() -> Vec<(&'static str, Vec<u8>, usize)> {
    vec![
        ("fresh v2", real_container_bytes(), 1),
        ("container_v1.bin", fixture("container_v1.bin"), 1),
        ("container_v2.bin", fixture("container_v2.bin"), 4),
        (
            "container_v2_chunked.bin",
            fixture("container_v2_chunked.bin"),
            4,
        ),
        ("container_v3.bin", fixture("container_v3.bin"), 8),
    ]
}

type Decode = fn(&[u8]) -> Result<Vec<f64>, IpcompError>;

/// Parse + full decompress; the return value only distinguishes "errored"
/// from "decoded to something" — panicking fails the test by itself.
fn try_decode(bytes: &[u8]) -> Result<Vec<f64>, IpcompError> {
    let c = Compressed::from_bytes(bytes)?;
    Ok(c.decompress()?.as_slice().to_vec())
}

/// The path production runs: metadata by ranged reads, payload fetched per
/// plan, full-fidelity retrieve.
fn try_decode_ranged(bytes: &[u8]) -> Result<Vec<f64>, IpcompError> {
    let source = MemorySource::new(bytes.to_vec());
    let mut dec = ProgressiveDecoder::from_source(&source)?;
    Ok(dec
        .retrieve(RetrievalRequest::Full)?
        .data
        .as_slice()
        .to_vec())
}

const ENTRY_POINTS: [(&str, Decode); 2] = [("resident", try_decode), ("ranged", try_decode_ranged)];

fn try_open_archive(bytes: &[u8]) -> Result<(), IpcompError> {
    ArchiveMap::open(&MemorySource::new(bytes.to_vec())).map(|_| ())
}

/// The largest plausible forgery for any varint length/count field: a
/// 10-byte encoding of `u64::MAX / 2`.
fn huge_varint() -> Vec<u8> {
    let mut v = Vec::new();
    let mut x = u64::MAX / 2;
    while x >= 0x80 {
        v.push((x as u8 & 0x7F) | 0x80);
        x >>= 7;
    }
    v.push(x as u8);
    v
}

/// `bytes` with `insert` spliced in at `offset`.
fn spliced(bytes: &[u8], offset: usize, insert: &[u8]) -> Vec<u8> {
    [&bytes[..offset], insert, &bytes[offset..]].concat()
}

/// Sweep prefix lengths: every offset through the first 256 bytes (the
/// metadata region), then a stride through the payload, plus always the
/// last 32 boundaries.
fn truncation_cuts(len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..len.min(256)).collect();
    cuts.extend((256..len).step_by(41));
    cuts.extend(len.saturating_sub(32)..len);
    cuts
}

#[test]
fn every_truncation_is_rejected() {
    for (name, bytes, _) in containers() {
        for cut in truncation_cuts(bytes.len()) {
            for (entry, decode) in ENTRY_POINTS {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "{name} ({entry}): truncation at {cut}/{} decoded successfully",
                    bytes.len()
                );
            }
        }
    }
    // Any cut of an archive strands a directory entry past the end or
    // truncates an embedded container's metadata or payload.
    let archive = fixture("container_v4.bin");
    for cut in truncation_cuts(archive.len()) {
        assert!(
            try_open_archive(&archive[..cut]).is_err(),
            "archive truncation at {cut}/{} opened successfully",
            archive.len()
        );
    }
}

#[test]
fn bit_flips_never_panic() {
    for (name, bytes, payload_stride) in containers() {
        let original = try_decode(&bytes).expect("pristine container decodes");
        assert_eq!(try_decode_ranged(&bytes).unwrap(), original, "{name}");
        let mut flipped_to_identical = 0usize;
        let mut attempts = 0usize;
        let offsets = (0..512).chain((512..bytes.len()).step_by(payload_stride));
        for offset in offsets.take_while(|&o| o < bytes.len()) {
            // Every pattern through both entry points across the
            // header/metadata region where the structure lives; one pattern
            // per byte across the payload, entry points alternating. A
            // strided payload flip stands for `payload_stride` bytes, so the
            // absorbed share below stays calibrated to the whole container.
            let (patterns, entries, weight): (&[u8], &[(&str, Decode)], usize) = if offset < 512 {
                (&[0x01, 0x80, 0xFF], &ENTRY_POINTS, 1)
            } else {
                (
                    &[0xFF],
                    &ENTRY_POINTS[offset / payload_stride % 2..][..1],
                    payload_stride,
                )
            };
            for &pattern in patterns {
                let mut bad = bytes.clone();
                bad[offset] ^= pattern;
                for (_, decode) in entries {
                    attempts += weight;
                    // Either outcome is acceptable; panicking or OOM is not.
                    if let Ok(values) = decode(&bad) {
                        if values.len() == original.len()
                            && values
                                .iter()
                                .zip(&original)
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                        {
                            flipped_to_identical += weight;
                        }
                    }
                }
            }
        }
        // Some header fields are legitimately inert for a *full* decode —
        // truncation-loss tables, `progressive_levels`, `value_range` only
        // steer partial retrievals — so their flips decode identically. They
        // must stay a small fraction of the format; a jump here means whole
        // regions of the container stopped being validated or used.
        assert!(
            flipped_to_identical <= attempts / 20,
            "{name}: {flipped_to_identical}/{attempts} flips were silently absorbed"
        );
    }
}

/// Patch a varint length/count field to a huge value at a given offset and
/// make sure the decoder errors instead of allocating.
#[test]
fn forged_length_fields_are_rejected_without_oom() {
    let huge = huge_varint();
    // Splice the forged varint over every metadata offset (the region before
    // the first level's payload certainly contains every count field:
    // dimensions, precinct extents, anchors length, level count, n_values,
    // trunc_loss, chunk index entries or v1 plane lengths).
    for (name, bytes, _) in containers() {
        for offset in 8..bytes.len().min(400) {
            let forged = spliced(&bytes, offset, &huge);
            // Must error (the splice corrupts whatever field spans that
            // offset); the real assertion is that this terminates quickly
            // without allocating absurd amounts or panicking.
            for (entry, decode) in ENTRY_POINTS {
                assert!(
                    decode(&forged).is_err(),
                    "{name} ({entry}): forged varint at {offset} decoded successfully"
                );
            }
        }
    }
    // The archive framing is fixed-width, so a splice shifts every later
    // field: step/variable counts, directory offsets and lengths, and the
    // embedded containers' own metadata all get forged in turn.
    let archive = fixture("container_v4.bin");
    for offset in 8..400 {
        assert!(
            try_open_archive(&spliced(&archive, offset, &huge)).is_err(),
            "archive: forged varint at {offset} opened successfully"
        );
    }
}

/// Truncating, flipping, and forging the *anchor block* specifically — it is
/// entropy-coded separately from the planes and decoded on every retrieval.
#[test]
fn corrupt_anchor_blocks_error_cleanly() {
    let bytes = real_container_bytes();
    let c = Compressed::from_bytes(&bytes).unwrap();
    let mut zeroed = c.clone();
    zeroed.anchors = vec![0u8; 4];
    assert!(zeroed.decompress().is_err());

    let mut truncated = c.clone();
    truncated.anchors.truncate(truncated.anchors.len() / 2);
    assert!(truncated.decompress().is_err());

    // An anchor stream that decodes but declares an absurd count is capped by
    // the element count of the grid.
    let mut forged = c.clone();
    forged.anchors = ipcomp_suite::core::container::encode_anchors(&vec![1i64; 1 << 18]);
    assert!(forged.decompress().is_err());
}

/// In-memory corruption of the chunk grid (the invariants `from_bytes`
/// enforces) must be caught by the decode layer as well, since `Compressed`
/// values can also arrive from in-process construction.
#[test]
fn inconsistent_chunk_grids_error_cleanly() {
    let bytes = real_container_bytes();
    let c = Compressed::from_bytes(&bytes).unwrap();

    // Drop one chunk of one plane.
    let mut missing = c.clone();
    if let Some(level) = missing.levels.iter_mut().find(|l| l.num_planes > 0) {
        level.planes[0].chunks.clear();
        assert!(missing.decompress().is_err());
    }

    // Lie about the chunk span.
    let mut lied = c.clone();
    for level in lied.levels.iter_mut() {
        level.chunk_bytes = 8;
    }
    assert!(lied.decompress().is_err());

    // Swap two planes' payloads: decodes to *something* or errors, but never
    // panics — plane sizes are identical in shape terms.
    let mut swapped = c.clone();
    if let Some(level) = swapped.levels.iter_mut().find(|l| l.num_planes >= 2) {
        level.planes.swap(0, 1);
        let _ = swapped.decompress();
    }
}
