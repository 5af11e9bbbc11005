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
//! * **Packed-layout forgeries** — the prelude's packed and unpacked lengths,
//!   the layout flag, and a metadata block re-packed around a patched record
//!   (short, long, chunk sizes overrunning the source, a loss table that is
//!   not a running maximum from 0): each must be refused by name, the
//!   lengths before the unpacked buffer is allocated.
//! * **Hoisted-archive forgeries** — the archive prefix length, the hoisted
//!   copies of each step's prelude and metadata block (one with a forged
//!   loss table), the directory under them, the header dims and the version
//!   word's flags: each refused by
//!   name (through `ArchiveMap::open`), the lengths before anything they size
//!   is allocated.
//!
//! * **Inside the metadata block** — forged varints spliced in and bits
//!   flipped at every offset of the *unpacked* block, re-packed so each one
//!   reaches the parser: dims, anchor length, level count, `n_values`, loss
//!   tables and chunk-index entries, which whole-file sweeps only reach
//!   through the LZR stream.
//! * **Retired layouts** — version 1, the unflagged (interleaved) version
//!   words and the shared-grid v3 (`tests/retired/`), refused by name on the
//!   probe GET alone.
//! * **Metadata that disagrees with itself** — hand-built resident containers
//!   (chunk grids, loss tables, precinct extents and spans, dims that do not
//!   give the level list) and their serialized bytes: one rule set refuses
//!   them wherever a container map is built, before anything is planned.
//!
//! Everything runs on a freshly written container and on every committed
//! single-field fixture (v2, v2 multi-chunk and v3 precincts), through both
//! entry points of the one parser: the resident `Compressed::from_bytes` +
//! `decompress`, and the ranged `ContainerMap::open` + `retrieve(Full)` a
//! remote store runs. Truncations and forged lengths additionally go through
//! `ArchiveMap::open` on the v4 archive fixture.

use std::ops::Range;

use ipcomp_suite::codecs::lzr::lzr_decompress;
use ipcomp_suite::codecs::lzr_compress;
use ipcomp_suite::codecs::varint::{varint_len, write_varint};
use ipcomp_suite::core::container::{LAYOUT_PACKED, RETIRED_LAYOUT};
use ipcomp_suite::core::{
    compress, roi_precinct_masks, ArchiveMap, ChunkSource, Compressed, Config, ContainerMap,
    IpcompError, MemorySource, ProgressiveDecoder, RetrievalRequest, RoiBox,
};
use ipcomp_suite::store::{plan_request, SimProfile, SimulatedObjectStore};
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

/// Every container the sweeps corrupt — the writer's current output plus
/// each committed single-field fixture — with the stride the bit-flip sweep
/// walks its payload at. The fresh container flips every payload byte; the
/// fixtures repeat its payload coding (or, for v3, cost three times as much
/// per decode), so they stride the payload to keep the suite's runtime
/// bounded. Metadata bytes are never strided.
fn containers() -> Vec<(&'static str, Vec<u8>, usize)> {
    [
        ("container_v2_packed.bin", 4),
        ("container_v2_chunked_packed.bin", 4),
        ("container_v3_packed.bin", 8),
    ]
    .into_iter()
    .map(|(name, stride)| (name, fixture(name), stride))
    .chain([("fresh v2", real_container_bytes(), 1)])
    .collect()
}

/// The archive fixture.
const HOISTED: &str = "container_v4_hoisted.bin";

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
    // truncates its prefix.
    let archive = fixture(HOISTED);
    for cut in truncation_cuts(archive.len()) {
        assert!(
            try_open_archive(&archive[..cut]).is_err(),
            "{HOISTED}: truncation at {cut}/{} opened successfully",
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
    for (name, bytes, _) in containers() {
        // Inside the unpacked metadata block, re-packed: every count field —
        // dimensions, precinct extents, anchors length, level count,
        // n_values, trunc_loss, chunk index entries — gets forged in turn.
        for offset in 0..=unpacked_block(&bytes).len() {
            let forged = repacked(&bytes, |meta| {
                meta.splice(offset..offset, huge.iter().copied());
            });
            for (entry, decode) in ENTRY_POINTS {
                assert!(
                    decode(&forged).is_err(),
                    "{name} ({entry}): forged varint at block offset {offset} decoded successfully"
                );
            }
        }
        // Over the file itself: the prelude and the LZR stream.
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
    // hoisted copies all get forged in turn.
    let archive = fixture(HOISTED);
    for offset in 8..400 {
        assert!(
            try_open_archive(&spliced(&archive, offset, &huge)).is_err(),
            "{HOISTED}: forged varint at {offset} opened successfully"
        );
    }
}

/// Where each level's chunk index — its per-plane chunk counts and chunk
/// sizes — sits in the unpacked `block` of `bytes`. The block ends with the
/// last level's index; walking back from there, each index is rebuilt from
/// the map and found in place, and before it sit the level's `n_values`,
/// plane count, loss table and chunk span.
fn chunk_index_ranges(bytes: &[u8], block: &[u8]) -> Vec<Range<usize>> {
    let map = ContainerMap::open(&MemorySource::new(bytes.to_vec())).unwrap();
    let mut end = block.len();
    let mut ranges = Vec::new();
    for level in map.levels.iter().rev() {
        let mut index = Vec::new();
        for p in 0..level.num_planes {
            let n = level.plane_chunk_count(p);
            write_varint(&mut index, n as u64);
            for k in 0..n {
                write_varint(&mut index, level.chunk_size(p, k) as u64);
            }
        }
        let start = end - index.len();
        assert_eq!(&block[start..end], &index[..]);
        ranges.push(start..end);
        let losses: usize = level.trunc_loss.iter().map(|&l| varint_len(l)).sum();
        end = start - varint_len(level.chunk_bytes as u64) - losses - 1;
        end -= varint_len(level.n_values as u64);
    }
    ranges
}

/// Bit flips inside the unpacked metadata block, re-packed so each reaches
/// the parser. No flip panics; every flip inside a level's chunk index is
/// refused (a changed size breaks the exact-payload check, a changed count
/// or a merged or split varint the chunk grid); and the flips that decode to
/// identical values stay a bounded share — they land in fields a *full*
/// decode legitimately ignores: loss tables, `progressive_levels`,
/// `value_range`, the high bits of the predictive-coding flag.
#[test]
fn metadata_block_flips_are_refused_or_inert() {
    for (name, bytes, _) in containers() {
        let original = try_decode(&bytes).unwrap();
        let block = unpacked_block(&bytes);
        let index = chunk_index_ranges(&bytes, &block);
        let (mut identical, mut attempts) = (0usize, 0usize);
        for offset in 0..block.len() {
            let in_index = index.iter().any(|r| r.contains(&offset));
            for pattern in [0x01, 0x80, 0xFF] {
                let flipped = repacked(&bytes, |meta| meta[offset] ^= pattern);
                for (entry, decode) in ENTRY_POINTS {
                    attempts += 1;
                    let Ok(values) = decode(&flipped) else {
                        continue;
                    };
                    assert!(
                        !in_index,
                        "{name} ({entry}): index flip {pattern:#x} at block offset {offset} decoded"
                    );
                    let same = values.len() == original.len()
                        && values
                            .iter()
                            .zip(&original)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    identical += same as usize;
                }
            }
        }
        // Measured: 15.6 % (v2), 12.3 % (v2 chunked), 2.3 % (v3), 15.4 %
        // (fresh v2); a fifth means whole fields stopped being read.
        assert!(
            identical * 5 <= attempts,
            "{name}: {identical}/{attempts} block flips were silently absorbed"
        );
    }
}

/// The prelude's `(packed, unpacked)` metadata-block lengths.
fn prelude_lengths(bytes: &[u8]) -> (usize, usize) {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    (word(8), word(12))
}

/// `bytes` with the prelude's lengths overwritten.
fn with_prelude_lengths(bytes: &[u8], packed: u64, unpacked: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[8..12].copy_from_slice(&(packed as u32).to_le_bytes());
    out[12..16].copy_from_slice(&(unpacked as u32).to_le_bytes());
    out
}

/// The unpacked metadata block of a container.
fn unpacked_block(bytes: &[u8]) -> Vec<u8> {
    let (packed, unpacked) = prelude_lengths(bytes);
    let meta = lzr_decompress(&bytes[16..16 + packed]).unwrap();
    assert_eq!(meta.len(), unpacked);
    meta
}

/// A container rebuilt around an edited metadata block: the block is
/// unpacked, handed to `edit`, re-packed, and the prelude restated to match
/// — so the only thing wrong with the result is what `edit` did.
fn repacked(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (packed, _) = prelude_lengths(bytes);
    let mut meta = unpacked_block(bytes);
    edit(&mut meta);
    let block = lzr_compress(&meta);
    let front = with_prelude_lengths(&bytes[..16], block.len() as u64, meta.len() as u64);
    [&front[..], &block[..], &bytes[16 + packed..]].concat()
}

/// `bytes` re-serialized with the first multi-plane level's truncation-loss
/// table edited: a table the writer's running maximum cannot produce.
fn with_loss_table(bytes: &[u8], edit: impl Fn(&mut [u64])) -> Vec<u8> {
    let mut c = Compressed::from_bytes(bytes).unwrap();
    let level = c.levels.iter_mut().find(|l| l.num_planes >= 2).unwrap();
    edit(&mut level.trunc_loss);
    c.to_bytes()
}

/// How the parser refuses a loss table the writer cannot produce.
const NOT_RUNNING_MAX: &str = "truncation-loss table is not a running maximum from 0";

/// Both entry points must refuse `bytes`: with a `CorruptContainer` naming
/// `reason`, with a codec error when `reason` is `"codec"`, or — where which
/// check fires first depends on the entropy mode of the block — with any
/// error when `reason` is empty.
fn assert_refused(name: &str, case: &str, bytes: &[u8], reason: &str) {
    for (entry, decode) in ENTRY_POINTS {
        match decode(bytes).map(|values| values.len()) {
            Err(_) if reason.is_empty() => {}
            Err(IpcompError::Codec(_)) if reason == "codec" => {}
            Err(IpcompError::CorruptContainer(why)) if why.contains(reason) => {}
            other => panic!("{name} ({entry}): {case}: expected `{reason}`, got {other:?}"),
        }
    }
}

/// The prelude's two lengths, forged every way the format names: each is
/// refused before the unpacked buffer is allocated (the huge claims below
/// would otherwise be 4 GiB allocations).
#[test]
fn forged_prelude_lengths_are_rejected_before_allocation() {
    for (name, bytes, _) in containers() {
        let (packed, unpacked) = prelude_lengths(&bytes);
        let (p, u, len) = (packed as u64, unpacked as u64, bytes.len() as u64);
        let cases: [(&str, u64, u64, &str); 9] = [
            ("packed = 0", 0, u, "implausible metadata length"),
            ("packed = 0, unpacked = 0", 0, 0, "codec"),
            ("packed > source", len, u, "metadata block outruns buffer"),
            ("packed = u32::MAX", u32::MAX as u64, u, "outruns buffer"),
            // One byte into the payload region: the block no longer ends
            // where the packer stopped, and the payload no longer fits.
            ("packed overlaps payload", p + 1, u, ""),
            ("packed short by one", p - 1, u, ""),
            // 2^17 bytes per packed byte is the stated ceiling.
            ("unpacked over the bound", p, (p << 17) + 1, "implausible"),
            ("unpacked = u32::MAX", p, u32::MAX as u64, ""),
            ("unpacked short by one", p, u - 1, "codec"),
        ];
        for (case, packed, unpacked, reason) in cases {
            let forged = with_prelude_lengths(&bytes, packed, unpacked);
            assert_refused(name, case, &forged, reason);
        }
        // An in-bound unpacked claim the block does not fill is refused by
        // the block's own length, having allocated nothing for the claim.
        let forged = with_prelude_lengths(&bytes, p, u + 1);
        assert_refused(
            name,
            "unpacked long by one",
            &forged,
            "disagrees with prelude",
        );
    }
}

/// A metadata block that is itself well-formed LZR but does not hold what the
/// prelude and the payload region say it must.
#[test]
fn repacked_metadata_blocks_are_rejected() {
    for (name, bytes, _) in containers() {
        // Unpacks short: the last record is cut.
        let short = repacked(&bytes, |meta| meta.truncate(meta.len() - 1));
        assert_refused(name, "block one byte short", &short, "");
        // Unpacks long: bytes after the last level's index.
        let long = repacked(&bytes, |meta| meta.push(0));
        assert_refused(
            name,
            "trailing metadata",
            &long,
            "disagrees with its metadata",
        );
        // The block says version 3 − x where the prelude says x.
        let other = repacked(&bytes, |meta| meta[4] = 5 - meta[4]);
        assert_refused(name, "inner version", &other, "version disagrees");
        // Chunk sizes whose prefix sum overruns the source: the final index
        // entry (the last byte of the block) grown past the payload region,
        // by one byte and to 5 GiB — past `u32::MAX`, refused rather than
        // truncated into the offset table.
        let map = ContainerMap::open(&MemorySource::new(bytes.clone())).unwrap();
        let last = map.levels.last().unwrap();
        let size = last.chunk_size(last.num_planes - 1, last.plane_chunk_count(0) - 1) as u64;
        for forged_size in [size + 1, 5 << 30] {
            let overrun = repacked(&bytes, |meta| {
                meta.truncate(meta.len() - varint_len(size));
                write_varint(meta, forged_size);
            });
            assert_refused(
                name,
                &format!("last chunk {forged_size} B"),
                &overrun,
                "chunk payload outruns buffer",
            );
        }
        // Loss tables the writer's running maximum cannot produce.
        for (case, forged) in [
            (
                "loss table not starting at 0",
                with_loss_table(&bytes, |t| t[0] = 1),
            ),
            (
                "loss table decreasing",
                with_loss_table(&bytes, |t| t[1] = t[2] + 1),
            ),
        ] {
            assert_refused(name, case, &forged, NOT_RUNNING_MAX);
        }
        // One byte of payload more than the index accounts for.
        let trailing = [&bytes[..], &[0u8]].concat();
        assert_refused(
            name,
            "trailing payload",
            &trailing,
            "disagrees with its metadata",
        );
    }
}

/// Layout bits the reader does not know are not ignored: any flag bit of
/// the version word other than `LAYOUT_PACKED`, set on a container that
/// carries it, is refused by name.
#[test]
fn layout_flag_on_the_wrong_bytes_is_rejected() {
    for (name, bytes, _) in containers() {
        for (at, bit) in [(5, 0x02), (5, 0x80), (6, 0x01), (7, 0x80)] {
            let mut forged = bytes.clone();
            forged[at] |= bit;
            let case = format!("byte {at} | {bit:#x}");
            assert_refused(name, &case, &forged, RETIRED_LAYOUT);
        }
    }
}

/// `(GETs, bytes)` an open costs over the object-store simulator before it
/// refuses `bytes`.
fn refusal_traffic(bytes: &[u8], open: fn(&dyn ChunkSource) -> bool) -> (u64, u64) {
    let sim = SimulatedObjectStore::new(MemorySource::new(bytes.to_vec()), SimProfile::free());
    assert!(!open(&sim), "opened");
    let stats = sim.stats();
    (stats.requests, stats.bytes)
}

/// The shared-grid v3 container, kept as the bytes the last writer of
/// version word `3 | LAYOUT_PACKED` wrote for the golden field (every level
/// in the finest level's precincts). It lives outside `tests/fixtures`,
/// which holds only what today's writer produces.
fn shared_grid_v3() -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/retired/container_v3_shared_grid.bin");
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The retired layouts, each refused by name on the probe alone — through
/// both container entry points (`ArchiveMap::open` for the archive), and
/// over the object-store simulator at exactly the one probe GET: the flag
/// cleared on every packed container and on the archive, the unflagged
/// version words 1, 2 and 3, `1 | LAYOUT_PACKED`, the shared-grid v3 word
/// `3 | LAYOUT_PACKED` and the archive's word `4 | LAYOUT_PACKED` on a
/// forged 16-byte header, and a whole shared-grid v3 container.
#[test]
fn retired_layouts_are_refused_by_name() {
    let probe = |bytes: &[u8]| (1, bytes.len().min(4096) as u64);
    let open_map: fn(&dyn ChunkSource) -> bool = |s| ContainerMap::open(s).is_ok();
    let open_archive: fn(&dyn ChunkSource) -> bool = |s| ArchiveMap::open(s).is_ok();
    let unflagged = |mut bytes: Vec<u8>| {
        bytes[5] = 0;
        bytes
    };
    let header = |word: u32| [&b"IPCP"[..], &word.to_le_bytes(), &[0; 8]].concat();
    let mut cases: Vec<(String, Vec<u8>)> = containers()
        .into_iter()
        .map(|(name, bytes, _)| (format!("{name} unflagged"), unflagged(bytes)))
        .collect();
    let words = [
        1,
        2,
        3,
        1 | LAYOUT_PACKED,
        3 | LAYOUT_PACKED,
        4 | LAYOUT_PACKED,
    ];
    for word in words {
        cases.push((format!("version word {word:#x}"), header(word)));
    }
    cases.push(("shared-grid v3".into(), shared_grid_v3()));
    for (case, bytes) in cases {
        assert_refused(&case, "retired layout", &bytes, RETIRED_LAYOUT);
        assert_eq!(refusal_traffic(&bytes, open_map), probe(&bytes), "{case}");
    }
    let archive = unflagged(fixture(HOISTED));
    assert_archive_refused("unflagged", &archive, RETIRED_LAYOUT);
    assert_eq!(refusal_traffic(&archive, open_archive), probe(&archive));

    // The shared-grid container is refused for its word, not for a chunk
    // grid that disagrees with today's precincts: both parsers name it.
    let old = shared_grid_v3();
    assert_eq!(old[4..8], (3 | LAYOUT_PACKED).to_le_bytes());
    let retired = IpcompError::CorruptContainer(RETIRED_LAYOUT);
    assert_eq!(Compressed::from_bytes(&old).err(), Some(retired.clone()));
    let source = MemorySource::new(old);
    assert_eq!(ContainerMap::open(&source).err(), Some(retired));
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
/// enforces) must be refused for a resident container as well, since
/// `Compressed` values can also arrive from in-process construction: the
/// decoder's map checks each level's plane and chunk lists once, when it is
/// built, and every plan and retrieval refuses on that verdict.
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

    // A plane list two short of the plane count, and a plane count one short
    // of the plane list: refused, neither indexed past nor decoded from the
    // wrong planes.
    let i = c.levels.iter().position(|l| l.num_planes >= 2).unwrap();
    let mut short = c.clone();
    short.levels[i]
        .planes
        .truncate(c.levels[i].planes.len() - 2);
    let mut lowered = c.clone();
    lowered.levels[i].num_planes -= 1;
    for forged in [short, lowered] {
        assert!(matches!(
            forged.decompress(),
            Err(IpcompError::CorruptContainer(_))
        ));
    }

    // A resident v3 container with one plane's chunk list emptied: budget
    // requests size chunks while planning, over a region and over the whole
    // domain, and must refuse it like the error-bound path does.
    let field = ArrayD::from_fn(Shape::d2(64, 64), |c| {
        (c[0] as f64 * 0.19).sin() * 3.0 + (c[1] as f64 * 0.11).cos()
    });
    let mut v3 = compress(&field, 1e-6, &Config::with_precincts(&[16, 16])).unwrap();
    let level = v3.levels.iter_mut().find(|l| l.num_planes > 0).unwrap();
    level.planes[0].chunks.clear();
    let roi = RoiBox::new(&[0, 0], &[16, 16]);
    let mut dec = ProgressiveDecoder::new(&v3);
    for outcome in [
        dec.retrieve_roi(roi, RetrievalRequest::SizeBudget(1 << 20)),
        dec.retrieve_roi(roi, RetrievalRequest::Bitrate(64.0)),
        dec.retrieve(RetrievalRequest::SizeBudget(1 << 20)),
    ] {
        assert!(
            matches!(outcome, Err(IpcompError::CorruptContainer(_))),
            "{outcome:?}"
        );
    }
}

/// A resident container's loss tables are checked before anything is planned
/// from them: the finest level's table cut to one entry, and one that
/// decreases, are refused by the decoder's `plan`, `retrieve` and
/// `retrieve_roi` as corrupt, as the parser refuses them in a serialized
/// container.
#[test]
fn resident_loss_tables_are_checked_before_planning() {
    let field = ArrayD::from_fn(Shape::d2(64, 64), |c| {
        (c[0] as f64 * 0.19).sin() * 3.0 + (c[1] as f64 * 0.11).cos()
    });
    let c = compress(&field, 1e-6, &Config::default()).unwrap();
    let finest = c.levels.len() - 1;
    assert!(c.levels[finest].num_planes >= 2);
    let mut cut = c.clone();
    cut.levels[finest].trunc_loss.truncate(1);
    let mut decreasing = c.clone();
    let table = &mut decreasing.levels[finest].trunc_loss;
    let last = table.len() - 1;
    assert!(table[last - 1] > 0);
    table[last] = 0;
    let request = RetrievalRequest::ErrorBound(1e-2);
    for forged in [cut, decreasing] {
        let refused = |outcome: Result<(), IpcompError>| {
            assert!(
                matches!(outcome, Err(IpcompError::CorruptContainer(_))),
                "{outcome:?}"
            );
        };
        refused(ProgressiveDecoder::new(&forged).plan(request).map(drop));
        refused(ProgressiveDecoder::new(&forged).retrieve(request).map(drop));
        let roi = RoiBox::new(&[0, 0], &[16, 16]);
        let outcome = ProgressiveDecoder::new(&forged).retrieve_roi(roi, request);
        refused(outcome.map(drop));
        refused(Compressed::from_bytes(&forged.to_bytes()).map(drop));
    }
}

/// A hand-built v3 header with a zero precinct extent: the public grid and
/// region-selection calls return `InvalidInput` instead of panicking, and the
/// decoder refuses the container as corrupt, as the parser does.
#[test]
fn zero_precinct_extent_is_refused_not_panicking() {
    let field = ArrayD::from_fn(Shape::d2(64, 64), |c| {
        (c[0] as f64 * 0.19).sin() * 3.0 + (c[1] as f64 * 0.11).cos()
    });
    let mut v3 = compress(&field, 1e-6, &Config::with_precincts(&[16, 16])).unwrap();
    v3.header.precincts = Some(vec![0, 16]);
    let roi = RoiBox::new(&[0, 0], &[16, 16]);
    assert!(matches!(
        v3.header.precinct_grid(),
        Err(IpcompError::InvalidInput(_))
    ));
    assert!(matches!(
        roi_precinct_masks(&v3.header, &roi),
        Err(IpcompError::InvalidInput(_))
    ));
    let request = RetrievalRequest::ErrorBound(1e-2);
    for outcome in [
        ProgressiveDecoder::new(&v3).retrieve(request).map(drop),
        ProgressiveDecoder::new(&v3)
            .retrieve_roi(roi, request)
            .map(drop),
        Compressed::from_bytes(&v3.to_bytes()).map(drop),
    ] {
        assert!(
            matches!(outcome, Err(IpcompError::CorruptContainer(_))),
            "{outcome:?}"
        );
    }
}

/// The little-endian `u64` at `at`.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `bytes` with `value` written at `at`.
fn patched(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    out
}

/// Where a hoisted archive's parts start: `(directory, hoisted copies,
/// payload)`. The framing header's size follows from its dims and names:
/// magic, version word, `prefix_len`, 28 bytes of counts and bounds, `ndim`,
/// the dims, then each name behind its `u16` length.
fn hoisted_layout(bytes: &[u8]) -> (usize, usize, usize) {
    let map = ArchiveMap::open(&MemorySource::new(bytes.to_vec())).unwrap();
    let names: usize = map.variables().iter().map(|n| 2 + n.len()).sum();
    let dir_at = 16 + 28 + 1 + 8 * map.dims().len() + names;
    let copies_at = dir_at + 17 * map.num_steps() * map.variables().len();
    (dir_at, copies_at, map.meta_len() as usize)
}

/// Offset of each hoisted copy inside the run of copies, from the packed
/// lengths their preludes state.
fn copy_starts(copies: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < copies.len() {
        starts.push(at);
        at += 16 + prelude_lengths(&copies[at..]).0;
    }
    starts
}

/// The hoisted fixture rebuilt around an edited run of hoisted copies:
/// `edit` gets the copies, and `prefix_len` and every directory offset are
/// restated to match — so the only thing wrong with the result is what
/// `edit` did.
fn rehoisted(edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let bytes = fixture(HOISTED);
    let (dir_at, copies_at, payload_at) = hoisted_layout(&bytes);
    let mut copies = bytes[copies_at..payload_at].to_vec();
    edit(&mut copies);
    let prefix_len = (copies_at + copies.len()) as u64;
    let mut out = patched(&bytes[..copies_at], 8, &prefix_len.to_le_bytes());
    for at in (dir_at + 1..copies_at).step_by(17) {
        let offset = u64_at(&out, at) - payload_at as u64 + prefix_len;
        out[at..at + 8].copy_from_slice(&offset.to_le_bytes());
    }
    [&out[..], &copies, &bytes[payload_at..]].concat()
}

/// `ArchiveMap::open` must refuse `bytes` with a `CorruptContainer` naming
/// `reason` (any error when `reason` is empty).
fn assert_archive_refused(case: &str, bytes: &[u8], reason: &str) {
    match try_open_archive(bytes) {
        Err(_) if reason.is_empty() => {}
        Err(IpcompError::CorruptContainer(why)) if why.contains(reason) => {}
        other => panic!("{HOISTED}: {case}: expected `{reason}`, got {other:?}"),
    }
}

/// The archive prefix length, forged every way it can be wrong: past the
/// end of the source (refused before it sizes a read), inside its own field,
/// short of the directory, or anywhere but where the first embedded
/// container starts.
#[test]
fn forged_archive_prefix_lengths_are_rejected() {
    let bytes = fixture(HOISTED);
    let (_, copies_at, payload_at) = hoisted_layout(&bytes);
    let len = bytes.len() as u64;
    for (case, prefix_len, reason) in [
        ("past EOF", len + 1, "implausible archive prefix length"),
        ("u64::MAX", u64::MAX, "implausible archive prefix length"),
        (
            "inside its own field",
            12,
            "implausible archive prefix length",
        ),
        (
            "short of the directory",
            copies_at as u64 - 1,
            "implausible directory size",
        ),
        ("header and directory only", copies_at as u64, "do not tile"),
        ("one short", payload_at as u64 - 1, "do not tile"),
        ("one long", payload_at as u64 + 1, "do not tile"),
        ("the whole file", len, "do not tile"),
    ] {
        let forged = patched(&bytes, 8, &prefix_len.to_le_bytes());
        assert_archive_refused(case, &forged, reason);
    }
}

/// The hoisted copies, forged every way the layout names: a block running
/// past the prefix or past its entry's window, an unpacked length over the
/// expansion bound (refused before the buffer is allocated), copies that do
/// not use up the prefix, a copy in a retired layout, and a copy whose
/// payload does not use up its entry's window.
#[test]
fn forged_hoisted_copies_are_rejected() {
    let bytes = fixture(HOISTED);
    assert!(rehoisted(|_| {}) == bytes, "the rebuild must be exact");
    let (dir_at, copies_at, payload_at) = hoisted_layout(&bytes);
    let copies = &bytes[copies_at..payload_at];
    let starts = copy_starts(copies);
    assert_eq!(starts.len(), 4);
    let last = copies_at + starts[3];
    let (last_packed, _) = prelude_lengths(&bytes[last..]);
    let (packed, _) = prelude_lengths(copies);
    let first_len = u64_at(&bytes, dir_at + 9);
    let u32_le = |v: u64| (v as u32).to_le_bytes();

    let past_prefix = patched(&bytes, last + 8, &u32_le(last_packed as u64 + 1));
    // Padded past the first entry's length, so only its window can refuse
    // the first copy's block.
    let past_window = rehoisted(|c| {
        c[8..12].copy_from_slice(&u32_le(first_len - 15));
        c.resize(c.len() + first_len as usize, 0);
    });
    let over_bound = patched(&bytes, copies_at + 12, &u32_le(((packed as u64) << 17) + 1));
    let huge = patched(&bytes, copies_at + 12, &u32_le(u32::MAX as u64));
    let unflagged = patched(&bytes, copies_at + 5, &[0]);
    // The first copy restated around a loss table that does not start at 0,
    // at the first value that keeps its packed block the same length (so the
    // copy still describes its container's payload exactly).
    let first_at = u64_at(&bytes, dir_at + 1) as usize;
    let first = &bytes[first_at..first_at + first_len as usize];
    let forged = (1..)
        .map(|v| with_loss_table(first, |t| t[0] = v))
        .find(|forged| prelude_lengths(forged).0 == packed)
        .unwrap();
    let forged_loss = rehoisted(|c| {
        c.splice(..starts[1], forged[..16 + packed].iter().copied());
    });
    let cases: [(&str, Vec<u8>, &str); 8] = [
        (
            "packed_len past the prefix",
            past_prefix,
            "metadata block outruns buffer",
        ),
        (
            "packed_len past its window",
            past_window,
            "metadata block outruns buffer",
        ),
        (
            "unpacked_len over the bound",
            over_bound,
            "implausible metadata length",
        ),
        (
            "unpacked_len = u32::MAX",
            huge,
            "implausible metadata length",
        ),
        (
            "a trailing byte",
            rehoisted(|c| c.push(0)),
            "disagrees with its hoisted metadata",
        ),
        (
            "a missing byte",
            rehoisted(|c| {
                c.pop();
            }),
            "",
        ),
        ("an unflagged copy", unflagged, RETIRED_LAYOUT),
        ("a forged loss table", forged_loss, NOT_RUNNING_MAX),
    ];
    for (case, forged, reason) in cases {
        assert_archive_refused(case, &forged, reason);
    }
    // The directory moves a byte between the first two windows, still
    // tiling the payload: the first copy's payload no longer ends where its
    // window does.
    for (case, delta, reason) in [
        ("window one byte long", 1i64, "disagrees with its metadata"),
        ("window one byte short", -1, "chunk payload outruns buffer"),
    ] {
        // Entry 0's len, entry 1's offset, entry 1's len.
        let mut forged = bytes.clone();
        for (at, by) in [
            (dir_at + 9, delta),
            (dir_at + 18, delta),
            (dir_at + 26, -delta),
        ] {
            let moved = (u64_at(&bytes, at) as i64 + by) as u64;
            forged[at..at + 8].copy_from_slice(&moved.to_le_bytes());
        }
        assert_archive_refused(case, &forged, reason);
    }
}

/// The archive header disagreeing with what it hoists, and the version
/// word's flag bits: only the hoisting flag is known, and it is required.
#[test]
fn archive_header_and_flags_are_checked() {
    let bytes = fixture(HOISTED);
    // dims[0] 20 → 21: every hoisted map disagrees.
    let dims = patched(&bytes, 45, &21u64.to_le_bytes());
    assert_archive_refused("dims", &dims, "dims disagree with archive header");
    // Cleared, the flag names a retired layout (`retired_layouts_are_refused_by_name`).
    for (at, value) in [(6, 1), (5, 3), (7, 0x80)] {
        let forged = patched(&bytes, at, &[value]);
        let case = format!("byte {at} = {value}");
        assert_archive_refused(&case, &forged, "not a version-4 archive container");
    }
}

/// The 64² field the resident forgeries below start from.
fn forgery_field() -> ArrayD<f64> {
    ArrayD::from_fn(Shape::d2(64, 64), |c| {
        (c[0] as f64 * 0.19).sin() * 3.0 + (c[1] as f64 * 0.11).cos()
    })
}

/// A v3 container whose header loses its precinct extents while its levels
/// stay precinct-major: the spans have no grid to match, so the resident
/// decoder refuses it as corrupt — it does not decode the precinct-major
/// codes as if they were in canonical order — as the parser refuses its
/// bytes.
#[test]
fn v2_header_over_precinct_levels_is_refused() {
    let mut forged = compress(&forgery_field(), 1e-6, &Config::with_precincts(&[16, 16])).unwrap();
    forged.header.precincts = None;
    let spans = IpcompError::CorruptContainer("precinct spans inconsistent with grid geometry");
    let request = RetrievalRequest::ErrorBound(1e-2);
    assert_eq!(forged.decompress().map(drop), Err(spans.clone()));
    let plan = ProgressiveDecoder::new(&forged).plan(request);
    assert_eq!(plan.map(drop), Err(spans.clone()));
    let retrieved = ProgressiveDecoder::new(&forged).retrieve(request);
    assert_eq!(retrieved.map(drop), Err(spans));
    let parsed = Compressed::from_bytes(&forged.to_bytes());
    assert!(
        matches!(parsed, Err(IpcompError::CorruptContainer(_))),
        "{parsed:?}"
    );
}

/// Why a container whose level count is not its dims' is refused.
const LEVELS_VS_DIMS: &str = "declared level count inconsistent with grid dimensions";

/// A container whose dims no longer give its level list — 64 × 64 declared
/// as 64 × 65, which has one level more — is refused before anything is
/// planned: by the resident decoder's `plan`, `retrieve` and
/// `retrieve_roi`, by the range planner a store prices requests with, and
/// at the open of its bytes (`ContainerMap::open`, `Compressed::from_bytes`),
/// not at the first retrieve. The same forgery in a hoisted archive copy is
/// refused by `ArchiveMap::open`.
#[test]
fn geometry_inconsistent_containers_are_refused_before_planning() {
    let mut forged = compress(&forgery_field(), 1e-6, &Config::default()).unwrap();
    forged.header.dims = vec![64, 65];
    let refused = |outcome: Result<(), IpcompError>| {
        assert_eq!(outcome, Err(IpcompError::CorruptContainer(LEVELS_VS_DIMS)));
    };
    let request = RetrievalRequest::ErrorBound(1e-2);
    let roi = RoiBox::new(&[0, 0], &[16, 16]);
    refused(ProgressiveDecoder::new(&forged).plan(request).map(drop));
    refused(ProgressiveDecoder::new(&forged).retrieve(request).map(drop));
    let outcome = ProgressiveDecoder::new(&forged).retrieve_roi(roi, request);
    refused(outcome.map(drop));
    let map = ContainerMap::from_compressed(&forged);
    refused(plan_request(&map, &[], request, None).map(drop));
    let bytes = forged.to_bytes();
    refused(ContainerMap::open(&MemorySource::new(bytes.clone())).map(drop));
    refused(Compressed::from_bytes(&bytes).map(drop));

    // The first hoisted copy's first dim doubled to past the largest: one
    // level more than the copy lists.
    let archive = rehoisted(|copies| {
        let front = 16 + prelude_lengths(copies).0;
        let copy = repacked(&copies[..front], |meta| {
            // Magic, version word, `ndim`, then the dims as varints.
            let ndim = meta[8] as usize;
            let largest = *meta[9..9 + ndim].iter().max().unwrap();
            assert!(largest < 64, "dims must stay one-byte varints");
            meta[9] = 2 * largest;
        });
        copies.splice(..front, copy);
    });
    assert_archive_refused("doubled dim", &archive, LEVELS_VS_DIMS);
}

/// A hand-built finest level claiming `usize::MAX` values (no planes, loss
/// table `[0]`): the decoder allocates a level's accumulator on its first
/// full-domain load, past the map's verdict, so `new` returns and planning
/// and retrieval refuse the level instead of sizing a buffer by it.
#[test]
fn a_level_claiming_usize_max_values_is_refused_not_allocated() {
    let mut forged = compress(&forgery_field(), 1e-6, &Config::default()).unwrap();
    let finest = forged.levels.last_mut().unwrap();
    finest.n_values = usize::MAX;
    finest.planes.clear();
    finest.num_planes = 0;
    finest.trunc_loss = vec![0];
    let refused = |outcome: Result<(), IpcompError>| {
        assert_eq!(
            outcome,
            Err(IpcompError::CorruptContainer(
                "level size inconsistent with grid dimensions"
            ))
        );
    };
    let mut dec = ProgressiveDecoder::new(&forged);
    refused(dec.plan(RetrievalRequest::Full).map(drop));
    refused(dec.retrieve(RetrievalRequest::Full).map(drop));
}
