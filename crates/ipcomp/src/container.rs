//! Compressed container format.
//!
//! The container is what lands on disk (or in an object store): a small header, the
//! always-loaded anchor block, and — per interpolation level — a metadata record plus
//! one independently addressable block per bitplane (the numbered blocks of the
//! paper's Fig. 2). Retrieval reads the header + anchors + metadata, asks the
//! optimizer which plane blocks to fetch, and loads only those.
//!
//! ## Versions
//!
//! The version says what a level's chunks are; the layout (next section)
//! says where metadata and chunks sit in the file.
//!
//! * **v2** (current) — planes are split into fixed-size entropy chunks
//!   ([`crate::bitplane::CHUNK_BYTES`] packed bytes each, or one whole-plane
//!   chunk when `chunk_bytes` is 0) and the level metadata carries a **chunk
//!   index**: every chunk's compressed size. A reader can therefore compute
//!   the absolute offset of any `(level, plane, chunk)` triple from metadata
//!   alone and fetch chunks independently — which is what lets a ranged
//!   read fetch only what it plans and stream planes region by region.
//! * **v3** — v2 with a precinct grid in the header: levels are stored
//!   precinct-major with one chunk per `(plane, precinct)` pair.
//!
//! ## Layout
//!
//! ```text
//! version word = version | LAYOUT_PACKED
//!   magic "IPCP" | version word u32 | packed_len u32 | unpacked_len u32      16-byte prelude
//!   metadata block: lzr_compress of                                          packed_len bytes
//!       magic | version u32 | header | anchors | per level: record + chunk index
//!   every chunk, level-major (coarsest first), plane-major, in index order   to the last byte
//! ```
//!
//! The version word's low byte is the version and its second byte the layout
//! flags. The reader accepts `2 | LAYOUT_PACKED` and `3 | LAYOUT_PACKED` and
//! refuses every other word right after reading it, by name
//! ([`RETIRED_LAYOUT`]): version 1 and the interleaved layouts that wrote
//! each level's record beside its payload (version word without the flag)
//! are retired — nothing writes them, and git history keeps their reader.
//!
//! ## Opening in at most two GETs
//!
//! Planning needs the header, the anchors and every level's loss table and
//! chunk index before it can ask for a single payload byte, so the layout
//! puts exactly those bytes first and packs them — a chunk index is
//! thousands of near-equal one- or two-byte varints, which LZR takes to a few
//! percent of their size (a 1024² field in 32² precincts: 259 KB to 3.7 KB).
//! [`ContainerMap::open`] then costs:
//!
//! 1. one probe GET of `min(source length, META_FETCH = 4096)` bytes, which
//!    holds the prelude and usually the whole block;
//! 2. if `16 + packed_len` runs past the probe, one GET of exactly the rest.
//!
//! The block is unpacked once and parsed as a slice; each level's payload is
//! located by a running offset that starts at the end of the block.
//!
//! A version-4 archive opens the same way, one level up (see
//! [`crate::archive`]): its prefix — framing header, directory, and a
//! verbatim copy of every embedded container's prelude and block — states
//! its own length right after the version word, so
//! [`ArchiveMap::open`](crate::ArchiveMap::open) is the probe plus at most
//! one GET of exactly the rest of the prefix, however many steps it holds.
//! Each copy goes through the same function as a standalone container
//! (`ContainerMap::read`), reading the prelude from the archive's resident
//! prefix instead of from the container's own first bytes.
//!
//! ### The unpacked-length bound
//!
//! `unpacked_len` is attacker-controlled and sizes an allocation, so before
//! anything is allocated `open` requires
//!
//! ```text
//! packed_len   ≤ source length − 16
//! unpacked_len ≤ packed_len × 2^17            (META_MAX_EXPANSION)
//! ```
//!
//! and afterwards that the block unpacks to exactly `unpacked_len` bytes
//! (LZR itself refuses a stream that declares more than it is allowed and
//! grows its output only as it decodes it). 2^17 is a ceiling this writer
//! cannot reach: LZR's longest match is 2^16 bytes and costs five token bytes
//! of at least three distinct values, which the rANS stage cannot take below
//! 7.6 bits — under 69 000 output bytes per packed byte however degenerate
//! the table; the all-equal tables in this module's tests reach 29 000. From
//! there on the old rule holds against the resident block: every count must
//! fit in what remains of the *unpacked* metadata (an index entry is at
//! least one byte) before anything proportional to it is allocated, the
//! chunk sizes' running sum must stay inside the source, and at the end both
//! the block and the payload region must be used up exactly.
//!
//! ## One parser, one writer
//!
//! One function reads this grammar: `ContainerMap::read`, from a resident
//! slice that starts with the prelude. [`ContainerMap::open`] hands it the
//! front its GETs fetched, [`Compressed::from_bytes`] the whole buffer (then
//! copies each chunk out at the offset the map recorded — the one place an
//! [`EncodedLevel`] is built from container bytes), and
//! [`ArchiveMap::open`](crate::ArchiveMap::open) each hoisted copy in turn.
//! A ranged read never builds one: `LevelMap::fetch_planes` returns each
//! fetched chunk as a zero-copy slice of the buffer its run was read into,
//! and the decoder's pipeline reads the chunks from there.
//! Deserialization is hardened as described above, so corrupt or adversarial
//! containers fail with [`IpcompError`] instead of panicking or ballooning
//! memory — whichever entry point they arrive through.
//!
//! The parser's own checks are the bounded reading of the bytes: lengths,
//! counts against what remains, offsets. Whether the metadata agrees with
//! itself — the level list against the dims, loss tables, precinct spans
//! against the header's grid — is one crate-private rule set,
//! `level_geometry` then `check_levels`, run by both builders of a
//! [`ContainerMap`]: the parser refuses on it, and
//! [`ContainerMap::from_compressed`] keeps its outcome as the map's one
//! verdict, which is all the read path checks.
//!
//! `Compressed::walk` is the only writer: it emits the grammar as a sequence
//! of `Piece`s, and everything that needs to know the layout is a view of
//! that one walk — [`Compressed::to_bytes`] packs the metadata pieces and
//! appends the chunk pieces, and [`Compressed::base_bytes`] measures the
//! packed front. [`ContainerMap::from_compressed`] lays the chunks out in
//! the walk's order from there (the writer-side cross-check of the parser's
//! offsets, and the map a decoder over a resident container reads). How a
//! level's plane bytes are cut into chunks is not this module's decision:
//! both sides ask the level's [`RegionScheme`].

use std::sync::Arc;

use ipc_codecs::lzr::lzr_decompress_bounded;
use ipc_codecs::varint::{read_varint, write_varint};
use ipc_codecs::{lzr_compress, zigzag_decode, zigzag_encode};

use ipc_tensor::Shape;

use crate::bitplane::{check_plane_range, EncodedLevel, EncodedPlane, RegionScheme};
use crate::config::Interpolation;
use crate::error::{IpcompError, Result};
use crate::interp::{level_count, num_levels};
use crate::optimizer::CostTable;
use crate::pipeline::{region_list, LevelChunks};
use crate::precinct::PrecinctGrid;
use crate::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource};

/// Magic bytes identifying an IPComp container.
pub const MAGIC: &[u8; 4] = b"IPCP";
/// Container format version written for the byte-granular chunk layout
/// (no precinct grid — the default).
pub const VERSION: u32 = 2;
/// Container format version written when the header carries a precinct grid:
/// levels are stored precinct-major with one entropy chunk per
/// `(plane, precinct)` pair, enabling spatial ROI retrieval.
pub const VERSION_ROI: u32 = 3;
/// Layout flag of the version word (its second byte): the file is a 16-byte
/// prelude, the LZR-packed metadata block, then all chunk payload. Every
/// version word the reader accepts carries it.
pub const LAYOUT_PACKED: u32 = 1 << 8;
/// Why a version word is refused: anything but a packed v2/v3 container (or,
/// through [`crate::ArchiveMap::open`], an unflagged v4 archive) is either
/// unknown or one of the retired interleaved layouts.
pub const RETIRED_LAYOUT: &str = "unsupported version word (interleaved layouts are retired)";
/// Prelude of a container: magic, version word, packed and unpacked
/// metadata-block lengths (`u32` each).
const PRELUDE_BYTES: usize = 16;
/// Most the metadata block may claim to unpack to, per packed byte — checked
/// before the unpacked buffer is allocated (see the module docs).
const META_MAX_EXPANSION: u64 = 1 << 17;

/// Upper bound on the number of scalar elements a header may declare
/// (2^48 ≈ 280 T elements); anything larger is treated as corrupt before any
/// allocation is attempted.
const MAX_ELEMENTS: u64 = 1 << 48;

/// Why an index is refused that gives a region without coefficients a
/// nonzero chunk: such a region is never decoded, so its chunk must be empty.
pub(crate) const EMPTY_REGION_PAYLOAD: &str = "empty chunk region carries payload bytes";

/// Upper bound on the number of precincts a version-3 header may declare;
/// caps the per-level span tables a parser allocates before any payload
/// validation can bound them.
pub(crate) const MAX_PRECINCTS: u64 = 1 << 22;

/// Container header: everything needed to plan a retrieval without touching payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Grid dimensions of the original field.
    pub dims: Vec<usize>,
    /// Absolute error bound the data was quantized with.
    pub error_bound: f64,
    /// Interpolation formula used by the predictor.
    pub interpolation: Interpolation,
    /// Number of interpolation levels (level 1 = finest).
    pub num_levels: u32,
    /// Levels `1..=progressive_levels` are bitplane-progressive; coarser levels are
    /// always loaded in full.
    pub progressive_levels: u32,
    /// Prefix bits used by the predictive bitplane coder.
    pub prefix_bits: u8,
    /// Whether predictive coding was applied.
    pub predictive_coding: bool,
    /// Value range (max − min) of the original data, stored for relative-bound
    /// retrievals and PSNR reporting.
    pub value_range: f64,
    /// Spatial precinct extents (one per dimension, in domain coordinates).
    /// `Some` marks the version-3 precinct-major layout; `None` the
    /// byte-granular version-2 layout.
    pub precincts: Option<Vec<usize>>,
}

impl Header {
    /// Reconstruct the [`Shape`] of the original field.
    pub fn shape(&self) -> Shape {
        Shape::new(&self.dims)
    }

    /// Number of scalar elements in the original field.
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// The precinct grid of a version-3 container, `None` otherwise.
    ///
    /// # Errors
    ///
    /// [`IpcompError::InvalidInput`] if the extents are invalid for the
    /// domain (a zero extent, or fewer extents than dimensions) — possible
    /// only on a hand-built header: the parser refuses such a container.
    pub fn precinct_grid(&self) -> Result<Option<PrecinctGrid>> {
        (self.precincts.as_ref())
            .map(|e| PrecinctGrid::new(&self.dims, e))
            .transpose()
    }

    /// Container format version [`Compressed::to_bytes`] writes for this header.
    pub fn version(&self) -> u32 {
        if self.precincts.is_some() {
            VERSION_ROI
        } else {
            VERSION
        }
    }
}

/// A complete IPComp compressed artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Compressed {
    /// Container header.
    pub header: Header,
    /// LZR-compressed zigzag-varint anchor codes (always loaded).
    pub anchors: Vec<u8>,
    /// Per-level bitplane blocks, ordered from the **coarsest** level
    /// (`num_levels`) down to the finest (level 1).
    pub levels: Vec<EncodedLevel>,
}

impl Compressed {
    /// The one walk of the write grammar: emit the container's content in
    /// its format version ([`Header::version`]), piece by piece. Versions 2
    /// and 3 differ only in the header's precinct extents. Each level's
    /// record is followed by its chunks; the layout keeps the order within
    /// each kind — metadata pieces into the block, chunks after it.
    fn walk(&self, mut emit: impl FnMut(Piece<'_>)) {
        let h = &self.header;
        emit(Piece::Bytes(MAGIC));
        emit(Piece::Bytes(&h.version().to_le_bytes()));
        emit(Piece::Varint(h.dims.len() as u64));
        for &d in &h.dims {
            emit(Piece::Varint(d as u64));
        }
        emit(Piece::Bytes(&h.error_bound.to_le_bytes()));
        emit(Piece::Bytes(&[h.interpolation.id()]));
        emit(Piece::Bytes(&h.num_levels.to_le_bytes()));
        emit(Piece::Bytes(&h.progressive_levels.to_le_bytes()));
        emit(Piece::Bytes(&[h.prefix_bits, h.predictive_coding as u8]));
        emit(Piece::Bytes(&h.value_range.to_le_bytes()));
        // v3 only: one extent per dimension, right after the fixed header.
        for &e in h.precincts.iter().flatten() {
            emit(Piece::Varint(e as u64));
        }

        emit(Piece::Varint(self.anchors.len() as u64));
        emit(Piece::Bytes(&self.anchors));

        emit(Piece::Varint(self.levels.len() as u64));
        for level in &self.levels {
            emit(Piece::Varint(level.n_values as u64));
            emit(Piece::Bytes(&[level.num_planes]));
            for &loss in &level.trunc_loss {
                emit(Piece::Varint(loss));
            }
            // Chunk index first (all sizes, no payload), then the payload
            // bytes plane-major: a reader can address any chunk from the
            // metadata alone.
            emit(Piece::Varint(level.chunk_bytes as u64));
            for plane in &level.planes {
                emit(Piece::Varint(plane.chunks.len() as u64));
                for chunk in &plane.chunks {
                    emit(Piece::Varint(chunk.len() as u64));
                }
            }
            let chunks = level.planes.iter().flat_map(|plane| &plane.chunks);
            chunks.for_each(|chunk| emit(Piece::Chunk(chunk)));
        }
    }

    /// The front of the current serialization — prelude plus the packed
    /// metadata block — with room reserved for `payload` more bytes. The
    /// block is `lzr_compress` of the walk's non-chunk pieces (which refuses,
    /// by panicking, the 4 GiB of metadata a `u32` length could not state).
    fn packed_front(&self, payload: usize) -> Vec<u8> {
        let mut meta = Vec::new();
        self.walk(|piece| {
            if !matches!(piece, Piece::Chunk(_)) {
                piece.write(&mut meta);
            }
        });
        let packed = lzr_compress(&meta);
        let mut out = Vec::with_capacity(PRELUDE_BYTES + packed.len() + payload);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.header.version() | LAYOUT_PACKED).to_le_bytes());
        for len in [packed.len(), meta.len()] {
            let len = u32::try_from(len).expect("lzr_compress takes under 4 GiB");
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&packed);
        out
    }

    /// Bytes that every retrieval must load regardless of fidelity: the
    /// prelude and the packed metadata block (header, anchors, per-level
    /// truncation-loss tables and chunk index) — everything of
    /// [`Compressed::to_bytes`] ahead of the first chunk, so
    /// `base_bytes() + payload_bytes() == to_bytes().len()`. Packs the
    /// metadata to measure it: a pass over the index, not a field read.
    pub fn base_bytes(&self) -> usize {
        self.packed_front(0).len()
    }

    /// Total compressed payload bytes (all bitplane blocks of all levels).
    pub fn payload_bytes(&self) -> usize {
        self.levels.iter().map(EncodedLevel::payload_bytes).sum()
    }

    /// Total size of the compressed artifact; equals `to_bytes().len()`.
    pub fn total_bytes(&self) -> usize {
        self.base_bytes() + self.payload_bytes()
    }

    /// Serialize the container to a byte buffer: prelude, packed metadata
    /// block, then every chunk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.packed_front(self.payload_bytes());
        self.walk(|piece| {
            if let Piece::Chunk(chunk) = piece {
                out.extend_from_slice(chunk);
            }
        });
        out
    }

    /// Deserialize a container produced by [`Compressed::to_bytes`]: the
    /// metadata is the one parser's over the slice, and every chunk is copied
    /// out at the offset the map recorded for it — there is no second parser
    /// to drift.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let map = ContainerMap::read(&mut MetaCursor::new(buf), buf.len() as u64)?;
        let levels = map.levels.iter().map(|level| {
            // The index's running offsets, plane-major; `read` verified they
            // stay inside the buffer.
            let ends = level.offsets.windows(2);
            let mut chunks = ends.map(|w| buf[w[0] as usize..w[1] as usize].to_vec());
            let n = level.scheme.num_regions();
            EncodedLevel {
                n_values: level.n_values,
                num_planes: level.num_planes,
                planes: (0..level.num_planes)
                    .map(|_| EncodedPlane {
                        chunks: chunks.by_ref().take(n).collect(),
                    })
                    .collect(),
                trunc_loss: level.trunc_loss.clone(),
                chunk_bytes: level.chunk_bytes,
                precinct_spans: level.precinct_spans().map(<[usize]>::to_vec),
            }
        });
        let levels = levels.collect();
        Ok(Self {
            header: map.header,
            anchors: map.anchors,
            levels,
        })
    }
}

/// One item of the serialized stream, as `Compressed::walk` emits it.
enum Piece<'a> {
    /// Metadata bytes already in wire form (magic, the little-endian
    /// fixed-width scalars, the anchor block).
    Bytes(&'a [u8]),
    /// A metadata count or size, written as a varint.
    Varint(u64),
    /// One entropy chunk's payload.
    Chunk(&'a [u8]),
}

impl Piece<'_> {
    /// Append the piece's wire encoding.
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Piece::Varint(v) => write_varint(out, *v),
            Piece::Bytes(b) | Piece::Chunk(b) => out.extend_from_slice(b),
        }
    }
}

/// Every byte of a container (as [`Compressed::to_bytes`] writes it) ahead
/// of its payload: the prelude and the metadata block.
pub(crate) fn metadata_front(container: &[u8]) -> &[u8] {
    let packed_len = u32::from_le_bytes(container[8..12].try_into().expect("a 16-byte prelude"));
    &container[..PRELUDE_BYTES + packed_len as usize]
}

/// The header's precinct grid, validated (`None` for version 2): extents
/// are bounded below (≥ 1) by the grid constructor, and the precinct count is
/// capped before any span table is allocated. Both builders of a
/// [`ContainerMap`] build the grid it keeps through here.
fn validated_grid(header: &Header) -> Result<Option<PrecinctGrid>> {
    let Some(extents) = &header.precincts else {
        return Ok(None);
    };
    let grid = PrecinctGrid::new(&header.dims, extents)
        .map_err(|_| IpcompError::CorruptContainer("invalid precinct extents"))?;
    if grid.num_precincts() as u64 > MAX_PRECINCTS {
        return Err(IpcompError::CorruptContainer("implausible precinct count"));
    }
    Ok(Some(grid))
}

/// What the header fixes of each level entry, coarsest first: its
/// coefficient count and, under a grid, its precinct spans (entry `idx` is
/// interpolation level `num_levels - idx`).
type Geometry = Vec<(usize, Option<Vec<usize>>)>;

/// The first half of the container's one rule set ([`check_levels`] is the
/// second): the level list holds `listed` entries, as many as the header
/// declares and as many as its shape has, and their [`Geometry`] under the
/// validated `grid`. Both builders of a [`ContainerMap`] derive it once; the
/// parser reads each version-3 level's chunk index by its spans.
fn level_geometry(header: &Header, grid: Option<&PrecinctGrid>, listed: usize) -> Result<Geometry> {
    if listed != header.num_levels as usize {
        return Err(IpcompError::CorruptContainer(
            "level list does not match declared level count",
        ));
    }
    let shape = header.shape();
    if header.num_levels != num_levels(&shape) {
        return Err(IpcompError::CorruptContainer(
            "declared level count inconsistent with grid dimensions",
        ));
    }
    let spans = |l| grid.map(|g| g.level_spans(&shape, l));
    let level = |l| (level_count(&shape, l), spans(l));
    Ok((1..=header.num_levels).rev().map(level).collect())
}

/// The one rule set over a container's level metadata, run wherever a
/// [`ContainerMap`] is built: the parser refuses a container that breaks it,
/// and [`ContainerMap::from_compressed`] records the outcome as the map's
/// verdict. Against the header's [`level_geometry`], the cascade (which
/// indexes each level's codes by traversal position) and the optimizer:
///
/// * every level holds exactly the coefficients the shape gives its level,
///   in at most 63 planes (a decode mask is a `u64`);
/// * every truncation-loss table has `num_planes + 1` entries, the first 0,
///   none smaller than the one before: the writer's table is a running
///   maximum from a lossless 0, and the optimizer relies on both (keeping
///   every plane costs nothing, dropping more never costs less);
/// * a level has precinct spans if and only if the header has a grid
///   ([`validated_grid`]'s), and they are the grid's spans for that level.
fn check_levels(geometry: &Geometry, levels: &[LevelMap]) -> Result<()> {
    for ((n_values, spans), level) in geometry.iter().zip(levels) {
        if level.n_values != *n_values {
            return Err(IpcompError::CorruptContainer(
                "level size inconsistent with grid dimensions",
            ));
        }
        if level.num_planes > 63 {
            return Err(IpcompError::CorruptContainer("plane count out of range"));
        }
        let loss = &level.trunc_loss;
        if loss.len() != level.num_planes as usize + 1
            || loss[0] != 0
            || loss.windows(2).any(|w| w[1] < w[0])
        {
            return Err(IpcompError::CorruptContainer(
                "truncation-loss table is not a running maximum from 0",
            ));
        }
        if level.precinct_spans() != spans.as_deref() {
            return Err(IpcompError::CorruptContainer(
                "precinct spans inconsistent with grid geometry",
            ));
        }
    }
    Ok(())
}

/// Chunk index of one level inside a serialized container: every chunk's
/// compressed size and absolute byte offset, plus the metadata the decode and
/// planning paths need (`trunc_loss`, plane count, grid geometry) — but no
/// payload bytes.
///
/// Whole-plane levels (`chunk_bytes` 0) appear as one whole-payload chunk
/// per plane, so a range planner reads them per plane.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMap {
    /// Number of coefficients in the level.
    pub n_values: usize,
    /// Number of significant bitplanes.
    pub num_planes: u8,
    /// Worst-case truncation loss per discard count (see
    /// [`EncodedLevel::trunc_loss`]).
    pub trunc_loss: Vec<u64>,
    /// Packed bytes per entropy chunk; `0` for whole-plane chunks.
    pub chunk_bytes: usize,
    /// How the level's plane bytes are cut into chunks, built once when the
    /// map is and shared by every decode of the level.
    scheme: Arc<RegionScheme>,
    /// Running payload offsets, plane-major: with `n` the scheme's region
    /// count and `i = p·n + k`, chunk `k` of plane `p` spans
    /// `offsets[i]..offsets[i + 1]`. That is `planes × n + 1` entries, the
    /// last one the level's payload end; every plane has exactly `n` chunks,
    /// as the parser refuses any other count and `from_compressed` maps no
    /// other.
    offsets: Vec<u64>,
}

impl LevelMap {
    /// The level's region scheme: how plane bytes split into chunks and which
    /// coefficients each chunk covers.
    pub fn scheme(&self) -> &Arc<RegionScheme> {
        &self.scheme
    }

    /// Per-precinct coefficient spans of a version-3 level (chunk `k` of
    /// every plane covers precinct `k`), `None` for byte-granular layouts.
    pub fn precinct_spans(&self) -> Option<&[usize]> {
        self.scheme.precinct_spans()
    }

    /// Number of chunks the index records for plane `p`.
    pub fn plane_chunk_count(&self, p: u8) -> usize {
        debug_assert!(p < self.num_planes);
        self.scheme.num_regions()
    }

    /// Byte range of chunks `[k0, k1)` of plane `p`, contiguous on disk.
    fn span(&self, p: u8, k0: usize, k1: usize) -> ByteRange {
        debug_assert!(k0 <= k1 && k1 <= self.plane_chunk_count(p));
        let base = p as usize * self.plane_chunk_count(p);
        let (start, end) = (self.offsets[base + k0], self.offsets[base + k1]);
        ByteRange::new(start, (end - start) as usize)
    }

    /// Compressed size of chunk `k` of plane `p`.
    pub fn chunk_size(&self, p: u8, k: usize) -> usize {
        self.chunk_range(p, k).len
    }

    /// Absolute byte range of chunk `k` of plane `p` in the container.
    pub fn chunk_range(&self, p: u8, k: usize) -> ByteRange {
        self.span(p, k, k + 1)
    }

    /// Total compressed size of plane `p`.
    pub fn plane_bytes(&self, p: u8) -> usize {
        self.span(p, 0, self.plane_chunk_count(p)).len
    }

    /// Total compressed payload bytes of the level.
    pub fn payload_bytes(&self) -> usize {
        (self.offsets[self.offsets.len() - 1] - self.offsets[0]) as usize
    }

    /// The chunk runs a fetch reads as one byte range each, as `[k0, k1)`
    /// chunk-id intervals: every chunk on its own, or — over a `region`, the
    /// ascending ids of the precincts it reads — the maximal runs of
    /// consecutive ids. Chunk ids tile a plane's payload back to back, so a
    /// run is contiguous on disk; reading per run keeps a region's request
    /// list proportional to its precinct rows, not its precinct count times
    /// planes.
    pub fn chunk_runs(&self, region: Option<&[usize]>) -> Vec<(usize, usize)> {
        if self.num_planes == 0 {
            return Vec::new();
        }
        let Some(ids) = region else {
            return (0..self.scheme.num_regions()).map(|k| (k, k + 1)).collect();
        };
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &k in ids {
            match runs.last_mut() {
                Some(run) if run.1 == k => run.1 = k + 1,
                _ => runs.push((k, k + 1)),
            }
        }
        runs
    }

    /// Byte range of every run of planes `[plane_lo, plane_hi)`, plane-major
    /// (the container's own payload order, so adjacent entries are adjacent
    /// on disk and coalesce well).
    pub fn run_ranges(
        &self,
        plane_lo: u8,
        plane_hi: u8,
        runs: &[(usize, usize)],
    ) -> Vec<ByteRange> {
        (plane_lo..plane_hi)
            .flat_map(|p| runs.iter().map(move |&(k0, k1)| self.span(p, k0, k1)))
            .collect()
    }

    /// Cut the load of planes `[plane_lo, plane_hi)` of the ascending
    /// precinct ids `region` lists, or of every chunk of the level, from
    /// `bufs` — the buffers of the load's runs, one per
    /// [`LevelMap::chunk_runs`] run in [`LevelMap::run_ranges`] order, as a
    /// request's fetch hands them over — and return it: its region list
    /// (those ids, less regions without coefficients) and a table,
    /// plane-major and list-ordered, of zero-copy slices of those buffers.
    /// The table holds `(plane_hi − plane_lo) × list length` entries,
    /// however many chunks the level has.
    pub(crate) fn fetch_planes<'b>(
        &self,
        plane_lo: u8,
        plane_hi: u8,
        region: Option<&[usize]>,
        bufs: &'b [Bytes],
    ) -> Result<LevelChunks<'b>> {
        check_plane_range(self.num_planes, plane_lo, plane_hi)?;
        let regions = region_list(&self.scheme, region);
        let runs = self.chunk_runs(region);
        debug_assert_eq!(bufs.len(), (plane_hi - plane_lo) as usize * runs.len());
        // Every buffer is its run's exact length (the fetch read it with
        // `read_ranges_exact`), and the parser checked that a run's chunks
        // tile it, so the slices are in bounds. The runs cover the list's
        // ids in order, so the table is list-ordered within each plane.
        let mut chunks = Vec::with_capacity((plane_hi - plane_lo) as usize * regions.len());
        let mut bufs = bufs.iter();
        for p in plane_lo..plane_hi {
            let mut ids = regions.iter().copied().peekable();
            for &(k0, k1) in &runs {
                let buf: &'b [u8] = bufs.next().expect("one buffer per run");
                let run = self.span(p, k0, k1);
                debug_assert_eq!(
                    buf.len(),
                    run.len,
                    "run buffer of plane {p}, chunks {k0}..{k1}"
                );
                while let Some(k) = ids.next_if(|&k| k < k1) {
                    let r = self.chunk_range(p, k);
                    let at = (r.offset - run.offset) as usize;
                    chunks.push(&buf[at..at + r.len]);
                }
            }
        }
        Ok(LevelChunks {
            scheme: Arc::clone(&self.scheme),
            num_planes: self.num_planes,
            plane_lo,
            plane_hi,
            regions,
            chunks,
        })
    }
}

/// Size of the probe GET that opens a container or an archive: its prelude
/// and, usually, its whole metadata front.
const META_FETCH: usize = 4096;

/// The metadata front of `source` in at most two GETs: a probe of
/// `min(len, META_FETCH)` bytes, from which `front_len` reads how long the
/// front is — refusing, on the probe alone, anything it cannot accept — then,
/// when the front is longer than the probe, one GET of exactly the rest.
/// `front_len` must not claim more than the source holds.
pub(crate) fn read_front(
    source: &dyn ChunkSource,
    front_len: impl FnOnce(&[u8]) -> Result<u64>,
) -> Result<Bytes> {
    let fetch = |offset: u64, len: u64| -> Result<Bytes> {
        let mut bufs = read_ranges_exact(source, &[ByteRange::new(offset, len as usize)])?;
        Ok(bufs.pop().expect("one buffer per range"))
    };
    let probe = fetch(0, source.len().min(META_FETCH as u64))?;
    let want = front_len(&probe)?;
    let have = probe.len() as u64;
    if want <= have {
        return Ok(probe.slice(0..want as usize));
    }
    let rest = fetch(have, want - have)?;
    Ok(Bytes::from_vec([&probe[..], &rest[..]].concat()))
}

/// Forward reader over resident metadata — a container's front or unpacked
/// metadata block, an archive's prefix — handing out slices of it.
pub(crate) struct MetaCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MetaCursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let bytes = self.buf[self.pos..]
            .get(..n)
            .ok_or(IpcompError::CorruptContainer("eof"))?;
        self.pos += n;
        Ok(bytes)
    }

    fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.read_bytes(N)?.try_into().expect("N bytes"))
    }

    pub(crate) fn read_u8(&mut self) -> Result<u8> {
        Ok(self.read_array::<1>()?[0])
    }

    pub(crate) fn read_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.read_array()?))
    }

    pub(crate) fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.read_array()?))
    }

    pub(crate) fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.read_array()?))
    }

    pub(crate) fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.read_array()?))
    }

    fn read_varint(&mut self) -> Result<u64> {
        Ok(read_varint(self.buf, &mut self.pos)?)
    }

    /// Magic plus version word — how every container and archive starts.
    pub(crate) fn read_magic_version(&mut self) -> Result<u32> {
        if self.read_array::<4>()? != *MAGIC {
            return Err(IpcompError::CorruptContainer("bad magic"));
        }
        self.read_u32()
    }
}

/// Metadata-only view of one serialized container: header, anchors, and the
/// per-level chunk index with **absolute byte offsets** — everything needed
/// to plan a retrieval and fetch exactly the chunk ranges the plan selects,
/// without ever materializing payload that wasn't asked for.
///
/// Opened over any [`ChunkSource`]; parsing never touches payload, and a
/// container — whatever its size — costs one or two GETs to open (see the
/// module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMap {
    /// Container header.
    pub header: Header,
    /// LZR-compressed anchor codes (always loaded — every reconstruction
    /// needs them, so the map carries them rather than re-fetching).
    pub anchors: Vec<u8>,
    /// Per-level chunk indexes, coarsest level first.
    pub levels: Vec<LevelMap>,
    /// Bytes of the serialized stream that are not plane payload: prelude
    /// plus packed metadata block, as [`Compressed::base_bytes`] counts them.
    base_bytes: usize,
    /// Total serialized container size.
    total_len: u64,
    /// The header's precinct grid, validated and built once with the map
    /// (`None` for version 2) — what every read of a version-3 level walks.
    grid: Option<PrecinctGrid>,
    /// The map's one verdict: the optimizer's view of this container, built
    /// once with the map — or, for a resident container that breaks a rule
    /// the parser refuses on, why not (see [`ContainerMap::from_compressed`]).
    cost: Result<CostTable>,
}

impl ContainerMap {
    /// The optimizer's view of this container, and the one check the read
    /// path makes: refused as [`IpcompError::CorruptContainer`] before
    /// anything is planned or read from metadata the parser would not accept.
    pub(crate) fn cost(&self) -> Result<&CostTable> {
        self.cost.as_ref().map_err(Clone::clone)
    }

    /// The header's precinct grid, `None` for a byte-granular container (or
    /// one whose verdict refused its extents).
    pub(crate) fn grid(&self) -> Option<&PrecinctGrid> {
        self.grid.as_ref()
    }

    /// Bytes every retrieval must load regardless of fidelity.
    pub fn base_bytes(&self) -> usize {
        self.base_bytes
    }

    /// Total compressed payload bytes across all levels.
    pub fn payload_bytes(&self) -> usize {
        self.levels.iter().map(LevelMap::payload_bytes).sum()
    }

    /// Total serialized container size in bytes.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Parse the metadata of a serialized container through ranged reads:
    /// one probe GET of `min(len, META_FETCH)` bytes and, when the prelude
    /// says the metadata block is longer, one more for exactly the rest. A
    /// version word other than a packed v2/v3 one is refused on the probe.
    ///
    /// Every count is checked against the header geometry and the bytes that
    /// can hold it before any proportional allocation, and every recorded
    /// chunk range is verified to lie inside the source.
    pub fn open(source: &dyn ChunkSource) -> Result<Self> {
        let len = source.len();
        let front = read_front(source, |probe| {
            let (_, packed_len, _) = Self::read_prelude(&mut MetaCursor::new(probe), len)?;
            Ok(PRELUDE_BYTES as u64 + packed_len)
        })?;
        Self::read(&mut MetaCursor::new(&front), len)
    }

    /// Magic, version word and the metadata block's packed and unpacked
    /// lengths, refused before anything they size is fetched or allocated:
    /// a version word other than `2 | LAYOUT_PACKED` or `3 | LAYOUT_PACKED`,
    /// a block that could not fit the `len`-byte container, an unpacked
    /// length over `META_MAX_EXPANSION` per packed byte.
    fn read_prelude(cur: &mut MetaCursor<'_>, len: u64) -> Result<(u32, u64, u64)> {
        let word = cur.read_magic_version()?;
        let version = word & !LAYOUT_PACKED;
        if word & LAYOUT_PACKED == 0 || !(VERSION..=VERSION_ROI).contains(&version) {
            return Err(IpcompError::CorruptContainer(RETIRED_LAYOUT));
        }
        let packed_len = cur.read_u32()? as u64;
        let unpacked_len = cur.read_u32()? as u64;
        if packed_len > len.saturating_sub(PRELUDE_BYTES as u64) {
            return Err(IpcompError::CorruptContainer(
                "metadata block outruns buffer",
            ));
        }
        if unpacked_len > packed_len.saturating_mul(META_MAX_EXPANSION) {
            return Err(IpcompError::CorruptContainer("implausible metadata length"));
        }
        Ok((version, packed_len, unpacked_len))
    }

    /// One container's metadata from `cur`, which sits at its prelude; the
    /// container is `len` bytes long and its offsets are relative to the
    /// prelude's first byte. The one reader of the grammar: `cur` walks a
    /// standalone container's fetched front, a whole serialized buffer, or
    /// an archive's resident prefix at one step's hoisted copy.
    pub(crate) fn read(cur: &mut MetaCursor<'_>, len: u64) -> Result<Self> {
        let (version, packed_len, unpacked_len) = Self::read_prelude(cur, len)?;
        // An archive's hoisted copy must also fit the prefix it sits in.
        if packed_len > cur.remaining() as u64 {
            return Err(IpcompError::CorruptContainer(
                "metadata block outruns buffer",
            ));
        }
        let block = cur.read_bytes(packed_len as usize)?;
        let meta = lzr_decompress_bounded(block, unpacked_len as usize)?;
        if meta.len() as u64 != unpacked_len {
            return Err(IpcompError::CorruptContainer(
                "metadata block length disagrees with prelude",
            ));
        }
        let mut inner = MetaCursor::new(&meta);
        if inner.read_magic_version()? != version {
            return Err(IpcompError::CorruptContainer(
                "metadata block version disagrees with prelude",
            ));
        }
        Self::parse(&mut inner, version, PRELUDE_BYTES as u64 + packed_len, len)
    }

    /// The grammar after the version word, read from the unpacked metadata
    /// block. Payload starts at `payload_at`, and each level's is located by
    /// that running offset; the block and the `total_len`-byte container
    /// must both be used up exactly.
    fn parse(
        cur: &mut MetaCursor<'_>,
        version: u32,
        payload_at: u64,
        total_len: u64,
    ) -> Result<Self> {
        let ndim = cur.read_varint()? as usize;
        if ndim == 0 || ndim > ipc_tensor::MAX_DIMS {
            return Err(IpcompError::CorruptContainer("invalid dimension count"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut elements: u64 = 1;
        for _ in 0..ndim {
            let d = cur.read_varint()?;
            elements = elements.saturating_mul(d.max(1));
            dims.push(d as usize);
        }
        if dims.contains(&0) || elements > MAX_ELEMENTS {
            return Err(IpcompError::CorruptContainer("implausible dimensions"));
        }
        let error_bound = cur.read_f64()?;
        let interpolation = Interpolation::from_id(cur.read_u8()?)
            .ok_or(IpcompError::CorruptContainer("unknown interpolation id"))?;
        let num_levels = cur.read_u32()?;
        let progressive_levels = cur.read_u32()?;
        let prefix_bits = cur.read_u8()?;
        let predictive_coding = cur.read_u8()? != 0;
        let value_range = cur.read_f64()?;

        let mut precincts = None;
        if version == VERSION_ROI {
            // One extent per dimension.
            let extents = (0..ndim).map(|_| Ok(cur.read_varint()? as usize));
            precincts = Some(extents.collect::<Result<_>>()?);
        }

        let header = Header {
            dims,
            error_bound,
            interpolation,
            num_levels,
            progressive_levels,
            prefix_bits,
            predictive_coding,
            value_range,
            precincts,
        };
        let grid = validated_grid(&header)?;

        let anchors_len = cur.read_varint()? as usize;
        let anchors = cur.read_bytes(anchors_len)?;

        let n_levels = cur.read_varint()?;
        if n_levels > cur.remaining() as u64 {
            return Err(IpcompError::CorruptContainer("implausible level count"));
        }
        let geometry = level_geometry(&header, grid.as_ref(), n_levels as usize)?;
        let mut levels = Vec::with_capacity(n_levels as usize);
        let mut offset = payload_at;
        for (_, precinct_spans) in &geometry {
            let n_values = cur.read_varint()?;
            let num_planes = cur.read_u8()?;
            let mut trunc_loss = Vec::with_capacity(num_planes as usize + 1);
            for _ in 0..=num_planes {
                trunc_loss.push(cur.read_varint()?);
            }
            levels.push(Self::read_level(
                cur,
                n_values as usize,
                num_planes,
                trunc_loss,
                precinct_spans.as_deref(),
                &mut offset,
                total_len,
            )?);
        }

        if cur.remaining() != 0 || offset != total_len {
            return Err(IpcompError::CorruptContainer(
                "container length disagrees with its metadata",
            ));
        }
        check_levels(&geometry, &levels)?;
        let base_bytes = payload_at as usize;
        Ok(Self {
            cost: Ok(CostTable::new(&header, base_bytes, &levels)),
            header,
            anchors: anchors.to_vec(),
            levels,
            grid,
            base_bytes,
            total_len,
        })
    }

    /// Parse and validate one level's chunk index — the chunk span (which,
    /// with `precinct_spans`, fixes the level's [`RegionScheme`]), per-plane
    /// chunk counts against that scheme, every compressed size, none of them
    /// nonzero for a region without coefficients — and record
    /// each chunk's absolute offset from the running payload `offset`, which
    /// never passes `total_len`. Every count is bounded against what remains
    /// of the block before any proportional allocation.
    fn read_level(
        cur: &mut MetaCursor<'_>,
        n_values: usize,
        num_planes: u8,
        trunc_loss: Vec<u64>,
        precinct_spans: Option<&[usize]>,
        offset: &mut u64,
        total_len: u64,
    ) -> Result<LevelMap> {
        let chunk_bytes = cur.read_varint()? as usize;
        let scheme = match precinct_spans {
            None => RegionScheme::uniform(n_values, chunk_bytes)
                .ok_or(IpcompError::CorruptContainer("misaligned chunk size"))?,
            // v3: one chunk per precinct; the byte-granular span is unused.
            Some(_) if chunk_bytes != 0 => {
                return Err(IpcompError::CorruptContainer(
                    "precinct level carries a byte-granular chunk size",
                ));
            }
            Some(spans) => RegionScheme::precincts(spans),
        };
        let n_chunks = scheme.num_regions();
        // The whole index must fit in what's left of the block (each entry
        // is ≥ 1 byte), before any allocation proportional to it.
        let entries = (num_planes as usize).saturating_mul(n_chunks);
        if entries > cur.remaining() {
            return Err(IpcompError::CorruptContainer("chunk index outruns buffer"));
        }
        let mut offsets = Vec::with_capacity(entries + 1);
        offsets.push(*offset);
        for _ in 0..num_planes {
            if cur.read_varint()? != n_chunks as u64 {
                return Err(IpcompError::CorruptContainer(
                    "plane chunk count does not match the level's chunk grid",
                ));
            }
            for k in 0..n_chunks {
                // A chunk is one codec output, and the codecs take inputs
                // under 4 GiB: an entry past `u32::MAX` is corrupt however
                // long the source claims to be.
                let len = cur.read_varint()?;
                if len > u32::MAX as u64 || len > total_len - *offset {
                    return Err(IpcompError::CorruptContainer(
                        "chunk payload outruns buffer",
                    ));
                }
                if len != 0 && scheme.region_coeff_range(k).is_empty() {
                    return Err(IpcompError::CorruptContainer(EMPTY_REGION_PAYLOAD));
                }
                *offset += len;
                offsets.push(*offset);
            }
        }
        Ok(LevelMap {
            n_values,
            num_planes,
            trunc_loss,
            chunk_bytes,
            scheme: Arc::new(scheme),
            offsets,
        })
    }

    /// Build the map of an in-memory container's **current serialization**
    /// (the byte layout [`Compressed::to_bytes`] produces): every chunk's
    /// landing offset, level-major then plane-major, from the end of the
    /// packed metadata front. This is the map a decoder over a resident
    /// container plans and reads metadata from
    /// ([`crate::ProgressiveDecoder::new`]), the map to plan ranged
    /// retrievals by when the container is also held in memory, and the
    /// writer-side cross-check of [`ContainerMap::open`].
    ///
    /// Total on any input: each level gets exactly `num_planes × regions + 1`
    /// offsets, regions counted by the level's [`EncodedLevel::scheme`], and
    /// a chunk the level lacks counts 0 bytes. The map's verdict is what the
    /// parser would decide: the container's rule set over the header and
    /// this level list (level count and sizes against the shape, loss
    /// tables, precinct extents and spans against the header's grid), then
    /// each level's chunk structure (`EncodedLevel::check_chunks`). A map
    /// that fails it has no cost table, so every plan and retrieval over it
    /// is refused as [`IpcompError::CorruptContainer`] before anything is
    /// planned or read.
    pub fn from_compressed(c: &Compressed) -> Self {
        let base_bytes = c.base_bytes();
        let mut end = base_bytes as u64;
        let levels: Vec<LevelMap> = c
            .levels
            .iter()
            .map(|level| {
                let scheme = level.scheme();
                let n = scheme.num_regions();
                let mut offsets = Vec::with_capacity(level.num_planes as usize * n + 1);
                offsets.push(end);
                for p in 0..level.num_planes as usize {
                    let chunks = level
                        .planes
                        .get(p)
                        .map_or(&[][..], |plane| &plane.chunks[..]);
                    for k in 0..n {
                        end += chunks.get(k).map_or(0, Vec::len) as u64;
                        offsets.push(end);
                    }
                }
                LevelMap {
                    n_values: level.n_values,
                    num_planes: level.num_planes,
                    trunc_loss: level.trunc_loss.clone(),
                    chunk_bytes: level.chunk_bytes,
                    scheme: Arc::new(scheme),
                    offsets,
                }
            })
            .collect();
        let grid = validated_grid(&c.header);
        let verdict = grid.as_ref().map_err(Clone::clone).and_then(|grid| {
            let geometry = level_geometry(&c.header, grid.as_ref(), levels.len())?;
            check_levels(&geometry, &levels)?;
            let mut pairs = c.levels.iter().zip(&levels);
            pairs.try_for_each(|(level, map)| level.check_chunks(map.scheme()))
        });
        Self {
            cost: verdict.map(|()| CostTable::new(&c.header, base_bytes, &levels)),
            header: c.header.clone(),
            anchors: c.anchors.clone(),
            levels,
            grid: grid.ok().flatten(),
            base_bytes,
            total_len: end,
        }
    }
}

/// Compress anchor codes (zigzag varints + LZR).
pub fn encode_anchors(codes: &[i64]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(codes.len() * 2);
    write_varint(&mut raw, codes.len() as u64);
    for &c in codes {
        write_varint(&mut raw, zigzag_encode(c));
    }
    lzr_compress(&raw)
}

/// Decode anchor codes produced by [`encode_anchors`]. `max_codes` bounds the
/// result (anchor grids are a small fraction of the field), so corrupt
/// streams cannot force huge allocations.
pub fn decode_anchors_bounded(bytes: &[u8], max_codes: usize) -> Result<Vec<i64>> {
    // Each code costs at least one raw byte (varint), plus the count varint.
    let raw = lzr_decompress_bounded(bytes, max_codes.saturating_mul(10).saturating_add(10))?;
    let mut pos = 0usize;
    let n = read_varint(&raw, &mut pos)? as usize;
    if n > max_codes || n > raw.len() {
        return Err(IpcompError::CorruptContainer("implausible anchor count"));
    }
    let mut codes = Vec::with_capacity(n);
    for _ in 0..n {
        codes.push(zigzag_decode(read_varint(&raw, &mut pos)?));
    }
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::EncodeOptions;
    use crate::config::Config;
    use crate::pipeline::load_level;
    use ipc_tensor::ArrayD;

    /// A hand-built container over a 10³ field: every level holds as many
    /// codes as the shape gives it, the finest 875 of them.
    fn sample_compressed() -> Compressed {
        sample_with(EncodeOptions::default())
    }

    /// Same field, but with a tiny chunk size so every plane splits into many
    /// chunks and the index actually has entries to serialize.
    fn sample_compressed_chunked() -> Compressed {
        sample_with(EncodeOptions { chunk_bytes: 16 })
    }

    fn sample_with(opts: EncodeOptions) -> Compressed {
        let shape = Shape::d3(10, 10, 10);
        let codes_a: Vec<i64> = (0..crate::interp::anchor_count(&shape) as i64)
            .map(|i| (i * 7) % 13 - 6)
            .collect();
        let levels = (1..=num_levels(&shape)).rev().map(|level| {
            let n = level_count(&shape, level);
            let codes: Vec<i64> = (0..n).map(|i| ((i * i) % 97) as i64 - 48).collect();
            crate::bitplane::encode_level_with(&codes, 2, true, false, opts)
        });
        Compressed {
            header: Header {
                dims: shape.dims().to_vec(),
                error_bound: 1e-6,
                interpolation: Interpolation::Cubic,
                num_levels: num_levels(&shape),
                progressive_levels: 2,
                prefix_bits: 2,
                predictive_coding: true,
                value_range: 3.5,
                precincts: None,
            },
            anchors: encode_anchors(&codes_a),
            levels: levels.collect(),
        }
    }

    /// One container per layout the writer has a branch or an edge for: the
    /// default v2 grid, a many-chunk v2 index, a v3 container whose coarse
    /// levels are mostly empty precincts, whole-plane (`chunk_bytes: 0`)
    /// levels, and a 1-element field.
    fn layout_samples() -> Vec<Compressed> {
        let field = sample_field();
        let point = ArrayD::from_vec(Shape::d1(1), vec![2.5]);
        let tiled = crate::compress(&field, 1e-5, &Config::with_precincts(&[8, 8])).unwrap();
        assert!(
            tiled
                .levels
                .iter()
                .any(|l| l.precinct_spans.as_ref().unwrap().contains(&0)),
            "sample needs empty precincts"
        );
        vec![
            sample_compressed(),
            sample_compressed_chunked(),
            tiled,
            whole_plane_sample(),
            crate::compress(&point, 1e-3, &Config::default()).unwrap(),
        ]
    }

    fn sample_field() -> ArrayD<f64> {
        ArrayD::from_fn(Shape::d2(37, 29), |c| {
            (c[0] as f64 * 0.31).sin() + (c[1] as f64 * 0.17).cos()
        })
    }

    /// [`sample_field`] in whole-plane levels (`chunk_bytes: 0`).
    fn whole_plane_sample() -> Compressed {
        let whole_planes = Config {
            chunk_bytes: 0,
            ..Config::default()
        };
        crate::compress(&sample_field(), 1e-5, &whole_planes).unwrap()
    }

    #[test]
    fn serialization_roundtrip() {
        for c in [sample_compressed(), sample_compressed_chunked()] {
            let bytes = c.to_bytes();
            let back = Compressed::from_bytes(&bytes).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn size_accounting_matches_serialized_size_exactly() {
        for c in layout_samples() {
            assert_eq!(c.total_bytes(), c.to_bytes().len());
            assert_eq!(c.base_bytes() + c.payload_bytes(), c.to_bytes().len());
        }
    }

    /// The writer's output is the packed layout and nothing else: prelude,
    /// the block, then exactly the chunks in index order — and reading it
    /// back and writing it again is the identity.
    #[test]
    fn to_bytes_is_prelude_block_then_every_chunk() {
        for c in layout_samples() {
            let bytes = c.to_bytes();
            assert_eq!(&bytes[..4], MAGIC);
            let word = c.header.version() | LAYOUT_PACKED;
            assert_eq!(bytes[4..8], word.to_le_bytes());
            let packed = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
            assert_eq!(PRELUDE_BYTES + packed, c.base_bytes());
            let chunks = c.levels.iter().flat_map(|l| &l.planes);
            let payload: Vec<u8> = chunks.flat_map(|p| p.chunks.concat()).collect();
            assert_eq!(&bytes[c.base_bytes()..], &payload[..]);
            let back = Compressed::from_bytes(&bytes).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    /// `META_MAX_EXPANSION` against the most compressible metadata there is:
    /// tables of one repeated entry, which LZR takes to a maximal match per
    /// five token bytes (the module docs' argument). The writer stays several
    /// times under the ceiling it is read back through.
    #[test]
    fn unpack_bound_has_margin_over_the_most_compressible_tables() {
        const N: usize = 8 << 20;
        let tables = [
            vec![0u8; N],
            (0..N).map(|i| [1u8, 1, 1, 2][i % 4]).collect(),
        ];
        for table in tables {
            let packed = lzr_compress(&table).len() as u64;
            assert!(packed * META_MAX_EXPANSION >= 3 * N as u64, "{packed} B");
        }
    }

    #[test]
    fn anchors_roundtrip() {
        let codes: Vec<i64> = (-2000..2000).map(|i| i * 3).collect();
        let enc = encode_anchors(&codes);
        assert_eq!(decode_anchors_bounded(&enc, 4000).unwrap(), codes);
        assert!(decode_anchors_bounded(&enc, 3999).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let c = sample_compressed();
        let mut bytes = c.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Compressed::from_bytes(&bytes),
            Err(IpcompError::CorruptContainer(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let c = sample_compressed();
        let mut bytes = c.to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Compressed::from_bytes(&bytes),
            Err(IpcompError::CorruptContainer(RETIRED_LAYOUT))
        ));
    }

    #[test]
    fn truncated_container_rejected() {
        let c = sample_compressed();
        let bytes = c.to_bytes();
        for cut in [3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(Compressed::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn container_map_open_matches_from_compressed() {
        for c in layout_samples() {
            let bytes = c.to_bytes();
            let source = crate::source::MemorySource::new(bytes.clone());
            let opened = ContainerMap::open(&source).unwrap();
            let derived = ContainerMap::from_compressed(&c);
            assert_eq!(opened, derived);
            assert_eq!(opened.total_len(), bytes.len() as u64);
            assert_eq!(opened.base_bytes(), c.base_bytes());
            assert_eq!(opened.payload_bytes(), c.payload_bytes());
        }
    }

    #[test]
    fn container_map_chunk_ranges_address_exact_payload() {
        let c = sample_compressed_chunked();
        let bytes = c.to_bytes();
        let map = ContainerMap::from_compressed(&c);
        for (level, lmap) in c.levels.iter().zip(&map.levels) {
            for (p, plane) in level.planes.iter().enumerate() {
                for (k, chunk) in plane.chunks.iter().enumerate() {
                    let r = lmap.chunk_range(p as u8, k);
                    assert_eq!(&bytes[r.offset as usize..r.end() as usize], &chunk[..]);
                }
            }
        }
    }

    /// A whole-plane level maps one chunk per plane spanning the plane's
    /// whole payload: each range addresses exactly that plane's compressed
    /// bytes, the planes back to back from the end of the block to the end
    /// of the file.
    #[test]
    fn container_map_whole_plane_level_is_one_range_per_plane() {
        let c = whole_plane_sample();
        assert!(c.levels.iter().any(|l| l.num_planes > 1));
        let bytes = c.to_bytes();
        let map = ContainerMap::open(&crate::source::MemorySource::new(bytes.clone())).unwrap();
        let mut end = c.base_bytes() as u64;
        for (level, lmap) in c.levels.iter().zip(&map.levels) {
            assert_eq!(lmap.chunk_bytes, 0);
            for (p, plane) in level.planes.iter().enumerate() {
                let p = p as u8;
                assert_eq!(lmap.plane_chunk_count(p), 1);
                let r = lmap.chunk_range(p, 0);
                assert_eq!((r.offset, r.len), (end, lmap.plane_bytes(p)));
                assert_eq!(
                    &bytes[r.offset as usize..r.end() as usize],
                    &plane.chunks[0][..]
                );
                end = r.end();
            }
        }
        assert_eq!(end, bytes.len() as u64);
    }

    /// A whole-plane length beyond `u32::MAX` — what a v1 plane length was,
    /// and the form its planes take today — is refused like any index entry
    /// past the cap. Only a source claiming more than 4 GiB gets that far,
    /// so the source here is sparse: it serves the real front and payload and
    /// nothing of the forged plane.
    #[test]
    fn container_map_rejects_v1_plane_longer_than_u32() {
        struct Sparse {
            prefix: Vec<u8>,
            len: u64,
        }
        impl ChunkSource for Sparse {
            fn len(&self) -> u64 {
                self.len
            }
            fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
                ranges
                    .iter()
                    .map(|r| {
                        // Holes read as zeros, as in a sparse file.
                        let mut out = vec![0u8; r.len];
                        let have = self.prefix.len().saturating_sub(r.offset as usize);
                        let n = have.min(r.len);
                        out[..n].copy_from_slice(&self.prefix[r.offset as usize..][..n]);
                        Ok(Bytes::from_vec(out))
                    })
                    .collect()
            }
        }

        let c = whole_plane_sample();
        let bytes = c.to_bytes();
        let map = ContainerMap::open(&crate::source::MemorySource::new(bytes.clone())).unwrap();
        // The final plane's size is the block's last index entry and its
        // payload the file's last bytes. Re-pack the block with that entry
        // forged to 5 GiB, and let the source's length account for the
        // forged payload, so the only thing wrong is the oversized plane.
        let level = map.levels.iter().rfind(|l| l.num_planes > 0).unwrap();
        assert_eq!(level.chunk_bytes, 0);
        let last = level.chunk_range(level.num_planes - 1, 0);
        assert_eq!(last.end(), bytes.len() as u64);
        let (packed, unpacked) = (
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize,
            u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize,
        );
        let block = &bytes[PRELUDE_BYTES..PRELUDE_BYTES + packed];
        let mut meta = lzr_decompress_bounded(block, unpacked).unwrap();
        meta.truncate(meta.len() - ipc_codecs::varint::varint_len(last.len as u64));
        let forged: u64 = 5 << 30;
        write_varint(&mut meta, forged);
        let block = lzr_compress(&meta);
        let mut prefix = bytes[..8].to_vec();
        for len in [block.len(), meta.len()] {
            prefix.extend_from_slice(&(len as u32).to_le_bytes());
        }
        prefix.extend_from_slice(&block);
        prefix.extend_from_slice(&bytes[packed + PRELUDE_BYTES..last.offset as usize]);
        let source = Sparse {
            len: prefix.len() as u64 + forged,
            prefix,
        };
        assert!(matches!(
            ContainerMap::open(&source),
            Err(IpcompError::CorruptContainer(
                "chunk payload outruns buffer"
            ))
        ));
    }

    #[test]
    fn container_map_rejects_truncated_metadata() {
        let c = sample_compressed();
        let bytes = c.to_bytes();
        // Cut inside the header/metadata region: open() must error, not panic.
        for cut in [3usize, 10, 40, c.base_bytes().saturating_sub(1)] {
            let source = crate::source::MemorySource::new(bytes[..cut.min(bytes.len())].to_vec());
            assert!(ContainerMap::open(&source).is_err(), "cut={cut}");
        }
        // Cut inside the payload: the chunk index outruns the source.
        let source = crate::source::MemorySource::new(bytes[..bytes.len() - 1].to_vec());
        assert!(ContainerMap::open(&source).is_err());
    }

    /// `fetch_planes` hands back the requested chunks — of the planes asked
    /// for and, over a region, of the listed precincts only — as slices of
    /// the source's own buffer, not copies of it, in a table over the load's
    /// region list: the requested regions that hold coefficients.
    #[test]
    fn fetch_planes_returns_requested_payload_only() {
        let check = |c: &Compressed, i: usize, lo: u8, region: Option<&[usize]>| {
            let data: Arc<[u8]> = Arc::from(c.to_bytes());
            let source = crate::source::MemorySource::from_arc(Arc::clone(&data));
            let map = ContainerMap::open(&source).unwrap();
            let lmap = &map.levels[i];
            let hi = lmap.num_planes;
            let all: Vec<usize> = (0..lmap.plane_chunk_count(0)).collect();
            let coded = |&&k: &&usize| !lmap.scheme().region_coeff_range(k).is_empty();
            let ids: Vec<usize> = region
                .unwrap_or(&all)
                .iter()
                .filter(coded)
                .copied()
                .collect();
            let runs = lmap.run_ranges(lo, hi, &lmap.chunk_runs(region));
            let bufs = read_ranges_exact(&source, &runs).unwrap();
            let fetched = lmap.fetch_planes(lo, hi, region, &bufs).unwrap();
            assert_eq!(fetched.regions, ids);
            assert_eq!(fetched.chunks.len(), (hi - lo) as usize * ids.len());
            let within = data.as_ptr_range();
            for (j, chunk) in fetched.chunks.iter().enumerate() {
                let (p, k) = (lo as usize + j / ids.len(), ids[j % ids.len()]);
                assert_eq!(*chunk, &c.levels[i].planes[p].chunks[k][..]);
                let ends = chunk.as_ptr_range();
                assert!(
                    chunk.is_empty() || within.start <= ends.start && ends.end <= within.end,
                    "plane {p} chunk {k} is a copy"
                );
            }
        };
        let c = sample_compressed_chunked();
        let finest = c.levels.len() - 1;
        assert!(c.levels[finest].planes[0].chunks.len() > 1);
        let hi = c.levels[finest].num_planes;
        check(&c, finest, hi / 2, None);

        let tiled =
            crate::compress(&sample_field(), 1e-5, &Config::with_precincts(&[8, 8])).unwrap();
        let i = tiled.levels.len() - 1;
        let n = tiled.levels[i].planes[0].chunks.len();
        let spans = tiled.levels[i].precinct_spans.as_ref().unwrap();
        let ids: Vec<usize> = (0..n).filter(|k| k % 3 == 0).collect();
        assert!(ids.len() < n && n > 3);
        check(&tiled, i, 0, Some(&ids));
        // An empty precinct is listed by no load: its chunk is never read.
        let with_empty = (1..tiled.levels.len()).find_map(|i| {
            let spans = tiled.levels[i].precinct_spans.as_ref().unwrap();
            let k = spans.iter().position(|&s| s == 0)?;
            (tiled.levels[i].num_planes > 0).then_some((i, k))
        });
        let (j, k) = with_empty.expect("sample needs an empty precinct in a level with planes");
        check(&tiled, j, 0, Some(&[k, spans.len() - 1]));
    }

    /// A v3 index that gives a precinct without coefficients a nonzero chunk
    /// is refused where the index is read — by the parser behind
    /// `ContainerMap::open` and `Compressed::from_bytes`, and by the resident
    /// decoder's map verdict — whether or not a read would decode it.
    #[test]
    fn nonempty_chunk_of_an_empty_precinct_is_refused() {
        let mut forged =
            crate::compress(&sample_field(), 1e-5, &Config::with_precincts(&[8, 8])).unwrap();
        let level = (forged.levels.iter_mut())
            .find(|l| l.num_planes > 0 && l.precinct_spans.as_ref().unwrap().contains(&0))
            .expect("sample needs an empty precinct in a level with planes");
        let k = level
            .precinct_spans
            .as_ref()
            .unwrap()
            .iter()
            .position(|&s| s == 0);
        level.planes[0].chunks[k.unwrap()] = vec![1, 2, 3];
        let refused = |outcome: Result<()>| {
            assert_eq!(
                outcome,
                Err(IpcompError::CorruptContainer(EMPTY_REGION_PAYLOAD))
            );
        };
        let bytes = forged.to_bytes();
        refused(Compressed::from_bytes(&bytes).map(drop));
        let source = crate::source::MemorySource::new(bytes);
        refused(ContainerMap::open(&source).map(drop));
        let mut dec = crate::ProgressiveDecoder::new(&forged);
        refused(dec.retrieve(crate::RetrievalRequest::Full).map(drop));
        let roi = crate::RoiBox::new(&[0, 0], &[4, 4]);
        refused(
            dec.retrieve_roi(roi, crate::RetrievalRequest::Full)
                .map(drop),
        );
    }

    /// A region load is sized by its selection, not by the level: over a
    /// 128×128 field in 8² precincts (256 per level), one to four selected
    /// precincts fetch a table of `planes × ids` entries, and the level
    /// loader takes a scratch accumulator of exactly the selected spans.
    #[test]
    fn region_load_is_sized_by_its_ids() {
        let field = ArrayD::from_fn(Shape::d2(128, 128), |c| {
            (c[0] as f64 * 0.13).sin() * 2.0 + (c[1] as f64 * 0.07).cos()
        });
        let c = crate::compress(&field, 1e-6, &Config::with_precincts(&[8, 8])).unwrap();
        let source = crate::source::MemorySource::new(c.to_bytes());
        let map = ContainerMap::open(&source).unwrap();
        let (i, lmap) = (map.levels.iter().enumerate())
            .rfind(|(_, l)| l.num_planes > 1)
            .unwrap();
        assert_eq!(lmap.plane_chunk_count(0), 256);
        let spans = lmap.precinct_spans().unwrap();
        let (prefix_bits, predictive) = (c.header.prefix_bits, c.header.predictive_coding);
        let (lo, hi) = (1, lmap.num_planes);
        let mut whole = vec![0u64; lmap.n_values];
        let resident = c.levels[i].chunk_table(Arc::clone(lmap.scheme()), lo, hi, None);
        load_level(
            &resident.unwrap(),
            prefix_bits,
            predictive,
            &mut whole,
            |_, _| {},
        )
        .unwrap();
        let starts = crate::precinct::prefix_sums(spans);
        for ids in [&[7usize][..], &[3, 4], &[0, 17, 255], &[16, 17, 32, 33]] {
            let runs = lmap.run_ranges(lo, hi, &lmap.chunk_runs(Some(ids)));
            let bufs = read_ranges_exact(&source, &runs).unwrap();
            let load = lmap.fetch_planes(lo, hi, Some(ids), &bufs).unwrap();
            assert_eq!(load.chunks.len(), (hi - lo) as usize * ids.len());
            assert!(ids.iter().all(|&k| spans[k] > 0));
            let selected: usize = ids.iter().map(|&k| spans[k]).sum();
            assert!(selected < lmap.n_values);
            let mut level_sized = vec![0u64; lmap.n_values];
            let refused = load_level(&load, prefix_bits, predictive, &mut level_sized, |_, _| {});
            assert!(refused.is_err(), "a level-sized scratch is not the load's");
            assert!(level_sized.iter().all(|&w| w == 0));
            let mut scratch = vec![0u64; selected];
            let mut reported = 0;
            let loaded = load_level(&load, prefix_bits, predictive, &mut scratch, |coeffs, _| {
                assert_eq!(coeffs.start, reported);
                reported = coeffs.end;
            });
            loaded.unwrap();
            assert_eq!(reported, selected);
            // The scratch holds the selected precincts' codes back to back.
            let want: Vec<u64> = (ids.iter())
                .flat_map(|&k| whole[starts[k]..][..spans[k]].to_vec())
                .collect();
            assert_eq!(scratch, want);
        }
    }
}
