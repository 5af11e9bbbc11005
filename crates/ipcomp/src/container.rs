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
//! * **v1** (PR 1) — each plane is a single monolithic LZR block, written as
//!   `varint length + bytes` inline with the level metadata. Still read;
//!   decodes byte-identically.
//! * **v2** (current) — planes are split into fixed-size entropy chunks
//!   ([`crate::bitplane::CHUNK_BYTES`] packed bytes each) and the level
//!   metadata carries a **chunk index**: every chunk's compressed size. A
//!   reader can therefore compute the absolute offset of any
//!   `(level, plane, chunk)` triple from metadata alone and fetch chunks
//!   independently — which is what lets decode fan out evenly over rayon and
//!   stream planes region by region.
//! * **v3** — v2 with a precinct grid in the header: levels are stored
//!   precinct-major with one chunk per `(plane, precinct)` pair.
//!
//! ## Layouts
//!
//! ```text
//! packed (written; version word = version | LAYOUT_PACKED)
//!   magic "IPCP" | version word u32 | packed_len u32 | unpacked_len u32      16-byte prelude
//!   metadata block: lzr_compress of                                          packed_len bytes
//!       magic | version u32 | header | anchors | per level: record + chunk index
//!   every chunk, level-major (coarsest first), plane-major, in index order   to the last byte
//!
//! interleaved (read-only; version word = version, 1..=3)
//!   magic | version u32 | header | anchors
//!   per level: record + chunk index | that level's chunks, plane-major
//!   (v1: per plane `varint length + bytes` in place of index and chunks)
//! ```
//!
//! The version word's low byte is the version and its second byte the layout
//! flags; any bit the reader does not know is an unsupported version. The
//! unpacked metadata block *is* an interleaved stream with the chunks taken
//! out — same bytes, same order — which is what lets one parser read both.
//! Nothing selects the layout: [`Compressed::to_bytes`] writes packed, and
//! the interleaved layouts (v1, v2, v3, and v4 archives embedding them) are
//! read for as long as files in them exist; no writer produces them, so the
//! committed fixtures are their only samples.
//!
//! ## Opening in at most two GETs
//!
//! Planning needs the header, the anchors and every level's loss table and
//! chunk index before it can ask for a single payload byte, so the packed
//! layout puts exactly those bytes first and packs them — a chunk index is
//! thousands of near-equal one- or two-byte varints, which LZR takes to a few
//! percent of their size (a 1024² field in 32² precincts: 259 KB to 3.7 KB).
//! [`ContainerMap::open`] then costs:
//!
//! 1. one probe GET of `min(source length, META_FETCH = 4096)` bytes, which
//!    holds the prelude and usually the whole block;
//! 2. if `16 + packed_len` runs past the probe, one GET of exactly the rest.
//!
//! The block is unpacked once (the only buffer `open` owns; everything read
//! through the cursor is a slice of what the source returned) and parsed in
//! memory. Each level's payload is located by a running offset that starts
//! at the end of the block. An interleaved container is instead walked
//! record by record in `META_FETCH` steps, skipping payload: four GETs for a
//! 16 KB index, 68 for that 1024² container.
//!
//! A version-4 archive the writer emits opens the same way, one level up
//! (see [`crate::archive`]): its prefix — framing header, directory, and a
//! verbatim copy of every embedded container's prelude and block — states
//! its own length right after the version word, so
//! [`ArchiveMap::open`](crate::ArchiveMap::open) is the probe plus at most
//! one GET of exactly the rest of the prefix, however many steps it holds.
//! Each copy goes through the function this module's packed branch is
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
//! [`ContainerMap::open`] is the only reader of this grammar, for every
//! layout: the packed layout is a branch where the interleaved one skips a
//! level's payload (the running offset advances instead), not a second
//! parser. It records where every chunk lives; [`Compressed::from_bytes`] is
//! that same walk over a byte slice plus a copy of each chunk at its recorded
//! offset. Deserialization is hardened as described above, so corrupt or
//! adversarial containers fail with [`IpcompError`] instead of panicking or
//! ballooning memory — whichever entry point they arrive through.
//!
//! `Compressed::walk` is the only writer: it emits the grammar as a sequence
//! of `Piece`s, and everything that needs to know the layout is a view of
//! that one walk — [`Compressed::to_bytes`] packs the metadata pieces and
//! appends the chunk pieces, [`Compressed::base_bytes`] measures the packed
//! front, and [`ContainerMap::from_compressed`] records where each chunk
//! lands (the writer-side cross-check of the parser's offsets). How a level's
//! plane bytes are cut into chunks is not this module's decision: both sides
//! ask the level's [`RegionScheme`].

use std::sync::Arc;

use ipc_codecs::lzr::lzr_decompress_bounded;
use ipc_codecs::varint::{read_varint, write_varint};
use ipc_codecs::{lzr_compress, zigzag_decode, zigzag_encode};

use ipc_tensor::Shape;

use crate::bitplane::{EncodedLevel, EncodedPlane, RegionScheme};
use crate::config::Interpolation;
use crate::error::{IpcompError, Result};
use crate::precinct::PrecinctGrid;
use crate::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource, MemorySource};

/// Magic bytes identifying an IPComp container.
pub const MAGIC: &[u8; 4] = b"IPCP";
/// Container format version written for the byte-granular chunk layout
/// (no precinct grid — the default).
pub const VERSION: u32 = 2;
/// Container format version written when the header carries a precinct grid:
/// levels are stored precinct-major with one entropy chunk per
/// `(plane, precinct)` pair, enabling spatial ROI retrieval.
pub const VERSION_ROI: u32 = 3;
/// Oldest container format version still readable.
pub const MIN_VERSION: u32 = 1;
/// Layout flag of the version word (its second byte): set, the file is a
/// 16-byte prelude, the LZR-packed metadata block, then all chunk payload.
/// The writer always sets it; clear marks the read-only interleaved layouts.
pub const LAYOUT_PACKED: u32 = 1 << 8;
/// Prelude of the packed layout: magic, version word, packed and unpacked
/// metadata-block lengths (`u32` each).
const PRELUDE_BYTES: usize = 16;
/// Most the metadata block may claim to unpack to, per packed byte — checked
/// before the unpacked buffer is allocated (see the module docs).
const META_MAX_EXPANSION: u64 = 1 << 17;

/// Upper bound on the number of scalar elements a header may declare
/// (2^48 ≈ 280 T elements); anything larger is treated as corrupt before any
/// allocation is attempted.
const MAX_ELEMENTS: u64 = 1 << 48;

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
    /// byte-granular version-1/2 layouts.
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
    pub fn precinct_grid(&self) -> Option<PrecinctGrid> {
        self.precincts
            .as_ref()
            .map(|e| PrecinctGrid::new(&self.dims, e).expect("validated extents"))
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
    /// The interpolation level number corresponding to `levels[idx]`.
    pub fn level_number(&self, idx: usize) -> u32 {
        self.header.num_levels - idx as u32
    }

    /// Whether `levels[idx]` participates in progressive (partial-plane) loading.
    pub fn is_progressive(&self, idx: usize) -> bool {
        self.level_number(idx) <= self.header.progressive_levels
    }

    /// The one walk of the write grammar: emit the container's content in
    /// its format version ([`Header::version`]), piece by piece. Versions 2
    /// and 3 differ only in the header's precinct extents. The order is that
    /// of the interleaved layouts, whose stream it is verbatim; the packed
    /// layout keeps the order within each kind — metadata pieces into the
    /// block, chunks after it.
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

    /// Serialize the container to a byte buffer (current format version,
    /// packed layout): prelude, packed metadata block, then every chunk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.packed_front(self.payload_bytes());
        self.walk(|piece| {
            if let Piece::Chunk(chunk) = piece {
                out.extend_from_slice(chunk);
            }
        });
        out
    }

    /// Deserialize a container produced by [`Compressed::to_bytes`] (or any
    /// older readable version): the metadata walk is [`ContainerMap::open`]
    /// over the slice, and every chunk is copied out at the offset the map
    /// recorded for it — there is no second parser to drift.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let map = ContainerMap::open(&SliceSource(buf))?;
        let levels = map
            .levels
            .iter()
            .map(|level| {
                let runs = level.chunk_runs(None);
                let ranges = level.run_ranges(0, level.num_planes, &runs);
                // `open` verified every recorded range lies inside the source.
                let bufs = ranges
                    .iter()
                    .map(|r| &buf[r.offset as usize..r.end() as usize]);
                level.assemble(0, level.num_planes, &runs, bufs)
            })
            .collect();
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

/// A borrowed serialized container as a [`ChunkSource`], so
/// [`Compressed::from_bytes`] parses through the ranged reader.
struct SliceSource<'a>(&'a [u8]);

impl ChunkSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        ranges
            .iter()
            .map(|r| {
                self.0
                    .get(r.offset as usize..r.end() as usize)
                    .map(|bytes| Bytes::from_vec(bytes.to_vec()))
                    .ok_or(IpcompError::CorruptContainer(
                        "byte range beyond end of source",
                    ))
            })
            .collect()
    }
}

/// Every byte of a packed container (as [`Compressed::to_bytes`] writes it)
/// ahead of its payload: the prelude and the metadata block.
pub(crate) fn metadata_front(container: &[u8]) -> &[u8] {
    let packed_len = u32::from_le_bytes(container[8..12].try_into().expect("a 16-byte prelude"));
    &container[..PRELUDE_BYTES + packed_len as usize]
}

/// One recorded chunk length: capped at `u32::MAX` (far beyond any
/// producible chunk — packed spans are 64 KiB-scale), which is what lets the
/// index store sizes as `u32` whatever the source length claims.
fn chunk_len(len: u64) -> Result<u32> {
    u32::try_from(len).map_err(|_| IpcompError::CorruptContainer("chunk payload outruns buffer"))
}

/// Validate v3 precinct extents against the header geometry and build the
/// grid. Extents are bounded below (≥ 1) by the grid constructor and the
/// precinct count is capped before any span table is allocated.
fn validate_precincts(dims: &[usize], extents: &[usize]) -> Result<PrecinctGrid> {
    let grid = PrecinctGrid::new(dims, extents)
        .map_err(|_| IpcompError::CorruptContainer("invalid precinct extents"))?;
    if grid.num_precincts() as u64 > MAX_PRECINCTS {
        return Err(IpcompError::CorruptContainer("implausible precinct count"));
    }
    Ok(grid)
}

/// Compute one level's precinct spans and check they partition exactly the
/// declared coefficient count — the cross-check tying the header geometry to
/// each level record.
fn level_spans_checked(
    grid: &PrecinctGrid,
    shape: &Shape,
    level: u32,
    n_values: usize,
) -> Result<Vec<usize>> {
    let spans = grid.level_spans(shape, level);
    if spans.iter().sum::<usize>() != n_values {
        return Err(IpcompError::CorruptContainer(
            "precinct spans do not partition the level",
        ));
    }
    Ok(spans)
}

/// Chunk index of one level inside a serialized container: every chunk's
/// compressed size and absolute byte offset, plus the metadata the decode and
/// planning paths need (`trunc_loss`, plane count, grid geometry) — but no
/// payload bytes.
///
/// Version-1 levels (no chunk index) appear as one whole-payload "chunk" per
/// plane, so a range planner naturally degrades to per-plane reads on legacy
/// containers instead of erroring.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMap {
    /// Number of coefficients in the level.
    pub n_values: usize,
    /// Number of significant bitplanes.
    pub num_planes: u8,
    /// Worst-case truncation loss per discard count (see
    /// [`EncodedLevel::trunc_loss`]).
    pub trunc_loss: Vec<u64>,
    /// Packed bytes per entropy chunk; `0` for monolithic (v1) planes.
    pub chunk_bytes: usize,
    /// How the level's plane bytes are cut into chunks, built once when the
    /// map is and shared by every decode of the level.
    scheme: Arc<RegionScheme>,
    /// `chunk_sizes[p][k]`: compressed size of chunk `k` of plane `p`.
    chunk_sizes: Vec<Vec<u32>>,
    /// `chunk_offsets[p][k]`: absolute container offset of that chunk.
    chunk_offsets: Vec<Vec<u64>>,
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
        self.chunk_sizes[p as usize].len()
    }

    /// Compressed size of chunk `k` of plane `p`.
    pub fn chunk_size(&self, p: u8, k: usize) -> usize {
        self.chunk_sizes[p as usize][k] as usize
    }

    /// Absolute byte range of chunk `k` of plane `p` in the container.
    pub fn chunk_range(&self, p: u8, k: usize) -> ByteRange {
        ByteRange::new(
            self.chunk_offsets[p as usize][k],
            self.chunk_sizes[p as usize][k] as usize,
        )
    }

    /// Total compressed size of plane `p`.
    pub fn plane_bytes(&self, p: u8) -> usize {
        self.chunk_sizes[p as usize]
            .iter()
            .map(|&s| s as usize)
            .sum()
    }

    /// Total compressed payload bytes of the level.
    pub fn payload_bytes(&self) -> usize {
        (0..self.num_planes).map(|p| self.plane_bytes(p)).sum()
    }

    /// The chunk runs a fetch reads as one byte range each, as `[k0, k1)`
    /// chunk-id intervals: every chunk on its own, or — under a precinct
    /// `mask` — the maximal runs of consecutive masked precincts. Chunk ids
    /// tile a plane's payload back to back, so a run is contiguous on disk;
    /// reading per run keeps a region's request list proportional to its
    /// precinct rows, not its precinct count times planes.
    pub fn chunk_runs(&self, mask: Option<&[bool]>) -> Vec<(usize, usize)> {
        let n_chunks = self.chunk_sizes.first().map_or(0, Vec::len);
        let Some(mask) = mask else {
            return (0..n_chunks).map(|k| (k, k + 1)).collect();
        };
        let mut runs = Vec::new();
        let mut k = 0;
        while k < n_chunks {
            if mask[k] {
                let k0 = k;
                while k < n_chunks && mask[k] {
                    k += 1;
                }
                runs.push((k0, k));
            } else {
                k += 1;
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
            .flat_map(|p| {
                runs.iter().map(move |&(k0, k1)| {
                    let first = self.chunk_range(p, k0);
                    let end = self.chunk_range(p, k1 - 1).end();
                    ByteRange::new(first.offset, (end - first.offset) as usize)
                })
            })
            .collect()
    }

    /// Cut `bufs` — one buffer per [`LevelMap::run_ranges`] entry, in that
    /// order — into an in-memory [`EncodedLevel`] holding planes
    /// `[plane_lo, plane_hi)`. Planes outside the range keep empty chunk
    /// lists and chunks outside `runs` stay empty; the plane-range decoders
    /// never touch either.
    fn assemble<B: AsRef<[u8]>>(
        &self,
        plane_lo: u8,
        plane_hi: u8,
        runs: &[(usize, usize)],
        bufs: impl IntoIterator<Item = B>,
    ) -> EncodedLevel {
        let mut bufs = bufs.into_iter();
        let planes = (0..self.num_planes)
            .map(|p| {
                if !(plane_lo..plane_hi).contains(&p) {
                    return EncodedPlane { chunks: Vec::new() };
                }
                let mut chunks = vec![Vec::new(); self.plane_chunk_count(p)];
                for &(k0, k1) in runs {
                    let buf = bufs.next().expect("one buffer per run");
                    let base = self.chunk_offsets[p as usize][k0];
                    for (k, chunk) in chunks.iter_mut().enumerate().take(k1).skip(k0) {
                        let r = self.chunk_range(p, k);
                        let at = (r.offset - base) as usize;
                        *chunk = buf.as_ref()[at..at + r.len].to_vec();
                    }
                }
                EncodedPlane { chunks }
            })
            .collect();
        EncodedLevel {
            n_values: self.n_values,
            num_planes: self.num_planes,
            planes,
            trunc_loss: self.trunc_loss.clone(),
            chunk_bytes: self.chunk_bytes,
            precinct_spans: self.precinct_spans().map(<[usize]>::to_vec),
        }
    }

    /// Fetch the compressed chunks of planes `[plane_lo, plane_hi)` from
    /// `source` and assemble an in-memory [`EncodedLevel`] holding exactly
    /// those planes. With a precinct `mask` (version-3 levels only) just the
    /// marked precincts' chunks are fetched and the rest stay empty — the
    /// caller must then only decode regions it asked for.
    ///
    /// The fetch is one batched `read_ranges` call in payload order, so a
    /// coalescing source turns it into few contiguous reads.
    pub fn fetch_planes(
        &self,
        source: &dyn ChunkSource,
        plane_lo: u8,
        plane_hi: u8,
        mask: Option<&[bool]>,
    ) -> Result<EncodedLevel> {
        if let Some(mask) = mask {
            let spans = self.precinct_spans().ok_or_else(|| {
                IpcompError::InvalidInput("precinct fetch on a byte-granular level".into())
            })?;
            if mask.len() != spans.len() {
                return Err(IpcompError::InvalidInput(
                    "precinct mask does not match the level's precinct count".into(),
                ));
            }
        }
        let hi = plane_hi.min(self.num_planes);
        let runs = self.chunk_runs(mask);
        let ranges = self.run_ranges(plane_lo, hi, &runs);
        let obs = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("pipeline", "fetch", obs.fetch_ns);
        let bytes: u64 = ranges.iter().map(|r| r.len as u64).sum();
        obs.fetch_bytes.add(bytes);
        span.add_arg("bytes", bytes);
        let bufs = read_ranges_exact(source, &ranges)?;
        drop(span);
        Ok(self.assemble(plane_lo, hi, &runs, bufs))
    }
}

/// Buffered forward reader over a [`ChunkSource`], used to parse container
/// and archive metadata with small batched fetches while *skipping* payload
/// bytes entirely — the whole point of opening a container by ranges. The
/// one metadata cursor of the format: every container layout
/// ([`ContainerMap::open`], over the source or over the unpacked metadata
/// block) and the version-4 archive framing ([`crate::ArchiveMap::open`])
/// read through it, so they share one fetch granularity and one GET pattern.
/// It holds each fetch as the [`Bytes`] the source returned and hands out
/// slices of it: nothing read through the cursor is copied by the cursor.
pub(crate) struct MetaCursor<'s> {
    source: &'s dyn ChunkSource,
    len: u64,
    pos: u64,
    buf: Bytes,
    buf_start: u64,
}

/// Granularity of metadata fetches, and the size of the probe that opens a
/// container: the packed layout's whole metadata block usually fits one.
const META_FETCH: usize = 4096;

impl<'s> MetaCursor<'s> {
    pub(crate) fn new(source: &'s dyn ChunkSource) -> Self {
        Self {
            source,
            len: source.len(),
            pos: 0,
            buf: Bytes::from_vec(Vec::new()),
            buf_start: 0,
        }
    }

    /// Absolute offset of the next unread byte.
    pub(crate) fn pos(&self) -> u64 {
        self.pos
    }

    /// Total length of the source.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Offset of the cursor inside `buf` (`buf.len()` once it has moved past).
    fn buf_off(&self) -> usize {
        (self.pos - self.buf_start).min(self.buf.len() as u64) as usize
    }

    /// One GET of exactly `len` bytes at `offset`.
    fn fetch(&self, offset: u64, len: usize) -> Result<Bytes> {
        let bytes = self.source.read_range(ByteRange::new(offset, len))?;
        if bytes.len() != len {
            return Err(IpcompError::CorruptContainer("source returned short read"));
        }
        Ok(bytes)
    }

    /// Buffer at least `want` bytes at the cursor (clamped to EOF) and return
    /// the buffered tail starting at the cursor.
    fn ensure(&mut self, want: usize) -> Result<&[u8]> {
        let want = want.min(self.remaining() as usize);
        if self.buf.len() - self.buf_off() < want {
            let fetch = want.max(META_FETCH).min(self.remaining() as usize);
            self.buf = self.fetch(self.pos, fetch)?;
            self.buf_start = self.pos;
        }
        Ok(&self.buf[self.buf_off()..])
    }

    /// Read `N` raw bytes (the fixed-width little-endian scalars).
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self
            .ensure(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or(IpcompError::CorruptContainer("eof"))?;
        self.pos += N as u64;
        Ok(bytes)
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
        // A varint spans at most 10 bytes; near EOF the parser sees exactly
        // the remaining bytes and errors cleanly on truncation.
        let buf = self.ensure(10)?;
        let mut p = 0usize;
        let v = read_varint(buf, &mut p)?;
        self.pos += p as u64;
        Ok(v)
    }

    /// Magic plus version word — how every container and archive starts.
    pub(crate) fn read_magic_version(&mut self) -> Result<u32> {
        if self.read_array::<4>()? != *MAGIC {
            return Err(IpcompError::CorruptContainer("bad magic"));
        }
        self.read_u32()
    }

    /// The next `n` bytes (anchor block, packed metadata block, archive
    /// names): a slice of the buffer when it holds them or one fetch can,
    /// otherwise what is buffered joined to one GET of exactly the rest.
    pub(crate) fn read_exact(&mut self, n: usize) -> Result<Bytes> {
        if self.remaining() < n as u64 {
            return Err(IpcompError::CorruptContainer("eof"));
        }
        let have = self.buf.len() - self.buf_off();
        let out = if n <= have.max(META_FETCH) {
            self.ensure(n)?;
            self.buf.slice(self.buf_off()..self.buf_off() + n)
        } else {
            let rest = self.fetch(self.pos + have as u64, n - have)?;
            match have {
                0 => rest,
                _ => Bytes::from_vec([&self.buf[self.buf_off()..], &rest].concat()),
            }
        };
        self.pos += n as u64;
        Ok(out)
    }

    /// Advance past `n` payload bytes without fetching them.
    fn skip(&mut self, n: u64) -> Result<()> {
        if n > self.remaining() {
            return Err(IpcompError::CorruptContainer(
                "chunk payload outruns buffer",
            ));
        }
        self.pos += n;
        Ok(())
    }
}

/// Metadata-only view of one serialized container: header, anchors, and the
/// per-level chunk index with **absolute byte offsets** — everything needed
/// to plan a retrieval and fetch exactly the chunk ranges the plan selects,
/// without ever materializing payload that wasn't asked for.
///
/// Opened over any [`ChunkSource`]; parsing never touches payload, and a
/// container in the packed layout — whatever its size — costs one or two
/// GETs to open (see the module docs).
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
    /// plus packed metadata block, or — interleaved layouts — header, anchors
    /// and level records as they sit in the file, which is not what
    /// [`Compressed::base_bytes`] reports for the same container re-written.
    base_bytes: usize,
    /// Total serialized container size.
    total_len: u64,
}

impl ContainerMap {
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

    /// Parse the metadata of a serialized container through ranged reads —
    /// the one walk of the container grammar, whatever the layout.
    ///
    /// A packed container costs one probe GET of `min(len, META_FETCH)` bytes
    /// and, when the prelude says the metadata block is longer, one more for
    /// exactly the rest; the block is unpacked and parsed in memory. An
    /// interleaved (legacy) one is walked record by record in `META_FETCH`
    /// steps, skipping payload.
    ///
    /// Every count is checked against the header geometry and the bytes that
    /// can hold it before any proportional allocation, and every recorded
    /// chunk range is verified to lie inside the source.
    pub fn open(source: &dyn ChunkSource) -> Result<Self> {
        let mut cur = MetaCursor::new(source);
        let len = cur.len();
        Self::read(&mut cur, len, false)
    }

    /// One container's metadata from `cur`, which sits at its first byte;
    /// the container is `len` bytes long and its offsets are relative to
    /// that byte. With `packed_only` an interleaved container is refused:
    /// that is how an archive reads each step's hoisted prelude and block
    /// out of its resident prefix, through the same function as a
    /// standalone container's packed branch.
    pub(crate) fn read(cur: &mut MetaCursor<'_>, len: u64, packed_only: bool) -> Result<Self> {
        let word = cur.read_magic_version()?;
        let (version, packed) = (word & !LAYOUT_PACKED, word & LAYOUT_PACKED != 0);
        // Version 1 predates the packed layout.
        if !(MIN_VERSION + packed as u32..=VERSION_ROI).contains(&version) {
            return Err(IpcompError::CorruptContainer("unsupported version"));
        }
        if !packed && packed_only {
            return Err(IpcompError::CorruptContainer(
                "hoisted metadata is not a packed container",
            ));
        }
        if !packed {
            return Self::parse(cur, version, None);
        }
        let packed_len = cur.read_u32()? as u64;
        let unpacked_len = cur.read_u32()? as u64;
        // The block must fit both what the cursor still holds (the source,
        // or an archive's prefix) and the container it describes.
        let room = cur
            .remaining()
            .min(len.saturating_sub(PRELUDE_BYTES as u64));
        if packed_len > room {
            return Err(IpcompError::CorruptContainer(
                "metadata block outruns buffer",
            ));
        }
        if unpacked_len > packed_len.saturating_mul(META_MAX_EXPANSION) {
            return Err(IpcompError::CorruptContainer("implausible metadata length"));
        }
        let block = cur.read_exact(packed_len as usize)?;
        let meta = lzr_decompress_bounded(&block, unpacked_len as usize)?;
        if meta.len() as u64 != unpacked_len {
            return Err(IpcompError::CorruptContainer(
                "metadata block length disagrees with prelude",
            ));
        }
        let resident = MemorySource::new(meta);
        let mut inner = MetaCursor::new(&resident);
        if inner.read_magic_version()? != version {
            return Err(IpcompError::CorruptContainer(
                "metadata block version disagrees with prelude",
            ));
        }
        let payload_at = PRELUDE_BYTES as u64 + packed_len;
        Self::parse(&mut inner, version, Some((payload_at, len)))
    }

    /// The grammar after the version word, read from `cur`. With `packed` —
    /// `(offset of the next payload byte, container length)` — `cur` walks the
    /// unpacked metadata block and each level's payload is located by that
    /// running offset; without, `cur` walks the source itself and payload
    /// follows each level's record.
    fn parse(
        cur: &mut MetaCursor<'_>,
        version: u32,
        mut packed: Option<(u64, u64)>,
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

        let (precincts, grid) = if version == VERSION_ROI {
            let mut extents = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                extents.push(cur.read_varint()? as usize);
            }
            let grid = validate_precincts(&dims, &extents)?;
            (Some(extents), Some(grid))
        } else {
            (None, None)
        };

        let anchors_len = cur.read_varint()? as usize;
        if anchors_len as u64 > cur.remaining() {
            return Err(IpcompError::CorruptContainer("eof"));
        }
        let anchors = cur.read_exact(anchors_len)?;

        let n_levels = cur.read_varint()? as usize;
        if n_levels as u64 > cur.len {
            return Err(IpcompError::CorruptContainer("implausible level count"));
        }
        if n_levels != num_levels as usize {
            return Err(IpcompError::CorruptContainer(
                "level list does not match declared level count",
            ));
        }
        let shape = Shape::new(&dims);
        let mut levels = Vec::with_capacity(n_levels);
        let mut payload_total: u64 = 0;
        for idx in 0..n_levels {
            let n_values = cur.read_varint()?;
            if n_values > elements {
                return Err(IpcompError::CorruptContainer(
                    "level larger than the whole field",
                ));
            }
            let n_values = n_values as usize;
            let num_planes = cur.read_u8()?;
            if num_planes > 63 {
                return Err(IpcompError::CorruptContainer("plane count out of range"));
            }
            let mut trunc_loss = Vec::with_capacity(num_planes as usize + 1);
            for _ in 0..=num_planes {
                trunc_loss.push(cur.read_varint()?);
            }
            let precinct_spans = match &grid {
                Some(g) => Some(level_spans_checked(
                    g,
                    &shape,
                    num_levels - idx as u32,
                    n_values,
                )?),
                None => None,
            };
            let level = if version == 1 {
                // v1: planes are inline `varint length + bytes` blocks; each
                // becomes one whole-payload chunk so ranged readers degrade
                // to per-plane reads instead of erroring.
                let mut chunk_sizes = Vec::with_capacity(num_planes as usize);
                let mut chunk_offsets = Vec::with_capacity(num_planes as usize);
                for _ in 0..num_planes {
                    let len = chunk_len(cur.read_varint()?)?;
                    chunk_sizes.push(vec![len]);
                    chunk_offsets.push(vec![cur.pos]);
                    payload_total += len as u64;
                    cur.skip(len as u64)?;
                }
                let scheme = RegionScheme::uniform(n_values, 0).expect("0 is aligned");
                LevelMap {
                    n_values,
                    num_planes,
                    trunc_loss,
                    chunk_bytes: 0,
                    scheme: Arc::new(scheme),
                    chunk_sizes,
                    chunk_offsets,
                }
            } else {
                Self::open_v2_level(
                    cur,
                    n_values,
                    num_planes,
                    trunc_loss,
                    precinct_spans.as_deref(),
                    &mut payload_total,
                    packed.as_mut(),
                )?
            };
            levels.push(level);
        }

        // Packed: the block and the payload region are both used up exactly.
        let (end, total_len) = packed.unwrap_or((cur.pos, cur.len));
        if packed.is_some() && (cur.remaining() != 0 || end != total_len) {
            return Err(IpcompError::CorruptContainer(
                "container length disagrees with its metadata",
            ));
        }
        Ok(Self {
            header: Header {
                dims,
                error_bound,
                interpolation,
                num_levels,
                progressive_levels,
                prefix_bits,
                predictive_coding,
                value_range,
                precincts,
            },
            anchors: anchors.to_vec(),
            levels,
            base_bytes: (end - payload_total) as usize,
            total_len,
        })
    }

    /// Parse and validate one v2/v3 level's chunk index — the chunk span
    /// (which, with `precinct_spans`, fixes the level's [`RegionScheme`]),
    /// per-plane chunk counts against that scheme, every compressed size —
    /// and record absolute payload offsets. Every count is bounded against
    /// what remains of the stream before any proportional allocation.
    fn open_v2_level(
        cur: &mut MetaCursor<'_>,
        n_values: usize,
        num_planes: u8,
        trunc_loss: Vec<u64>,
        precinct_spans: Option<&[usize]>,
        payload_total: &mut u64,
        packed: Option<&mut (u64, u64)>,
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
        let expected_chunks = scheme.num_regions();
        // The whole index must fit in what's left of the stream (each entry
        // is ≥ 1 byte), before any allocation proportional to it.
        if (num_planes as u64).saturating_mul(expected_chunks as u64) > cur.remaining() {
            return Err(IpcompError::CorruptContainer("chunk index outruns buffer"));
        }
        let mut chunk_sizes: Vec<Vec<u32>> = Vec::with_capacity(num_planes as usize);
        let mut level_payload: u64 = 0;
        for _ in 0..num_planes {
            let n_chunks = cur.read_varint()? as usize;
            if n_chunks != expected_chunks {
                return Err(IpcompError::CorruptContainer(
                    "plane chunk count does not match the level's chunk grid",
                ));
            }
            let mut plane_sizes = Vec::with_capacity(n_chunks);
            for _ in 0..n_chunks {
                let len = chunk_len(cur.read_varint()?)?;
                level_payload = level_payload.saturating_add(len as u64);
                plane_sizes.push(len);
            }
            chunk_sizes.push(plane_sizes);
        }
        // Payload is plane-major from here (interleaved) or from the running
        // payload offset (packed); walk the sizes to assign offsets.
        let mut offset = packed.as_ref().map_or(cur.pos, |(at, _)| *at);
        let chunk_offsets: Vec<Vec<u64>> = chunk_sizes
            .iter()
            .map(|plane| {
                plane
                    .iter()
                    .map(|&len| {
                        let at = offset;
                        offset += len as u64;
                        at
                    })
                    .collect()
            })
            .collect();
        match packed {
            Some((at, len)) if level_payload <= *len - *at => *at += level_payload,
            Some(_) => {
                return Err(IpcompError::CorruptContainer(
                    "chunk payload outruns buffer",
                ))
            }
            None => cur.skip(level_payload)?,
        }
        *payload_total += level_payload;
        Ok(LevelMap {
            n_values,
            num_planes,
            trunc_loss,
            chunk_bytes,
            scheme: Arc::new(scheme),
            chunk_sizes,
            chunk_offsets,
        })
    }

    /// Build the map of an in-memory container's **current serialization**
    /// (the byte layout [`Compressed::to_bytes`] produces): the writer's walk
    /// with every chunk's landing offset recorded. Useful to plan ranged
    /// retrievals against a container that is also held in memory, and as
    /// the writer-side cross-check of [`ContainerMap::open`].
    pub fn from_compressed(c: &Compressed) -> Self {
        let base_bytes = c.base_bytes();
        let mut pos = base_bytes as u64;
        let mut offsets = Vec::new();
        c.walk(|piece| {
            if let Piece::Chunk(chunk) = piece {
                offsets.push(pos);
                pos += chunk.len() as u64;
            }
        });
        // The walk visits chunks level by level, plane-major: hand the
        // offsets back out in that order.
        let mut offsets = offsets.into_iter();
        let levels = c
            .levels
            .iter()
            .map(|level| LevelMap {
                n_values: level.n_values,
                num_planes: level.num_planes,
                trunc_loss: level.trunc_loss.clone(),
                chunk_bytes: level.chunk_bytes,
                scheme: Arc::new(level.scheme()),
                chunk_sizes: level
                    .planes
                    .iter()
                    .map(|p| p.chunks.iter().map(|ch| ch.len() as u32).collect())
                    .collect(),
                chunk_offsets: level
                    .planes
                    .iter()
                    .map(|p| (&mut offsets).take(p.chunks.len()).collect())
                    .collect(),
            })
            .collect();
        Self {
            header: c.header.clone(),
            anchors: c.anchors.clone(),
            levels,
            base_bytes,
            total_len: pos,
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

/// Decode anchor codes produced by [`encode_anchors`] without a caller bound.
pub fn decode_anchors(bytes: &[u8]) -> Result<Vec<i64>> {
    decode_anchors_bounded(bytes, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::EncodeOptions;
    use ipc_codecs::varint::varint_len;

    fn sample_compressed() -> Compressed {
        let codes_a: Vec<i64> = (0..40).map(|i| (i * 7) % 13 - 6).collect();
        let codes_l1: Vec<i64> = (0..500).map(|i| ((i * i) % 97) as i64 - 48).collect();
        let codes_l2: Vec<i64> = (0..100).map(|i| (i % 31) as i64 - 15).collect();
        Compressed {
            header: Header {
                dims: vec![10, 10, 10],
                error_bound: 1e-6,
                interpolation: Interpolation::Cubic,
                num_levels: 2,
                progressive_levels: 2,
                prefix_bits: 2,
                predictive_coding: true,
                value_range: 3.5,
                precincts: None,
            },
            anchors: encode_anchors(&codes_a),
            levels: vec![
                crate::bitplane::encode_level(&codes_l2, 2, true, false),
                crate::bitplane::encode_level(&codes_l1, 2, true, false),
            ],
        }
    }

    /// Same field, but with a tiny chunk size so every plane splits into many
    /// chunks and the index actually has entries to serialize.
    fn sample_compressed_chunked() -> Compressed {
        let mut c = sample_compressed();
        let codes_l1: Vec<i64> = (0..500).map(|i| ((i * i) % 97) as i64 - 48).collect();
        let codes_l2: Vec<i64> = (0..100).map(|i| (i % 31) as i64 - 15).collect();
        let opts = EncodeOptions { chunk_bytes: 16 };
        c.levels = vec![
            crate::bitplane::encode_level_with(&codes_l2, 2, true, false, opts),
            crate::bitplane::encode_level_with(&codes_l1, 2, true, false, opts),
        ];
        c
    }

    /// One container per layout the writer has a branch or an edge for: the
    /// default v2 grid, a many-chunk v2 index, a v3 container whose coarse
    /// levels are mostly empty precincts, whole-plane (`chunk_bytes: 0`)
    /// levels, and a 1-element field.
    fn layout_samples() -> Vec<Compressed> {
        use crate::config::Config;
        use ipc_tensor::{ArrayD, Shape};
        let field = ArrayD::from_fn(Shape::d2(37, 29), |c| {
            (c[0] as f64 * 0.31).sin() + (c[1] as f64 * 0.17).cos()
        });
        let whole_planes = Config {
            chunk_bytes: 0,
            ..Config::default()
        };
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
            crate::compress(&field, 1e-5, &whole_planes).unwrap(),
            crate::compress(&point, 1e-3, &Config::default()).unwrap(),
        ]
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
        assert_eq!(decode_anchors(&enc).unwrap(), codes);
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
            Err(IpcompError::CorruptContainer("unsupported version"))
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

    /// The committed version-1 container (the golden field, written by the
    /// version-1 writer before it was retired): the only v1 bytes there are.
    const V1_FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/container_v1.bin");

    #[test]
    fn container_map_v1_is_one_whole_payload_range_per_plane() {
        let v1_bytes = V1_FIXTURE;
        assert_eq!(&v1_bytes[4..8], &1u32.to_le_bytes());
        // The byte reader accepts the legacy stream…
        let parsed = Compressed::from_bytes(v1_bytes).unwrap();
        assert!(parsed.levels.iter().any(|l| l.num_planes > 0));
        // …and the ranged map exposes exactly one whole-payload range per
        // plane, each addressing the plane's compressed bytes: the bytes its
        // inline `varint length` prefix announces, the planes back to back
        // to the end of the file.
        let source = crate::source::MemorySource::new(v1_bytes.to_vec());
        let map = ContainerMap::open(&source).unwrap();
        let mut end = 0;
        for (level, lmap) in parsed.levels.iter().zip(&map.levels) {
            assert_eq!(lmap.chunk_bytes, 0);
            for (p, plane) in level.planes.iter().enumerate() {
                assert_eq!(lmap.plane_chunk_count(p as u8), 1);
                let r = lmap.chunk_range(p as u8, 0);
                assert_eq!(r.len, plane.chunks[0].len());
                assert_eq!(
                    &v1_bytes[r.offset as usize..r.end() as usize],
                    &plane.chunks[0][..]
                );
                let mut at = r.offset as usize - varint_len(r.len as u64);
                assert_eq!(read_varint(v1_bytes, &mut at).unwrap(), r.len as u64);
                assert!(at as u64 == r.offset && r.offset > end);
                end = r.end();
            }
        }
        assert_eq!(end, v1_bytes.len() as u64);
    }

    /// A v1 plane length beyond `u32::MAX` must be refused like a v2 index
    /// entry is, not truncated into the `u32` size table. Only a source
    /// claiming more than 4 GiB gets that far, so the source here is sparse:
    /// it serves the real metadata prefix and nothing of the forged payload.
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

        let v1 = V1_FIXTURE;
        let map = ContainerMap::open(&crate::source::MemorySource::new(v1.to_vec())).unwrap();
        // Replace the final plane's `varint length + bytes` — the file's last
        // bytes — with a forged 5 GiB length whose payload the source's
        // length accounts for, so the only thing wrong with the stream is the
        // oversized plane.
        let level = map.levels.iter().rfind(|l| l.num_planes > 0).unwrap();
        let last = level.chunk_range(level.num_planes - 1, 0);
        assert_eq!(last.end(), v1.len() as u64);
        let mut prefix = v1[..last.offset as usize - varint_len(last.len as u64)].to_vec();
        let forged: u64 = 5 << 30;
        write_varint(&mut prefix, forged);
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

    #[test]
    fn fetch_planes_returns_requested_payload_only() {
        let c = sample_compressed_chunked();
        let bytes = c.to_bytes();
        let source = crate::source::MemorySource::new(bytes);
        let map = ContainerMap::open(&source).unwrap();
        let lmap = &map.levels[1];
        let hi = lmap.num_planes;
        let lo = hi / 2;
        let fetched = lmap.fetch_planes(&source, lo, hi, None).unwrap();
        assert_eq!(fetched.n_values, lmap.n_values);
        assert_eq!(fetched.num_planes, lmap.num_planes);
        for p in 0..hi {
            if p >= lo {
                assert_eq!(fetched.planes[p as usize], c.levels[1].planes[p as usize]);
            } else {
                assert!(fetched.planes[p as usize].chunks.is_empty());
            }
        }
    }

    #[test]
    fn level_numbering_and_progressive_flags() {
        let c = sample_compressed();
        assert_eq!(c.level_number(0), 2);
        assert_eq!(c.level_number(1), 1);
        assert!(c.is_progressive(0));
        assert!(c.is_progressive(1));
        let mut limited = c.clone();
        limited.header.progressive_levels = 1;
        assert!(!limited.is_progressive(0));
        assert!(limited.is_progressive(1));
    }
}
