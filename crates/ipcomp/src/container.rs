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
//! * **v1** (PR 1) — each plane is a single monolithic LZR block, written as
//!   `varint length + bytes` inline with the level metadata. Still read;
//!   decodes byte-identically.
//! * **v2** (current) — planes are split into fixed-size entropy chunks
//!   ([`crate::bitplane::CHUNK_BYTES`] packed bytes each) and the level
//!   metadata carries a **chunk index**: every chunk's compressed size, ahead
//!   of any payload byte. A reader can therefore compute the absolute offset
//!   of any `(level, plane, chunk)` triple from metadata alone and fetch
//!   chunks independently — which is what lets decode fan out evenly over
//!   rayon and stream planes region by region. Payload bytes follow the
//!   metadata of each level, plane-major.
//!
//! Deserialization is hardened: every count and length field is validated
//! against the remaining buffer and the header geometry before any
//! proportional allocation, so corrupt or adversarial containers fail with
//! [`IpcompError`] instead of panicking or ballooning memory.

use ipc_codecs::byteio::{read_bytes, read_f64, read_u32, write_bytes, write_f64, write_u32};
use ipc_codecs::varint::{read_varint, varint_len, write_varint};
use ipc_codecs::{lzr_compress, zigzag_decode, zigzag_encode};

use ipc_tensor::Shape;

use crate::bitplane::{ChunkGrid, EncodedLevel, EncodedPlane, RegionScheme};
use crate::config::Interpolation;
use crate::error::{IpcompError, Result};
use crate::precinct::PrecinctGrid;
use crate::source::{read_ranges_exact, ByteRange, ChunkSource};

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

    /// Serialized size of one level's metadata record (sizes, loss table, and
    /// the chunk index — everything except payload bytes).
    pub(crate) fn level_metadata_bytes(level: &EncodedLevel) -> usize {
        varint_len(level.n_values as u64)
            + 1
            + level
                .trunc_loss
                .iter()
                .map(|&v| varint_len(v))
                .sum::<usize>()
            + varint_len(level.chunk_bytes as u64)
            + level
                .planes
                .iter()
                .map(|p| {
                    varint_len(p.chunks.len() as u64)
                        + p.chunks
                            .iter()
                            .map(|c| varint_len(c.len() as u64))
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Bytes that every retrieval must load regardless of fidelity: header, anchors,
    /// and per-level metadata (chunk index + truncation-loss tables). Computed to
    /// mirror [`Compressed::to_bytes`] exactly, so
    /// `base_bytes() + payload_bytes() == to_bytes().len()`.
    pub fn base_bytes(&self) -> usize {
        let header = 4 // magic
            + 4 // version
            + varint_len(self.header.dims.len() as u64)
            + self
                .header
                .dims
                .iter()
                .map(|&d| varint_len(d as u64))
                .sum::<usize>()
            + 8 // error bound
            + 1 // interpolation id
            + 4 // num_levels
            + 4 // progressive_levels
            + 1 // prefix bits
            + 1 // predictive flag
            + 8 // value range
            + self
                .header
                .precincts
                .as_ref()
                .map(|e| e.iter().map(|&x| varint_len(x as u64)).sum::<usize>())
                .unwrap_or(0); // v3 precinct extents
        let anchors = varint_len(self.anchors.len() as u64) + self.anchors.len();
        let levels_header = varint_len(self.levels.len() as u64);
        let metadata: usize = self.levels.iter().map(Self::level_metadata_bytes).sum();
        header + anchors + levels_header + metadata
    }

    /// Total compressed payload bytes (all bitplane blocks of all levels).
    pub fn payload_bytes(&self) -> usize {
        self.levels.iter().map(EncodedLevel::payload_bytes).sum()
    }

    /// Total size of the compressed artifact; equals `to_bytes().len()`.
    pub fn total_bytes(&self) -> usize {
        self.base_bytes() + self.payload_bytes()
    }

    /// Serialize the container to a byte buffer (current format version).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes() + 64);
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, self.header.version());
        write_varint(&mut out, self.header.dims.len() as u64);
        for &d in &self.header.dims {
            write_varint(&mut out, d as u64);
        }
        write_f64(&mut out, self.header.error_bound);
        out.push(self.header.interpolation.id());
        write_u32(&mut out, self.header.num_levels);
        write_u32(&mut out, self.header.progressive_levels);
        out.push(self.header.prefix_bits);
        out.push(self.header.predictive_coding as u8);
        write_f64(&mut out, self.header.value_range);
        if let Some(extents) = &self.header.precincts {
            // v3 only: one extent per dimension, right after the fixed header.
            for &e in extents {
                write_varint(&mut out, e as u64);
            }
        }

        write_bytes(&mut out, &self.anchors);

        write_varint(&mut out, self.levels.len() as u64);
        for level in &self.levels {
            write_varint(&mut out, level.n_values as u64);
            out.push(level.num_planes);
            for &loss in &level.trunc_loss {
                write_varint(&mut out, loss);
            }
            // Chunk index first (all sizes, no payload), then the payload
            // bytes plane-major: a reader can address any chunk from the
            // metadata alone.
            write_varint(&mut out, level.chunk_bytes as u64);
            for plane in &level.planes {
                write_varint(&mut out, plane.chunks.len() as u64);
                for chunk in &plane.chunks {
                    write_varint(&mut out, chunk.len() as u64);
                }
            }
            for plane in &level.planes {
                for chunk in &plane.chunks {
                    out.extend_from_slice(chunk);
                }
            }
        }
        out
    }

    /// Test support: serialize in the legacy **version-1** layout (monolithic
    /// planes inline with the metadata, no chunk index), for tests that need
    /// real legacy containers to pin the v1 read path — the normal writer
    /// always emits the current version.
    ///
    /// Only containers whose planes hold a single chunk each (encoded with
    /// `chunk_bytes: 0`) can be written this way.
    #[doc(hidden)]
    pub fn to_bytes_v1(&self) -> Result<Vec<u8>> {
        if self
            .levels
            .iter()
            .any(|l| l.planes.iter().any(|p| p.chunks.len() != 1))
        {
            return Err(IpcompError::InvalidInput(
                "v1 layout requires monolithic (single-chunk) planes".into(),
            ));
        }
        if self.header.precincts.is_some() {
            return Err(IpcompError::InvalidInput(
                "v1 layout cannot carry a precinct grid".into(),
            ));
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, 1);
        write_varint(&mut out, self.header.dims.len() as u64);
        for &d in &self.header.dims {
            write_varint(&mut out, d as u64);
        }
        write_f64(&mut out, self.header.error_bound);
        out.push(self.header.interpolation.id());
        write_u32(&mut out, self.header.num_levels);
        write_u32(&mut out, self.header.progressive_levels);
        out.push(self.header.prefix_bits);
        out.push(self.header.predictive_coding as u8);
        write_f64(&mut out, self.header.value_range);
        write_bytes(&mut out, &self.anchors);
        write_varint(&mut out, self.levels.len() as u64);
        for level in &self.levels {
            write_varint(&mut out, level.n_values as u64);
            out.push(level.num_planes);
            for &loss in &level.trunc_loss {
                write_varint(&mut out, loss);
            }
            for plane in &level.planes {
                write_bytes(&mut out, &plane.chunks[0]);
            }
        }
        Ok(out)
    }

    /// Deserialize a container produced by [`Compressed::to_bytes`] — either
    /// the current version-2 chunked layout or the original version-1
    /// monolithic layout.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let magic = buf
            .get(0..4)
            .ok_or(IpcompError::CorruptContainer("missing magic"))?;
        if magic != MAGIC {
            return Err(IpcompError::CorruptContainer("bad magic"));
        }
        pos += 4;
        let version = read_u32(buf, &mut pos)?;
        if !(MIN_VERSION..=VERSION_ROI).contains(&version) {
            return Err(IpcompError::CorruptContainer("unsupported version"));
        }
        let ndim = read_varint(buf, &mut pos)? as usize;
        if ndim == 0 || ndim > ipc_tensor::MAX_DIMS {
            return Err(IpcompError::CorruptContainer("invalid dimension count"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut elements: u64 = 1;
        for _ in 0..ndim {
            let d = read_varint(buf, &mut pos)?;
            elements = elements.saturating_mul(d.max(1));
            dims.push(d as usize);
        }
        if dims.contains(&0) || elements > MAX_ELEMENTS {
            return Err(IpcompError::CorruptContainer("implausible dimensions"));
        }
        let error_bound = read_f64(buf, &mut pos)?;
        let interp_id = *buf.get(pos).ok_or(IpcompError::CorruptContainer("eof"))?;
        pos += 1;
        let interpolation = Interpolation::from_id(interp_id)
            .ok_or(IpcompError::CorruptContainer("unknown interpolation id"))?;
        let num_levels = read_u32(buf, &mut pos)?;
        let progressive_levels = read_u32(buf, &mut pos)?;
        let prefix_bits = *buf.get(pos).ok_or(IpcompError::CorruptContainer("eof"))?;
        pos += 1;
        let predictive_coding = *buf.get(pos).ok_or(IpcompError::CorruptContainer("eof"))? != 0;
        pos += 1;
        let value_range = read_f64(buf, &mut pos)?;

        let (precincts, grid) = if version == VERSION_ROI {
            let mut extents = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                extents.push(read_varint(buf, &mut pos)? as usize);
            }
            let grid = validate_precincts(&dims, &extents)?;
            (Some(extents), Some(grid))
        } else {
            (None, None)
        };

        let anchors = read_bytes(buf, &mut pos)?.to_vec();

        let n_levels = read_varint(buf, &mut pos)? as usize;
        // Each level record costs at least 3 bytes, so a count outrunning the
        // buffer is corrupt; checking first bounds the preallocation.
        if n_levels > buf.len() {
            return Err(IpcompError::CorruptContainer("implausible level count"));
        }
        // One encoded level per interpolation level, always: the retrieval
        // paths compute `num_levels - idx`, which must never underflow.
        if n_levels != num_levels as usize {
            return Err(IpcompError::CorruptContainer(
                "level list does not match declared level count",
            ));
        }
        let shape = Shape::new(&dims);
        let mut levels = Vec::with_capacity(n_levels);
        for idx in 0..n_levels {
            let n_values = read_varint(buf, &mut pos)?;
            if n_values > elements {
                return Err(IpcompError::CorruptContainer(
                    "level larger than the whole field",
                ));
            }
            let n_values = n_values as usize;
            let num_planes = *buf.get(pos).ok_or(IpcompError::CorruptContainer("eof"))?;
            pos += 1;
            if num_planes > 63 {
                return Err(IpcompError::CorruptContainer("plane count out of range"));
            }
            let mut trunc_loss = Vec::with_capacity(num_planes as usize + 1);
            for _ in 0..=num_planes {
                trunc_loss.push(read_varint(buf, &mut pos)?);
            }
            let precinct_chunks = grid.as_ref().map(PrecinctGrid::num_precincts);
            let (chunk_bytes, planes) = if version == 1 {
                // v1: planes are single `varint length + bytes` blocks.
                let mut planes = Vec::with_capacity(num_planes as usize);
                for _ in 0..num_planes {
                    planes.push(EncodedPlane::monolithic(
                        read_bytes(buf, &mut pos)?.to_vec(),
                    ));
                }
                (0usize, planes)
            } else {
                Self::read_v2_level_blocks(buf, &mut pos, n_values, num_planes, precinct_chunks)?
            };
            let precinct_spans = match &grid {
                Some(g) => Some(level_spans_checked(
                    g,
                    &shape,
                    num_levels - idx as u32,
                    n_values,
                )?),
                None => None,
            };
            levels.push(EncodedLevel {
                n_values,
                num_planes,
                planes,
                trunc_loss,
                chunk_bytes,
                precinct_spans,
            });
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
            anchors,
            levels,
        })
    }

    /// Parse one v2/v3 level's chunk index and payload into planes.
    fn read_v2_level_blocks(
        buf: &[u8],
        pos: &mut usize,
        n_values: usize,
        num_planes: u8,
        precinct_chunks: Option<usize>,
    ) -> Result<(usize, Vec<EncodedPlane>)> {
        let (chunk_bytes, sizes, _) = {
            let mut cur = SliceIndexCursor { buf, pos };
            parse_v2_chunk_index(&mut cur, n_values, num_planes, precinct_chunks)?
        };
        let mut planes = Vec::with_capacity(num_planes as usize);
        for plane_sizes in sizes {
            let mut chunks = Vec::with_capacity(plane_sizes.len());
            for len in plane_sizes {
                let len = len as usize;
                let chunk =
                    buf.get(*pos..pos.saturating_add(len))
                        .ok_or(IpcompError::CorruptContainer(
                            "chunk payload outruns buffer",
                        ))?;
                *pos += len;
                chunks.push(chunk.to_vec());
            }
            planes.push(EncodedPlane { chunks });
        }
        Ok((chunk_bytes, planes))
    }
}

/// Minimal cursor the shared v2 chunk-index parser reads through, so the
/// fully resident reader (byte slice + position) and the ranged reader
/// ([`MetaCursor`]) validate the exact same grammar and can never drift.
trait IndexCursor {
    fn index_varint(&mut self) -> Result<u64>;
    fn index_remaining(&self) -> u64;
}

struct SliceIndexCursor<'a, 'p> {
    buf: &'a [u8],
    pos: &'p mut usize,
}

impl IndexCursor for SliceIndexCursor<'_, '_> {
    fn index_varint(&mut self) -> Result<u64> {
        Ok(read_varint(self.buf, self.pos)?)
    }
    fn index_remaining(&self) -> u64 {
        (self.buf.len() - (*self.pos).min(self.buf.len())) as u64
    }
}

/// Parse and validate one v2 level's chunk index: chunk span, per-plane
/// chunk counts against the derived grid, and every compressed size. Bounds
/// every count against what remains of the stream before any proportional
/// allocation; individual chunk sizes are capped at `u32::MAX` (far beyond
/// any producible chunk — packed spans are 64 KiB-scale). Returns
/// `(chunk_bytes, sizes[plane][chunk], payload_total)` with the cursor
/// positioned at the level's first payload byte.
fn parse_v2_chunk_index(
    cur: &mut impl IndexCursor,
    n_values: usize,
    num_planes: u8,
    precinct_chunks: Option<usize>,
) -> Result<(usize, Vec<Vec<u32>>, u64)> {
    let chunk_bytes = cur.index_varint()? as usize;
    if chunk_bytes != 0 && !chunk_bytes.is_multiple_of(8) {
        return Err(IpcompError::CorruptContainer("misaligned chunk size"));
    }
    let expected_chunks = if num_planes == 0 {
        0
    } else if let Some(p) = precinct_chunks {
        // v3: one chunk per precinct; the byte-granular span is unused.
        if chunk_bytes != 0 {
            return Err(IpcompError::CorruptContainer(
                "precinct level carries a byte-granular chunk size",
            ));
        }
        p
    } else if chunk_bytes == 0 {
        1
    } else {
        let grid = ChunkGrid {
            n_values,
            chunk_bytes,
        };
        grid.plane_len().div_ceil(chunk_bytes).max(1)
    };
    // The whole index must fit in what's left of the stream (each entry is
    // ≥ 1 byte), before any allocation proportional to it.
    if (num_planes as u64).saturating_mul(expected_chunks as u64) > cur.index_remaining() {
        return Err(IpcompError::CorruptContainer("chunk index outruns buffer"));
    }
    let mut sizes: Vec<Vec<u32>> = Vec::with_capacity(num_planes as usize);
    let mut payload_total: u64 = 0;
    for _ in 0..num_planes {
        let n_chunks = cur.index_varint()? as usize;
        if n_chunks != expected_chunks {
            return Err(IpcompError::CorruptContainer(
                "plane chunk count does not match the level's chunk grid",
            ));
        }
        let mut plane_sizes = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let len = cur.index_varint()?;
            if len > u32::MAX as u64 {
                return Err(IpcompError::CorruptContainer(
                    "chunk payload outruns buffer",
                ));
            }
            payload_total = payload_total.saturating_add(len);
            plane_sizes.push(len as u32);
        }
        sizes.push(plane_sizes);
    }
    if payload_total > cur.index_remaining() {
        return Err(IpcompError::CorruptContainer(
            "chunk payload outruns buffer",
        ));
    }
    Ok((chunk_bytes, sizes, payload_total))
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
    /// Per-precinct coefficient spans of a version-3 level (chunk `k` of
    /// every plane covers precinct `k`); `None` for byte-granular layouts.
    precinct_spans: Option<Vec<usize>>,
    /// `chunk_sizes[p][k]`: compressed size of chunk `k` of plane `p`.
    chunk_sizes: Vec<Vec<u32>>,
    /// `chunk_offsets[p][k]`: absolute container offset of that chunk.
    chunk_offsets: Vec<Vec<u64>>,
}

impl LevelMap {
    /// The level's chunk-grid geometry.
    pub fn grid(&self) -> ChunkGrid {
        ChunkGrid {
            n_values: self.n_values,
            chunk_bytes: self.chunk_bytes,
        }
    }

    /// The level's region scheme: how plane bytes split into chunks and which
    /// coefficients each chunk covers.
    pub fn scheme(&self) -> RegionScheme {
        match &self.precinct_spans {
            Some(spans) => RegionScheme::precincts(spans),
            None => RegionScheme::Uniform(self.grid()),
        }
    }

    /// Per-precinct coefficient spans of a version-3 level, `None` otherwise.
    pub fn precinct_spans(&self) -> Option<&[usize]> {
        self.precinct_spans.as_deref()
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

    /// Byte ranges of every chunk of planes `[plane_lo, plane_hi)`,
    /// plane-major (the container's own payload order, so adjacent entries
    /// are adjacent on disk and coalesce well).
    pub fn plane_ranges(&self, plane_lo: u8, plane_hi: u8) -> Vec<ByteRange> {
        (plane_lo..plane_hi.min(self.num_planes))
            .flat_map(|p| (0..self.plane_chunk_count(p)).map(move |k| self.chunk_range(p, k)))
            .collect()
    }

    /// Fetch the compressed chunks of planes `[plane_lo, plane_hi)` from
    /// `source` and assemble an in-memory [`EncodedLevel`] holding exactly
    /// those planes (planes outside the range keep empty chunk lists, which
    /// the plane-range decoders never touch).
    ///
    /// The fetch is one batched `read_ranges` call in payload order, so a
    /// coalescing source turns it into few contiguous reads.
    pub fn fetch_planes(
        &self,
        source: &dyn ChunkSource,
        plane_lo: u8,
        plane_hi: u8,
    ) -> Result<EncodedLevel> {
        let hi = plane_hi.min(self.num_planes);
        let ranges = self.plane_ranges(plane_lo, hi);
        let obs = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("pipeline", "fetch", obs.fetch_ns);
        let bytes: u64 = ranges.iter().map(|r| r.len as u64).sum();
        obs.fetch_bytes.add(bytes);
        span.add_arg("bytes", bytes);
        let bufs = read_ranges_exact(source, &ranges)?;
        drop(span);
        let mut it = bufs.into_iter();
        let planes: Vec<EncodedPlane> = (0..self.num_planes)
            .map(|p| {
                let chunks = if (plane_lo..hi).contains(&p) {
                    (0..self.plane_chunk_count(p))
                        .map(|_| it.next().expect("one buffer per range").to_vec())
                        .collect()
                } else {
                    Vec::new()
                };
                EncodedPlane { chunks }
            })
            .collect();
        Ok(EncodedLevel {
            n_values: self.n_values,
            num_planes: self.num_planes,
            planes,
            trunc_loss: self.trunc_loss.clone(),
            chunk_bytes: self.chunk_bytes,
            precinct_spans: self.precinct_spans.clone(),
        })
    }

    /// Fetch only the chunks of planes `[plane_lo, plane_hi)` whose precinct
    /// is marked in `mask`, assembling an [`EncodedLevel`] whose unfetched
    /// chunks stay empty. The caller must only decode regions it asked for —
    /// the pruned ROI decode path does exactly that. Byte-granular levels
    /// reject the call (region pruning is a precinct-layout capability).
    pub fn fetch_planes_precincts(
        &self,
        source: &dyn ChunkSource,
        plane_lo: u8,
        plane_hi: u8,
        mask: &[bool],
    ) -> Result<EncodedLevel> {
        let spans = self.precinct_spans.as_ref().ok_or_else(|| {
            IpcompError::InvalidInput("precinct fetch on a byte-granular level".into())
        })?;
        if mask.len() != spans.len() {
            return Err(IpcompError::InvalidInput(
                "precinct mask does not match the level's precinct count".into(),
            ));
        }
        let hi = plane_hi.min(self.num_planes);
        // Chunk ids tile a plane's payload back to back, so a run of
        // consecutive masked precincts is one contiguous byte range. Reading
        // per run instead of per chunk keeps the request list proportional to
        // the region's precinct rows, not its precinct count times planes.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut k = 0;
        while k < mask.len() {
            if mask[k] {
                let k0 = k;
                while k < mask.len() && mask[k] {
                    k += 1;
                }
                runs.push((k0, k));
            } else {
                k += 1;
            }
        }
        let ranges: Vec<ByteRange> = (plane_lo..hi)
            .flat_map(|p| {
                runs.iter().map(move |&(k0, k1)| {
                    let first = self.chunk_range(p, k0);
                    let last = self.chunk_range(p, k1 - 1);
                    ByteRange::new(first.offset, (last.end() - first.offset) as usize)
                })
            })
            .collect();
        let obs = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("pipeline", "fetch", obs.fetch_ns);
        let bytes: u64 = ranges.iter().map(|r| r.len as u64).sum();
        obs.fetch_bytes.add(bytes);
        span.add_arg("bytes", bytes);
        let bufs = read_ranges_exact(source, &ranges)?;
        drop(span);
        let mut it = bufs.into_iter();
        let planes: Vec<EncodedPlane> = (0..self.num_planes)
            .map(|p| {
                let chunks = if (plane_lo..hi).contains(&p) {
                    let mut chunks = vec![Vec::new(); mask.len()];
                    for &(k0, k1) in &runs {
                        let buf = it.next().expect("one buffer per run");
                        let base = self.chunk_offsets[p as usize][k0];
                        for (k, chunk) in chunks.iter_mut().enumerate().take(k1).skip(k0) {
                            let r = self.chunk_range(p, k);
                            let at = (r.offset - base) as usize;
                            *chunk = buf[at..at + r.len].to_vec();
                        }
                    }
                    chunks
                } else {
                    Vec::new()
                };
                EncodedPlane { chunks }
            })
            .collect();
        Ok(EncodedLevel {
            n_values: self.n_values,
            num_planes: self.num_planes,
            planes,
            trunc_loss: self.trunc_loss.clone(),
            chunk_bytes: self.chunk_bytes,
            precinct_spans: self.precinct_spans.clone(),
        })
    }
}

/// Buffered forward reader over a [`ChunkSource`], used to parse container
/// metadata with small batched fetches while *skipping* payload bytes
/// entirely — the whole point of opening a container by ranges.
struct MetaCursor<'s> {
    source: &'s dyn ChunkSource,
    len: u64,
    pos: u64,
    buf: Vec<u8>,
    buf_start: u64,
}

/// Granularity of metadata fetches; metadata records are typically a few
/// hundred bytes, so one fetch usually covers a whole level record.
const META_FETCH: usize = 4096;

impl<'s> MetaCursor<'s> {
    fn new(source: &'s dyn ChunkSource) -> Self {
        Self {
            source,
            len: source.len(),
            pos: 0,
            buf: Vec::new(),
            buf_start: 0,
        }
    }

    fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Buffer at least `want` bytes at the cursor (clamped to EOF) and return
    /// the buffered tail starting at the cursor.
    fn ensure(&mut self, want: usize) -> Result<&[u8]> {
        let have_end = self.buf_start + self.buf.len() as u64;
        let buffered = if self.pos >= self.buf_start && self.pos <= have_end {
            (have_end - self.pos) as usize
        } else {
            0
        };
        let want = want.min(self.remaining() as usize);
        if buffered < want {
            let fetch = want.max(META_FETCH).min(self.remaining() as usize);
            let bytes = self.source.read_range(ByteRange::new(self.pos, fetch))?;
            if bytes.len() != fetch {
                return Err(IpcompError::CorruptContainer("source returned short read"));
            }
            self.buf = bytes.to_vec();
            self.buf_start = self.pos;
        }
        let off = (self.pos - self.buf_start) as usize;
        Ok(&self.buf[off.min(self.buf.len())..])
    }

    fn read_u8(&mut self) -> Result<u8> {
        let b = *self
            .ensure(1)?
            .first()
            .ok_or(IpcompError::CorruptContainer("eof"))?;
        self.pos += 1;
        Ok(b)
    }

    fn read_u32(&mut self) -> Result<u32> {
        let buf = self.ensure(4)?;
        let mut p = 0usize;
        let v = read_u32(buf, &mut p)?;
        self.pos += p as u64;
        Ok(v)
    }

    fn read_f64(&mut self) -> Result<f64> {
        let buf = self.ensure(8)?;
        let mut p = 0usize;
        let v = read_f64(buf, &mut p)?;
        self.pos += p as u64;
        Ok(v)
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

    /// Copy `n` bytes out (used for the always-loaded anchor block).
    fn read_exact(&mut self, n: usize) -> Result<Vec<u8>> {
        if (self.remaining() as usize) < n {
            return Err(IpcompError::CorruptContainer("eof"));
        }
        let out = if n <= META_FETCH {
            self.ensure(n)?[..n].to_vec()
        } else {
            let bytes = self.source.read_range(ByteRange::new(self.pos, n))?;
            if bytes.len() != n {
                return Err(IpcompError::CorruptContainer("source returned short read"));
            }
            bytes.to_vec()
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

impl IndexCursor for MetaCursor<'_> {
    fn index_varint(&mut self) -> Result<u64> {
        self.read_varint()
    }
    fn index_remaining(&self) -> u64 {
        self.remaining()
    }
}

/// Metadata-only view of one serialized container: header, anchors, and the
/// per-level chunk index with **absolute byte offsets** — everything needed
/// to plan a retrieval and fetch exactly the chunk ranges the plan selects,
/// without ever materializing payload that wasn't asked for.
///
/// Opened over any [`ChunkSource`]; parsing fetches metadata in small batched
/// reads and skips payload byte ranges entirely, so opening a multi-gigabyte
/// remote container costs a handful of small GETs.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMap {
    /// Container header (same validation as [`Compressed::from_bytes`]).
    pub header: Header,
    /// LZR-compressed anchor codes (always loaded — every reconstruction
    /// needs them, so the map carries them rather than re-fetching).
    pub anchors: Vec<u8>,
    /// Per-level chunk indexes, coarsest level first.
    pub levels: Vec<LevelMap>,
    /// Bytes of the serialized stream that are not plane payload (header,
    /// anchors, metadata records). For version-1 containers this reflects the
    /// *actual* v1 layout, which differs slightly from the v2 re-serialization
    /// accounting [`Compressed::base_bytes`] reports.
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

    /// Parse the metadata of a serialized container through ranged reads.
    ///
    /// Applies the same structural validation as [`Compressed::from_bytes`]
    /// — every count is checked against the header geometry and the source
    /// length before any proportional allocation, and every recorded chunk
    /// range is verified to lie inside the source.
    pub fn open(source: &dyn ChunkSource) -> Result<Self> {
        let mut cur = MetaCursor::new(source);
        let magic = cur.read_exact(4)?;
        if magic != MAGIC {
            return Err(IpcompError::CorruptContainer("bad magic"));
        }
        let version = cur.read_u32()?;
        if !(MIN_VERSION..=VERSION_ROI).contains(&version) {
            return Err(IpcompError::CorruptContainer("unsupported version"));
        }
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
                    let len = cur.read_varint()?;
                    if len > cur.remaining() {
                        return Err(IpcompError::CorruptContainer(
                            "chunk payload outruns buffer",
                        ));
                    }
                    chunk_sizes.push(vec![len as u32]);
                    chunk_offsets.push(vec![cur.pos]);
                    payload_total += len;
                    cur.skip(len)?;
                }
                LevelMap {
                    n_values,
                    num_planes,
                    trunc_loss,
                    chunk_bytes: 0,
                    precinct_spans,
                    chunk_sizes,
                    chunk_offsets,
                }
            } else {
                Self::open_v2_level(
                    &mut cur,
                    n_values,
                    num_planes,
                    trunc_loss,
                    precinct_spans,
                    &mut payload_total,
                )?
            };
            levels.push(level);
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
            anchors,
            levels,
            base_bytes: (cur.pos - payload_total) as usize,
            total_len: cur.len,
        })
    }

    /// Parse one v2/v3 level's chunk index and record absolute payload offsets.
    fn open_v2_level(
        cur: &mut MetaCursor<'_>,
        n_values: usize,
        num_planes: u8,
        trunc_loss: Vec<u64>,
        precinct_spans: Option<Vec<usize>>,
        payload_total: &mut u64,
    ) -> Result<LevelMap> {
        let (chunk_bytes, chunk_sizes, level_payload) = parse_v2_chunk_index(
            cur,
            n_values,
            num_planes,
            precinct_spans.as_ref().map(Vec::len),
        )?;
        // Payload follows plane-major; walk the sizes to assign offsets.
        let mut offset = cur.pos;
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
        cur.skip(level_payload)?;
        *payload_total += level_payload;
        Ok(LevelMap {
            n_values,
            num_planes,
            trunc_loss,
            chunk_bytes,
            precinct_spans,
            chunk_sizes,
            chunk_offsets,
        })
    }

    /// Build the map of an in-memory container's **current serialization**
    /// (the byte layout [`Compressed::to_bytes`] produces). Useful to plan
    /// ranged retrievals against a container that is also held in memory, and
    /// as an independent cross-check of [`ContainerMap::open`].
    pub fn from_compressed(c: &Compressed) -> Self {
        let mut pos = c.base_bytes() as u64
            - c.levels
                .iter()
                .map(Compressed::level_metadata_bytes)
                .sum::<usize>() as u64;
        let levels = c
            .levels
            .iter()
            .map(|level| {
                pos += Compressed::level_metadata_bytes(level) as u64;
                let chunk_sizes: Vec<Vec<u32>> = level
                    .planes
                    .iter()
                    .map(|p| p.chunks.iter().map(|ch| ch.len() as u32).collect())
                    .collect();
                let chunk_offsets: Vec<Vec<u64>> = chunk_sizes
                    .iter()
                    .map(|plane| {
                        plane
                            .iter()
                            .map(|&len| {
                                let at = pos;
                                pos += len as u64;
                                at
                            })
                            .collect()
                    })
                    .collect();
                LevelMap {
                    n_values: level.n_values,
                    num_planes: level.num_planes,
                    trunc_loss: level.trunc_loss.clone(),
                    chunk_bytes: level.chunk_bytes,
                    precinct_spans: level.precinct_spans.clone(),
                    chunk_sizes,
                    chunk_offsets,
                }
            })
            .collect();
        Self {
            header: c.header.clone(),
            anchors: c.anchors.clone(),
            levels,
            base_bytes: c.base_bytes(),
            total_len: c.total_bytes() as u64,
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
    let raw = ipc_codecs::lzr::lzr_decompress_bounded(
        bytes,
        max_codes.saturating_mul(10).saturating_add(10),
    )?;
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
        let opts = EncodeOptions {
            chunk_bytes: 16,
            ..EncodeOptions::default()
        };
        c.levels = vec![
            crate::bitplane::encode_level_with(&codes_l2, 2, true, false, opts),
            crate::bitplane::encode_level_with(&codes_l1, 2, true, false, opts),
        ];
        c
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
        for c in [sample_compressed(), sample_compressed_chunked()] {
            assert_eq!(c.total_bytes(), c.to_bytes().len());
            assert_eq!(c.base_bytes() + c.payload_bytes(), c.to_bytes().len());
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
        for c in [sample_compressed(), sample_compressed_chunked()] {
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

    #[test]
    fn container_map_v1_is_one_whole_payload_range_per_plane() {
        let mut c = sample_compressed();
        // v1 requires monolithic planes; re-encode with chunking disabled.
        let codes_l1: Vec<i64> = (0..500).map(|i| ((i * i) % 97) as i64 - 48).collect();
        let codes_l2: Vec<i64> = (0..100).map(|i| (i % 31) as i64 - 15).collect();
        let opts = EncodeOptions {
            chunk_bytes: 0,
            ..EncodeOptions::default()
        };
        c.levels = vec![
            crate::bitplane::encode_level_with(&codes_l2, 2, true, false, opts),
            crate::bitplane::encode_level_with(&codes_l1, 2, true, false, opts),
        ];
        let v1_bytes = c.to_bytes_v1().unwrap();
        assert_eq!(&v1_bytes[4..8], &1u32.to_le_bytes());
        // The byte reader accepts the legacy stream…
        let parsed = Compressed::from_bytes(&v1_bytes).unwrap();
        assert_eq!(parsed.levels, c.levels);
        // …and the ranged map exposes exactly one whole-payload range per
        // plane, each addressing the plane's compressed bytes.
        let source = crate::source::MemorySource::new(v1_bytes.clone());
        let map = ContainerMap::open(&source).unwrap();
        for (level, lmap) in c.levels.iter().zip(&map.levels) {
            assert_eq!(lmap.chunk_bytes, 0);
            for (p, plane) in level.planes.iter().enumerate() {
                assert_eq!(lmap.plane_chunk_count(p as u8), 1);
                let r = lmap.chunk_range(p as u8, 0);
                assert_eq!(r.len, plane.chunks[0].len());
                assert_eq!(
                    &v1_bytes[r.offset as usize..r.end() as usize],
                    &plane.chunks[0][..]
                );
            }
        }
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
        let fetched = lmap.fetch_planes(&source, lo, hi).unwrap();
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
