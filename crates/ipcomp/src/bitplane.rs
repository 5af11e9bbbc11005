//! Predictive negabinary bitplane coding (paper Sec. 4.3–4.4), word-parallel
//! with a chunked entropy pipeline.
//!
//! Each level's quantized residuals are mapped to negabinary, sliced into bitplanes
//! (all coefficients' bit `p` form plane `p`), and each plane is compressed into an
//! independently loadable block. Two refinements give the coder its compression
//! ratio:
//!
//! * **Predictive coding** — the bit stored for plane `p` is the XOR of the raw bit
//!   with its `prefix_bits` more-significant neighbours from the same coefficient
//!   (Table 2 of the paper shows 2 prefix bits minimizes entropy). During decoding
//!   the more-significant planes have already been loaded, so the prediction can be
//!   undone plane by plane.
//! * **Negabinary representation** — keeps high-order planes of near-zero residuals
//!   full of zeros and makes plane truncation additive, so skipping low planes simply
//!   subtracts a bounded, pre-computable amount from each coefficient.
//!
//! # Word-parallel implementation
//!
//! The coder never touches individual bits. It exploits two algebraic facts:
//!
//! 1. **Prediction is linear over GF(2) and shift-invariant.** The encoded bit of
//!    plane `p` is `raw_p ⊕ raw_{p+1} ⊕ … ⊕ raw_{p+prefix_bits}` (planes ≥ 64 read
//!    as zero). Applied to *all* planes of one coefficient word `w` at once, the
//!    entire predicted word is
//!
//!    ```text
//!    enc(w) = w ^ (w >> 1) ^ … ^ (w >> prefix_bits)
//!    ```
//!
//!    because bit `p` of `w >> k` *is* raw plane `p + k`. Prediction therefore
//!    costs `prefix_bits` shift-XORs per coefficient — there is no per-bit
//!    `prefix_parity` anywhere on the encode path. The inverse on decode is the
//!    same identity read plane-wise: `raw_p = enc_p ⊕ raw_{p+1} ⊕ … ⊕
//!    raw_{p+prefix_bits}`, i.e. one whole-plane XOR per prefix bit, applied
//!    top-down so the more significant raw planes are already known.
//! 2. **Plane extraction is a bit-matrix transpose.** Treating 64 consecutive
//!    coefficient words as a 64×64 bit matrix, a Hacker's-Delight transpose
//!    ([`ipc_codecs::bitslice`]) yields all 64 plane words of the block in ~6×64
//!    word operations, and its involution scatters decoded planes back into the
//!    accumulators.
//!
//! # Chunked entropy pipeline
//!
//! The packed bit stream of every plane is split into fixed-size
//! [`CHUNK_BYTES`] chunks and each chunk is entropy-coded *independently*
//! (LZ77 + rANS/Huffman/store, see [`ipc_codecs::lzr`]). Chunking buys three
//! things at a fraction of a percent of ratio:
//!
//! * **Even parallelism** — encode fans out over every `(plane, chunk)` pair,
//!   so the rayon pool sees uniform ~64 KiB work items instead of one lumpy
//!   task per plane (dense low planes cost 10× what sparse high planes do).
//! * **Streaming** — a chunk covers a contiguous coefficient range, and every
//!   plane of a level shares the same [`RegionScheme`], so a decoder can fully
//!   reconstruct coefficients `[k·8·CHUNK_BYTES, (k+1)·8·CHUNK_BYTES)` from
//!   just the `k`-th chunk of each loaded plane (the decoder's level
//!   loader). Memory stays bounded by the region size, not the level size.
//! * **Addressability** — the version-2 container records every chunk's size
//!   in its metadata, so a remote reader can fetch any chunk without parsing
//!   payload bytes.
//!
//! # One layout, one encoder
//!
//! How a level's plane bytes are cut — [`CHUNK_BYTES`]-sized byte regions
//! or one whole-plane region (version 2), or one region per spatial
//! precinct (version 3) — is decided in exactly one place, [`RegionScheme`]:
//! it owns the region arithmetic and the format's chunk-alignment rule, and
//! [`EncodedLevel::scheme`] / [`crate::container::LevelMap::scheme`] are the
//! only way from a level to its packed geometry. There is likewise one
//! encoder body, `encode_regions`, parameterised by the scheme;
//! [`encode_level_with`] and [`encode_level_precincts`] only build the scheme
//! and record what it was built from. The decode side has one body too, the
//! crate's level loader (`pipeline::load_level`): [`decode_planes_into`] and
//! every retrieval load through it. A new layout is one scheme case, not a
//! second coder.
//!
//! Prediction stays correct under chunking because it operates per
//! coefficient *across* planes: bit `i` of plane `p` mixes only with bit `i`
//! of planes `p+1..=p+prefix_bits`, all of which live in the same chunk
//! position `i / (8·CHUNK_BYTES)` of their planes.
//!
//! Because the slicing/prediction identities reproduce the scalar definition bit
//! for bit, the *packed plane bytes* are unchanged from the historical coder; the
//! scalar reference (retained under `scalar` as a test oracle, compiled for
//! tests only) shares the region scheme and the
//! chunked entropy stage, so payloads remain byte-identical between the two.
//!
//! # One pass in front of the slicer
//!
//! Everything the encoder does per coefficient *before* slicing happens in one
//! trip over the level's codes: negabinary conversion, the OR that gives the
//! plane count, the truncation-loss scan (`LevelScan`: a presence map of low
//! 16-bit patterns plus a per-word sweep of the high bits) and the whole-word
//! prediction, whose output — the predicted words — is the only level-sized
//! array the encoder allocates. The staged public functions
//! ([`ipc_codecs::negabinary::to_negabinary_slice`],
//! [`ipc_codecs::negabinary::required_bitplanes_words`],
//! [`truncation_loss_table`], [`ipc_codecs::bitslice::slice_planes`]) remain
//! the definition the pass is tested against; [`truncation_loss_table`] is the
//! same scan run on its own.
//!
//! Truncation-loss metadata is unaffected by prediction or chunking: `trunc_loss`
//! is computed from the *raw* negabinary words before prediction, and prediction
//! permutes only how plane bits are stored, not which planes exist or what
//! discarding them does to a reconstruction.
//!
//! The per-level metadata records the exact worst-case truncation loss
//! `‖δy_l(b)‖∞` for every possible number of discarded planes `b`, which is what the
//! optimizer (Sec. 5) consumes.

use std::sync::Arc;

use ipc_codecs::bitslice::slice_planes;
use ipc_codecs::negabinary::{from_negabinary, to_negabinary, truncation_loss};
use ipc_codecs::{lzr_compress, CodecError};
use rayon::prelude::*;

use crate::container::EMPTY_REGION_PAYLOAD;
use crate::error::{IpcompError, Result};
use crate::pipeline::{clear_planes, load_level, region_list, LevelChunks};

/// Minimum number of coefficients before the coder fans work out to rayon.
const PARALLEL_THRESHOLD: usize = 4096;

/// Packed plane bytes covered by one entropy chunk (512 Ki coefficients).
/// Must stay a multiple of 8 so chunk boundaries align with the 64-coefficient
/// transpose blocks.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// How a level's packed plane bytes split into independently decodable chunk
/// regions, and which coefficients each region covers — the one description
/// of a level's layout. The encoder cuts by it, the container parser counts
/// chunks by it, and every decode stage (and the `scalar` oracle) reads
/// region geometry from it; nothing else restates the arithmetic.
///
/// Version-1/2 containers use a *uniform* byte grid: every region spans the
/// same number of packed bytes regardless of where coefficients sit in
/// space. Version-3 containers cut regions on spatial *precinct* boundaries
/// instead: region `k` holds the `spans[k]` coefficients of precinct `k` (in
/// precinct-major container order), packed independently into
/// `spans[k].div_ceil(8)` bytes so every region starts byte-aligned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionScheme {
    /// Fixed-size byte regions (version 2); build with
    /// [`RegionScheme::uniform`].
    Uniform {
        /// Number of coefficients in the level.
        n_values: usize,
        /// Packed bytes per region (≥ 1): the chunk size, or the whole plane
        /// for whole-plane levels.
        region_bytes: usize,
    },
    /// Precinct-aligned regions (version-3 layout); build with
    /// [`RegionScheme::precincts`].
    Precincts {
        /// Number of coefficients in the level.
        n_values: usize,
        /// Coefficients per precinct, precinct-id order (zero spans allowed).
        spans: Vec<usize>,
        /// Exclusive prefix sums of `spans` (coefficient start per region).
        coeff_starts: Vec<usize>,
        /// Packed-byte start of every region within a plane.
        byte_starts: Vec<usize>,
    },
}

impl RegionScheme {
    /// The uniform byte grid over `n_values` coefficients: regions of
    /// `chunk_bytes` packed bytes each, or one whole-plane region when
    /// `chunk_bytes` is `0`. `None` unless
    /// `chunk_bytes` is a multiple of 8 — the format's rule that chunk
    /// boundaries sit on 64-coefficient transpose blocks, stated here once;
    /// the encoder, [`crate::compress`] and the container parser each turn a
    /// `None` into their own error.
    pub fn uniform(n_values: usize, chunk_bytes: usize) -> Option<Self> {
        chunk_bytes
            .is_multiple_of(8)
            .then(|| Self::cut_every(n_values, chunk_bytes))
    }

    /// [`RegionScheme::uniform`] without the alignment rule: the grid a level
    /// *claims*, whatever it claims.
    fn cut_every(n_values: usize, chunk_bytes: usize) -> Self {
        let region_bytes = if chunk_bytes == 0 {
            n_values.div_ceil(8).max(1)
        } else {
            chunk_bytes
        };
        Self::Uniform {
            n_values,
            region_bytes,
        }
    }

    /// Build the precinct-aligned scheme from per-precinct coefficient spans.
    pub fn precincts(spans: &[usize]) -> Self {
        let mut coeff_starts = Vec::with_capacity(spans.len());
        let mut byte_starts = Vec::with_capacity(spans.len());
        let (mut coeff, mut byte) = (0usize, 0usize);
        for &s in spans {
            coeff_starts.push(coeff);
            byte_starts.push(byte);
            coeff += s;
            byte += s.div_ceil(8);
        }
        Self::Precincts {
            n_values: coeff,
            spans: spans.to_vec(),
            coeff_starts,
            byte_starts,
        }
    }

    /// Per-precinct coefficient spans of a precinct scheme, `None` for the
    /// uniform grid.
    pub(crate) fn precinct_spans(&self) -> Option<&[usize]> {
        match self {
            RegionScheme::Uniform { .. } => None,
            RegionScheme::Precincts { spans, .. } => Some(spans),
        }
    }

    /// Number of coefficients in the level.
    pub fn n_values(&self) -> usize {
        match self {
            RegionScheme::Uniform { n_values, .. } | RegionScheme::Precincts { n_values, .. } => {
                *n_values
            }
        }
    }

    /// Length of one packed (uncompressed) plane in bytes. Precinct planes
    /// carry up to 7 padding bits per precinct, so this can exceed
    /// `n_values.div_ceil(8)`.
    pub fn plane_len(&self) -> usize {
        match self {
            RegionScheme::Uniform { n_values, .. } => n_values.div_ceil(8),
            RegionScheme::Precincts { spans, .. } => match spans.len() {
                0 => 0,
                n => self.region_byte_range(n - 1).end,
            },
        }
    }

    /// Number of chunk regions every plane of this level is split into.
    pub fn num_regions(&self) -> usize {
        match self {
            RegionScheme::Uniform { region_bytes, .. } => self.plane_len().div_ceil(*region_bytes),
            RegionScheme::Precincts { spans, .. } => spans.len(),
        }
    }

    /// Packed byte range of region `k` within a plane.
    pub fn region_byte_range(&self, k: usize) -> std::ops::Range<usize> {
        match self {
            RegionScheme::Uniform { region_bytes, .. } => {
                (k * region_bytes)..((k + 1) * region_bytes).min(self.plane_len())
            }
            RegionScheme::Precincts {
                spans, byte_starts, ..
            } => byte_starts[k]..byte_starts[k] + spans[k].div_ceil(8),
        }
    }

    /// Coefficient range reconstructed by region `k`.
    pub fn region_coeff_range(&self, k: usize) -> std::ops::Range<usize> {
        match self {
            RegionScheme::Uniform { n_values, .. } => {
                let bytes = self.region_byte_range(k);
                (bytes.start * 8)..(bytes.end * 8).min(*n_values)
            }
            RegionScheme::Precincts {
                spans,
                coeff_starts,
                ..
            } => coeff_starts[k]..coeff_starts[k] + spans[k],
        }
    }
}

/// One bitplane compressed as independently decodable entropy chunks.
///
/// Chunk `k` holds region `k` of the owning level's [`EncodedLevel::scheme`]:
/// a fixed span of packed plane bytes (or the whole plane) in version-2
/// containers, one spatial precinct in version-3 containers.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedPlane {
    /// Compressed chunk payloads, in coefficient order.
    pub chunks: Vec<Vec<u8>>,
}

impl EncodedPlane {
    /// Wrap a whole-plane block as a single chunk.
    pub fn monolithic(block: Vec<u8>) -> Self {
        Self {
            chunks: vec![block],
        }
    }

    /// Total compressed size of this plane in bytes.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether the plane holds no compressed bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Chunk layout of [`encode_level_with`] (carries [`crate::Config::chunk_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Packed bytes per entropy chunk; `0` disables chunking and stores one
    /// monolithic block per plane. Must be a multiple
    /// of 8 so chunks align with 64-coefficient transpose blocks.
    pub chunk_bytes: usize,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        Self {
            chunk_bytes: CHUNK_BYTES,
        }
    }
}

/// One level's residuals encoded as independently loadable bitplane blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedLevel {
    /// Number of coefficients in the level.
    pub n_values: usize,
    /// Number of significant negabinary bitplanes (planes above this are all zero).
    pub num_planes: u8,
    /// Compressed plane blocks; `planes[p]` holds bit `p` of every coefficient
    /// (`p = 0` is the least significant plane).
    pub planes: Vec<EncodedPlane>,
    /// `trunc_loss[b]` = maximum absolute error, in quantization-code units, incurred
    /// by discarding the `b` least significant planes (`b` ranges `0..=num_planes`).
    pub trunc_loss: Vec<u64>,
    /// Packed bytes per entropy chunk; `0` means whole-plane blocks. All
    /// planes of a level share the same chunk grid.
    /// Ignored when `precinct_spans` is set.
    pub chunk_bytes: usize,
    /// Per-precinct coefficient spans of the version-3 precinct-major layout;
    /// `None` for the uniform version-2 byte grid. When set, the level's
    /// coefficients are stored precinct-major and chunk `k` of every plane
    /// holds precinct `k`'s independently packed bits.
    pub precinct_spans: Option<Vec<usize>>,
}

impl EncodedLevel {
    /// The level's region scheme: how plane bytes split into chunks and which
    /// coefficients each chunk covers — the only way to the level's packed
    /// geometry. It describes the level as it claims to be cut; a hand-built
    /// level whose `chunk_bytes` breaks the alignment rule of
    /// [`RegionScheme::uniform`] still gets a grid, which
    /// `EncodedLevel::check_chunks` checks the chunk counts against and
    /// decode every decoded size.
    pub fn scheme(&self) -> RegionScheme {
        match &self.precinct_spans {
            Some(spans) => RegionScheme::precincts(spans),
            None => RegionScheme::cut_every(self.n_values, self.chunk_bytes),
        }
    }

    /// Total compressed size of all plane blocks in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.planes.iter().map(EncodedPlane::len).sum()
    }

    /// Compressed size of the `b` least significant planes (the bytes *saved* by
    /// discarding them).
    pub fn saved_bytes(&self, b: u8) -> usize {
        self.planes
            .iter()
            .take(b as usize)
            .map(EncodedPlane::len)
            .sum()
    }

    /// Compressed size of the planes that remain loaded when `b` planes are
    /// discarded.
    pub fn loaded_bytes(&self, b: u8) -> usize {
        self.payload_bytes() - self.saved_bytes(b)
    }

    /// The level's chunk structure under `scheme` (its own
    /// [`EncodedLevel::scheme`], or the one its map built): a plane list
    /// `num_planes` long, one chunk per region in every plane, and an empty
    /// chunk for every region without coefficients — what the container
    /// parser refuses of an index, refused here as
    /// [`IpcompError::CorruptContainer`] with the same reasons. A resident
    /// container's map records it in its verdict
    /// ([`crate::ContainerMap::from_compressed`]); [`decode_planes_into`]
    /// runs it on every call.
    pub(crate) fn check_chunks(&self, scheme: &RegionScheme) -> Result<()> {
        if self.planes.len() != self.num_planes as usize {
            return Err(IpcompError::CorruptContainer(
                "plane list does not match the level's plane count",
            ));
        }
        let n = scheme.num_regions();
        if self.planes.iter().any(|p| p.chunks.len() != n) {
            return Err(IpcompError::CorruptContainer(
                "plane chunk count does not match the level's chunk grid",
            ));
        }
        for k in (0..n).filter(|&k| scheme.region_coeff_range(k).is_empty()) {
            if self.planes.iter().any(|p| !p.chunks[k].is_empty()) {
                return Err(IpcompError::CorruptContainer(EMPTY_REGION_PAYLOAD));
            }
        }
        Ok(())
    }

    /// Planes `[plane_lo, plane_hi)` of the level as one load of the decode
    /// pipeline, cut by `scheme`, over the [`region_list`] of `region`'s
    /// ascending ids or of every region: its chunks borrowed into a table of
    /// `(plane_hi − plane_lo) × list length` entries, plane-major and
    /// list-ordered. The level must have passed
    /// `EncodedLevel::check_chunks` under `scheme`; only a plane range
    /// outside the level is refused, as [`IpcompError::InvalidInput`].
    pub(crate) fn chunk_table(
        &self,
        scheme: Arc<RegionScheme>,
        plane_lo: u8,
        plane_hi: u8,
        region: Option<&[usize]>,
    ) -> Result<LevelChunks<'_>> {
        check_plane_range(self.num_planes, plane_lo, plane_hi)?;
        let regions = region_list(&scheme, region);
        let planes = &self.planes[plane_lo as usize..plane_hi as usize];
        let chunks = planes
            .iter()
            .flat_map(|p| regions.iter().map(|&k| &p.chunks[k][..]));
        Ok(LevelChunks {
            chunks: chunks.collect(),
            scheme,
            num_planes: self.num_planes,
            plane_lo,
            plane_hi,
            regions,
        })
    }
}

/// Apply the GF(2)-linear prediction to every plane of one coefficient word:
/// bit `p` of the result is `raw_p ⊕ raw_{p+1} ⊕ … ⊕ raw_{p+prefix_bits}`.
#[inline(always)]
fn predict_word(w: u64, prefix_bits: u8) -> u64 {
    // The widths in use (the default is 2) spelled out: a variable-trip loop
    // per word cost the encoder's front end a quarter of its time.
    match prefix_bits {
        0 => w,
        1 => w ^ (w >> 1),
        2 => w ^ (w >> 1) ^ (w >> 2),
        _ => (1..=prefix_bits as u32).fold(w, |enc, k| enc ^ (w >> k)),
    }
}

/// Exact (not monotonized) maximum `|truncation_loss|` over `nb` for one
/// discard count `b`, exploiting that negabinary is positional: the loss of
/// dropping the low `b` planes of `w` is exactly
/// `from_negabinary(w & ((1 << b) - 1))` — the signed value of those planes
/// alone. [`truncation_loss_table`] folds these into a running maximum.
fn max_masked_loss(nb: &[u64], b: usize) -> u64 {
    let mask = (1u64 << b) - 1;
    let mut exact = 0u64;
    for &w in nb {
        exact = exact.max(from_negabinary(w & mask).unsigned_abs());
    }
    debug_assert_eq!(
        exact,
        nb.iter()
            .map(|&w| truncation_loss(w, b as u32).unsigned_abs())
            .max()
            .unwrap_or(0)
    );
    exact
}

/// Planes whose truncation loss is read off the low-bit presence map; the
/// planes above it come from the per-word sweep (see [`LevelScan`]).
const PATTERN_BITS: usize = 16;

/// Everything the encoder needs from one look at each of a level's raw
/// negabinary words, accumulated in a single pass: the OR of all words (the
/// plane count), which low-16-bit patterns occur, and the largest masked
/// value right after each set high bit. [`LevelScan::loss_table`] turns it
/// into the truncation-loss table without going back to the words.
///
/// * **`b ≤ 16`** — the loss of discarding `b` planes depends only on the
///   low 16 bits of each word, so the presence bitmap (8 KB) stands in for
///   the level: the table entry is the largest `|value|` among the present
///   `b`-bit patterns, and the `b − 1`-bit map is the `b`-bit map folded in
///   half (dropping a pattern's top bit) — 2^17 pattern visits for all
///   sixteen entries, however many coefficients there are.
/// * **`b > 16`** — negabinary is positional, so a word's masked value grows
///   by `±2^i` per set bit `i`, and between set bits `|value|` is constant —
///   already covered by the running maximum. Each word therefore updates
///   only the discard counts right after its set high bits; words whose high
///   bits are all zero (most of a near-zero-centred residual distribution)
///   cost one test.
struct LevelScan {
    all: u64,
    /// Word `i`, bit `j` set iff a word's low bits are pattern `64·i + j`.
    present: Vec<u64>,
    /// `high[b]` for `b > PATTERN_BITS`: largest `|value of the low b
    /// planes|` seen at a word whose bit `b − 1` is set.
    high: [u64; 64],
}

impl LevelScan {
    /// Bits the high sweep looks at. Bit 63 is beyond the format's plane cap
    /// (and `2^63` beyond `i64`).
    const HIGH: u64 = (u64::MAX >> 1) & !Self::LOW;
    const LOW: u64 = (1 << PATTERN_BITS) - 1;

    fn new() -> Self {
        Self {
            all: 0,
            present: vec![0u64; 1 << (PATTERN_BITS - 6)],
            high: [0; 64],
        }
    }

    #[inline(always)]
    fn add(&mut self, w: u64) {
        self.all |= w;
        let pat = (w & Self::LOW) as usize;
        self.present[pat >> 6] |= 1u64 << (pat & 63);
        let mut hi_bits = w & Self::HIGH;
        if hi_bits != 0 {
            let mut v = from_negabinary(w & Self::LOW);
            while hi_bits != 0 {
                let i = hi_bits.trailing_zeros() as usize;
                hi_bits &= hi_bits - 1;
                v += if i.is_multiple_of(2) {
                    1i64 << i
                } else {
                    -(1i64 << i)
                };
                self.high[i + 1] = self.high[i + 1].max(v.unsigned_abs());
            }
        }
    }

    /// Significant planes of the scanned words, at the format's cap of 63.
    fn num_planes(&self) -> u8 {
        (64 - self.all.leading_zeros()).min(63) as u8
    }

    /// `table[b]`: worst-case loss of discarding the `b` lowest planes,
    /// `b ≤ num_planes`, monotonized by a running maximum.
    fn loss_table(mut self, num_planes: u8) -> Vec<u64> {
        let n_planes = num_planes as usize;
        let mut table = vec![0u64; n_planes + 1];
        // Low planes, widest first, folding the map as the width shrinks.
        for b in (1..=PATTERN_BITS).rev() {
            let words = (1usize << b).div_ceil(64);
            if b <= n_planes {
                for (i, &bits) in self.present[..words].iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let pat = (i * 64) as u64 + bits.trailing_zeros() as u64;
                        bits &= bits - 1;
                        table[b] = table[b].max(from_negabinary(pat).unsigned_abs());
                    }
                }
            }
            if words > 1 {
                let (lo, hi) = self.present.split_at_mut(words / 2);
                for (l, &h) in lo.iter_mut().zip(&hi[..words / 2]) {
                    *l |= h;
                }
            } else {
                let half = 1u32 << (b - 1);
                self.present[0] = (self.present[0] | (self.present[0] >> half)) & ((1 << half) - 1);
            }
        }
        if n_planes > PATTERN_BITS {
            table[PATTERN_BITS + 1..].copy_from_slice(&self.high[PATTERN_BITS + 1..=n_planes]);
        }
        let mut running = 0u64;
        for slot in &mut table {
            running = running.max(*slot);
            *slot = running;
        }
        table
    }
}

/// Worst-case truncation loss per discard count for a level's negabinary words,
/// in code units; `table[b]` bounds the error of discarding the `b` lowest
/// planes. The per-discard maxima are accumulated into a running maximum so the
/// table is monotone: the optimizer then never sees "discarding more planes
/// costs less error", even though individual negabinary words can momentarily
/// cancel when a higher plane is dropped. Exposed for the benchmark harness;
/// the encoder accumulates the same scan (`LevelScan`) while it converts and
/// predicts the words, so it never makes this pass on its own.
///
/// # Panics
///
/// Panics if `num_planes > 63` — the container format caps significant planes
/// at 63 (see [`encode_level`]'s `.min(63)` clamp).
pub fn truncation_loss_table(nb: &[u64], num_planes: u8) -> Vec<u64> {
    assert!(
        num_planes <= 63,
        "the container format caps significant planes at 63"
    );
    let mut scan = LevelScan::new();
    for &w in nb {
        scan.add(w);
    }
    let table = scan.loss_table(num_planes);
    // The scan records |masked value| only where a word's bits change; the
    // running maximum must land on exactly the monotonized direct table
    // (each skipped candidate equals an earlier recorded one).
    debug_assert!(
        (1..table.len()).all(|b| table[b] == table[b - 1].max(max_masked_loss(nb, b))),
        "scan missed a candidate"
    );
    table
}

/// The one level encoder: one pass over the codes (negabinary conversion,
/// plane-count OR and truncation-loss scan, whole-word prediction — the
/// predicted words are the only level-sized intermediate) → per-region
/// bit-slicing → one entropy call per `(plane, region)` → regroup
/// plane-major. `scheme` says how the level is cut; the two public spellings
/// below only build it. The returned level carries the neutral layout fields
/// (`chunk_bytes: 0`, no spans), which each spelling overwrites with what its
/// scheme was built from.
///
/// Every region is sliced on its own (padded to a byte boundary), so any
/// region decodes from just its own chunks. For the uniform grid that is
/// byte-identical to slicing the whole level and cutting the bytes: regions
/// start on 64-coefficient boundaries, so no byte straddles two regions.
fn encode_regions(
    codes: &[i64],
    prefix_bits: u8,
    predictive: bool,
    parallel: bool,
    scheme: &RegionScheme,
) -> EncodedLevel {
    let prefix_bits = if predictive { prefix_bits } else { 0 };
    let mut scan = LevelScan::new();
    let predicted: Vec<u64> = codes
        .iter()
        .map(|&c| {
            let w = to_negabinary(c);
            scan.add(w);
            predict_word(w, prefix_bits)
        })
        .collect();
    let num_planes = scan.num_planes();
    let trunc_loss = scan.loss_table(num_planes);

    let n_regions = scheme.num_regions();
    let jobs: Vec<&[u64]> = (0..n_regions)
        .map(|k| &predicted[scheme.region_coeff_range(k)])
        .collect();
    let slice = |words: &[u64]| -> Vec<Vec<u8>> { slice_planes(words, num_planes as usize) };
    let parallel = parallel && codes.len() > PARALLEL_THRESHOLD;
    let sliced: Vec<Vec<Vec<u8>>> = if parallel {
        jobs.into_par_iter().map(slice).collect()
    } else {
        jobs.into_iter().map(slice).collect()
    };
    // Fan every (plane, region) pair out as one task: uniform work items keep
    // the rayon pool balanced even though low planes compress far slower
    // than sparse high planes. Empty precincts get zero-byte chunks without
    // touching the entropy coder.
    let tasks: Vec<&[u8]> = (0..num_planes as usize)
        .flat_map(|p| sliced.iter().map(move |region| region[p].as_slice()))
        .collect();
    let compress = |bytes: &[u8]| -> Vec<u8> {
        if bytes.is_empty() {
            Vec::new()
        } else {
            lzr_compress(bytes)
        }
    };
    let compressed: Vec<Vec<u8>> = if parallel {
        tasks.into_par_iter().map(compress).collect()
    } else {
        tasks.into_iter().map(compress).collect()
    };

    let mut it = compressed.into_iter();
    let planes: Vec<EncodedPlane> = (0..num_planes)
        .map(|_| EncodedPlane {
            chunks: (&mut it).take(n_regions).collect(),
        })
        .collect();
    EncodedLevel {
        n_values: codes.len(),
        num_planes,
        planes,
        trunc_loss,
        chunk_bytes: 0,
        precinct_spans: None,
    }
}

/// Encode one level's quantization codes into bitplane blocks on the uniform
/// byte grid of `opts.chunk_bytes` (the version-2 layout).
/// [`encode_level`] forwards the default.
///
/// # Panics
///
/// Panics if `opts.chunk_bytes` is not a multiple of 8 (see
/// [`RegionScheme::uniform`]). The `Result`-based entry point
/// [`crate::compressor::compress`] validates this up front.
pub fn encode_level_with(
    codes: &[i64],
    prefix_bits: u8,
    predictive: bool,
    parallel: bool,
    opts: EncodeOptions,
) -> EncodedLevel {
    let scheme = RegionScheme::uniform(codes.len(), opts.chunk_bytes)
        .expect("chunk_bytes must be a multiple of 8 to align with transpose blocks");
    EncodedLevel {
        chunk_bytes: opts.chunk_bytes,
        ..encode_regions(codes, prefix_bits, predictive, parallel, &scheme)
    }
}

/// Encode one level's quantization codes into bitplane blocks.
///
/// The packed plane bits are byte-identical to the historical bit-at-a-time
/// coder (the `scalar` test oracle); only the entropy framing (chunked rANS) and the
/// implementation (word-parallel) have evolved.
pub fn encode_level(
    codes: &[i64],
    prefix_bits: u8,
    predictive: bool,
    parallel: bool,
) -> EncodedLevel {
    encode_level_with(
        codes,
        prefix_bits,
        predictive,
        parallel,
        EncodeOptions::default(),
    )
}

/// Encode one level whose `codes` are already in precinct-major container
/// order, cutting one entropy chunk per `(plane, precinct)` pair — the
/// version-3 layout. `spans` gives the coefficient count per precinct and
/// must sum to `codes.len()`.
///
/// The plane count and truncation-loss table are computed over the whole
/// level exactly as in [`encode_level_with`] — both are order-invariant, so
/// a version-3 level carries the same optimizer metadata as its version-2
/// encoding of the same codes. Chunks follow `spans`, so the byte-granular
/// chunk size in `_opts` does not apply.
pub fn encode_level_precincts(
    codes: &[i64],
    prefix_bits: u8,
    predictive: bool,
    parallel: bool,
    _opts: EncodeOptions,
    spans: &[usize],
) -> EncodedLevel {
    assert_eq!(
        spans.iter().sum::<usize>(),
        codes.len(),
        "precinct spans must partition the level"
    );
    let scheme = RegionScheme::precincts(spans);
    EncodedLevel {
        precinct_spans: Some(spans.to_vec()),
        ..encode_regions(codes, prefix_bits, predictive, parallel, &scheme)
    }
}

/// Refuse a plane range outside a level with `num_planes` significant planes.
pub(crate) fn check_plane_range(num_planes: u8, plane_lo: u8, plane_hi: u8) -> Result<()> {
    if plane_hi > num_planes || plane_lo > plane_hi {
        return Err(IpcompError::InvalidInput(format!(
            "invalid plane range {plane_lo}..{plane_hi} for level with {num_planes} planes"
        )));
    }
    Ok(())
}

/// Entropy-decode one compressed chunk, validating the decoded size against
/// the expected packed region length. Every allocation is bounded by the
/// expected size, so corrupt chunk headers cannot force runaway memory use.
/// A region without coefficients stores a zero-byte chunk with no entropy
/// framing, which decodes to nothing; that no such chunk carries bytes is
/// checked where the index is read, and the level loader never decodes one.
pub(crate) fn decode_chunk_bytes(compressed: &[u8], expected: usize) -> Result<Vec<u8>> {
    if expected == 0 && compressed.is_empty() {
        return Ok(Vec::new());
    }
    let packed = ipc_codecs::lzr::lzr_decompress_bounded(compressed, expected)?;
    if packed.len() != expected {
        // The plane reader would run off the end (or past it) mid-stream.
        return Err(IpcompError::Codec(CodecError::UnexpectedEof));
    }
    Ok(packed)
}

/// Decode planes `[plane_lo, plane_hi)` of `level` into the negabinary accumulators
/// `acc` (one `u64` per coefficient).
///
/// Planes must be decoded from the most significant downwards and `acc` must already
/// contain every plane above `plane_hi` (all zeros for a fresh decoder), because the
/// predictive coding is undone using those more significant bits. The newly decoded
/// bits are OR-ed into `acc`.
///
/// This is the decoder's one level loader over every region of the level,
/// without a progress sink: regions decode in coefficient order. The loader
/// does no rollback, so this function owns it: a corrupt block fails the
/// call after the regions before it were scattered, and clearing planes
/// `[plane_lo, plane_hi)` again — zero before the call — leaves `acc`
/// unmodified. A bare level has no map to carry a verdict, so every call
/// first runs `EncodedLevel::check_chunks` under the level's own
/// [`EncodedLevel::scheme`]: a level that fails it is refused as
/// [`IpcompError::CorruptContainer`].
pub fn decode_planes_into(
    level: &EncodedLevel,
    plane_lo: u8,
    plane_hi: u8,
    prefix_bits: u8,
    predictive: bool,
    acc: &mut [u64],
) -> Result<()> {
    let scheme = level.scheme();
    level.check_chunks(&scheme)?;
    let chunks = level.chunk_table(Arc::new(scheme), plane_lo, plane_hi, None)?;
    let loaded = load_level(&chunks, prefix_bits, predictive, acc, |_, _| {});
    // An accumulator of the wrong length is refused before it is written.
    if loaded.is_err() && acc.len() == chunks.acc_len() {
        clear_planes(acc, plane_lo, plane_hi);
    }
    loaded
}

/// Decode the top `planes_loaded` planes of a level into quantization codes
/// (convenience wrapper for non-incremental use).
pub fn decode_level(
    level: &EncodedLevel,
    planes_loaded: u8,
    prefix_bits: u8,
    predictive: bool,
) -> Result<Vec<i64>> {
    let mut acc = vec![0u64; level.n_values];
    let lo = level.num_planes - planes_loaded.min(level.num_planes);
    decode_planes_into(
        level,
        lo,
        level.num_planes,
        prefix_bits,
        predictive,
        &mut acc,
    )?;
    // Consuming map lets the collect reuse the accumulator's allocation.
    Ok(acc
        .into_iter()
        .map(ipc_codecs::negabinary::from_negabinary)
        .collect())
}

/// Historical bit-at-a-time implementation, kept as the reference oracle for the
/// word-parallel coder: property tests assert byte-identical payloads and decode
/// results. The region geometry ([`RegionScheme`]) and the entropy stage (rANS
/// dispatch) are shared with the word-parallel path, so the comparison isolates
/// the bit-manipulation layer — for uniform and precinct levels alike.
#[cfg(test)]
pub mod scalar {
    use super::{decode_chunk_bytes, EncodeOptions, EncodedLevel, EncodedPlane, RegionScheme};
    use crate::error::{IpcompError, Result};
    use ipc_codecs::bitstream::{BitReader, BitWriter};
    use ipc_codecs::negabinary::{required_bitplanes, to_negabinary, truncation_loss};
    use std::sync::Arc;

    /// XOR of the `prefix_bits` bits immediately above plane `p` in word `nb`.
    #[inline]
    fn prefix_parity(nb: u64, p: u32, prefix_bits: u8) -> u64 {
        let mut parity = 0u64;
        for k in 1..=prefix_bits as u32 {
            let plane = p + k;
            if plane < 64 {
                parity ^= (nb >> plane) & 1;
            }
        }
        parity
    }

    /// Bit-at-a-time `encode_regions`: one bit writer per `(plane, region)`,
    /// with the same neutral layout fields for the spellings to overwrite.
    fn encode_regions(
        codes: &[i64],
        prefix_bits: u8,
        predictive: bool,
        scheme: &RegionScheme,
    ) -> EncodedLevel {
        let nb: Vec<u64> = codes.iter().map(|&c| to_negabinary(c)).collect();
        let num_planes = required_bitplanes(codes).min(63) as u8;
        let trunc_loss = {
            let mut trunc_loss = vec![0u64; num_planes as usize + 1];
            let mut running = 0u64;
            for (b, slot) in trunc_loss.iter_mut().enumerate().skip(1) {
                let exact = nb
                    .iter()
                    .map(|&w| truncation_loss(w, b as u32).unsigned_abs())
                    .max()
                    .unwrap_or(0);
                running = running.max(exact);
                *slot = running;
            }
            trunc_loss
        };

        let encode_chunk = |p: u32, k: usize| -> Vec<u8> {
            let words = &nb[scheme.region_coeff_range(k)];
            if words.is_empty() {
                return Vec::new();
            }
            let mut writer = BitWriter::with_capacity_bits(words.len());
            for &w in words {
                let raw = (w >> p) & 1;
                let bit = if predictive {
                    raw ^ prefix_parity(w, p, prefix_bits)
                } else {
                    raw
                };
                writer.write_bit(bit == 1);
            }
            ipc_codecs::lzr_compress(&writer.into_bytes())
        };
        let planes: Vec<EncodedPlane> = (0..num_planes as u32)
            .map(|p| EncodedPlane {
                chunks: (0..scheme.num_regions())
                    .map(|k| encode_chunk(p, k))
                    .collect(),
            })
            .collect();

        EncodedLevel {
            n_values: codes.len(),
            num_planes,
            planes,
            trunc_loss,
            chunk_bytes: 0,
            precinct_spans: None,
        }
    }

    /// Bit-at-a-time [`super::encode_level_with`].
    pub fn encode_level_with(
        codes: &[i64],
        prefix_bits: u8,
        predictive: bool,
        opts: EncodeOptions,
    ) -> EncodedLevel {
        let scheme = RegionScheme::uniform(codes.len(), opts.chunk_bytes)
            .expect("chunk_bytes must be a multiple of 8");
        EncodedLevel {
            chunk_bytes: opts.chunk_bytes,
            ..encode_regions(codes, prefix_bits, predictive, &scheme)
        }
    }

    /// Bit-at-a-time [`super::encode_level`].
    pub fn encode_level(codes: &[i64], prefix_bits: u8, predictive: bool) -> EncodedLevel {
        encode_level_with(codes, prefix_bits, predictive, EncodeOptions::default())
    }

    /// Bit-at-a-time [`super::encode_level_precincts`].
    #[cfg(test)]
    pub(crate) fn encode_level_precincts(
        codes: &[i64],
        prefix_bits: u8,
        predictive: bool,
        spans: &[usize],
    ) -> EncodedLevel {
        EncodedLevel {
            precinct_spans: Some(spans.to_vec()),
            ..encode_regions(
                codes,
                prefix_bits,
                predictive,
                &RegionScheme::precincts(spans),
            )
        }
    }

    /// Bit-at-a-time [`super::decode_planes_into`].
    pub fn decode_planes_into(
        level: &EncodedLevel,
        plane_lo: u8,
        plane_hi: u8,
        prefix_bits: u8,
        predictive: bool,
        acc: &mut [u64],
    ) -> Result<()> {
        let load = level.chunk_table(Arc::new(level.scheme()), plane_lo, plane_hi, None)?;
        let scheme = &load.scheme;
        if acc.len() != scheme.n_values() {
            return Err(IpcompError::InvalidInput(
                "accumulator does not match level size".into(),
            ));
        }
        let n = load.regions.len();
        for p in (plane_lo..plane_hi).rev() {
            let plane = &load.chunks[(p - plane_lo) as usize * n..][..n];
            for (&k, chunk) in load.regions.iter().zip(plane) {
                let packed = decode_chunk_bytes(chunk, scheme.region_byte_range(k).len())?;
                let mut reader = BitReader::new(&packed);
                for word in &mut acc[scheme.region_coeff_range(k)] {
                    let encoded = reader.read_bit()? as u64;
                    let raw = if predictive {
                        encoded ^ prefix_parity(*word, p as u32, prefix_bits)
                    } else {
                        encoded
                    };
                    *word |= raw << p;
                }
            }
        }
        Ok(())
    }

    /// Bit-at-a-time [`super::decode_level`].
    pub fn decode_level(
        level: &EncodedLevel,
        planes_loaded: u8,
        prefix_bits: u8,
        predictive: bool,
    ) -> Result<Vec<i64>> {
        let mut acc = vec![0u64; level.n_values];
        let lo = level.num_planes - planes_loaded.min(level.num_planes);
        decode_planes_into(
            level,
            lo,
            level.num_planes,
            prefix_bits,
            predictive,
            &mut acc,
        )?;
        Ok(acc
            .into_iter()
            .map(ipc_codecs::negabinary::from_negabinary)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_codecs::negabinary::from_negabinary;
    use rand::{Rng, SeedableRng};

    fn sample_codes(n: usize, spread: i64, seed: u64) -> Vec<i64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Laplacian-ish residual distribution centred at zero, like real
                // prediction residuals.
                let mag = (rng.gen::<f64>().powi(3) * spread as f64) as i64;
                if rng.gen_bool(0.5) {
                    mag
                } else {
                    -mag
                }
            })
            .collect()
    }

    /// Small chunk size that forces multi-chunk planes on unit-test-sized
    /// levels (must stay a multiple of 8).
    fn tiny_chunks() -> EncodeOptions {
        EncodeOptions { chunk_bytes: 64 }
    }

    /// Precinct spans with an empty precinct, a 1-coefficient precinct and
    /// spans that are not multiples of 8 (so regions carry padding bits and
    /// the packed plane is longer than `n.div_ceil(8)`).
    const ODD_SPANS: [usize; 7] = [13, 0, 1, 64, 0, 203, 7];

    /// Codes for [`ODD_SPANS`], taken as already in precinct-major order.
    fn odd_span_codes() -> Vec<i64> {
        sample_codes(ODD_SPANS.iter().sum(), 1 << 15, 12)
    }

    /// Every region's `on_region(coeffs, compressed_bytes)` report, in order.
    type Reports = Vec<(std::ops::Range<usize>, usize)>;

    /// Load `load` into `acc` through the level loader (prefix width 2,
    /// predictive — what every streaming test encodes with), recording what
    /// it reports per region.
    fn load_reporting(load: &LevelChunks<'_>, acc: &mut [u64]) -> (Result<()>, Reports) {
        let mut reports = Vec::new();
        let outcome = load_level(load, 2, true, acc, |coeffs, bytes| {
            reports.push((coeffs, bytes))
        });
        (outcome, reports)
    }

    /// Planes `[lo, hi)` of a resident level, loaded into `acc` by
    /// [`load_reporting`].
    fn resident_load(
        level: &EncodedLevel,
        lo: u8,
        hi: u8,
        acc: &mut [u64],
    ) -> (Result<()>, Reports) {
        let chunks = level
            .chunk_table(Arc::new(level.scheme()), lo, hi, None)
            .unwrap();
        load_reporting(&chunks, acc)
    }

    /// Regions land in coefficient order, without gaps, and cover `n`.
    fn assert_contiguous(reports: &Reports, n: usize) {
        let mut last_end = 0usize;
        for (coeffs, _) in reports {
            assert_eq!(coeffs.start, last_end);
            last_end = coeffs.end;
        }
        assert_eq!(last_end, n);
    }

    #[test]
    fn full_decode_roundtrip() {
        let codes = sample_codes(5000, 1 << 20, 1);
        for predictive in [true, false] {
            let enc = encode_level(&codes, 2, predictive, false);
            let dec = decode_level(&enc, enc.num_planes, 2, predictive).unwrap();
            assert_eq!(dec, codes);
        }
    }

    #[test]
    fn chunked_roundtrip_at_every_chunk_size() {
        let codes = sample_codes(3000, 1 << 18, 21);
        let reference = decode_level(
            &encode_level(&codes, 2, true, false),
            encode_level(&codes, 2, true, false).num_planes,
            2,
            true,
        )
        .unwrap();
        for chunk_bytes in [0usize, 8, 64, 128, 1024, CHUNK_BYTES] {
            let enc = encode_level_with(&codes, 2, true, false, EncodeOptions { chunk_bytes });
            let expected_chunks = if chunk_bytes == 0 {
                1
            } else {
                codes.len().div_ceil(8).div_ceil(chunk_bytes)
            };
            for plane in &enc.planes {
                assert_eq!(
                    plane.chunks.len(),
                    expected_chunks,
                    "chunk_bytes={chunk_bytes}"
                );
            }
            let dec = decode_level(&enc, enc.num_planes, 2, true).unwrap();
            assert_eq!(dec, reference, "chunk_bytes={chunk_bytes}");
        }
    }

    #[test]
    fn chunked_and_monolithic_decode_identically_at_every_depth() {
        let codes = sample_codes(2000, 1 << 16, 22);
        let mono = encode_level_with(&codes, 2, true, false, EncodeOptions { chunk_bytes: 0 });
        let chunked = encode_level_with(&codes, 2, true, false, tiny_chunks());
        assert_eq!(mono.num_planes, chunked.num_planes);
        for loaded in 0..=mono.num_planes {
            let a = decode_level(&mono, loaded, 2, true).unwrap();
            let b = decode_level(&chunked, loaded, 2, true).unwrap();
            assert_eq!(a, b, "loaded={loaded}");
        }
    }

    #[test]
    fn plane_stream_matches_bulk_decode() {
        let codes = sample_codes(4000, 1 << 17, 23);
        let enc = encode_level_with(&codes, 2, true, false, tiny_chunks());
        let hi = enc.num_planes;
        let lo = hi / 3;

        let mut bulk = vec![0u64; enc.n_values];
        scalar::decode_planes_into(&enc, lo, hi, 2, true, &mut bulk).unwrap();

        let mut streamed = vec![0u64; enc.n_values];
        let (outcome, reports) = resident_load(&enc, lo, hi, &mut streamed);
        outcome.unwrap();
        assert_contiguous(&reports, enc.n_values);
        assert_eq!(reports.len(), enc.scheme().num_regions());
        assert_eq!(streamed, bulk);
    }

    /// Stream a level fetched through a ranged source and compare against
    /// the in-memory stream at every region. The level is the finest of a
    /// 1-D field of `2 · codes.len()` points (its odd positions), under
    /// all-zero coarser levels.
    fn assert_source_stream_matches(codes: &[i64], opts: EncodeOptions) {
        let enc = encode_level_with(codes, 2, true, false, opts);
        let shape = ipc_tensor::Shape::d1(2 * codes.len());
        let levels = crate::interp::num_levels(&shape);
        let coarser = (2..=levels).rev().map(|level| {
            let zeros = vec![0i64; crate::interp::level_count(&shape, level)];
            encode_level_with(&zeros, 2, true, false, opts)
        });
        let compressed = crate::container::Compressed {
            header: crate::container::Header {
                dims: shape.dims().to_vec(),
                error_bound: 1e-6,
                interpolation: crate::config::Interpolation::Cubic,
                num_levels: levels,
                progressive_levels: levels,
                prefix_bits: 2,
                predictive_coding: true,
                value_range: 1.0,
                precincts: None,
            },
            anchors: Vec::new(),
            levels: coarser.chain([enc.clone()]).collect(),
        };
        let bytes = compressed.to_bytes();
        let source = crate::source::MemorySource::new(bytes);
        let map = crate::container::ContainerMap::open(&source).unwrap();

        let hi = enc.num_planes;
        let mut mem_acc = vec![0u64; enc.n_values];
        let (outcome, mem_reports) = resident_load(&enc, 0, hi, &mut mem_acc);
        outcome.unwrap();
        let mut src_acc = vec![0u64; enc.n_values];
        let lmap = map.levels.last().unwrap();
        assert_eq!(lmap.n_values, codes.len());
        let runs = lmap.run_ranges(0, hi, &lmap.chunk_runs(None));
        let bufs = crate::source::read_ranges_exact(&source, &runs).unwrap();
        let chunks = lmap.fetch_planes(0, hi, None, &bufs).unwrap();
        let (outcome, src_reports) = load_reporting(&chunks, &mut src_acc);
        outcome.unwrap();
        // The same regions, covering the same coefficients and bytes.
        assert_eq!(mem_reports, src_reports);
        assert_eq!(mem_acc, src_acc);
        let decoded: Vec<i64> = src_acc.into_iter().map(from_negabinary).collect();
        assert_eq!(decoded, codes);
    }

    #[test]
    fn plane_stream_single_element_level() {
        // A 1-element level has a 1-byte plane: the chunk grid degenerates to
        // one sub-byte region and the transpose path handles a lone word.
        for codes in [vec![5i64], vec![-1i64], vec![0i64]] {
            assert_source_stream_matches(&codes, tiny_chunks());
            assert_source_stream_matches(&codes, EncodeOptions { chunk_bytes: 0 });
        }
    }

    #[test]
    fn plane_stream_chunk_boundary_exactly_at_plane_end() {
        // 64-byte chunks: 512 coefficients end exactly on the first chunk
        // boundary, 1024 exactly on the second — no ragged final chunk.
        for n in [512usize, 1024] {
            let codes = sample_codes(n, 1 << 12, 31);
            let enc = encode_level_with(&codes, 2, true, false, tiny_chunks());
            let scheme = enc.scheme();
            assert_eq!(scheme.plane_len() % tiny_chunks().chunk_bytes, 0);
            let last = scheme.num_regions() - 1;
            assert_eq!(scheme.region_byte_range(last).len(), 64);
            assert_eq!(scheme.region_byte_range(last).end, scheme.plane_len());
            assert_eq!(scheme.region_coeff_range(last).end, n);
            assert_source_stream_matches(&codes, tiny_chunks());
        }
    }

    #[test]
    fn plane_stream_ragged_final_chunk() {
        // 500 coefficients with 8-byte chunks: the final chunk covers only
        // 60 of the 64 coefficient slots of a full region.
        let codes = sample_codes(500, 1 << 10, 32);
        assert_source_stream_matches(&codes, EncodeOptions { chunk_bytes: 8 });
    }

    #[test]
    fn plane_stream_truncated_final_chunk_is_bounded_error() {
        let codes = sample_codes(3000, 1 << 14, 33);
        let mut enc = encode_level_with(&codes, 2, true, false, tiny_chunks());
        // Truncate the final chunk of the lowest plane mid-stream.
        let last = enc.planes[0].chunks.len() - 1;
        let chunk = &mut enc.planes[0].chunks[last];
        chunk.truncate(chunk.len().saturating_sub(2).max(1));
        let mut acc = vec![0u64; enc.n_values];
        let (outcome, reports) = resident_load(&enc, 0, enc.num_planes, &mut acc);
        // Must surface a bounded error, never panic.
        assert!(matches!(
            outcome,
            Err(IpcompError::Codec(_) | IpcompError::CorruptContainer(_))
        ));
        let completed = reports.last().map_or(0, |(coeffs, _)| coeffs.end);
        assert!(completed > 0 && completed < enc.n_values);
        // The loader does no rollback: the regions before the corruption
        // stay decoded, and the failed region's slice is untouched.
        let clean = encode_level_with(&codes, 2, true, false, tiny_chunks());
        let mut whole = vec![0u64; enc.n_values];
        decode_planes_into(&clean, 0, clean.num_planes, 2, true, &mut whole).unwrap();
        assert_eq!(acc[..completed], whole[..completed]);
        assert!(acc[completed..].iter().all(|&w| w == 0));
    }

    #[test]
    fn plane_stream_region_byte_accounting_covers_payload() {
        let codes = sample_codes(3000, 1 << 14, 24);
        let enc = encode_level_with(&codes, 2, true, false, tiny_chunks());
        let mut acc = vec![0u64; codes.len()];
        let (outcome, reports) = resident_load(&enc, 0, enc.num_planes, &mut acc);
        outcome.unwrap();
        let total: usize = reports.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(total, enc.payload_bytes());
    }

    #[test]
    fn zero_codes_have_no_planes() {
        let codes = vec![0i64; 1000];
        let enc = encode_level(&codes, 2, true, false);
        assert_eq!(enc.num_planes, 0);
        assert!(enc.planes.is_empty());
        let dec = decode_level(&enc, 0, 2, true).unwrap();
        assert_eq!(dec, codes);
    }

    #[test]
    fn empty_level_roundtrips() {
        let enc = encode_level(&[], 2, true, false);
        assert_eq!(enc.n_values, 0);
        assert_eq!(enc.num_planes, 0);
        assert_eq!(decode_level(&enc, 0, 2, true).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn truncated_decode_error_within_metadata_bound() {
        let codes = sample_codes(3000, 1 << 16, 2);
        let enc = encode_level(&codes, 2, true, false);
        for discard in 0..=enc.num_planes {
            let loaded = enc.num_planes - discard;
            let dec = decode_level(&enc, loaded, 2, true).unwrap();
            let max_err = codes
                .iter()
                .zip(&dec)
                .map(|(&a, &b)| (a - b).unsigned_abs())
                .max()
                .unwrap();
            assert!(
                max_err <= enc.trunc_loss[discard as usize],
                "discard={discard}: err {max_err} > bound {}",
                enc.trunc_loss[discard as usize]
            );
        }
    }

    #[test]
    fn trunc_loss_high_plane_sweep_matches_direct_reference() {
        // Codes spanning 40+ planes: the single-sweep high-plane path must
        // reproduce the per-plane direct passes exactly, including on levels
        // small enough to skip the pattern table and large enough to use it.
        for n in [100usize, 70_000] {
            let mut codes = sample_codes(n, 1i64 << 40, 77);
            codes[n / 2] = (1i64 << 41) - 12345; // force a deep negabinary word
            codes[n / 3] = -(1i64 << 40) - 7;
            let nb = ipc_codecs::negabinary::to_negabinary_slice(&codes);
            let num_planes = ipc_codecs::negabinary::required_bitplanes_words(&nb).min(63) as u8;
            assert!(num_planes > 30, "test needs a >30-plane level");
            let table = truncation_loss_table(&nb, num_planes);
            let mut running = 0u64;
            for (b, &entry) in table.iter().enumerate().skip(1) {
                running = running.max(max_masked_loss(&nb, b));
                assert_eq!(entry, running, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn trunc_loss_is_monotone() {
        let codes = sample_codes(2000, 1 << 12, 3);
        let enc = encode_level(&codes, 2, true, false);
        for b in 1..enc.trunc_loss.len() {
            assert!(enc.trunc_loss[b] >= enc.trunc_loss[b - 1]);
        }
        assert_eq!(enc.trunc_loss[0], 0);
    }

    #[test]
    fn incremental_decoding_matches_full_decoding() {
        let codes = sample_codes(4000, 1 << 18, 4);
        let enc = encode_level(&codes, 2, true, false);
        // Decode in three chunks: top third, middle, rest.
        let mut acc = vec![0u64; enc.n_values];
        let hi = enc.num_planes;
        let cut1 = hi - hi / 3;
        let cut2 = hi / 3;
        decode_planes_into(&enc, cut1, hi, 2, true, &mut acc).unwrap();
        decode_planes_into(&enc, cut2, cut1, 2, true, &mut acc).unwrap();
        decode_planes_into(&enc, 0, cut2, 2, true, &mut acc).unwrap();
        let dec: Vec<i64> = acc.into_iter().map(from_negabinary).collect();
        assert_eq!(dec, codes);
    }

    #[test]
    fn partial_then_refined_decode_is_additive() {
        let codes = sample_codes(2000, 1 << 14, 5);
        let enc = encode_level(&codes, 2, true, false);
        let hi = enc.num_planes;
        let half = hi / 2;
        let mut acc = vec![0u64; enc.n_values];
        decode_planes_into(&enc, half, hi, 2, true, &mut acc).unwrap();
        let coarse: Vec<i64> = acc.iter().map(|&w| from_negabinary(w)).collect();
        decode_planes_into(&enc, 0, half, 2, true, &mut acc).unwrap();
        let fine: Vec<i64> = acc.iter().map(|&w| from_negabinary(w)).collect();
        // The refinement adds exactly the value of the lower planes.
        for i in 0..codes.len() {
            assert_eq!(fine[i], codes[i]);
            let delta = fine[i] - coarse[i];
            assert!(delta.unsigned_abs() <= enc.trunc_loss[half as usize]);
        }
    }

    #[test]
    fn predictive_coding_reduces_compressed_size_on_smooth_codes() {
        // Smooth residual magnitudes produce correlated bitplanes; predictive coding
        // should not hurt and typically helps.
        let codes: Vec<i64> = (0..20_000)
            .map(|i| ((i as f64 * 0.01).sin() * 1000.0) as i64)
            .collect();
        let with = encode_level(&codes, 2, true, false);
        let without = encode_level(&codes, 2, false, false);
        assert!(
            (with.payload_bytes() as f64) < 1.1 * without.payload_bytes() as f64,
            "predictive {} vs raw {}",
            with.payload_bytes(),
            without.payload_bytes()
        );
    }

    #[test]
    fn parallel_and_serial_encoding_agree() {
        let codes = sample_codes(10_000, 1 << 15, 6);
        let a = encode_level(&codes, 2, true, false);
        let b = encode_level(&codes, 2, true, true);
        assert_eq!(a, b);
    }

    #[test]
    fn size_accounting_is_consistent() {
        let codes = sample_codes(3000, 1 << 10, 7);
        let enc = encode_level(&codes, 2, true, false);
        for b in 0..=enc.num_planes {
            assert_eq!(
                enc.saved_bytes(b) + enc.loaded_bytes(b),
                enc.payload_bytes()
            );
        }
        assert_eq!(enc.saved_bytes(0), 0);
        assert_eq!(enc.loaded_bytes(enc.num_planes), 0);
    }

    #[test]
    fn invalid_plane_range_rejected() {
        let codes = sample_codes(100, 1 << 8, 8);
        let enc = encode_level(&codes, 2, true, false);
        let mut acc = vec![0u64; 100];
        assert!(decode_planes_into(&enc, 0, enc.num_planes + 1, 2, true, &mut acc).is_err());
        let mut short = vec![0u64; 50];
        assert!(decode_planes_into(&enc, 0, enc.num_planes, 2, true, &mut short).is_err());
    }

    #[test]
    fn corrupt_plane_block_errors_without_touching_acc() {
        let codes = sample_codes(900, 1 << 12, 9);
        let mut enc = encode_level(&codes, 2, true, false);
        let top = enc.num_planes as usize - 1;
        enc.planes[top] = EncodedPlane::monolithic(lzr_compress(&[0u8; 4])); // too short for 900 bits
        let mut acc = vec![0u64; 900];
        let err = decode_planes_into(&enc, 0, enc.num_planes, 2, true, &mut acc);
        assert!(err.is_err());
        assert!(
            acc.iter().all(|&w| w == 0),
            "acc must be untouched on error"
        );

        // Multi-region: planes above `hi` already loaded, then a middle chunk
        // of the lowest requested plane is corrupt — regions before it decode
        // first, and the failure must still leave no trace.
        let codes = sample_codes(4000, 1 << 12, 9);
        let mut enc = encode_level_with(&codes, 2, true, false, tiny_chunks());
        let (lo, hi) = (1u8, enc.num_planes - 2);
        let mid = enc.planes[lo as usize].chunks.len() / 2;
        assert!(mid > 2, "need a multi-region level");
        let mut acc = vec![0u64; codes.len()];
        decode_planes_into(&enc, hi, enc.num_planes, 2, true, &mut acc).unwrap();
        let before = acc.clone();
        assert!(before.iter().any(|&w| w != 0));
        enc.planes[lo as usize].chunks[mid] = vec![0xFF; 3];
        assert!(decode_planes_into(&enc, lo, hi, 2, true, &mut acc).is_err());
        assert_eq!(acc, before, "acc must be untouched on error");
    }

    #[test]
    fn mismatched_chunk_grid_rejected() {
        let codes = sample_codes(2000, 1 << 12, 25);
        let mut enc = encode_level_with(&codes, 2, true, false, tiny_chunks());
        // Drop a chunk from one plane: the grid no longer matches.
        enc.planes[0].chunks.pop();
        let mut acc = vec![0u64; 2000];
        assert!(matches!(
            decode_planes_into(&enc, 0, enc.num_planes, 2, true, &mut acc),
            Err(IpcompError::CorruptContainer(_))
        ));
    }

    // ---- word-parallel vs scalar reference oracle ---------------------------

    /// The word-parallel encoder must produce byte-identical payloads to the
    /// bit-at-a-time reference for every prefix width, with and without
    /// prediction — including across chunked entropy layouts.
    #[test]
    fn encoder_is_bit_identical_to_scalar_reference() {
        let codes = sample_codes(3000, 1 << 17, 10);
        for prefix_bits in 0..=4u8 {
            for predictive in [false, true] {
                for opts in [EncodeOptions::default(), tiny_chunks()] {
                    let word = encode_level_with(&codes, prefix_bits, predictive, false, opts);
                    let reference =
                        scalar::encode_level_with(&codes, prefix_bits, predictive, opts);
                    assert_eq!(
                        word, reference,
                        "prefix_bits={prefix_bits} predictive={predictive} opts={opts:?}"
                    );
                }
                let codes = odd_span_codes();
                let opts = EncodeOptions::default();
                let word = encode_level_precincts(
                    &codes,
                    prefix_bits,
                    predictive,
                    false,
                    opts,
                    &ODD_SPANS,
                );
                let reference =
                    scalar::encode_level_precincts(&codes, prefix_bits, predictive, &ODD_SPANS);
                assert_eq!(
                    word, reference,
                    "precincts: prefix_bits={prefix_bits} predictive={predictive}"
                );
            }
        }
    }

    /// The encoder's one-pass front end against the four stage functions the
    /// benchmark replays, composed the way the encoder used to call them
    /// (convert, count planes, loss table, predict, slice per region), and
    /// the loss table additionally against direct per-plane passes.
    #[test]
    fn fused_front_end_matches_the_staged_public_functions() {
        use ipc_codecs::negabinary::{required_bitplanes_words, to_negabinary_slice};
        let staged = |codes: &[i64], prefix_bits: u8, predictive: bool, scheme: &RegionScheme| {
            let nb = to_negabinary_slice(codes);
            let num_planes = required_bitplanes_words(&nb).min(63) as u8;
            let trunc_loss = truncation_loss_table(&nb, num_planes);
            let mut running = 0u64;
            for (b, &entry) in trunc_loss.iter().enumerate().skip(1) {
                running = running.max(max_masked_loss(&nb, b));
                assert_eq!(entry, running, "loss table entry {b}");
            }
            let shift = if predictive { prefix_bits as u32 } else { 0 };
            let predicted: Vec<u64> = nb
                .iter()
                .map(|&w| (1..=shift).fold(w, |acc, s| acc ^ (w >> s)))
                .collect();
            let regions: Vec<Vec<Vec<u8>>> = (0..scheme.num_regions())
                .map(|k| {
                    slice_planes(
                        &predicted[scheme.region_coeff_range(k)],
                        num_planes as usize,
                    )
                })
                .collect();
            let planes: Vec<EncodedPlane> = (0..num_planes as usize)
                .map(|p| EncodedPlane {
                    chunks: regions
                        .iter()
                        .map(|r| {
                            if r[p].is_empty() {
                                Vec::new()
                            } else {
                                lzr_compress(&r[p])
                            }
                        })
                        .collect(),
                })
                .collect();
            (num_planes, trunc_loss, planes)
        };
        let with = |mut codes: Vec<i64>, extra: &[i64]| {
            for (i, &c) in extra.iter().enumerate() {
                let at = (i * 37 + 5) % codes.len();
                codes[at] = c;
            }
            codes
        };
        let levels: Vec<(&str, Vec<i64>)> = vec![
            ("low planes", sample_codes(3000, 1 << 12, 21)),
            ("high planes", sample_codes(3000, 1 << 40, 22)),
            ("all zero", vec![0; 700]),
            ("single value", vec![-5]),
            ("constant", vec![12345; 513]),
            (
                "i64 extremes, 63-plane cap",
                with(sample_codes(900, 1 << 30, 23), &[i64::MIN, i64::MAX]),
            ),
            (
                "63 planes",
                with(sample_codes(900, 1 << 50, 24), &[1 << 62, -(1 << 61)]),
            ),
            (
                "above 65 536, low planes",
                sample_codes(70_000, 1 << 14, 25),
            ),
            (
                "above 65 536, high planes",
                with(sample_codes(70_000, 1 << 33, 26), &[i64::MIN]),
            ),
        ];
        for (name, codes) in &levels {
            let small = codes.len() < 10_000;
            for prefix_bits in 0..=3u8 {
                for predictive in [true, false] {
                    if !small
                        && (prefix_bits, predictive) != (2, true)
                        && (prefix_bits, predictive) != (3, false)
                    {
                        continue;
                    }
                    let ctx = format!("{name}: prefix_bits={prefix_bits} predictive={predictive}");
                    for opts in [EncodeOptions::default(), tiny_chunks()] {
                        let scheme = RegionScheme::uniform(codes.len(), opts.chunk_bytes).unwrap();
                        let (num_planes, trunc_loss, planes) =
                            staged(codes, prefix_bits, predictive, &scheme);
                        let got = encode_level_with(codes, prefix_bits, predictive, false, opts);
                        assert_eq!(got.n_values, codes.len(), "{ctx}");
                        assert_eq!(got.num_planes, num_planes, "{ctx}");
                        assert_eq!(got.trunc_loss, trunc_loss, "{ctx}");
                        assert_eq!(got.planes, planes, "{ctx} {opts:?}");
                    }
                    // Precinct cut, with an empty and a ragged precinct.
                    let n = codes.len();
                    let spans = [n / 3, 0, n - n / 3 - n / 5, n / 5];
                    let scheme = RegionScheme::precincts(&spans);
                    let (num_planes, trunc_loss, planes) =
                        staged(codes, prefix_bits, predictive, &scheme);
                    let got = encode_level_precincts(
                        codes,
                        prefix_bits,
                        predictive,
                        false,
                        EncodeOptions::default(),
                        &spans,
                    );
                    assert_eq!(
                        (got.num_planes, &got.trunc_loss),
                        (num_planes, &trunc_loss),
                        "{ctx}"
                    );
                    assert_eq!(got.planes, planes, "{ctx} precincts");
                }
            }
        }
    }

    /// Same oracle at every truncation depth on the decode side.
    #[test]
    fn decoder_matches_scalar_reference_at_every_depth() {
        let codes = sample_codes(2100, 1 << 15, 11);
        let odd = odd_span_codes();
        for prefix_bits in [0u8, 2, 4] {
            let opts = EncodeOptions::default();
            for enc in [
                encode_level(&codes, prefix_bits, true, false),
                encode_level_precincts(&odd, prefix_bits, true, false, opts, &ODD_SPANS),
            ] {
                for loaded in 0..=enc.num_planes {
                    let word = decode_level(&enc, loaded, prefix_bits, true).unwrap();
                    let reference = scalar::decode_level(&enc, loaded, prefix_bits, true).unwrap();
                    assert_eq!(word, reference, "prefix_bits={prefix_bits} loaded={loaded}");
                }
            }
        }
    }

    /// The oracle reads a precinct level through the same scheme the encoder
    /// cut it by: empty precincts, a 1-coefficient precinct and padded spans
    /// all decode to the codes.
    #[test]
    fn scalar_reference_decodes_precinct_levels() {
        let codes = odd_span_codes();
        let enc =
            encode_level_precincts(&codes, 2, true, false, EncodeOptions::default(), &ODD_SPANS);
        let scheme = enc.scheme();
        assert_eq!(scheme.num_regions(), ODD_SPANS.len());
        assert!(scheme.plane_len() > codes.len().div_ceil(8));
        let reference = scalar::decode_level(&enc, enc.num_planes, 2, true).unwrap();
        assert_eq!(reference, codes);
        assert_eq!(
            decode_level(&enc, enc.num_planes, 2, true).unwrap(),
            reference
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Word-parallel encode is byte-identical to the scalar oracle on random
        /// code vectors for all supported prefix widths and random chunk grids.
        #[test]
        fn prop_encode_bit_identical(
            codes in proptest::collection::vec(-1_000_000i64..1_000_000, 0..700),
            prefix_bits in 0u8..=4,
            predictive in proptest::any::<bool>(),
            chunk_step in 0usize..6,
        ) {
            // 0, 24, 48, ... — multiples of 8
            let opts = EncodeOptions { chunk_bytes: chunk_step * 24 };
            let word = encode_level_with(&codes, prefix_bits, predictive, false, opts);
            let reference = scalar::encode_level_with(&codes, prefix_bits, predictive, opts);
            proptest::prop_assert_eq!(word, reference);
        }

        /// Word-parallel decode agrees with the scalar oracle at a random
        /// truncation depth.
        #[test]
        fn prop_decode_matches_scalar_at_random_depth(
            codes in proptest::collection::vec(-3_000_000i64..3_000_000, 1..600),
            prefix_bits in 0u8..=4,
            depth_seed in proptest::any::<u64>(),
        ) {
            let enc = encode_level(&codes, prefix_bits, true, false);
            let loaded = if enc.num_planes == 0 {
                0
            } else {
                (depth_seed % (enc.num_planes as u64 + 1)) as u8
            };
            let word = decode_level(&enc, loaded, prefix_bits, true).unwrap();
            let reference = scalar::decode_level(&enc, loaded, prefix_bits, true).unwrap();
            proptest::prop_assert_eq!(word, reference);
        }

        /// Incremental refinement through `decode_planes_into` visits planes in
        /// the same order as the scalar reference and lands on identical
        /// accumulators at every split point.
        #[test]
        fn prop_incremental_refine_matches_scalar(
            codes in proptest::collection::vec(-500_000i64..500_000, 1..500),
            prefix_bits in 0u8..=4,
            cut_seed in proptest::any::<u64>(),
        ) {
            let enc = encode_level(&codes, prefix_bits, true, false);
            let hi = enc.num_planes;
            let cut1 = if hi == 0 { 0 } else { (cut_seed % (hi as u64 + 1)) as u8 };
            let cut2 = if cut1 == 0 { 0 } else { ((cut_seed >> 32) % (cut1 as u64 + 1)) as u8 };
            let mut word_acc = vec![0u64; enc.n_values];
            let mut ref_acc = vec![0u64; enc.n_values];
            for (lo, hi) in [(cut1, hi), (cut2, cut1), (0, cut2)] {
                decode_planes_into(&enc, lo, hi, prefix_bits, true, &mut word_acc).unwrap();
                scalar::decode_planes_into(&enc, lo, hi, prefix_bits, true, &mut ref_acc)
                    .unwrap();
                proptest::prop_assert_eq!(&word_acc, &ref_acc, "after planes {}..{}", lo, hi);
            }
            let decoded = ipc_codecs::negabinary::from_negabinary_slice(&word_acc);
            proptest::prop_assert_eq!(decoded, codes);
        }

        /// Every scheme — the uniform grid at each chunk size the format
        /// allows, and precinct spans with zeros and 1-element levels — tiles
        /// the level exactly, in coefficients and in packed bytes; the
        /// encoder cuts every plane into exactly its regions, and every
        /// chunk decodes at its region's packed length.
        #[test]
        fn prop_scheme_regions_tile_the_level(
            codes in proptest::collection::vec(-100_000i64..100_000, 1..400),
            layout in 0usize..5,
            cuts in proptest::collection::vec(0usize..400, 0..9),
        ) {
            let n = codes.len();
            let enc = match [0, 8, 64, CHUNK_BYTES].get(layout) {
                Some(&chunk_bytes) => {
                    encode_level_with(&codes, 2, true, false, EncodeOptions { chunk_bytes })
                }
                None => {
                    // Random cut points (repeats give empty precincts).
                    let mut at: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
                    at.extend([0, n]);
                    at.sort_unstable();
                    let spans: Vec<usize> = at.windows(2).map(|w| w[1] - w[0]).collect();
                    let opts = EncodeOptions::default();
                    encode_level_precincts(&codes, 2, true, false, opts, &spans)
                }
            };
            let scheme = enc.scheme();
            proptest::prop_assert_eq!(scheme.n_values(), n);
            let (mut coeff, mut byte) = (0usize, 0usize);
            for k in 0..scheme.num_regions() {
                let (coeffs, bytes) = (scheme.region_coeff_range(k), scheme.region_byte_range(k));
                proptest::prop_assert_eq!((coeffs.start, bytes.start), (coeff, byte));
                proptest::prop_assert_eq!(bytes.len(), coeffs.len().div_ceil(8));
                (coeff, byte) = (coeffs.end, bytes.end);
            }
            proptest::prop_assert_eq!((coeff, byte), (n, scheme.plane_len()));
            for plane in &enc.planes {
                proptest::prop_assert_eq!(plane.chunks.len(), scheme.num_regions());
                for (k, chunk) in plane.chunks.iter().enumerate() {
                    let packed = decode_chunk_bytes(chunk, scheme.region_byte_range(k).len());
                    proptest::prop_assert!(packed.is_ok(), "region {}: {:?}", k, packed);
                }
            }
            proptest::prop_assert_eq!(decode_level(&enc, enc.num_planes, 2, true).unwrap(), codes);
        }

        /// Chunked streaming decode lands on the same accumulators as bulk
        /// decode for arbitrary plane sub-ranges and chunk sizes.
        #[test]
        fn prop_plane_stream_matches_bulk(
            codes in proptest::collection::vec(-200_000i64..200_000, 1..500),
            chunk_step in 1usize..6,
            range_seed in proptest::any::<u64>(),
        ) {
            let opts = EncodeOptions { chunk_bytes: chunk_step * 8 };
            let enc = encode_level_with(&codes, 2, true, false, opts);
            let hi = enc.num_planes;
            let lo = if hi == 0 { 0 } else { (range_seed % (hi as u64 + 1)) as u8 };
            let mut bulk = vec![0u64; enc.n_values];
            scalar::decode_planes_into(&enc, lo, hi, 2, true, &mut bulk).unwrap();
            let mut streamed = vec![0u64; enc.n_values];
            let (outcome, reports) = resident_load(&enc, lo, hi, &mut streamed);
            outcome.unwrap();
            if lo < hi {
                assert_contiguous(&reports, enc.n_values);
            } else {
                proptest::prop_assert!(reports.is_empty());
            }
            proptest::prop_assert_eq!(streamed, bulk);
        }
    }
}
