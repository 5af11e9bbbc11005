//! The one level loader: a level load's chunk regions, each
//! **entropy-decoded** then **scattered**, one region at a time.
//!
//! Every level the decoder loads — full-domain or a region's precincts, with
//! or without an event sink, resident or ranged, and every
//! [`crate::bitplane::decode_planes_into`] call — streams through one
//! [`RegionPipeline`] over one input, a [`LevelChunks`]: the level's
//! [`RegionScheme`] (shared by `Arc`), its plane count, the load's **region
//! list** — the ascending ids of the regions it reads that hold
//! coefficients: every such region of the level on a full read, a region
//! read's precincts otherwise — and a borrowed table from
//! `(plane, list position)` to compressed bytes. One map per decoder; the backing only supplies chunk
//! bytes: the decoder's scheme is always the one its
//! [`crate::ContainerMap`] holds for the level, and only the table differs.
//! A resident level's borrows the level's own chunks
//! ([`crate::bitplane::EncodedLevel::chunk_table`]); a ranged level's is the one
//! [`crate::LevelMap::fetch_planes`] cuts from the run buffers the level
//! takes from its request's fetch (`planner::RequestFetch`): slices of a
//! fetch group's one read. Nothing is copied between the store and the
//! entropy decoder, and nothing of a load is sized by the level when the
//! list is a region's: the table has one entry per (plane, listed region),
//! and the accumulator holds the listed regions' coefficients back to back
//! — the level's own layout on a full read.
//!
//! Per region the pipeline runs two private steps:
//!
//! 1. **entropy** decodes the region's chunk of every streamed plane into
//!    packed plane bytes, validating every decoded size against the region
//!    geometry so corrupt input surfaces as a bounded error before any
//!    accumulator is touched;
//! 2. **scatter** undoes the predictive coding and scatters the packed bytes
//!    into the negabinary accumulators through the plane-count specialized
//!    kernels of [`ipc_codecs::bitslice`].
//!
//! Regions run in list order on the calling thread; a region without
//! coefficients is on no list, so it is never decoded or reported (its
//! chunks are empty: the map's verdict refuses anything else, and
//! `decode_planes_into` checks its bare level the same way). The pipeline
//! checks payload, not metadata: the load it is handed is consistent.
//! Memory is bounded at one region, and because the scatter step runs only
//! after the whole region entropy-decodes, a failed region leaves its
//! accumulator slice untouched; the regions scattered before it are rolled
//! back bit-exactly, so a failed load leaves no trace.

use std::ops::Range;
use std::sync::Arc;

use ipc_codecs::bitslice;

use crate::bitplane::{decode_chunk_bytes, RegionScheme};
use crate::error::{IpcompError, Result};

/// One level load's compressed chunks as the pipeline reads them: planes
/// `[plane_lo, plane_hi)` of a level with `num_planes` significant planes,
/// cut into chunks by `scheme`, over the load's region list. Built by
/// [`crate::bitplane::EncodedLevel::chunk_table`] (resident) or
/// [`crate::LevelMap::fetch_planes`] (ranged).
pub(crate) struct LevelChunks<'a> {
    pub(crate) scheme: Arc<RegionScheme>,
    pub(crate) num_planes: u8,
    pub(crate) plane_lo: u8,
    pub(crate) plane_hi: u8,
    /// The region list ([`region_list`]).
    pub(crate) regions: Vec<usize>,
    /// The chunk of region `regions[i]` of plane `p` at
    /// `(p - plane_lo) · regions.len() + i`.
    pub(crate) chunks: Vec<&'a [u8]>,
}

/// The region list of a load over `scheme`: the ascending ids it reads — a
/// region's precincts, or every region of the level — less those without
/// coefficients, which are never decoded (their chunks are empty: the
/// container is refused otherwise).
pub(crate) fn region_list(scheme: &RegionScheme, region: Option<&[usize]>) -> Vec<usize> {
    let coded = |k: &usize| !scheme.region_coeff_range(*k).is_empty();
    match region {
        Some(ids) => ids.iter().copied().filter(coded).collect(),
        None => (0..scheme.num_regions()).filter(coded).collect(),
    }
}

impl LevelChunks<'_> {
    /// Coefficients of the listed regions: the length of the load's
    /// accumulator.
    pub(crate) fn acc_len(&self) -> usize {
        let coeffs = |&k: &usize| self.scheme.region_coeff_range(k).len();
        self.regions.iter().map(coeffs).sum()
    }
}

/// XOR packed MSB-first plane words into a packed plane byte stream in place.
fn xor_words_into_bytes(dst: &mut [u8], src: &[u64]) {
    let mut chunks = dst.chunks_exact_mut(8);
    let mut words = src.iter();
    for (chunk, &w) in (&mut chunks).zip(&mut words) {
        let cur = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        chunk.copy_from_slice(&(cur ^ w).to_be_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let w = words.next().copied().unwrap_or(0).to_be_bytes();
        for (d, s) in rem.iter_mut().zip(w.iter()) {
            *d ^= s;
        }
    }
}

/// The one level loader: a driver over one level load's region list.
///
/// Each [`RegionPipeline::decode_next`] call completes one region through
/// entropy + scatter; `stream` runs them all and rolls the level back on
/// failure. Regions complete in list order, into consecutive slices of the
/// accumulator; a failed region leaves its slice untouched and the stream
/// positioned to retry it. Peak memory is bounded by
/// `(plane span) × region size` instead of the whole level.
pub(crate) struct RegionPipeline<'a> {
    level: LevelChunks<'a>,
    prefix_bits: u8,
    predictive: bool,
    /// Coefficients of the listed regions: the accumulator's length.
    acc_len: usize,
    /// List position of the region the next call decodes, or the list's
    /// length once exhausted.
    next: usize,
    /// Where that region's coefficients start in the accumulator.
    at: usize,
}

impl<'a> RegionPipeline<'a> {
    /// A pipeline over `level`, validating `acc_len` (the caller's
    /// accumulator length) against the listed regions' coefficients.
    pub(crate) fn new(
        level: LevelChunks<'a>,
        prefix_bits: u8,
        predictive: bool,
        acc_len: usize,
    ) -> Result<Self> {
        let want = level.acc_len();
        if acc_len != want {
            return Err(IpcompError::InvalidInput(format!(
                "accumulator length {acc_len} does not match the load's {want} coefficients"
            )));
        }
        let mut pipeline = Self {
            level,
            prefix_bits,
            predictive,
            acc_len,
            next: 0,
            at: 0,
        };
        // Streaming no plane decodes no region.
        pipeline.next = pipeline.level.regions.len() - pipeline.num_regions();
        Ok(pipeline)
    }

    /// Total number of chunk regions this pipeline will produce: the listed
    /// regions, none when no plane is streamed.
    pub(crate) fn num_regions(&self) -> usize {
        let streams = self.level.plane_lo < self.level.plane_hi;
        usize::from(streams) * self.level.regions.len()
    }

    /// List position `i`'s chunk of every streamed plane, ascending plane
    /// index.
    fn region_chunks(&self, i: usize) -> impl Iterator<Item = &'a [u8]> + '_ {
        let n = self.level.regions.len();
        self.level.chunks.iter().skip(i).step_by(n).copied()
    }

    /// Compressed bytes list position `i` reads across the streamed planes.
    pub(crate) fn region_compressed_bytes(&self, i: usize) -> usize {
        self.region_chunks(i).map(<[u8]>::len).sum()
    }

    /// Decode the next region into its slice of `acc` (the load's
    /// accumulator). Returns the accumulator range completed, or `None` when
    /// the stream is exhausted.
    pub(crate) fn decode_next(&mut self, acc: &mut [u64]) -> Result<Option<Range<usize>>> {
        if acc.len() != self.acc_len {
            return Err(IpcompError::InvalidInput(
                "accumulator length changed mid-stream".into(),
            ));
        }
        let Some(&k) = self.level.regions.get(self.next) else {
            return Ok(None);
        };
        let planes = self.entropy(self.next)?;
        let coeffs = self.at..self.at + self.level.scheme.region_coeff_range(k).len();
        self.scatter(k, planes, &mut acc[coeffs.clone()]);
        self.next += 1;
        self.at = coeffs.end;
        Ok(Some(coeffs))
    }

    /// The entropy step: decode list position `i`'s chunk of every streamed
    /// plane into packed plane bytes, in plane order, validating each
    /// decoded length against the region geometry.
    fn entropy(&self, i: usize) -> Result<Vec<Vec<u8>>> {
        let m = crate::obs::metrics();
        let k = self.level.regions[i];
        let mut span = ipc_telemetry::span_timed("pipeline", "entropy", m.entropy_ns);
        span.add_arg("region", k as u64);
        let expected = self.level.scheme.region_byte_range(k).len();
        let out: Vec<Vec<u8>> = self
            .region_chunks(i)
            .map(|chunk| decode_chunk_bytes(chunk, expected))
            .collect::<Result<_>>()?;
        let bytes: u64 = out.iter().map(|c| c.len() as u64).sum();
        m.entropy_bytes.add(bytes);
        span.add_arg("bytes", bytes);
        Ok(out)
    }

    /// The scatter step: undo the prediction on region `k`'s packed `planes`
    /// (one per streamed plane, each already validated to the region's
    /// packed length) and scatter them into `acc_region`, its slice of the
    /// accumulators, OR-ed on top of whatever planes are already loaded, via
    /// the kernel matching the live plane count. Infallible: everything that
    /// can be wrong with the input was caught by the entropy step.
    fn scatter(&self, k: usize, mut planes: Vec<Vec<u8>>, acc_region: &mut [u64]) {
        let mut span =
            ipc_telemetry::span_timed("pipeline", "scatter", crate::obs::metrics().scatter_ns);
        span.add_arg("region", k as u64);
        let region_len = self.level.scheme.region_byte_range(k).len();
        if self.predictive && self.prefix_bits > 0 {
            self.undo_prediction(&mut planes, region_len, acc_region);
        }
        let refs: Vec<&[u8]> = planes.iter().map(|c| &c[..region_len]).collect();
        bitslice::scatter_planes(&refs, self.level.plane_lo as usize, acc_region);
    }

    /// Undo the prediction as whole-plane XORs over the packed byte streams,
    /// top-down so every more significant plane is already raw when it is
    /// XOR-ed in. Prefix planes at or above `plane_hi` live in the
    /// accumulators (zero on a fresh decode where `plane_hi == num_planes`,
    /// since planes past the significant range are zero by construction);
    /// they are extracted once with the few-planes gather kernel — at most
    /// `prefix_bits` planes, so the shift + movemask sweep beats a full
    /// per-block transpose.
    fn undo_prediction(&self, planes: &mut [Vec<u8>], region_len: usize, acc_region: &[u64]) {
        let plane_lo = self.level.plane_lo as usize;
        let plane_hi = self.level.plane_hi as usize;
        let prefix_bits = self.prefix_bits as usize;
        let prefix_top = (plane_hi + prefix_bits).min(64);
        let acc_prefix: Vec<Vec<u64>> = if self.level.plane_hi < self.level.num_planes {
            bitslice::gather_plane_words(acc_region, plane_hi, prefix_top - plane_hi)
        } else {
            Vec::new()
        };
        for p in (plane_lo..plane_hi).rev() {
            for j in 1..=prefix_bits {
                let q = p + j;
                if q >= 64 {
                    break;
                }
                if q < plane_hi {
                    // Already undone this call: split_at_mut gives the borrow.
                    let (lo_half, hi_half) = planes.split_at_mut(q - plane_lo);
                    let dst = &mut lo_half[p - plane_lo][..region_len];
                    let src = &hi_half[0][..region_len];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d ^= s;
                    }
                } else if q - plane_hi < acc_prefix.len() {
                    let src = &acc_prefix[q - plane_hi];
                    let dst = &mut planes[p - plane_lo];
                    xor_words_into_bytes(&mut dst[..region_len], src);
                }
                // Planes past both ranges are zero: nothing to XOR.
            }
        }
    }

    /// Stream every remaining region into `acc`, calling
    /// `on_region(coeffs, compressed_bytes)` as each one lands. On failure
    /// the planes being streamed are cleared again from every region
    /// scattered so far — they were zero in `acc` before the load (planes
    /// load from the most significant down), so the level is left exactly
    /// as it was.
    pub(crate) fn stream(
        mut self,
        acc: &mut [u64],
        mut on_region: impl FnMut(Range<usize>, usize),
    ) -> Result<()> {
        loop {
            let bytes = if self.next < self.level.regions.len() {
                self.region_compressed_bytes(self.next)
            } else {
                0
            };
            match self.decode_next(acc) {
                Ok(Some(coeffs)) => on_region(coeffs, bytes),
                Ok(None) => return Ok(()),
                Err(e) => {
                    let (lo, hi) = (self.level.plane_lo, self.level.plane_hi);
                    let mask = (1u64 << hi) - (1u64 << lo);
                    for w in &mut acc[..self.at] {
                        *w &= !mask;
                    }
                    return Err(e);
                }
            }
        }
    }
}
