//! The one level loader: a level's chunk regions, each **entropy-decoded**
//! then **scattered**, one region at a time.
//!
//! Every level the decoder loads — full-domain or under a region mask, with
//! or without an event sink, resident or ranged, and every
//! [`crate::bitplane::decode_planes_into`] call — streams through one
//! [`RegionPipeline`] over one input, a [`LevelChunks`]: the level's
//! [`RegionScheme`] (shared by `Arc`), its plane count, and a borrowed table
//! from `(plane, chunk)` to compressed bytes. One map per decoder; the
//! backing only supplies chunk bytes: the decoder's scheme is always the one
//! its [`crate::ContainerMap`] holds for the level, and only the table
//! differs. A resident level's borrows the level's own chunks
//! ([`LevelChunks::resident`]); a ranged level's is the one
//! [`crate::LevelMap::fetch_planes`] cuts from the `Bytes` of the level's one
//! read — slices of the request's fetch groups, read once per group by
//! [`crate::source::PlannedSource`]. Nothing is copied between the store and
//! the entropy decoder. An entry is one `&[u8]`, empty where a mask left a
//! precinct out: a region read fills one per `(plane, precinct)` of every
//! level it loads, so an entry must cost no more than a pointer and a length.
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
//! Regions run in coefficient order on the calling thread — all of them, or
//! the precincts a region mask selects. Memory is bounded at one region, and
//! because the scatter step runs only after the whole region entropy-decodes,
//! a failed region leaves its accumulator slice untouched; the regions
//! scattered before it are rolled back bit-exactly, so a failed load leaves
//! no trace.

use std::ops::Range;
use std::sync::Arc;

use ipc_codecs::bitslice;

use crate::bitplane::{decode_chunk_bytes, EncodedLevel, RegionScheme};
use crate::container::LevelMap;
use crate::error::{IpcompError, Result};

/// One level's compressed chunks as the pipeline reads them: planes
/// `[plane_lo, plane_hi)` of a level with `num_planes` significant planes,
/// cut into chunks by `scheme`.
pub(crate) struct LevelChunks<'a> {
    scheme: Arc<RegionScheme>,
    num_planes: u8,
    plane_lo: u8,
    plane_hi: u8,
    /// Chunk `k` of plane `p` at `(p - plane_lo) · n + k`, with `n` the
    /// scheme's region count.
    chunks: Vec<&'a [u8]>,
}

impl<'a> LevelChunks<'a> {
    /// Planes `[plane_lo, plane_hi)` of a resident level cut by `scheme`
    /// (the level's own [`EncodedLevel::scheme`], or the one its map built),
    /// refusing what [`EncodedLevel::chunk_table`] refuses.
    pub(crate) fn resident(
        level: &'a EncodedLevel,
        scheme: Arc<RegionScheme>,
        plane_lo: u8,
        plane_hi: u8,
    ) -> Result<Self> {
        Ok(Self {
            chunks: level.chunk_table(&scheme, plane_lo, plane_hi)?,
            scheme,
            num_planes: level.num_planes,
            plane_lo,
            plane_hi,
        })
    }

    /// Planes `[plane_lo, plane_hi)` of a ranged level: the table
    /// [`LevelMap::fetch_planes`] cut from the buffers it fetched, under the
    /// scheme `map` built at parse time.
    pub(crate) fn fetched(
        map: &LevelMap,
        plane_lo: u8,
        plane_hi: u8,
        chunks: Vec<&'a [u8]>,
    ) -> Self {
        let n = map.scheme().num_regions();
        debug_assert_eq!(chunks.len(), (plane_hi - plane_lo) as usize * n);
        Self {
            scheme: Arc::clone(map.scheme()),
            num_planes: map.num_planes,
            plane_lo,
            plane_hi,
            chunks,
        }
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

/// The one level loader: a driver over one level's chunk regions — all of
/// them, or the precincts a region mask selects.
///
/// Each [`RegionPipeline::decode_next`] call completes one region through
/// entropy + scatter; `stream` runs them all and rolls the level back on
/// failure. Regions complete in coefficient order; a failed region leaves
/// its accumulator slice untouched and the stream positioned to retry it.
/// Peak memory is bounded by `(plane span) × region size` instead of the
/// whole level.
pub(crate) struct RegionPipeline<'a> {
    level: LevelChunks<'a>,
    prefix_bits: u8,
    predictive: bool,
    /// Regions to decode (`None` = every region); unselected regions are
    /// never read and their accumulator slices never touched.
    mask: Option<&'a [bool]>,
    /// The region the next call decodes (`None` once exhausted).
    next: Option<usize>,
}

impl<'a> RegionPipeline<'a> {
    /// A pipeline over `level`, validating `acc_len` (the caller's
    /// accumulator length) against the level's size and `mask` (one flag per
    /// region) against its region count.
    pub(crate) fn new(
        level: LevelChunks<'a>,
        prefix_bits: u8,
        predictive: bool,
        acc_len: usize,
        mask: Option<&'a [bool]>,
    ) -> Result<Self> {
        let scheme = &level.scheme;
        if acc_len != scheme.n_values() {
            return Err(IpcompError::InvalidInput(format!(
                "accumulator length {acc_len} does not match level size {}",
                scheme.n_values()
            )));
        }
        if mask.is_some_and(|m| m.len() != scheme.num_regions()) {
            return Err(IpcompError::InvalidInput(
                "region mask does not match the level's region count".into(),
            ));
        }
        let mut pipeline = Self {
            level,
            prefix_bits,
            predictive,
            mask,
            next: None,
        };
        if pipeline.level.plane_lo < pipeline.level.plane_hi && acc_len > 0 {
            pipeline.next = pipeline.selected_from(0);
        }
        Ok(pipeline)
    }

    /// First selected region at or after `k`.
    fn selected_from(&self, k: usize) -> Option<usize> {
        (k..self.level.scheme.num_regions()).find(|&k| self.mask.is_none_or(|m| m[k]))
    }

    /// Total number of chunk regions this pipeline will produce.
    pub(crate) fn num_regions(&self) -> usize {
        let level = &self.level;
        if level.plane_lo == level.plane_hi || level.scheme.n_values() == 0 {
            0
        } else {
            match self.mask {
                Some(m) => m.iter().filter(|&&m| m).count(),
                None => level.scheme.num_regions(),
            }
        }
    }

    /// Region `k`'s chunk of every streamed plane, ascending plane index.
    fn region_chunks(&self, k: usize) -> impl Iterator<Item = &'a [u8]> + '_ {
        let n = self.level.scheme.num_regions();
        self.level.chunks.iter().skip(k).step_by(n).copied()
    }

    /// Compressed bytes region `k` reads across the streamed planes.
    pub(crate) fn region_compressed_bytes(&self, k: usize) -> usize {
        self.region_chunks(k).map(<[u8]>::len).sum()
    }

    /// Decode the next region into the matching slice of `acc` (the full
    /// level accumulator). Returns the coefficient range completed, or
    /// `None` when the stream is exhausted.
    pub(crate) fn decode_next(&mut self, acc: &mut [u64]) -> Result<Option<Range<usize>>> {
        if acc.len() != self.level.scheme.n_values() {
            return Err(IpcompError::InvalidInput(
                "accumulator length changed mid-stream".into(),
            ));
        }
        let Some(k) = self.next else {
            return Ok(None);
        };
        let planes = self.entropy(k)?;
        let coeffs = self.level.scheme.region_coeff_range(k);
        self.scatter(k, planes, &mut acc[coeffs.clone()]);
        self.next = self.selected_from(k + 1);
        Ok(Some(coeffs))
    }

    /// The entropy step: decode region `k`'s chunk of every streamed plane
    /// into packed plane bytes, in plane order, validating each decoded
    /// length against the region geometry.
    fn entropy(&self, k: usize) -> Result<Vec<Vec<u8>>> {
        let m = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("pipeline", "entropy", m.entropy_ns);
        span.add_arg("region", k as u64);
        let expected = self.level.scheme.region_byte_range(k).len();
        let out: Vec<Vec<u8>> = self
            .region_chunks(k)
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
        let mut scattered_end = 0usize;
        loop {
            let bytes = self.next.map_or(0, |k| self.region_compressed_bytes(k));
            match self.decode_next(acc) {
                Ok(Some(coeffs)) => {
                    scattered_end = coeffs.end;
                    on_region(coeffs, bytes);
                }
                Ok(None) => return Ok(()),
                Err(e) => {
                    let (lo, hi) = (self.level.plane_lo, self.level.plane_hi);
                    let mask = (1u64 << hi) - (1u64 << lo);
                    for w in &mut acc[..scattered_end] {
                        *w &= !mask;
                    }
                    return Err(e);
                }
            }
        }
    }
}
