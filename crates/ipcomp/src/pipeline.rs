//! Staged decode pipeline: **fetch → entropy-decode → scatter** — the one
//! level loader.
//!
//! Every level the decoder loads — full-domain or under a region mask, with
//! or without an event sink, resident or ranged, and every
//! [`crate::bitplane::decode_planes_into`] call — streams through one
//! [`RegionPipeline`] built from three stages, each a plain struct with one
//! per-region method (they share no input type, so there is no trait over
//! them):
//!
//! 1. [`FetchStage`] resolves one chunk region to its compressed chunk
//!    payloads by borrowing them from an [`EncodedLevel`]: the resident
//!    container's own level, or the level a ranged store assembled with
//!    [`crate::LevelMap::fetch_planes`] — slices of the request's fetch
//!    groups, read once per group by [`crate::source::PlannedSource`].
//! 2. [`EntropyStage`] entropy-decodes each compressed chunk into packed
//!    plane bytes, validating every decoded size against the region
//!    geometry so corrupt input surfaces as a bounded error before any
//!    accumulator is touched.
//! 3. [`ScatterStage`] undoes the predictive coding and scatters the packed
//!    bytes into the negabinary accumulators through the plane-count
//!    specialized kernels of [`ipc_codecs::bitslice`].
//!
//! Region geometry is never restated here: a level's [`RegionScheme`] is
//! built once per load and shared by `Arc` between the entropy stage, the
//! scatter stage and the driver.
//!
//! [`RegionPipeline`] drives the stages over a level's regions — all of
//! them, or the precincts a region mask selects — one region at a time, on
//! the calling thread. Memory is bounded at one region, and because the
//! scatter stage runs only after the whole region entropy-decodes, a failed
//! region leaves its accumulator slice untouched; the regions scattered
//! before it are rolled back bit-exactly, so a failed load leaves no trace.

use std::ops::Range;
use std::sync::Arc;

use ipc_codecs::bitslice;

use crate::bitplane::{check_plane_range, decode_chunk_bytes, EncodedLevel, RegionScheme};
use crate::error::{IpcompError, Result};

/// Stage 1: resolve a region to its compressed chunk payloads — a borrow of
/// planes `[plane_lo, plane_hi)` of an in-memory level.
pub struct FetchStage<'a> {
    /// The level holding the chunks: resident, or fetched for this load.
    pub level: &'a EncodedLevel,
    /// First plane being streamed.
    pub plane_lo: u8,
    /// One past the last plane being streamed.
    pub plane_hi: u8,
}

impl<'a> FetchStage<'a> {
    /// Compressed bytes region `k` reads across the streamed planes.
    pub fn region_compressed_bytes(&self, k: usize) -> usize {
        self.planes().map(|p| p[k].len()).sum()
    }

    /// The streamed planes' chunk lists, ascending plane index.
    fn planes(&self) -> impl Iterator<Item = &'a [Vec<u8>]> {
        let level = self.level;
        (self.plane_lo..self.plane_hi).map(move |p| level.planes[p as usize].chunks.as_slice())
    }

    /// Resolve `region` to its compressed chunks, one per streamed plane.
    pub fn fetch(&self, region: usize) -> Vec<&'a [u8]> {
        self.planes().map(|p| p[region].as_slice()).collect()
    }
}

/// Stage 2: entropy-decode one region's compressed chunks into packed plane
/// bytes, validating each decoded length against the region geometry.
pub struct EntropyStage {
    scheme: Arc<RegionScheme>,
}

impl EntropyStage {
    /// Entropy stage over one level's region scheme (the `Arc` the driver
    /// shares with the scatter stage).
    pub fn new(scheme: Arc<RegionScheme>) -> Self {
        Self { scheme }
    }

    /// Decode every chunk of one fetched region, in plane order.
    pub fn decode(&self, region: usize, input: &[&[u8]]) -> Result<Vec<Vec<u8>>> {
        let m = crate::obs::metrics();
        let mut span = ipc_telemetry::span_timed("pipeline", "entropy", m.entropy_ns);
        span.add_arg("region", region as u64);
        let expected = self.scheme.region_byte_range(region).len();
        let out: Vec<Vec<u8>> = input
            .iter()
            .map(|chunk| decode_chunk_bytes(chunk, expected))
            .collect::<Result<_>>()?;
        let bytes: u64 = out.iter().map(|c| c.len() as u64).sum();
        m.entropy_bytes.add(bytes);
        span.add_arg("bytes", bytes);
        Ok(out)
    }
}

/// Stage 3: undo the predictive coding and scatter one region's packed plane
/// bytes into its slice of the accumulators, through the plane-count
/// specialized kernels.
pub struct ScatterStage {
    scheme: Arc<RegionScheme>,
    num_planes: u8,
    plane_lo: u8,
    plane_hi: u8,
    prefix_bits: u8,
    predictive: bool,
}

impl ScatterStage {
    /// Scatter stage for planes `[plane_lo, plane_hi)` of a level with
    /// `num_planes` significant planes.
    pub fn new(
        scheme: Arc<RegionScheme>,
        num_planes: u8,
        plane_lo: u8,
        plane_hi: u8,
        prefix_bits: u8,
        predictive: bool,
    ) -> Self {
        Self {
            scheme,
            num_planes,
            plane_lo,
            plane_hi,
            prefix_bits,
            predictive,
        }
    }

    /// Undo the prediction as whole-plane XORs over the packed byte streams,
    /// top-down so every more significant plane is already raw when it is
    /// XOR-ed in. Prefix planes at or above `plane_hi` live in the
    /// accumulators (zero on a fresh decode where `plane_hi == num_planes`,
    /// since planes past the significant range are zero by construction);
    /// they are extracted once with the few-planes gather kernel — at most
    /// `prefix_bits` planes, so the shift + movemask sweep beats a full
    /// per-block transpose.
    fn undo_prediction(&self, chunks: &mut [Vec<u8>], region_len: usize, acc_region: &[u64]) {
        let plane_lo = self.plane_lo as usize;
        let plane_hi = self.plane_hi as usize;
        let prefix_bits = self.prefix_bits as usize;
        let prefix_top = (plane_hi + prefix_bits).min(64);
        let acc_prefix: Vec<Vec<u64>> = if self.plane_hi < self.num_planes {
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
                    let (lo_half, hi_half) = chunks.split_at_mut(q - plane_lo);
                    let dst = &mut lo_half[p - plane_lo][..region_len];
                    let src = &hi_half[0][..region_len];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d ^= s;
                    }
                } else if q - plane_hi < acc_prefix.len() {
                    let src = &acc_prefix[q - plane_hi];
                    let dst = &mut chunks[p - plane_lo];
                    xor_words_into_bytes(&mut dst[..region_len], src);
                }
                // Planes past both ranges are zero: nothing to XOR.
            }
        }
    }

    /// Scatter one region's entropy-decoded `chunks` (one per streamed
    /// plane, each already validated to the region's packed length) into
    /// `acc_region`, its slice of the accumulators. Infallible: everything
    /// that can be wrong with the input was caught by the entropy stage.
    pub fn scatter(&self, region: usize, mut chunks: Vec<Vec<u8>>, acc_region: &mut [u64]) {
        let mut span =
            ipc_telemetry::span_timed("pipeline", "scatter", crate::obs::metrics().scatter_ns);
        span.add_arg("region", region as u64);
        let region_len = self.scheme.region_byte_range(region).len();
        if self.predictive && self.prefix_bits > 0 {
            self.undo_prediction(&mut chunks, region_len, acc_region);
        }
        // Scatter the raw planes into the accumulators, OR-ed on top of
        // whatever planes are already loaded, via the kernel matching the
        // live plane count.
        let refs: Vec<&[u8]> = chunks.iter().map(|c| &c[..region_len]).collect();
        bitslice::scatter_planes(&refs, self.plane_lo as usize, acc_region);
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

/// The one level loader: a pipeline driver over one level's chunk regions —
/// all of them, or the precincts a region mask selects.
///
/// Each [`RegionPipeline::decode_next`] call completes one region through
/// fetch + entropy + scatter; `stream` runs them all and rolls the level
/// back on failure. Regions complete in coefficient order; a
/// failed region leaves its accumulator slice untouched and the stream
/// positioned to retry it. Peak memory is bounded by `(plane span) × region
/// size` instead of the whole level.
pub struct RegionPipeline<'a> {
    fetch: FetchStage<'a>,
    entropy: EntropyStage,
    scatter: ScatterStage,
    scheme: Arc<RegionScheme>,
    /// Regions to decode (`None` = every region); unselected regions are
    /// never fetched and their accumulator slices never touched.
    mask: Option<&'a [bool]>,
    /// The region the next call decodes (`None` once exhausted).
    next: Option<usize>,
}

impl<'a> RegionPipeline<'a> {
    /// Compose a pipeline over `fetch`'s level and plane range, validating
    /// the range against the level's geometry and chunk structure, `acc_len`
    /// (the caller's accumulator length) against its size, and `mask` (one
    /// flag per region) against its region count.
    pub fn new(
        fetch: FetchStage<'a>,
        prefix_bits: u8,
        predictive: bool,
        acc_len: usize,
        mask: Option<&'a [bool]>,
    ) -> Result<Self> {
        let level = fetch.level;
        let scheme = Arc::new(level.scheme());
        let (plane_lo, plane_hi) = (fetch.plane_lo, fetch.plane_hi);
        check_plane_range(
            &scheme,
            level.num_planes,
            |p| level.planes[p as usize].chunks.len(),
            plane_lo,
            plane_hi,
            acc_len,
        )?;
        if mask.is_some_and(|m| m.len() != scheme.num_regions()) {
            return Err(IpcompError::InvalidInput(
                "region mask does not match the level's region count".into(),
            ));
        }
        let mut pipeline = Self {
            fetch,
            entropy: EntropyStage::new(Arc::clone(&scheme)),
            scatter: ScatterStage::new(
                Arc::clone(&scheme),
                level.num_planes,
                plane_lo,
                plane_hi,
                prefix_bits,
                predictive,
            ),
            scheme,
            mask,
            next: None,
        };
        if plane_lo < plane_hi && pipeline.scheme.n_values() > 0 {
            pipeline.next = pipeline.selected_from(0);
        }
        Ok(pipeline)
    }

    /// First selected region at or after `k`.
    fn selected_from(&self, k: usize) -> Option<usize> {
        (k..self.scheme.num_regions()).find(|&k| self.mask.is_none_or(|m| m[k]))
    }

    /// Total number of chunk regions this pipeline will produce.
    pub fn num_regions(&self) -> usize {
        if self.fetch.plane_lo == self.fetch.plane_hi || self.scheme.n_values() == 0 {
            0
        } else {
            match self.mask {
                Some(m) => m.iter().filter(|&&m| m).count(),
                None => self.scheme.num_regions(),
            }
        }
    }

    /// Compressed bytes region `k` reads across the streamed planes.
    pub fn region_compressed_bytes(&self, k: usize) -> usize {
        self.fetch.region_compressed_bytes(k)
    }

    /// Decode the next region into the matching slice of `acc` (the full
    /// level accumulator). Returns the coefficient range completed, or
    /// `None` when the stream is exhausted.
    pub fn decode_next(&mut self, acc: &mut [u64]) -> Result<Option<Range<usize>>> {
        if acc.len() != self.scheme.n_values() {
            return Err(IpcompError::InvalidInput(
                "accumulator length changed mid-stream".into(),
            ));
        }
        let Some(k) = self.next else {
            return Ok(None);
        };
        let chunks = self.entropy.decode(k, &self.fetch.fetch(k))?;
        let coeffs = self.scheme.region_coeff_range(k);
        self.scatter.scatter(k, chunks, &mut acc[coeffs.clone()]);
        self.next = self.selected_from(k + 1);
        Ok(Some(coeffs))
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
                    let (lo, hi) = (self.fetch.plane_lo, self.fetch.plane_hi);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::{encode_level_with, EncodeOptions};

    fn sample_codes(n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let x = (i as i64).wrapping_mul(0x9E37) % 5000;
                if i % 2 == 0 {
                    x
                } else {
                    -x
                }
            })
            .collect()
    }

    #[test]
    fn stages_compose_to_the_bulk_decoder() {
        let codes = sample_codes(3000);
        let opts = EncodeOptions { chunk_bytes: 64 };
        let enc = encode_level_with(&codes, 2, true, false, opts);
        let hi = enc.num_planes;

        let mut bulk = vec![0u64; enc.n_values];
        crate::bitplane::decode_planes_into(&enc, 0, hi, 2, true, &mut bulk).unwrap();

        let fetch = FetchStage {
            level: &enc,
            plane_lo: 0,
            plane_hi: hi,
        };
        let scheme = Arc::new(enc.scheme());
        let entropy = EntropyStage::new(Arc::clone(&scheme));
        let scatter = ScatterStage::new(Arc::clone(&scheme), enc.num_planes, 0, hi, 2, true);
        let mut acc = vec![0u64; enc.n_values];
        for k in 0..scheme.num_regions() {
            let chunks = entropy.decode(k, &fetch.fetch(k)).unwrap();
            scatter.scatter(k, chunks, &mut acc[scheme.region_coeff_range(k)]);
        }
        assert_eq!(acc, bulk);
    }
}
