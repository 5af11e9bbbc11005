//! The one level loader: a level load's chunk regions, each
//! **entropy-decoded** then **scattered**, one region at a time.
//!
//! Every level the decoder loads — full-domain or a region's precincts, with
//! or without an event sink, resident or ranged, and every
//! [`crate::bitplane::decode_planes_into`] call — goes through one function,
//! [`load_level`], over one input, a [`LevelChunks`]: the level's
//! [`RegionScheme`] (shared by `Arc`), its plane count, the load's **region
//! list** — the ascending ids of the regions it reads that hold
//! coefficients: every such region of the level on a full read, a region
//! read's precincts otherwise — and a borrowed table from
//! `(plane, list position)` to compressed bytes. One map per decoder; the
//! backing only supplies chunk bytes: the decoder's scheme is always the one
//! its [`crate::ContainerMap`] holds for the level, and only the table
//! differs. A resident level's borrows the level's own chunks
//! ([`crate::bitplane::EncodedLevel::chunk_table`]); a ranged level's is the one
//! [`crate::LevelMap::fetch_planes`] cuts from the run buffers the level
//! takes from its request's fetch (`planner::RequestFetch`): slices of a
//! fetch group's one read. Nothing is copied between the store and the
//! entropy decoder, and nothing of a load is sized by the level when the
//! list is a region's: the table has one entry per (plane, listed region),
//! and the accumulator holds the listed regions' coefficients back to back
//! — the level's own layout on a full read.
//!
//! Per region the loader runs two private steps:
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
//! `decode_planes_into` checks its bare level the same way). The loader
//! checks payload, not metadata: the load it is handed is consistent.
//! Memory is bounded at one region. The loader does no rollback: a failed
//! region leaves its own slice untouched, the regions before it stay
//! scattered, and the accumulator's owner undoes the load by clearing the
//! streamed planes ([`clear_planes`]) — the decoder's retrieval on error,
//! and `decode_planes_into` for its caller's accumulator.

use std::ops::Range;
use std::sync::Arc;

use ipc_codecs::bitslice;

use crate::bitplane::{decode_chunk_bytes, RegionScheme};
use crate::error::{IpcompError, Result};

/// One level load's compressed chunks as the loader reads them: planes
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

/// Clear planes `[lo, hi)` of every word of `acc`: undoes a failed load of
/// those planes, which were zero before it.
pub(crate) fn clear_planes(acc: &mut [u64], lo: u8, hi: u8) {
    let mask = (1u64 << hi) - (1u64 << lo);
    for w in acc {
        *w &= !mask;
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

/// The one level loader: decode `load` region by region into `acc` (the
/// load's accumulator: its listed regions' coefficients back to back),
/// calling `on_region(coeffs, compressed_bytes)` after each region lands —
/// the accumulator range it completed and the compressed bytes it read
/// across the streamed planes. Regions land in list order, into consecutive
/// slices of `acc`; peak memory is bounded by `(plane span) × region size`
/// instead of the whole level.
///
/// A failed region leaves its own slice untouched (it scatters only after it
/// entropy-decodes), but the regions before it stay scattered: the loader
/// does no rollback. The planes it streams, bits `[plane_lo, plane_hi)`,
/// were zero in `acc` before the load (planes load from the most
/// significant down), so whoever owns the accumulator undoes a failed load
/// by clearing them.
pub(crate) fn load_level(
    load: &LevelChunks<'_>,
    prefix_bits: u8,
    predictive: bool,
    acc: &mut [u64],
    mut on_region: impl FnMut(Range<usize>, usize),
) -> Result<()> {
    let want = load.acc_len();
    if acc.len() != want {
        return Err(IpcompError::InvalidInput(format!(
            "accumulator length {} does not match the load's {want} coefficients",
            acc.len()
        )));
    }
    if load.plane_lo == load.plane_hi {
        return Ok(());
    }
    // The prefix width the scatter step undoes: none without prediction.
    let prefix = if predictive { prefix_bits } else { 0 };
    let mut at = 0;
    for (i, &k) in load.regions.iter().enumerate() {
        let (planes, compressed) = entropy(load, i)?;
        let coeffs = at..at + load.scheme.region_coeff_range(k).len();
        scatter(load, k, prefix, planes, &mut acc[coeffs.clone()]);
        at = coeffs.end;
        on_region(coeffs, compressed);
    }
    Ok(())
}

/// The entropy step: decode list position `i`'s chunk of every streamed
/// plane into packed plane bytes, in plane order, validating each decoded
/// length against the region geometry. Returns the packed planes and the
/// compressed bytes read.
fn entropy(load: &LevelChunks<'_>, i: usize) -> Result<(Vec<Vec<u8>>, usize)> {
    let m = crate::obs::metrics();
    let k = load.regions[i];
    let mut span = ipc_telemetry::span_timed("pipeline", "entropy", m.entropy_ns);
    span.add_arg("region", k as u64);
    let expected = load.scheme.region_byte_range(k).len();
    let mut compressed = 0;
    let chunks = load.chunks[i..].iter().step_by(load.regions.len());
    let out: Vec<Vec<u8>> = chunks
        .map(|chunk| {
            compressed += chunk.len();
            decode_chunk_bytes(chunk, expected)
        })
        .collect::<Result<_>>()?;
    let bytes: u64 = out.iter().map(|c| c.len() as u64).sum();
    m.entropy_bytes.add(bytes);
    span.add_arg("bytes", bytes);
    Ok((out, compressed))
}

/// The scatter step: undo a `prefix`-wide prediction on region `k`'s
/// packed `planes` (one per streamed plane, each already validated to the
/// region's packed length) and scatter them into `acc_region`, its slice of
/// the accumulators, OR-ed on top of whatever planes are already loaded,
/// via the kernel matching the live plane count. Infallible: everything that
/// can be wrong with the input was caught by the entropy step.
fn scatter(
    load: &LevelChunks<'_>,
    k: usize,
    prefix: u8,
    mut planes: Vec<Vec<u8>>,
    acc_region: &mut [u64],
) {
    let mut span =
        ipc_telemetry::span_timed("pipeline", "scatter", crate::obs::metrics().scatter_ns);
    span.add_arg("region", k as u64);
    let region_len = load.scheme.region_byte_range(k).len();
    if prefix > 0 {
        undo_prediction(load, prefix, &mut planes, region_len, acc_region);
    }
    let refs: Vec<&[u8]> = planes.iter().map(|c| &c[..region_len]).collect();
    bitslice::scatter_planes(&refs, load.plane_lo as usize, acc_region);
}

/// Undo the prediction as whole-plane XORs over the packed byte streams,
/// top-down so every more significant plane is already raw when it is
/// XOR-ed in. Prefix planes at or above `plane_hi` live in the
/// accumulators (zero on a fresh decode where `plane_hi == num_planes`,
/// since planes past the significant range are zero by construction);
/// they are extracted once with the few-planes gather kernel — at most
/// `prefix_bits` planes, so the shift + movemask sweep beats a full
/// per-block transpose.
fn undo_prediction(
    load: &LevelChunks<'_>,
    prefix_bits: u8,
    planes: &mut [Vec<u8>],
    region_len: usize,
    acc_region: &[u64],
) {
    let plane_lo = load.plane_lo as usize;
    let plane_hi = load.plane_hi as usize;
    let prefix_bits = prefix_bits as usize;
    let prefix_top = (plane_hi + prefix_bits).min(64);
    let acc_prefix: Vec<Vec<u64>> = if load.plane_hi < load.num_planes {
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
