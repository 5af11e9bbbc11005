//! Optimized data loading (paper Sec. 5).
//!
//! Given the per-level plane sizes and the pre-computed truncation losses stored in
//! the container metadata, the optimizer picks how many bitplanes to *discard* per
//! level so that either
//!
//! * **error-bound mode** — the loaded volume is minimized while the worst-case
//!   reconstruction error (Theorem 1: `Σ p^(l-1)·‖δy_l‖∞ + eb`) stays below the
//!   requested bound, or
//! * **bitrate / size mode** — the worst-case error is minimized while the loaded
//!   volume stays below the requested byte budget.
//!
//! Both modes are knapsack problems over (level, discard-count) options and share one
//! dynamic program with the error or size axis discretized to [`ERROR_BINS`] buckets,
//! mirroring the paper's `[128, 1023]` normalized-error grid. Discretization always
//! rounds *up* the constrained quantity, so the produced plan never violates the
//! user's constraint.

use crate::container::{Compressed, ContainerMap, Header};
use crate::error::{IpcompError, Result};
use crate::precinct::{roi_precinct_masks, RoiBox};

/// Number of discretization buckets used by the knapsack DP.
pub const ERROR_BINS: usize = 1024;

/// Everything the retrieval planner needs to know about a container:
/// header geometry, per-level plane counts, truncation-loss tables, and
/// compressed plane sizes. Implemented by the fully resident [`Compressed`]
/// and by the metadata-only [`ContainerMap`], so plans can be computed
/// without a single payload byte in memory.
///
/// Method names carry a `plan_` prefix to stay clear of the implementors'
/// inherent methods.
pub trait PlanInput {
    /// Container header.
    fn plan_header(&self) -> &Header;
    /// Number of encoded level entries.
    fn plan_num_level_entries(&self) -> usize;
    /// Significant bitplanes of level entry `idx`.
    fn plan_num_planes(&self, idx: usize) -> u8;
    /// Truncation-loss table of level entry `idx` (`0..=num_planes` entries).
    fn plan_trunc_loss(&self, idx: usize) -> &[u64];
    /// Compressed bytes of plane `p` of level entry `idx`.
    fn plan_plane_bytes(&self, idx: usize, p: u8) -> usize;
    /// Compressed bytes of chunk `k` of plane `p` of level entry `idx`.
    fn plan_chunk_bytes(&self, idx: usize, p: u8, k: usize) -> usize;
    /// Bytes every retrieval loads regardless of fidelity (header, anchors,
    /// metadata).
    fn plan_base_bytes(&self) -> usize;

    /// Interpolation level number of entry `idx` (coarsest first).
    fn plan_level_number(&self, idx: usize) -> u32 {
        self.plan_header().num_levels - idx as u32
    }

    /// Whether entry `idx` participates in progressive loading.
    fn plan_is_progressive(&self, idx: usize) -> bool {
        self.plan_level_number(idx) <= self.plan_header().progressive_levels
    }

    /// Total compressed payload bytes of entry `idx`.
    fn plan_level_payload_bytes(&self, idx: usize) -> usize {
        (0..self.plan_num_planes(idx))
            .map(|p| self.plan_plane_bytes(idx, p))
            .sum()
    }

    /// Compressed bytes of the planes that stay loaded when `discard` planes
    /// are dropped from entry `idx`.
    fn plan_loaded_bytes(&self, idx: usize, discard: u8) -> usize {
        (discard..self.plan_num_planes(idx))
            .map(|p| self.plan_plane_bytes(idx, p))
            .sum()
    }
}

impl PlanInput for Compressed {
    fn plan_header(&self) -> &Header {
        &self.header
    }
    fn plan_num_level_entries(&self) -> usize {
        self.levels.len()
    }
    fn plan_num_planes(&self, idx: usize) -> u8 {
        self.levels[idx].num_planes
    }
    fn plan_trunc_loss(&self, idx: usize) -> &[u64] {
        &self.levels[idx].trunc_loss
    }
    fn plan_plane_bytes(&self, idx: usize, p: u8) -> usize {
        self.levels[idx].planes[p as usize].len()
    }
    fn plan_chunk_bytes(&self, idx: usize, p: u8, k: usize) -> usize {
        self.levels[idx].planes[p as usize].chunks[k].len()
    }
    fn plan_base_bytes(&self) -> usize {
        self.base_bytes()
    }
}

/// A [`PlanInput`] view of a container restricted to a spatial region: every
/// plane's byte cost is replaced by the bytes of the chunks whose precincts
/// the region's halo windows intersect, so budget-constrained plans spend
/// their byte budget on what an ROI retrieval actually fetches. The error
/// side is unchanged — truncation loss is a per-level property of the codes,
/// and the optimizer's per-region accounting only re-scopes the cost axis.
struct RoiScopedInput<'a> {
    inner: &'a dyn PlanInput,
    /// `plane_bytes[idx][p]`: masked compressed bytes of plane `p` of level
    /// entry `idx`.
    plane_bytes: Vec<Vec<usize>>,
}

impl<'a> RoiScopedInput<'a> {
    /// Scope `inner`'s plane costs to the precincts `masks` selects
    /// (`masks[idx][k]`, see [`roi_precinct_masks`]).
    fn new(inner: &'a dyn PlanInput, masks: &[Vec<bool>]) -> Self {
        let plane_bytes = masks
            .iter()
            .enumerate()
            .map(|(idx, mask)| {
                (0..inner.plan_num_planes(idx))
                    .map(|p| {
                        (0..mask.len())
                            .filter(|&k| mask[k])
                            .map(|k| inner.plan_chunk_bytes(idx, p, k))
                            .sum()
                    })
                    .collect()
            })
            .collect();
        Self { inner, plane_bytes }
    }
}

impl PlanInput for RoiScopedInput<'_> {
    fn plan_header(&self) -> &Header {
        self.inner.plan_header()
    }
    fn plan_num_level_entries(&self) -> usize {
        self.inner.plan_num_level_entries()
    }
    fn plan_num_planes(&self, idx: usize) -> u8 {
        self.inner.plan_num_planes(idx)
    }
    fn plan_trunc_loss(&self, idx: usize) -> &[u64] {
        self.inner.plan_trunc_loss(idx)
    }
    fn plan_plane_bytes(&self, idx: usize, p: u8) -> usize {
        self.plane_bytes[idx][p as usize]
    }
    fn plan_chunk_bytes(&self, idx: usize, p: u8, k: usize) -> usize {
        self.inner.plan_chunk_bytes(idx, p, k)
    }
    fn plan_base_bytes(&self) -> usize {
        self.inner.plan_base_bytes()
    }
}

impl PlanInput for ContainerMap {
    fn plan_header(&self) -> &Header {
        &self.header
    }
    fn plan_num_level_entries(&self) -> usize {
        self.levels.len()
    }
    fn plan_num_planes(&self, idx: usize) -> u8 {
        self.levels[idx].num_planes
    }
    fn plan_trunc_loss(&self, idx: usize) -> &[u64] {
        &self.levels[idx].trunc_loss
    }
    fn plan_plane_bytes(&self, idx: usize, p: u8) -> usize {
        self.levels[idx].plane_bytes(p)
    }
    fn plan_chunk_bytes(&self, idx: usize, p: u8, k: usize) -> usize {
        self.levels[idx].chunk_size(p, k)
    }
    fn plan_base_bytes(&self) -> usize {
        self.base_bytes()
    }
}

/// A retrieval plan: how many bitplanes to load per level and what it costs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPlan {
    /// For each entry of `Compressed::levels` (coarsest → finest), the number of
    /// bitplanes to load, counted from the most significant plane down.
    pub planes_loaded: Vec<u8>,
    /// Upper bound on the *additional* reconstruction error introduced by the
    /// discarded planes (on top of the quantization bound `eb`).
    pub extra_error_bound: f64,
    /// Bitplane payload bytes this plan loads (excludes header/anchors/metadata).
    pub payload_bytes: usize,
}

impl LoadPlan {
    /// Total bytes a retrieval with this plan reads, including the always-loaded
    /// base (header, anchors, metadata).
    pub fn total_bytes<C: PlanInput + ?Sized>(&self, compressed: &C) -> usize {
        compressed.plan_base_bytes() + self.payload_bytes
    }

    /// Upper bound on the total reconstruction error of this plan.
    pub fn error_bound<C: PlanInput + ?Sized>(&self, compressed: &C) -> f64 {
        compressed.plan_header().error_bound + self.extra_error_bound
    }

    /// Element-wise maximum of two plans (used to keep retrieval monotone).
    pub fn union(&self, other: &LoadPlan) -> LoadPlan {
        let planes_loaded: Vec<u8> = self
            .planes_loaded
            .iter()
            .zip(&other.planes_loaded)
            .map(|(&a, &b)| a.max(b))
            .collect();
        LoadPlan {
            planes_loaded,
            extra_error_bound: self.extra_error_bound.min(other.extra_error_bound),
            payload_bytes: 0, // recomputed by callers that care; kept cheap here
        }
    }
}

/// Error amplification factor applied to the truncation loss of a level before it
/// reaches the finest output.
///
/// The paper's Theorem 1 uses `p^(level-1)` (one prediction application per level,
/// `p = L∞(P)`). Our predictor — like SZ3's — additionally reuses same-level points
/// across the dimension sweeps inside a level, and unlike quantization error the
/// truncation loss of *every* coefficient sits near the same magnitude once a plane
/// is dropped, so in the L∞ norm that intra-level chaining is actually realized
/// (empirically the delivered error exceeds the Theorem 1 bound by ~2× on 3-D data
/// when it is ignored). To keep the retrieval guarantee sound we bound the chaining
/// too: with `d` dimensions, one level multiplies incoming error by at most
/// `q = p^d` and adds its own loss amplified by at most `s = 1 + p + … + p^(d-1)`,
/// giving `amplification(level) = s · q^(level-1)`. For linear interpolation this
/// reduces to `d·1`; for cubic it is modestly conservative, which costs a little
/// extra loaded data but never violates the user's requested bound.
pub(crate) fn amplification<C: PlanInput + ?Sized>(compressed: &C, idx: usize) -> f64 {
    let level = compressed.plan_level_number(idx);
    let p = compressed.plan_header().interpolation.linf_norm();
    let d = compressed.plan_header().dims.len() as i32;
    let q = p.powi(d);
    let s: f64 = (0..d).map(|i| p.powi(i)).sum();
    s * q.powi(level as i32 - 1)
}

/// Worst-case data-space error contributed by level `idx` when `discard` planes are
/// dropped.
pub(crate) fn level_error<C: PlanInput + ?Sized>(compressed: &C, idx: usize, discard: u8) -> f64 {
    let loss_codes = compressed.plan_trunc_loss(idx)[discard as usize] as f64;
    amplification(compressed, idx) * loss_codes * 2.0 * compressed.plan_header().error_bound
}

/// Plan that loads every bitplane of every level (classic full-fidelity
/// decompression).
pub fn plan_full<C: PlanInput + ?Sized>(compressed: &C) -> LoadPlan {
    let n = compressed.plan_num_level_entries();
    let planes_loaded: Vec<u8> = (0..n).map(|idx| compressed.plan_num_planes(idx)).collect();
    let payload_bytes = (0..n)
        .map(|idx| compressed.plan_level_payload_bytes(idx))
        .sum();
    LoadPlan {
        planes_loaded,
        extra_error_bound: 0.0,
        payload_bytes,
    }
}

/// Options available for one level: for each allowed discard count, the error it
/// introduces and the bytes it loads/saves.
struct LevelOptions {
    /// (discard, error, loaded_bytes)
    options: Vec<(u8, f64, usize)>,
}

fn level_options<C: PlanInput + ?Sized>(compressed: &C, idx: usize) -> LevelOptions {
    if !compressed.plan_is_progressive(idx) {
        return LevelOptions {
            options: vec![(0, 0.0, compressed.plan_loaded_bytes(idx, 0))],
        };
    }
    let options = (0..=compressed.plan_num_planes(idx))
        .map(|d| {
            (
                d,
                level_error(compressed, idx, d),
                compressed.plan_loaded_bytes(idx, d),
            )
        })
        .collect();
    LevelOptions { options }
}

/// Error-bound mode: minimize loaded bytes subject to
/// `eb + Σ level_error ≤ target_error`.
///
/// If `target_error < eb` the bound cannot be met by any plan; the full plan is
/// returned (its error is the tightest achievable).
pub fn plan_for_error_bound<C: PlanInput + ?Sized>(
    compressed: &C,
    target_error: f64,
) -> Result<LoadPlan> {
    if !(target_error.is_finite() && target_error > 0.0) {
        return Err(IpcompError::InvalidInput(format!(
            "retrieval error bound must be positive and finite, got {target_error}"
        )));
    }
    let eb = compressed.plan_header().error_bound;
    let slack = target_error - eb;
    if slack <= 0.0 {
        return Ok(plan_full(compressed));
    }

    let n_levels = compressed.plan_num_level_entries();
    let bin = slack / (ERROR_BINS - 1) as f64;
    let discretize = |err: f64| -> Option<usize> {
        if err <= 0.0 {
            Some(0)
        } else {
            let d = (err / bin).ceil() as usize;
            (d < ERROR_BINS).then_some(d)
        }
    };

    // dp[e] = max saved bytes with total discretized error <= e.
    let mut dp = vec![0i64; ERROR_BINS];
    let mut choices: Vec<Vec<u8>> = Vec::with_capacity(n_levels);
    for idx in 0..n_levels {
        let opts = level_options(compressed, idx);
        let payload = compressed.plan_level_payload_bytes(idx) as i64;
        let mut new_dp = vec![i64::MIN; ERROR_BINS];
        let mut choice = vec![0u8; ERROR_BINS];
        for (discard, err, loaded) in &opts.options {
            let Some(d) = discretize(*err) else { continue };
            let saved = payload - *loaded as i64;
            for e in d..ERROR_BINS {
                let candidate = dp[e - d] + saved;
                if candidate > new_dp[e] {
                    new_dp[e] = candidate;
                    choice[e] = *discard;
                }
            }
        }
        // Make dp[e] monotone (a looser error budget can't do worse).
        for e in 1..ERROR_BINS {
            if new_dp[e] < new_dp[e - 1] {
                new_dp[e] = new_dp[e - 1];
                choice[e] = choice[e - 1];
            }
        }
        dp = new_dp;
        choices.push(choice);
    }

    // Walk the choices back from the full budget.
    let mut planes_loaded = vec![0u8; n_levels];
    let mut extra_error = 0.0;
    let mut payload_bytes = 0usize;
    let mut budget = ERROR_BINS - 1;
    for idx in (0..n_levels).rev() {
        let discard = choices[idx][budget];
        planes_loaded[idx] = compressed.plan_num_planes(idx) - discard;
        let err = level_error(compressed, idx, discard);
        extra_error += err;
        payload_bytes += compressed.plan_loaded_bytes(idx, discard);
        let d = if err <= 0.0 {
            0
        } else {
            (err / bin).ceil() as usize
        };
        budget = budget.saturating_sub(d);
    }

    Ok(LoadPlan {
        planes_loaded,
        extra_error_bound: extra_error,
        payload_bytes,
    })
}

/// Size / bitrate mode: minimize worst-case error subject to
/// `base_bytes + Σ loaded_bytes ≤ max_total_bytes`.
///
/// Non-progressive levels, the header, anchors, and metadata are always loaded even
/// if they exceed the budget (nothing can be reconstructed without them).
pub fn plan_for_bytes<C: PlanInput + ?Sized>(
    compressed: &C,
    max_total_bytes: usize,
) -> Result<LoadPlan> {
    let n_levels = compressed.plan_num_level_entries();
    // Mandatory bytes: base plus non-progressive levels' full payload.
    let mandatory: usize = compressed.plan_base_bytes()
        + (0..n_levels)
            .filter(|&i| !compressed.plan_is_progressive(i))
            .map(|i| compressed.plan_level_payload_bytes(i))
            .sum::<usize>();
    let budget = max_total_bytes.saturating_sub(mandatory);

    // Degenerate budget: nothing beyond the mandatory loads fits, so every
    // progressive level discards all of its planes.
    if budget == 0 {
        let mut planes_loaded = vec![0u8; n_levels];
        let mut extra_error = 0.0;
        let mut payload_bytes = 0usize;
        for (idx, loaded) in planes_loaded.iter_mut().enumerate() {
            let num_planes = compressed.plan_num_planes(idx);
            if compressed.plan_is_progressive(idx) {
                *loaded = 0;
                extra_error += level_error(compressed, idx, num_planes);
            } else {
                *loaded = num_planes;
                payload_bytes += compressed.plan_level_payload_bytes(idx);
            }
        }
        return Ok(LoadPlan {
            planes_loaded,
            extra_error_bound: extra_error,
            payload_bytes,
        });
    }

    let bin = budget as f64 / (ERROR_BINS - 1) as f64;
    let discretize = |bytes: usize| -> Option<usize> {
        let d = (bytes as f64 / bin).ceil() as usize;
        (d < ERROR_BINS).then_some(d)
    };

    // dp[s] = min extra error with total discretized progressive payload <= s.
    let mut dp = vec![0.0f64; ERROR_BINS];
    let mut choices: Vec<Vec<u8>> = Vec::with_capacity(n_levels);
    for idx in 0..n_levels {
        let opts = level_options(compressed, idx);
        let mut new_dp = vec![f64::INFINITY; ERROR_BINS];
        let mut choice = vec![u8::MAX; ERROR_BINS];
        let progressive = compressed.plan_is_progressive(idx);
        for (discard, err, loaded) in &opts.options {
            // Non-progressive levels are paid for in `mandatory`, not the budget.
            let cost = if progressive { *loaded } else { 0 };
            let Some(d) = discretize(cost) else { continue };
            for s in d..ERROR_BINS {
                let candidate = dp[s - d] + err;
                if candidate < new_dp[s] {
                    new_dp[s] = candidate;
                    choice[s] = *discard;
                }
            }
        }
        // Every level always has the "discard everything" option at cost 0, so the
        // DP never dead-ends for progressive levels; non-progressive levels have a
        // single zero-cost option.
        for s in 1..ERROR_BINS {
            if new_dp[s] > new_dp[s - 1] {
                new_dp[s] = new_dp[s - 1];
                choice[s] = choice[s - 1];
            }
        }
        if choice.iter().all(|&c| c == u8::MAX) {
            return Err(IpcompError::InvalidInput(
                "size budget too small to satisfy mandatory level loads".into(),
            ));
        }
        dp = new_dp;
        choices.push(choice);
    }

    let mut planes_loaded = vec![0u8; n_levels];
    let mut extra_error = 0.0;
    let mut payload_bytes = 0usize;
    let mut remaining = ERROR_BINS - 1;
    for idx in (0..n_levels).rev() {
        let discard = choices[idx][remaining];
        planes_loaded[idx] = compressed.plan_num_planes(idx) - discard;
        extra_error += level_error(compressed, idx, discard);
        let loaded = compressed.plan_loaded_bytes(idx, discard);
        payload_bytes += loaded;
        let cost = if compressed.plan_is_progressive(idx) {
            (loaded as f64 / bin).ceil() as usize
        } else {
            0
        };
        remaining = remaining.saturating_sub(cost);
    }

    Ok(LoadPlan {
        planes_loaded,
        extra_error_bound: extra_error,
        payload_bytes,
    })
}

/// Resolve a [`RetrievalRequest`](crate::progressive::RetrievalRequest) into
/// a loading plan. The single dispatch point shared by the decoder's
/// `plan()` and the range planner, so a request always lowers to the same
/// planes no matter which layer asks.
pub fn plan_for_request<C: PlanInput + ?Sized>(
    compressed: &C,
    request: crate::progressive::RetrievalRequest,
) -> Result<LoadPlan> {
    use crate::progressive::RetrievalRequest;
    match request {
        RetrievalRequest::Full => Ok(plan_full(compressed)),
        RetrievalRequest::ErrorBound(eb) => plan_for_error_bound(compressed, eb),
        RetrievalRequest::RelErrorBound(rel) => {
            if !(rel.is_finite() && rel > 0.0) {
                return Err(IpcompError::InvalidInput(format!(
                    "relative bound must be positive, got {rel}"
                )));
            }
            plan_for_error_bound(compressed, rel * compressed.plan_header().value_range)
        }
        RetrievalRequest::Bitrate(b) => plan_for_bitrate(compressed, b),
        RetrievalRequest::SizeBudget(bytes) => plan_for_bytes(compressed, bytes),
        // The bounding box scopes which chunks are *fetched*, not which
        // planes are loaded: planning against the full container keeps the
        // plane selection identical to a full-domain retrieval at the same
        // bound, which is what makes ROI output bit-identical to
        // full-decode-then-crop.
        RetrievalRequest::Roi { error_bound, .. } => plan_for_error_bound(compressed, error_bound),
    }
}

/// A region resolved against one container: the box and its per-level
/// precinct fetch masks (`masks[idx][k]`, see [`roi_precinct_masks`]).
pub type RegionMasks = (RoiBox, Vec<Vec<bool>>);

/// Resolve a request plus an optional spatial scope into a loading plan and —
/// for a region — its [`RegionMasks`]. The single place the region
/// rules live, shared by the decoder and the range planner so the two can
/// never serve and price a region differently:
///
/// * [`RetrievalRequest::Roi`] is `region` + an error bound in one value; it
///   cannot be combined with a second box.
/// * Fidelity-typed requests (`ErrorBound`, `RelErrorBound`, `Full`) plan
///   against the whole container, so the plane selection — and therefore the
///   output — is bit-identical to a full-domain retrieval cropped to the box.
/// * Budget-typed requests (`SizeBudget`, and `Bitrate` re-read as bits per
///   *region* scalar) budget only the bytes the region's precincts fetch.
///
/// [`RetrievalRequest`]: crate::progressive::RetrievalRequest
/// [`RetrievalRequest::Roi`]: crate::progressive::RetrievalRequest::Roi
pub fn plan_for_scope(
    compressed: &dyn PlanInput,
    request: crate::progressive::RetrievalRequest,
    region: Option<RoiBox>,
) -> Result<(LoadPlan, Option<RegionMasks>)> {
    use crate::progressive::RetrievalRequest;
    let (fidelity, bounds) = match (request, region) {
        (RetrievalRequest::Roi { .. }, Some(_)) => {
            return Err(IpcompError::InvalidInput(
                "ROI retrieval cannot nest a second bounding box".into(),
            ))
        }
        (
            RetrievalRequest::Roi {
                bounds,
                error_bound,
            },
            None,
        ) => (RetrievalRequest::ErrorBound(error_bound), bounds),
        (fidelity, Some(bounds)) => (fidelity, bounds),
        (fidelity, None) => return Ok((plan_for_request(compressed, fidelity)?, None)),
    };
    let masks = roi_precinct_masks(compressed.plan_header(), &bounds)?;
    let budget = match fidelity {
        RetrievalRequest::SizeBudget(bytes) => Some(bytes),
        RetrievalRequest::Bitrate(b) => {
            if !(b.is_finite() && b > 0.0) {
                return Err(IpcompError::InvalidInput(format!(
                    "bitrate must be positive and finite, got {b}"
                )));
            }
            Some((b * bounds.len() as f64 / 8.0).floor() as usize)
        }
        _ => None,
    };
    let plan = match budget {
        Some(bytes) => plan_for_bytes(&RoiScopedInput::new(compressed, &masks), bytes)?,
        None => plan_for_request(compressed, fidelity)?,
    };
    Ok((plan, Some((bounds, masks))))
}

/// Bitrate mode: like [`plan_for_bytes`] with the budget expressed in bits per
/// scalar value of the original field.
pub fn plan_for_bitrate<C: PlanInput + ?Sized>(compressed: &C, bitrate: f64) -> Result<LoadPlan> {
    if !(bitrate.is_finite() && bitrate > 0.0) {
        return Err(IpcompError::InvalidInput(format!(
            "bitrate must be positive and finite, got {bitrate}"
        )));
    }
    let bytes = (bitrate * compressed.plan_header().num_elements() as f64 / 8.0).floor() as usize;
    plan_for_bytes(compressed, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::Config;
    use ipc_tensor::{ArrayD, Shape};

    fn toy_compressed() -> Compressed {
        let shape = Shape::d3(20, 20, 20);
        let field = ArrayD::from_fn(shape, |c| {
            (c[0] as f64 * 0.31).sin() * 2.0 + (c[1] as f64 * 0.17).cos() + c[2] as f64 * 0.05
        });
        compress(&field, 1e-6, &Config::default()).unwrap()
    }

    #[test]
    fn full_plan_loads_everything() {
        let c = toy_compressed();
        let plan = plan_full(&c);
        assert_eq!(plan.payload_bytes, c.payload_bytes());
        assert_eq!(plan.extra_error_bound, 0.0);
        for (idx, &p) in plan.planes_loaded.iter().enumerate() {
            assert_eq!(p, c.levels[idx].num_planes);
        }
    }

    #[test]
    fn error_bound_mode_loads_less_for_looser_bounds() {
        let c = toy_compressed();
        let tight = plan_for_error_bound(&c, 2e-6).unwrap();
        let medium = plan_for_error_bound(&c, 1e-4).unwrap();
        let loose = plan_for_error_bound(&c, 1e-2).unwrap();
        assert!(tight.payload_bytes >= medium.payload_bytes);
        assert!(medium.payload_bytes >= loose.payload_bytes);
        assert!(loose.payload_bytes < plan_full(&c).payload_bytes);
    }

    #[test]
    fn error_bound_mode_respects_constraint() {
        let c = toy_compressed();
        for target in [5e-6, 1e-4, 1e-3, 1e-2] {
            let plan = plan_for_error_bound(&c, target).unwrap();
            assert!(
                plan.error_bound(&c) <= target * (1.0 + 1e-9),
                "target {target}: bound {}",
                plan.error_bound(&c)
            );
        }
    }

    #[test]
    fn error_bound_tighter_than_eb_returns_full_plan() {
        let c = toy_compressed();
        let plan = plan_for_error_bound(&c, 1e-9).unwrap();
        assert_eq!(plan, plan_full(&c));
    }

    #[test]
    fn invalid_targets_rejected() {
        let c = toy_compressed();
        assert!(plan_for_error_bound(&c, -1.0).is_err());
        assert!(plan_for_error_bound(&c, f64::NAN).is_err());
        assert!(plan_for_bitrate(&c, 0.0).is_err());
    }

    #[test]
    fn size_mode_respects_budget() {
        let c = toy_compressed();
        let full = plan_full(&c).total_bytes(&c);
        for frac in [0.3, 0.5, 0.8] {
            let budget = (full as f64 * frac) as usize;
            let plan = plan_for_bytes(&c, budget).unwrap();
            assert!(
                plan.total_bytes(&c) <= budget.max(c.base_bytes()),
                "frac {frac}: {} > {budget}",
                plan.total_bytes(&c)
            );
        }
    }

    #[test]
    fn size_mode_error_decreases_with_budget() {
        let c = toy_compressed();
        let full = plan_full(&c).total_bytes(&c);
        let small = plan_for_bytes(&c, full / 4).unwrap();
        let large = plan_for_bytes(&c, full).unwrap();
        assert!(large.extra_error_bound <= small.extra_error_bound);
        assert!(large.payload_bytes >= small.payload_bytes);
    }

    #[test]
    fn bitrate_mode_matches_equivalent_byte_budget() {
        let c = toy_compressed();
        let n = c.header.num_elements();
        let plan_a = plan_for_bitrate(&c, 2.0).unwrap();
        let plan_b = plan_for_bytes(&c, 2 * n / 8).unwrap();
        assert_eq!(plan_a.planes_loaded, plan_b.planes_loaded);
    }

    #[test]
    fn union_takes_elementwise_max() {
        let a = LoadPlan {
            planes_loaded: vec![3, 0, 7],
            extra_error_bound: 0.5,
            payload_bytes: 100,
        };
        let b = LoadPlan {
            planes_loaded: vec![1, 4, 7],
            extra_error_bound: 0.2,
            payload_bytes: 120,
        };
        assert_eq!(a.union(&b).planes_loaded, vec![3, 4, 7]);
        assert_eq!(a.union(&b).extra_error_bound, 0.2);
    }
}
