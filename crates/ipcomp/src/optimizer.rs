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
//! Both modes read one cost table, built once per container (or per region, for a
//! region's byte budget), and run one knapsack over it: each level offers one
//! `(discard, weight, value)` option per allowed discard count, and the knapsack
//! maximizes the summed value under a summed weight of at most `ERROR_BINS − 1`
//! bins. Error-bound mode weighs an option by its error and values the bytes it
//! saves; size mode weighs it by its bytes and values its negated error. The
//! weight axis is discretized to [`ERROR_BINS`] buckets, mirroring the paper's
//! `[128, 1023]` normalized-error grid, and a weight always rounds *up*, so the
//! produced plan never violates the user's constraint.

use crate::container::{ContainerMap, Header, LevelMap};
use crate::error::{IpcompError, Result};
use crate::precinct::{roi_precinct_ids, RoiBox};
use crate::progressive::RetrievalRequest;

/// Number of discretization buckets used by the knapsack DP.
pub const ERROR_BINS: usize = 1024;

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

/// What planning knows of one level entry.
#[derive(Debug, Clone, PartialEq)]
struct LevelCost {
    /// Significant bitplanes.
    num_planes: u8,
    /// Worst-case truncation loss in code units per discard count
    /// (`0..=num_planes` entries, a running maximum from 0).
    trunc_loss: Vec<u64>,
    /// Compressed bytes of each plane, most significant first.
    plane_bytes: Vec<usize>,
    /// Whether the level participates in progressive loading; the others
    /// always load whole.
    progressive: bool,
    /// Error amplification factor of the level (see [`amplification`]).
    amplification: f64,
}

impl LevelCost {
    /// Worst-case data-space error the level contributes when `discard`
    /// planes are dropped, under quantization bound `eb`.
    fn error(&self, discard: u8, eb: f64) -> f64 {
        self.amplification * self.trunc_loss[discard as usize] as f64 * 2.0 * eb
    }

    /// Compressed bytes of the planes that stay loaded when `discard` planes
    /// are dropped.
    fn loaded_bytes(&self, discard: u8) -> usize {
        self.plane_bytes[discard as usize..].iter().sum()
    }

    /// The discard counts the level may choose, fewest first.
    fn discards(&self) -> std::ops::RangeInclusive<u8> {
        0..=if self.progressive { self.num_planes } else { 0 }
    }
}

/// Everything the optimizer reads of a container: per level its plane count,
/// loss table, plane sizes, progressive flag and amplification factor; for the
/// whole container the always-loaded base bytes and the header fields
/// planning reads. Built once with each [`ContainerMap`] (its `cost`) —
/// opened from a source, or built by [`ContainerMap::from_compressed`] for a
/// decoder over a resident [`Compressed`](crate::Compressed), so both
/// decoders plan from one table. Plans need no payload byte in memory.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CostTable {
    levels: Vec<LevelCost>,
    /// Bytes every retrieval loads regardless of fidelity (prelude and
    /// metadata block).
    base_bytes: usize,
    /// The quantization error bound `eb`.
    eb: f64,
    value_range: f64,
    num_elements: usize,
}

impl CostTable {
    /// The table of a metadata map's header, base bytes and level indexes,
    /// built only over a level list that passed the container's rule set:
    /// level entry `idx` is interpolation level `num_levels - idx`.
    pub(crate) fn new(header: &Header, base_bytes: usize, levels: &[LevelMap]) -> Self {
        let levels = (1..=header.num_levels)
            .rev()
            .zip(levels)
            .map(|(level_no, level)| LevelCost {
                num_planes: level.num_planes,
                trunc_loss: level.trunc_loss.clone(),
                plane_bytes: (0..level.num_planes)
                    .map(|p| level.plane_bytes(p))
                    .collect(),
                progressive: level_no <= header.progressive_levels,
                amplification: amplification(header, level_no),
            })
            .collect();
        Self {
            levels,
            base_bytes,
            eb: header.error_bound,
            value_range: header.value_range,
            num_elements: header.num_elements(),
        }
    }

    /// The same table over a region: each plane of `levels[idx]` costs only
    /// the chunks of the precincts `ids[idx]` lists, so a byte budget buys
    /// what the region's retrieval fetches. Truncation loss is a per-level
    /// property of the codes, so the error side is unchanged.
    fn scoped(&self, levels: &[LevelMap], ids: &[Vec<usize>]) -> Self {
        let mut table = self.clone();
        for ((cost, level), ids) in table.levels.iter_mut().zip(levels).zip(ids) {
            for (p, bytes) in cost.plane_bytes.iter_mut().enumerate() {
                *bytes = ids.iter().map(|&k| level.chunk_size(p as u8, k)).sum();
            }
        }
        table
    }

    /// The plan that drops `discards[idx]` planes of each level. Its extra
    /// error sums the levels finest-first.
    fn plan_of(&self, discards: &[u8]) -> LoadPlan {
        let mut plan = LoadPlan {
            planes_loaded: vec![0; self.levels.len()],
            extra_error_bound: 0.0,
            payload_bytes: 0,
        };
        for (idx, level) in self.levels.iter().enumerate().rev() {
            let discard = discards[idx];
            plan.planes_loaded[idx] = level.num_planes - discard;
            plan.extra_error_bound += level.error(discard, self.eb);
            plan.payload_bytes += level.loaded_bytes(discard);
        }
        plan
    }

    /// Plan that loads every bitplane of every level.
    fn full(&self) -> LoadPlan {
        self.plan_of(&vec![0; self.levels.len()])
    }

    /// Upper bound on the reconstruction error with `planes_loaded[idx]`
    /// planes of each level present. Sums the levels coarsest-first.
    pub(crate) fn error_bound(&self, planes_loaded: &[u8]) -> f64 {
        let extra: f64 = (self.levels.iter().zip(planes_loaded))
            .map(|(level, &have)| level.error(level.num_planes - have, self.eb))
            .sum();
        self.eb + extra
    }

    /// Error-bound mode: minimize loaded bytes subject to
    /// `eb + Σ level error ≤ target_error`, each option weighing its error
    /// and worth the bytes it saves. A target below `eb` cannot be met by any
    /// plan; the full plan is returned (its error is the tightest
    /// achievable).
    fn for_error_bound(&self, target_error: f64) -> Result<LoadPlan> {
        if !(target_error.is_finite() && target_error > 0.0) {
            return Err(IpcompError::InvalidInput(format!(
                "retrieval error bound must be positive and finite, got {target_error}"
            )));
        }
        let eb = self.eb;
        let slack = target_error - eb;
        if slack <= 0.0 {
            return Ok(self.full());
        }
        let bin = slack / (ERROR_BINS - 1) as f64;
        let options = self.levels.iter().map(|level| {
            let payload = level.loaded_bytes(0);
            let option = |d| {
                let saved = payload - level.loaded_bytes(d);
                (d, bins(level.error(d, eb), bin), saved as f64)
            };
            level.discards().map(option).collect()
        });
        Ok(self.plan_of(&knapsack(options.collect())))
    }

    /// Size / bitrate mode: minimize worst-case error subject to
    /// `base_bytes + Σ loaded_bytes ≤ max_total_bytes`, each option weighing
    /// the progressive bytes it loads and worth its negated error.
    /// Non-progressive levels, the header, anchors and metadata are always
    /// loaded even if they exceed the budget (nothing can be reconstructed
    /// without them), so a budget the mandatory loads use up leaves every
    /// progressive level only its zero-byte options.
    fn for_bytes(&self, max_total_bytes: usize) -> LoadPlan {
        let mandatory: usize = (self.levels.iter().filter(|level| !level.progressive))
            .map(|level| level.loaded_bytes(0))
            .sum();
        let budget = max_total_bytes.saturating_sub(self.base_bytes + mandatory);
        let bin = budget as f64 / (ERROR_BINS - 1) as f64;
        let eb = self.eb;
        let options = self.levels.iter().map(|level| {
            // Non-progressive levels are paid for in `mandatory`.
            let paid = |d| usize::from(level.progressive) * level.loaded_bytes(d);
            let option = |d| (d, bins(paid(d) as f64, bin), -level.error(d, eb));
            level.discards().map(option).collect()
        });
        self.plan_of(&knapsack(options.collect()))
    }

    /// Resolve a [`RetrievalRequest`] into a loading plan: the one dispatch
    /// the decoder and the range planner share, so a request always lowers to
    /// the same planes no matter which layer asks.
    pub(crate) fn plan(&self, request: RetrievalRequest) -> Result<LoadPlan> {
        match request {
            RetrievalRequest::Full => Ok(self.full()),
            // The bounding box scopes which chunks are *fetched*, not which
            // planes are loaded: planning against the full container keeps
            // the plane selection identical to a full-domain retrieval at the
            // same bound, which makes ROI output bit-identical to
            // full-decode-then-crop.
            RetrievalRequest::Roi { error_bound, .. } => self.for_error_bound(error_bound),
            RetrievalRequest::ErrorBound(target) => self.for_error_bound(target),
            RetrievalRequest::RelErrorBound(rel) => {
                if !(rel.is_finite() && rel > 0.0) {
                    return Err(IpcompError::InvalidInput(format!(
                        "relative bound must be positive, got {rel}"
                    )));
                }
                self.for_error_bound(rel * self.value_range)
            }
            RetrievalRequest::Bitrate(b) => {
                Ok(self.for_bytes(bitrate_bytes(b, self.num_elements)?))
            }
            RetrievalRequest::SizeBudget(bytes) => Ok(self.for_bytes(bytes)),
        }
    }
}

/// Bins a weight of `x` occupies at `bin` per bin, rounded up; a zero weight
/// is free even when the bin is empty.
fn bins(x: f64, bin: f64) -> usize {
    if x <= 0.0 {
        0
    } else {
        (x / bin).ceil() as usize
    }
}

/// The one dynamic program behind both modes. `options[idx]` lists level
/// `idx`'s `(discard, weight in bins, value)` choices; the knapsack picks one
/// per level to maximize the summed value subject to a summed weight of at
/// most `ERROR_BINS − 1`, and returns the chosen discard per level. An option
/// heavier than that on its own is never picked, and ties go to the earlier
/// option. Every level offers a zero-weight option (keeping every plane of a
/// level costs no error, dropping every plane costs no bytes), so every cell
/// of the table is reachable.
fn knapsack(options: Vec<Vec<(u8, usize, f64)>>) -> Vec<u8> {
    // best[w]: the highest summed value of the levels so far within w bins.
    let mut best = vec![0.0f64; ERROR_BINS];
    let mut picks: Vec<Vec<u8>> = Vec::with_capacity(options.len());
    for level in &options {
        let mut next = vec![f64::NEG_INFINITY; ERROR_BINS];
        let mut pick = vec![0u8; ERROR_BINS];
        for (i, &(_, weight, value)) in level.iter().enumerate() {
            for w in weight..ERROR_BINS {
                let candidate = best[w - weight] + value;
                if candidate > next[w] {
                    next[w] = candidate;
                    pick[w] = i as u8;
                }
            }
        }
        best = next;
        picks.push(pick);
    }
    let mut w = ERROR_BINS - 1;
    let mut discards = vec![0u8; options.len()];
    for idx in (0..options.len()).rev() {
        let (discard, weight, _) = options[idx][picks[idx][w] as usize];
        discards[idx] = discard;
        w = w.saturating_sub(weight);
    }
    discards
}

/// Bytes `bitrate` bits per scalar buy over `n` scalars.
fn bitrate_bytes(bitrate: f64, n: usize) -> Result<usize> {
    if !(bitrate.is_finite() && bitrate > 0.0) {
        return Err(IpcompError::InvalidInput(format!(
            "bitrate must be positive and finite, got {bitrate}"
        )));
    }
    Ok((bitrate * n as f64 / 8.0).floor() as usize)
}

/// Error amplification factor applied to the truncation loss of interpolation
/// level `level` before it reaches the finest output.
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
fn amplification(header: &Header, level: u32) -> f64 {
    let p = header.interpolation.linf_norm();
    let d = header.dims.len() as i32;
    let q = p.powi(d);
    let s: f64 = (0..d).map(|i| p.powi(i)).sum();
    s * q.powi(level as i32 - 1)
}

/// A region resolved against one container: the box and, per level entry,
/// the ascending ids of the precincts it reads (the box plus the cascade's
/// cross-level halo; [`crate::roi_precinct_masks`] is the same selection as
/// masks).
pub type RegionMasks = (RoiBox, Vec<Vec<usize>>);

/// Resolve a request plus an optional spatial scope into a loading plan
/// over `map`'s cost table and — for a region — its [`RegionMasks`] over the
/// map's precinct grid. The single place the region rules live, shared by
/// the decoder and the range planner so the two can never serve and price a
/// region differently:
///
/// * [`RetrievalRequest::Roi`] is `region` + an error bound in one value;
///   it cannot be combined with a second box.
/// * Fidelity-typed requests (`ErrorBound`, `RelErrorBound`, `Full`) plan
///   against the whole container, so the plane selection — and therefore
///   the output — is bit-identical to a full-domain retrieval cropped to
///   the box.
/// * Budget-typed requests (`SizeBudget`, and `Bitrate` re-read as bits
///   per *region* scalar) plan over the table `CostTable::scoped` to the
///   region, sized from the map's chunk index.
pub(crate) fn plan_for_scope(
    map: &ContainerMap,
    request: RetrievalRequest,
    region: Option<RoiBox>,
) -> Result<(LoadPlan, Option<RegionMasks>)> {
    let cost = map.cost()?;
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
        (fidelity, None) => return Ok((cost.plan(fidelity)?, None)),
    };
    let ids = roi_precinct_ids(&map.header, map.grid(), &bounds)?;
    let budget = match fidelity {
        RetrievalRequest::SizeBudget(bytes) => bytes,
        RetrievalRequest::Bitrate(b) => bitrate_bytes(b, bounds.len())?,
        fidelity => return Ok((cost.plan(fidelity)?, Some((bounds, ids)))),
    };
    let plan = cost.scoped(&map.levels, &ids).for_bytes(budget);
    Ok((plan, Some((bounds, ids))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::Config;
    use ipc_tensor::{ArrayD, Shape};
    use proptest::prelude::*;

    fn toy_map(config: &Config) -> ContainerMap {
        let shape = Shape::d3(20, 20, 20);
        let field = ArrayD::from_fn(shape, |c| {
            (c[0] as f64 * 0.31).sin() * 2.0 + (c[1] as f64 * 0.17).cos() + c[2] as f64 * 0.05
        });
        ContainerMap::from_compressed(&compress(&field, 1e-6, config).unwrap())
    }

    fn total_bytes(map: &ContainerMap, plan: &LoadPlan) -> usize {
        map.base_bytes() + plan.payload_bytes
    }

    /// `request`'s plan through the one dispatch, [`CostTable::plan`].
    fn planned(map: &ContainerMap, request: RetrievalRequest) -> Result<LoadPlan> {
        map.cost()?.plan(request)
    }

    #[test]
    fn full_plan_loads_everything() {
        let map = toy_map(&Config::default());
        let plan = planned(&map, RetrievalRequest::Full).unwrap();
        assert_eq!(plan.payload_bytes, map.payload_bytes());
        assert_eq!(plan.extra_error_bound, 0.0);
        for (level, &p) in map.levels.iter().zip(&plan.planes_loaded) {
            assert_eq!(p, level.num_planes);
        }
    }

    #[test]
    fn error_bound_mode_loads_less_for_looser_bounds() {
        let map = toy_map(&Config::default());
        let tight = planned(&map, RetrievalRequest::ErrorBound(2e-6)).unwrap();
        let medium = planned(&map, RetrievalRequest::ErrorBound(1e-4)).unwrap();
        let loose = planned(&map, RetrievalRequest::ErrorBound(1e-2)).unwrap();
        assert!(tight.payload_bytes >= medium.payload_bytes);
        assert!(medium.payload_bytes >= loose.payload_bytes);
        assert!(loose.payload_bytes < planned(&map, RetrievalRequest::Full).unwrap().payload_bytes);
    }

    #[test]
    fn error_bound_mode_respects_constraint() {
        let map = toy_map(&Config::default());
        for target in [5e-6, 1e-4, 1e-3, 1e-2] {
            let plan = planned(&map, RetrievalRequest::ErrorBound(target)).unwrap();
            let bound = map.header.error_bound + plan.extra_error_bound;
            assert!(
                bound <= target * (1.0 + 1e-9),
                "target {target}: bound {bound}"
            );
        }
    }

    #[test]
    fn error_bound_tighter_than_eb_returns_full_plan() {
        let map = toy_map(&Config::default());
        let plan = planned(&map, RetrievalRequest::ErrorBound(1e-9)).unwrap();
        assert_eq!(plan, planned(&map, RetrievalRequest::Full).unwrap());
    }

    #[test]
    fn invalid_targets_rejected() {
        let map = toy_map(&Config::default());
        assert!(planned(&map, RetrievalRequest::ErrorBound(-1.0)).is_err());
        assert!(planned(&map, RetrievalRequest::ErrorBound(f64::NAN)).is_err());
        assert!(planned(&map, RetrievalRequest::Bitrate(0.0)).is_err());
    }

    #[test]
    fn size_mode_respects_budget() {
        let map = toy_map(&Config::default());
        let full = total_bytes(&map, &planned(&map, RetrievalRequest::Full).unwrap());
        for frac in [0.3, 0.5, 0.8] {
            let budget = (full as f64 * frac) as usize;
            let total = total_bytes(
                &map,
                &planned(&map, RetrievalRequest::SizeBudget(budget)).unwrap(),
            );
            assert!(
                total <= budget.max(map.base_bytes()),
                "frac {frac}: {total} > {budget}"
            );
        }
    }

    #[test]
    fn size_mode_error_decreases_with_budget() {
        let map = toy_map(&Config::default());
        let full = total_bytes(&map, &planned(&map, RetrievalRequest::Full).unwrap());
        let small = planned(&map, RetrievalRequest::SizeBudget(full / 4)).unwrap();
        let large = planned(&map, RetrievalRequest::SizeBudget(full)).unwrap();
        assert!(large.extra_error_bound <= small.extra_error_bound);
        assert!(large.payload_bytes >= small.payload_bytes);
    }

    #[test]
    fn bitrate_mode_matches_equivalent_byte_budget() {
        let map = toy_map(&Config::default());
        let n = map.header.num_elements();
        let plan_a = planned(&map, RetrievalRequest::Bitrate(2.0)).unwrap();
        let plan_b = planned(&map, RetrievalRequest::SizeBudget(2 * n / 8)).unwrap();
        assert_eq!(plan_a.planes_loaded, plan_b.planes_loaded);
    }

    /// With `progressive_levels = 1` only the finest level may drop planes:
    /// every mode loads every plane of every coarser level, even a zero byte
    /// budget — which drops every plane of the finest.
    #[test]
    fn non_progressive_levels_always_load_whole() {
        let config = Config {
            progressive_levels: Some(1),
            ..Config::default()
        };
        let map = toy_map(&config);
        let finest = map.levels.len() - 1;
        let plans = [
            planned(&map, RetrievalRequest::ErrorBound(1e-2)).unwrap(),
            planned(&map, RetrievalRequest::SizeBudget(0)).unwrap(),
            planned(
                &map,
                RetrievalRequest::SizeBudget(map.total_len() as usize / 2),
            )
            .unwrap(),
            planned(&map, RetrievalRequest::Bitrate(0.5)).unwrap(),
        ];
        for plan in &plans {
            for (level, &loaded) in map.levels[..finest].iter().zip(&plan.planes_loaded) {
                assert_eq!(loaded, level.num_planes, "{plan:?}");
            }
        }
        assert_eq!(plans[1].planes_loaded[finest], 0);
        assert!(plans[0].planes_loaded[finest] < map.levels[finest].num_planes);
    }

    /// A random cost table: 1–4 levels of at most 6 planes, monotone loss
    /// tables from 0, random plane sizes, mixed progressive flags.
    fn arb_table() -> impl Strategy<Value = CostTable> {
        let level = (
            0u8..=6,
            collection::vec(0u64..40, 6..7),
            collection::vec(0usize..300, 6..7),
            any::<bool>(),
            1usize..4,
        );
        (collection::vec(level, 1..5), 0usize..200).prop_map(|(levels, base_bytes)| {
            let levels = levels
                .into_iter()
                .map(|(num_planes, steps, sizes, progressive, amp)| {
                    let n = num_planes as usize;
                    let mut trunc_loss = vec![0];
                    for step in &steps[..n] {
                        trunc_loss.push(trunc_loss[trunc_loss.len() - 1] + step);
                    }
                    LevelCost {
                        num_planes,
                        trunc_loss,
                        plane_bytes: sizes[..n].to_vec(),
                        progressive,
                        amplification: amp as f64 * 1.5,
                    }
                })
                .collect();
            CostTable {
                levels,
                base_bytes,
                eb: 0.125,
                value_range: 1.0,
                num_elements: 1,
            }
        })
    }

    /// Every plan the table allows, as `(discards, progressive bytes, extra
    /// error summed finest-first)`.
    fn every_plan(table: &CostTable) -> Vec<(Vec<u8>, usize, f64)> {
        let mut plans = vec![(Vec::new(), 0, 0.0)];
        for level in table.levels.iter().rev() {
            plans = (plans.iter())
                .flat_map(|(discards, bytes, error)| {
                    level.discards().map(move |d| {
                        let progressive = if level.progressive {
                            level.loaded_bytes(d)
                        } else {
                            0
                        };
                        let error = error + level.error(d, table.eb);
                        let discards = [&[d][..], discards].concat();
                        (discards, bytes + progressive, error)
                    })
                })
                .collect();
        }
        plans
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The knapsack against exhaustive enumeration. Each level's rounded-up
        /// weight overshoots its true cost by less than one bin, so the knapsack
        /// is optimal among plans with `n` bins of margin: in error mode it loads
        /// no more than the cheapest plan within `slack − n·bin`, in byte mode
        /// its error is no more than the best plan's within `budget − n·bin`.
        #[test]
        fn knapsack_matches_exhaustive_enumeration(
            table in arb_table(),
            slack_frac in 0.0f64..1.2,
            budget_frac in 0.0f64..1.2,
        ) {
            let plans = every_plan(&table);
            let n = table.levels.len() as f64;
            let eb = table.eb;
            let max_error = plans.iter().map(|p| p.2).fold(0.0, f64::max);
            let slack = slack_frac * max_error + 1e-3;
            let plan = table.for_error_bound(eb + slack).unwrap();
            prop_assert!(plan.extra_error_bound <= slack * (1.0 + 1e-12), "{plan:?} over {slack}");
            let bin = slack / (ERROR_BINS - 1) as f64;
            let cheapest = (plans.iter().filter(|p| p.2 <= slack - n * bin))
                .map(|p| table.plan_of(&p.0).payload_bytes)
                .min();
            if let Some(cheapest) = cheapest {
                prop_assert!(plan.payload_bytes <= cheapest, "{plan:?} vs {cheapest}");
            }

            let mandatory: usize = (table.levels.iter().filter(|level| !level.progressive))
                .map(|level| level.loaded_bytes(0))
                .sum();
            let max_bytes = plans.iter().map(|p| p.1).max().unwrap();
            let budget = (budget_frac * max_bytes as f64) as usize;
            let plan = table.for_bytes(table.base_bytes + mandatory + budget);
            prop_assert!(plan.payload_bytes <= mandatory + budget, "{plan:?} over {budget}");
            let bin = budget as f64 / (ERROR_BINS - 1) as f64;
            let best = (plans.iter().filter(|p| p.1 as f64 <= budget as f64 - n * bin))
                .map(|p| p.2)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(plan.extra_error_bound <= best * (1.0 + 1e-12), "{plan:?} vs {best}");
        }
    }
}
