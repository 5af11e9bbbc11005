//! Retrieval planner: lower a [`LoadPlan`] into the exact chunk byte ranges
//! it needs, given what a session has already loaded.
//!
//! The optimizer decides *how many planes* per level (over the metadata-only
//! [`ContainerMap`], so no payload is touched); this module turns that into
//! *which bytes*: one [`ChunkRead`] per chunk run the plan adds — a single
//! chunk, or under a region mask a maximal run of consecutive masked
//! precincts, exactly the reads [`ipcomp::LevelMap::fetch_planes`] issues —
//! in container payload order. [`RangePlan::coalesced`] then
//! merges adjacent runs under a gap threshold — because plans always load
//! the top planes and the container stores planes low-to-high, the added
//! planes of a level form one contiguous tail run, so coalescing typically
//! collapses a level's whole fetch into a single ranged read.
//!
//! On version-1 containers (no chunk index) every plane is one
//! whole-payload chunk, so the same lowering degrades to a single range per
//! plane instead of erroring.

use ipcomp::container::ContainerMap;
use ipcomp::optimizer::{plan_for_scope, LoadPlan};
use ipcomp::progressive::RetrievalRequest;
use ipcomp::source::ByteRange;
use ipcomp::{Result, RoiBox};

use crate::coalesce::coalesce_ranges;

/// One fetch of a lowered plan: a run of consecutive chunks of one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRead {
    /// Index into the container's level list (coarsest first).
    pub level: usize,
    /// Plane index within the level (0 = least significant).
    pub plane: u8,
    /// Index of the run's first chunk within the plane.
    pub chunk: usize,
    /// Absolute byte range of the run's compressed chunks.
    pub range: ByteRange,
}

/// A [`LoadPlan`] lowered to byte ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePlan {
    /// The plane-count plan this lowering realizes.
    pub load: LoadPlan,
    /// Chunk fetches in container payload order (level-major, then
    /// plane-major — exactly the serialized byte order).
    pub reads: Vec<ChunkRead>,
}

impl RangePlan {
    /// Total payload bytes the plan fetches.
    pub fn payload_bytes(&self) -> usize {
        self.reads.iter().map(|r| r.range.len).sum()
    }

    /// Number of per-run requests without coalescing.
    pub fn request_count(&self) -> usize {
        self.reads.len()
    }

    /// The raw per-run ranges, in payload order.
    pub fn ranges(&self) -> Vec<ByteRange> {
        self.reads.iter().map(|r| r.range).collect()
    }

    /// The batched reads after merging ranges whose gap is at most
    /// `max_gap` bytes.
    pub fn coalesced(&self, max_gap: u64) -> Vec<ByteRange> {
        coalesce_ranges(&self.ranges(), max_gap).0
    }
}

/// Lower `plan` against `map`, skipping planes already loaded.
///
/// `already_loaded[idx]` counts planes from the most significant, exactly
/// like `LoadPlan::planes_loaded` (pass all zeros for a fresh session). Under
/// region `masks` only the chunks of marked precincts are read (see
/// [`ipcomp::roi_precinct_masks`]), one read per run of consecutive marked
/// precincts: the lowering asks the level for the same `chunk_runs` /
/// `run_ranges` the fetch path reads by, so a plan's request list is the
/// fetch's request list.
pub fn lower_plan(
    map: &ContainerMap,
    already_loaded: &[u8],
    plan: &LoadPlan,
    masks: Option<&[Vec<bool>]>,
) -> RangePlan {
    let mut reads = Vec::new();
    for (idx, level) in map.levels.iter().enumerate() {
        let want = plan
            .planes_loaded
            .get(idx)
            .copied()
            .unwrap_or(0)
            .min(level.num_planes);
        let have = already_loaded.get(idx).copied().unwrap_or(0);
        if want <= have {
            continue;
        }
        // Top `want` planes minus the top `have` already present.
        let hi = level.num_planes - have;
        let lo = level.num_planes - want;
        let runs = level.chunk_runs(masks.map(|m| &m[idx][..]));
        // `run_ranges` is plane-major over the runs; label its entries so.
        let labels = (lo..hi).flat_map(|p| runs.iter().map(move |&(k0, _)| (p, k0)));
        let ranges = level.run_ranges(lo, hi, &runs);
        reads.extend(labels.zip(ranges).map(|((plane, chunk), range)| ChunkRead {
            level: idx,
            plane,
            chunk,
            range,
        }));
    }
    RangePlan {
        load: plan.clone(),
        reads,
    }
}

/// Resolve `request` — scoped to `region` when one is given — through the
/// optimizer (the same [`plan_for_scope`] dispatch the decoder uses, so a
/// request is priced exactly as it is served) and lower it in one step. A
/// region, whether passed here or carried by [`RetrievalRequest::Roi`],
/// lowers to only the chunk ranges of precincts intersecting the box plus
/// its cross-level ancestor halo, and never skips already-loaded planes:
/// region retrievals are stateless.
pub fn plan_request(
    map: &ContainerMap,
    already_loaded: &[u8],
    request: RetrievalRequest,
    region: Option<RoiBox>,
) -> Result<RangePlan> {
    Ok(match plan_for_scope(map, request, region)? {
        (plan, None) => lower_plan(map, already_loaded, &plan, None),
        (plan, Some((_, masks))) => lower_plan(map, &[], &plan, Some(&masks)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipc_tensor::{ArrayD, Shape};
    use ipcomp::{compress, Config, RetrievalRequest};

    fn toy_map(chunk_bytes: usize) -> (ipcomp::Compressed, ContainerMap) {
        let field = ArrayD::from_fn(Shape::d3(20, 18, 16), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.01
        });
        let config = Config {
            chunk_bytes,
            ..Config::default()
        };
        let c = compress(&field, 1e-7, &config).unwrap();
        let map = ContainerMap::from_compressed(&c);
        (c, map)
    }

    #[test]
    fn full_plan_covers_every_payload_byte() {
        let (c, map) = toy_map(64);
        let rp = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        assert_eq!(rp.payload_bytes(), c.payload_bytes());
    }

    #[test]
    fn error_bound_plan_fetches_strict_subset() {
        let (c, map) = toy_map(64);
        let rp = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::ErrorBound(1e-3),
            None,
        )
        .unwrap();
        assert!(rp.payload_bytes() > 0);
        assert!(rp.payload_bytes() < c.payload_bytes());
        // Reads arrive in payload order: offsets strictly increase.
        for w in rp.reads.windows(2) {
            assert!(w[1].range.offset >= w[0].range.end());
        }
    }

    #[test]
    fn refinement_lowering_skips_loaded_planes() {
        let (_, map) = toy_map(64);
        let coarse = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::ErrorBound(1e-2),
            None,
        )
        .unwrap();
        let refined = plan_request(
            &map,
            &coarse.load.planes_loaded,
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        // No chunk is fetched twice across the two steps.
        let mut seen: std::collections::HashSet<(usize, u8, usize)> = Default::default();
        for r in coarse.reads.iter().chain(&refined.reads) {
            assert!(seen.insert((r.level, r.plane, r.chunk)), "duplicate {r:?}");
        }
        // Together they cover the full plan exactly.
        let full = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        assert_eq!(
            coarse.payload_bytes() + refined.payload_bytes(),
            full.payload_bytes()
        );
    }

    #[test]
    fn roi_lowering_selects_masked_subset_and_matches_decoder_bytes() {
        use ipcomp::{PlanInput, ProgressiveDecoder};
        let field = ArrayD::from_fn(Shape::d3(24, 20, 16), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.01
        });
        let config = Config::with_precincts(&[8, 8, 8]);
        let c = compress(&field, 1e-7, &config).unwrap();
        let map = ContainerMap::from_compressed(&c);
        let bounds = RoiBox::new(&[0, 0, 0], &[8, 8, 8]);
        let zeros = vec![0u8; map.levels.len()];
        let request = RetrievalRequest::Roi {
            bounds,
            error_bound: 1e-3,
        };
        let roi = plan_request(&map, &zeros, request, None).unwrap();
        let full = plan_request(&map, &zeros, RetrievalRequest::ErrorBound(1e-3), None).unwrap();
        // Same plane selection, strictly fewer chunks, and every ROI read is
        // one of the full lowering's reads.
        assert_eq!(roi.load.planes_loaded, full.load.planes_loaded);
        assert!(roi.request_count() < full.request_count());
        let all: std::collections::HashSet<_> = full
            .reads
            .iter()
            .map(|r| (r.level, r.plane, r.chunk))
            .collect();
        assert!(roi
            .reads
            .iter()
            .all(|r| all.contains(&(r.level, r.plane, r.chunk))));
        // The lowering predicts exactly the bytes the decoder fetches.
        let mut dec = ProgressiveDecoder::new(&c);
        let out = dec
            .retrieve_roi(bounds, RetrievalRequest::ErrorBound(1e-3))
            .unwrap();
        assert_eq!(
            roi.payload_bytes(),
            out.bytes_this_request - map.plan_base_bytes()
        );
    }

    #[test]
    fn roi_lowering_emits_one_read_per_precinct_run_for_the_same_bytes() {
        let field = ArrayD::from_fn(Shape::d2(96, 80), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0
        });
        let c = compress(&field, 1e-7, &Config::with_precincts(&[8, 8])).unwrap();
        let map = ContainerMap::from_compressed(&c);
        let bounds = RoiBox::new(&[16, 8], &[56, 64]);
        let request = RetrievalRequest::Roi {
            bounds,
            error_bound: 1e-4,
        };
        let plan = plan_request(&map, &[], request, None).unwrap();
        // The expectation walks the chunk table chunk by chunk, the way the
        // lowering used to.
        let masks = ipcomp::roi_precinct_masks(&map.header, &bounds).unwrap();
        let (mut runs, mut chunks, mut bytes) = (0, 0, 0);
        for (idx, level) in map.levels.iter().enumerate() {
            let lo = level.num_planes - plan.load.planes_loaded[idx];
            for p in lo..level.num_planes {
                runs += level.chunk_runs(Some(&masks[idx])).len();
                for k in (0..level.plane_chunk_count(p)).filter(|&k| masks[idx][k]) {
                    chunks += 1;
                    bytes += level.chunk_size(p, k);
                }
            }
        }
        assert_eq!(plan.request_count(), runs);
        assert_eq!(plan.payload_bytes(), bytes);
        assert!(runs * 3 <= chunks, "{runs} runs for {chunks} chunks");
        for w in plan.reads.windows(2) {
            assert!(w[1].range.offset >= w[0].range.end());
        }
    }

    #[test]
    fn roi_lowering_requires_precinct_layout() {
        let (_, map) = toy_map(64);
        let request = RetrievalRequest::Roi {
            bounds: ipcomp::RoiBox::new(&[0, 0, 0], &[4, 4, 4]),
            error_bound: 1e-3,
        };
        assert!(plan_request(&map, &vec![0; map.levels.len()], request, None).is_err());
    }

    #[test]
    fn coalescing_collapses_contiguous_plane_runs() {
        let (_, map) = toy_map(64);
        let rp = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        let merged = rp.coalesced(0);
        // A full fetch of each level's payload is one contiguous run, and
        // adjacent levels are separated only by their metadata records.
        assert!(merged.len() <= map.levels.len());
        assert!(rp.request_count() >= 4 * merged.len());
    }
}
