//! Retrieval planner: lower a [`LoadPlan`](ipcomp::LoadPlan) into the exact
//! chunk byte ranges it needs, given what a session has already loaded.
//!
//! The lowering lives beside the chunk index it reads, in
//! [`ipcomp::planner`], because the decoder fetches by the very list a
//! session prices with; this module is its address in the store layer.

pub use ipcomp::planner::{lower_plan, plan_request, ChunkRead, RangePlan};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce_ranges;
    use ipc_tensor::{ArrayD, Shape};
    use ipcomp::{compress, Config, ContainerMap, RetrievalRequest};

    #[test]
    fn coalescing_collapses_contiguous_plane_runs() {
        let field = ArrayD::from_fn(Shape::d3(20, 18, 16), |c| {
            (c[0] as f64 * 0.3).sin() + (c[1] as f64 * 0.2).cos() * 2.0 + c[2] as f64 * 0.01
        });
        let config = Config {
            chunk_bytes: 64,
            ..Config::default()
        };
        let map = ContainerMap::from_compressed(&compress(&field, 1e-7, &config).unwrap());
        let rp = plan_request(
            &map,
            &vec![0; map.levels.len()],
            RetrievalRequest::Full,
            None,
        )
        .unwrap();
        let (merged, _) = coalesce_ranges(&rp.ranges(), 0);
        // A full fetch of each level's payload is one contiguous run, and
        // adjacent levels are separated only by their metadata records.
        assert!(merged.len() <= map.levels.len());
        assert!(rp.request_count() >= 4 * merged.len());
    }
}
