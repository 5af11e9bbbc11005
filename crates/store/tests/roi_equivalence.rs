//! ROI retrieval equivalence: a region retrieve must be bit-identical to
//! decoding the full domain at the same fidelity and cropping, across
//! geometries (1-element levels, ragged final precincts, boxes touching the
//! domain edges), error bounds, and retrieval schedules — on every backend
//! (`IPC_STORE_FORCE_FILE=1` flips the helper to the positioned-read file
//! source). A short-read fault sweep asserts the ROI path rolls back
//! exactly: a failed region retrieve leaves no trace in the session.

use std::sync::Arc;

use ipc_store::testutil::test_source;
use ipc_store::{
    plan_request, ContainerStore, Fault, FaultSource, SimProfile, SimulatedObjectStore,
    StoreOptions, StreamEvent,
};
use ipc_tensor::{ArrayD, Shape};
use ipcomp::{
    compress, Config, ContainerMap, Interpolation, ProgressiveDecoder, RetrievalRequest, RoiBox,
};
use proptest::prelude::*;

/// Deterministic test field with enough structure that bitplanes are
/// non-trivial at every level.
fn field(dims: &[usize]) -> ArrayD<f64> {
    ArrayD::from_fn(Shape::new(dims), |c| {
        let h = c.iter().enumerate().fold(0u64, |h, (i, &x)| {
            (h ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15 + i as u64))
                .wrapping_mul(0x100_0000_01b3)
        });
        let noise = ((h >> 40) as f64 / (1u64 << 24) as f64) - 0.5;
        c.iter()
            .enumerate()
            .map(|(i, &x)| (x as f64 * (0.17 + 0.08 * i as f64)).sin())
            .sum::<f64>()
            + noise * 1e-3
    })
}

/// Crop `data` (row-major over `dims`) to `bounds`.
fn crop(data: &[f64], dims: &[usize], bounds: &RoiBox) -> Vec<f64> {
    let ndim = dims.len();
    let mut strides = vec![1usize; ndim];
    for i in (0..ndim.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    let mut out = Vec::with_capacity(bounds.len());
    let mut coords: Vec<usize> = bounds.lo[..ndim].to_vec();
    loop {
        let off: usize = coords.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
        out.push(data[off]);
        let mut d = ndim;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            coords[d] += 1;
            if coords[d] < bounds.hi[d] {
                break;
            }
            coords[d] = bounds.lo[d];
        }
    }
}

fn store_options() -> StoreOptions {
    StoreOptions {
        cache_bytes: 1 << 20,
        coalesce_gap: Some(4096),
        protect_top_planes: 0,
        whole_read_below: None,
    }
}

/// Run one geometry/request/schedule combination end to end.
fn check_roi(
    dims: &[usize],
    extents: &[usize],
    bounds: RoiBox,
    request: RetrievalRequest,
    sched: usize,
) {
    let data = field(dims);
    let compressed = compress(&data, 1e-6, &Config::with_precincts(extents)).unwrap();

    // Reference: full-domain decode at the same fidelity, then crop.
    let mut reference = ProgressiveDecoder::new(&compressed);
    let full = reference.retrieve(request).unwrap();
    let expected = crop(full.data.as_slice(), dims, &bounds);

    let store = ContainerStore::open(test_source(compressed.to_bytes()), store_options()).unwrap();
    let mut session = store.session();
    let out = match sched {
        // Fresh session, plain region retrieve.
        0 => session.retrieve_roi(bounds, request).unwrap(),
        // A coarse full-domain retrieve first: the ROI path is stateless, so
        // prior progressive state must not change its output.
        1 => {
            session
                .retrieve(RetrievalRequest::ErrorBound(1e-1))
                .unwrap();
            session.retrieve_roi(bounds, request).unwrap()
        }
        // Events variant (the `Roi` request carries box + error bound; a
        // `Full` region has no events spelling and retrieves plainly).
        _ => match request {
            RetrievalRequest::ErrorBound(error_bound) => {
                let mut levels = 0usize;
                let request = RetrievalRequest::Roi {
                    bounds,
                    error_bound,
                };
                let out = session
                    .retrieve_streaming_events(request, |e| match e {
                        StreamEvent::Region(_) => {}
                        StreamEvent::LevelReconstructed(_) => levels += 1,
                        StreamEvent::StepReconstructed(_) => {
                            unreachable!("not an archive retrieval")
                        }
                    })
                    .unwrap();
                assert!(levels > 0, "streaming ROI must report cascade progress");
                out
            }
            _ => session.retrieve_roi(bounds, request).unwrap(),
        },
    };
    assert_eq!(out.data.shape().dims(), bounds.dims().as_slice());
    assert_eq!(
        out.data.as_slice(),
        expected.as_slice(),
        "dims {dims:?} extents {extents:?} bounds {:?}..{:?} {request:?} sched {sched}",
        &bounds.lo[..dims.len()],
        &bounds.hi[..dims.len()]
    );
    // The region never costs more bytes than the full-domain retrieval.
    assert!(out.bytes_this_request <= full.bytes_this_request);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roi_matches_full_decode_then_crop(
        d0 in 1usize..20,
        d1 in 1usize..20,
        d2 in 1usize..20,
        ndim in 1usize..4,
        e0 in 1usize..8,
        e1 in 1usize..8,
        e2 in 1usize..8,
        f_lo in collection::vec(0.0f64..1.0, 3..4),
        f_w in collection::vec(0.0f64..1.0, 3..4),
        req_sel in 0usize..3,
        sched in 0usize..3,
    ) {
        let dims: Vec<usize> = [d0, d1, d2][..ndim].to_vec();
        let extents: Vec<usize> = [e0, e1, e2][..ndim].to_vec();
        let lo: Vec<usize> = (0..ndim)
            .map(|i| ((f_lo[i] * dims[i] as f64) as usize).min(dims[i] - 1))
            .collect();
        let hi: Vec<usize> = (0..ndim)
            .map(|i| {
                let span = dims[i] - lo[i];
                lo[i] + 1 + ((f_w[i] * span as f64) as usize).min(span - 1)
            })
            .collect();
        let bounds = RoiBox::new(&lo, &hi);
        let request = match req_sel {
            0 => RetrievalRequest::Full,
            1 => RetrievalRequest::ErrorBound(1e-2),
            _ => RetrievalRequest::ErrorBound(1e-4),
        };
        check_roi(&dims, &extents, bounds, request, sched);
    }
}

#[test]
fn edge_boxes_and_ragged_precincts() {
    // Full-domain box: the crop is the whole field.
    check_roi(
        &[9, 11],
        &[4, 4],
        RoiBox::new(&[0, 0], &[9, 11]),
        RetrievalRequest::Full,
        0,
    );
    // Single-point box in the far corner, ragged final precinct (11 % 4 != 0).
    check_roi(
        &[9, 11],
        &[4, 4],
        RoiBox::new(&[8, 10], &[9, 11]),
        RetrievalRequest::ErrorBound(1e-3),
        0,
    );
    // Degenerate 1-element dimensions around a real one.
    check_roi(
        &[1, 17, 1],
        &[1, 5, 1],
        RoiBox::new(&[0, 6, 0], &[1, 12, 1]),
        RetrievalRequest::Full,
        0,
    );
    // Box spanning a precinct boundary exactly.
    check_roi(
        &[16, 16, 16],
        &[8, 8, 8],
        RoiBox::new(&[4, 8, 0], &[12, 16, 8]),
        RetrievalRequest::ErrorBound(1e-2),
        2,
    );
}

/// Region reads under both interpolation kernels, over domains wide enough
/// that a level's lattice box is clipped by the domain on one side and free
/// on the other: an interior tile and a far-edge tile of a 300 × 257 field
/// in 16² precincts, and two boxes of a 40 × 33 × 47 one. Every request
/// kind equals the crop of a full decode under the region's own plan (a
/// budget is scoped to the region, so its plan is not the full domain's),
/// through a store session and a resident decoder alike.
#[test]
fn wide_domains_match_crop_under_both_kernels() {
    let cases: [(&[usize], &[usize], [RoiBox; 2]); 2] = [
        (
            &[300, 257],
            &[16, 16],
            [
                RoiBox::new(&[118, 97], &[170, 151]),
                RoiBox::new(&[262, 221], &[300, 257]),
            ],
        ),
        (
            &[40, 33, 47],
            &[8, 8, 8],
            [
                RoiBox::new(&[11, 9, 14], &[27, 21, 33]),
                RoiBox::new(&[30, 0, 36], &[40, 12, 47]),
            ],
        ),
    ];
    for (dims, extents, boxes) in cases {
        let data = field(dims);
        for interpolation in [Interpolation::Linear, Interpolation::Cubic] {
            let config = Config {
                interpolation,
                ..Config::with_precincts(extents)
            };
            let c = compress(&data, 1e-6, &config).unwrap();
            let map = ContainerMap::from_compressed(&c);
            let store = ContainerStore::open(test_source(c.to_bytes()), store_options()).unwrap();
            for bounds in boxes {
                for request in [
                    RetrievalRequest::Full,
                    RetrievalRequest::ErrorBound(1e-3),
                    RetrievalRequest::SizeBudget(c.base_bytes() + 6000),
                ] {
                    let at = format!("{dims:?} {interpolation:?} {bounds:?} {request:?}");
                    let plan = plan_request(&map, &[], request, Some(bounds)).unwrap().load;
                    let full = ProgressiveDecoder::new(&c)
                        .retrieve_with_plan(&plan)
                        .unwrap();
                    let expected = crop(full.data.as_slice(), dims, &bounds);
                    let out = store.session().retrieve_roi(bounds, request).unwrap();
                    assert_eq!(out.data.as_slice(), expected.as_slice(), "session {at}");
                    let resident = ProgressiveDecoder::new(&c)
                        .retrieve_roi(bounds, request)
                        .unwrap();
                    assert_eq!(
                        resident.data.as_slice(),
                        expected.as_slice(),
                        "resident {at}"
                    );
                }
            }
        }
    }
}

#[test]
fn short_read_faults_roll_back_exactly() {
    let dims = [20, 18, 16];
    let data = field(&dims);
    let compressed = compress(&data, 1e-6, &Config::with_precincts(&[8, 8, 8])).unwrap();
    let bytes = compressed.to_bytes();
    let bounds = RoiBox::new(&[0, 4, 0], &[8, 12, 8]);
    let request = RetrievalRequest::ErrorBound(1e-3);

    // Reference output and the honest request count (coalescing/cache off so
    // request indices are deterministic across the sweep).
    let options = StoreOptions {
        cache_bytes: 0,
        coalesce_gap: None,
        protect_top_planes: 0,
        whole_read_below: None,
    };
    let honest = Arc::new(SimulatedObjectStore::new(
        ipcomp::MemorySource::new(bytes.clone()),
        SimProfile::free(),
    ));
    let store = ContainerStore::open(honest.clone(), options).unwrap();
    let expected = store.session().retrieve_roi(bounds, request).unwrap();
    let total_requests = honest.stats().requests;
    assert!(total_requests > 2);

    let mut failures = 0usize;
    for k in 0..=total_requests {
        let sim = Arc::new(SimulatedObjectStore::new(
            FaultSource::new(
                ipcomp::MemorySource::new(bytes.clone()),
                Fault::ShortReadAfter(k),
            ),
            SimProfile::free(),
        ));
        let Ok(store) = ContainerStore::open(sim, options) else {
            // Truncation hit the metadata open: surfaced as a bounded error.
            failures += 1;
            continue;
        };
        let mut session = store.session();
        match session.retrieve_roi(bounds, request) {
            Ok(out) => {
                assert_eq!(out.data.as_slice(), expected.data.as_slice());
                assert_eq!(out.bytes_this_request, expected.bytes_this_request);
            }
            Err(_) => {
                failures += 1;
                // Exact rollback: the failed region retrieve left no trace.
                assert!(session.planes_loaded().iter().all(|&p| p == 0));
                assert_eq!(session.bytes_loaded(), 0);
            }
        }
    }
    assert!(failures > 0, "the sweep must exercise at least one failure");
}
