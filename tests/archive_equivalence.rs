//! Time-series archive equivalence and fault-injection suite.
//!
//! The archive's contract is compositional: retrieving any `(step window,
//! fidelity, ROI)` through the v4 container must be bit-identical to the
//! encode-independent-then-retrieve composition
//! ([`ipcomp::composition_reference`]) — keyframes and residuals compressed
//! as standalone containers, deltas retrieved at the same fidelity, residual
//! steps composed against the reference reconstruction of their predecessor.
//! The property test sweeps that space; the fault sweep injects short reads
//! at every phase of a chain-spanning retrieval and asserts exact rollback:
//! steps emitted before the fault are valid, and a healed retry of the same
//! reader completes bit-identically. Two count tests pin what the residual
//! chains buy over independent per-step containers: total size, and bytes
//! fetched by a cold mid-chain window.
//!
//! Sources come from `ipc_store::testutil::test_source`, so the
//! `IPC_STORE_FORCE_FILE=1` CI pass runs the whole suite against the
//! positioned-read file backend.

use std::sync::{Arc, OnceLock};

use ipcomp_suite::baselines::{IndependentArchive, IndependentSteps};
use ipcomp_suite::core::{
    composition_reference, ArchiveBuilder, ArchiveConfig, ArchiveReader, ArchiveRequest, Config,
    RetrievalRequest, RoiBox,
};
use ipcomp_suite::datagen::{Dataset, SequenceRecipe};
use ipcomp_suite::store::testutil::test_source;
use ipcomp_suite::store::{
    ArchiveStore, Fault, FaultSource, SimProfile, SimulatedObjectStore, StoreOptions,
};
use ipcomp_suite::tensor::{ArrayD, Shape};
use proptest::prelude::*;

/// Smooth structure plus per-step drift and coordinate-hash noise, so
/// residual planes stay populated and steps genuinely correlate.
fn step_field(shape: &Shape, t: usize, seed: u64) -> ArrayD<f64> {
    ArrayD::from_fn(shape.clone(), |c| {
        let mut h = seed ^ 0x2545_f491_4f6c_dd1d;
        for (i, &x) in c.iter().enumerate() {
            h ^= (x as u64).wrapping_mul(0x0100_0000_01b3 << i);
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let noise = ((h >> 40) as f64 / (1 << 24) as f64) - 0.5;
        (c[0] as f64 * 0.4 + t as f64 * 0.25).sin() * 2.0
            + (c[1] as f64 * 0.3 - t as f64 * 0.15).cos()
            + c[2] as f64 * 0.05
            + noise * 0.02 * (1.0 + t as f64 * 0.1)
    })
}

fn build_archive(fields: &[ArrayD<f64>], shape: &Shape, config: &ArchiveConfig) -> Vec<u8> {
    let mut builder = ArchiveBuilder::new(vec!["f".into()], shape.clone(), config.clone()).unwrap();
    for f in fields {
        builder.push_step(std::slice::from_ref(f)).unwrap();
    }
    builder.finish().unwrap()
}

fn crop(full: &ArrayD<f64>, roi: &RoiBox) -> ArrayD<f64> {
    let dims = roi.dims();
    ArrayD::from_fn(Shape::new(&dims), |c| {
        let src: Vec<usize> = c.iter().zip(roi.lo.iter()).map(|(x, l)| x + l).collect();
        *full.get(&src)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (step window, fidelity, ROI) retrieval through the serialized
    /// archive is bit-identical to the independent-encoding composition.
    #[test]
    fn archive_retrieval_matches_independent_composition(
        steps in 2usize..6,
        interval in 1usize..4,
        fid_idx in 0usize..3,
        win_a in 0usize..16,
        win_b in 0usize..16,
        roi_sel in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let use_roi = roi_sel == 1;
        let shape = Shape::d3(10, 8, 6);
        let fields: Vec<ArrayD<f64>> =
            (0..steps).map(|t| step_field(&shape, t, seed)).collect();
        let mut config = ArchiveConfig::new(1e-5, 1e-3);
        config.keyframe_interval = interval;
        let (fidelity, roi) = if use_roi {
            // Spatial scoping needs the precinct layout and an error-bound
            // fidelity (the chain is retrieved ROI-scoped at the reference
            // bound).
            config.codec = Config::with_precincts(&[4, 4, 4]);
            let fid = [1e-2, 1e-3, 1e-4][fid_idx];
            (
                RetrievalRequest::ErrorBound(fid),
                Some(RoiBox::new(&[2, 1, 1], &[8, 6, 5])),
            )
        } else {
            let fid = match fid_idx {
                0 => RetrievalRequest::ErrorBound(1e-2),
                1 => RetrievalRequest::ErrorBound(1e-4),
                _ => RetrievalRequest::Full,
            };
            (fid, None)
        };
        let start = win_a % steps;
        let end = start + 1 + (win_b % (steps - start));
        let reference = composition_reference(&fields, &config, fidelity).unwrap();

        let bytes = build_archive(&fields, &shape, &config);
        let mut reader = ArchiveReader::open(test_source(bytes)).unwrap();
        let mut request = ArchiveRequest::steps(0, start..end, fidelity);
        request.roi = roi;
        let out = reader.retrieve_steps(&request).unwrap();
        prop_assert_eq!(out.len(), end - start);
        for (s, got) in (start..end).zip(&out) {
            prop_assert_eq!(got.step, s);
            let expect = match &roi {
                Some(b) => crop(&reference[s], b),
                None => reference[s].clone(),
            };
            let same = got.data.as_slice().iter().map(|v| v.to_bits())
                .eq(expect.as_slice().iter().map(|v| v.to_bits()));
            prop_assert!(
                same,
                "step {} diverged (interval {}, fidelity {:?}, roi {:?})",
                s, interval, fidelity, roi
            );
        }
    }
}

/// Short reads at every phase of a chain-spanning retrieval surface bounded
/// errors, leave the reader exactly at its last committed step, and a healed
/// retry on the same reader completes bit-identically — across keyframes,
/// residual chains, and the chain-cache resume path.
#[test]
fn short_read_sweep_rolls_back_exactly_across_residual_chains() {
    let shape = Shape::d3(12, 10, 8);
    let steps = 6usize;
    let fields: Vec<ArrayD<f64>> = (0..steps).map(|t| step_field(&shape, t, 9)).collect();
    let mut config = ArchiveConfig::new(1e-5, 1e-3);
    config.keyframe_interval = 2;
    // fidelity != reference, so chained steps drive both an output and a
    // reference decode — the failure surface the sweep needs to cover.
    let fidelity = RetrievalRequest::ErrorBound(1e-4);
    let request = ArchiveRequest::steps(0, 1..steps, fidelity);
    let reference = composition_reference(&fields, &config, fidelity).unwrap();
    let bytes = build_archive(&fields, &shape, &config);

    // Request count of a clean open + retrieval bounds the sweep.
    let clean = Arc::new(FaultSource::new(test_source(bytes.clone()), Fault::None));
    let mut reader = ArchiveReader::open(clean.clone()).unwrap();
    reader.retrieve_steps(&request).unwrap();
    let total = clean.requests();
    assert!(
        total >= 8,
        "sweep needs phases to trip in, got {total} requests"
    );

    let stride = (total / 16).max(1);
    let mut failures = 0usize;
    for trip in (1..total).step_by(stride as usize) {
        let src = Arc::new(FaultSource::new(
            test_source(bytes.clone()),
            Fault::ShortReadAfter(trip),
        ));
        // Metadata-parse faults must surface as errors, never panic.
        let mut reader = match ArchiveReader::open(src.clone()) {
            Ok(r) => r,
            Err(_) => continue,
        };
        let mut got = Vec::new();
        let result = reader.retrieve_steps_streaming_events(&request, |_| {}, |s| got.push(s));
        let emitted = got.len();
        if result.is_err() {
            failures += 1;
            // Rollback: the reader sits exactly at its last committed step —
            // a healed retry of the same reader finishes the window and
            // every step (including the already-emitted prefix, re-decoded
            // through the chain cache) is bit-identical to the composition.
            src.set_fault(Fault::None);
            got.clear();
            reader
                .retrieve_steps_streaming_events(&request, |_| {}, |s| got.push(s))
                .unwrap_or_else(|e| panic!("healed retry failed after trip {trip}: {e}"));
        }
        assert_eq!(got.len(), request.end - request.start, "trip {trip}");
        for (s, out) in (request.start..request.end).zip(&got) {
            assert_eq!(out.step, s);
            assert_eq!(
                out.data.as_slice(),
                reference[s].as_slice(),
                "trip {trip}: step {s} diverged after {}",
                if emitted == got.len() {
                    "clean run"
                } else {
                    "healed retry"
                }
            );
        }
    }
    assert!(
        failures > 0,
        "the sweep must actually trip mid-retrieval at least once"
    );
}

/// Ten correlated Density steps (keyframes at 0 and 5) as a v4 archive, and
/// the same steps as independent containers at the same finest bound. Built
/// once for the tests that compare the two.
fn density_archive_and_independent() -> &'static (Vec<u8>, IndependentArchive) {
    static FIXTURE: OnceLock<(Vec<u8>, IndependentArchive)> = OnceLock::new();
    FIXTURE.get_or_init(build_density_archive_and_independent)
}

fn build_density_archive_and_independent() -> (Vec<u8>, IndependentArchive) {
    let shape = Shape::d3(20, 20, 20);
    let fields = SequenceRecipe {
        correlation: 0.98,
        advect: [0, 0, 0],
        decay: 0.99,
        ..SequenceRecipe::correlated(Dataset::Density, 10)
    }
    .generate(&shape, 2024);
    let mut config = ArchiveConfig::new(1e-5, 1e-3);
    config.keyframe_interval = 5;
    let independent = IndependentSteps::new(config.finest_bound, config.codec)
        .compress_sequence(&fields)
        .unwrap();
    (build_archive(&fields, &shape, &config), independent)
}

#[test]
fn archive_is_at_most_four_fifths_of_the_independent_containers() {
    let (archive, independent) = density_archive_and_independent();
    assert!(
        archive.len() * 5 <= independent.total_bytes() * 4,
        "archive {} B vs independent {} B",
        archive.len(),
        independent.total_bytes()
    );
}

/// A cold window starting one step past a keyframe decodes one chain step
/// more than it outputs, and still fetches fewer bytes than the same steps
/// from independent containers. No coalescing, so the simulator counts
/// exactly the chunk bytes the plan selects; the request fidelity equals the
/// archive's reference bound, so chained steps decode once.
#[test]
fn cold_mid_chain_window_fetches_fewer_bytes_than_independent_steps() {
    let (archive, independent) = density_archive_and_independent();
    let request = RetrievalRequest::ErrorBound(1e-3);
    let window = 6..10;
    let sim = Arc::new(SimulatedObjectStore::new(
        test_source(archive.clone()),
        SimProfile::free(),
    ));
    let options = StoreOptions {
        coalesce_gap: None,
        ..StoreOptions::default()
    };
    let store = ArchiveStore::open(sim.clone(), options).unwrap();
    sim.reset_stats(); // metadata open is accounted separately for both sides
    let steps = store
        .session()
        .retrieve_steps(&ArchiveRequest::steps(0, window.clone(), request))
        .unwrap();
    assert_eq!(steps.len(), window.len());
    let (_, independent_bytes) = independent.retrieve_range(window, request).unwrap();
    assert!(
        sim.stats().bytes < independent_bytes as u64,
        "archive window fetched {} B vs {} B from independent containers",
        sim.stats().bytes,
        independent_bytes
    );
}
