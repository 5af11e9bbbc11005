//! Streamed-cascade equivalence and fault-injection suite.
//!
//! The cascade engine must be invisible to every consumer: streamed
//! reconstruction (interpolation passes interleaved with level loading) must
//! be bit-identical on both kernels (the point-wise `reference` oracle and
//! the run kernels), every decode path (slice or source backed, bulk
//! or region-streamed), serial and concurrent sub-pass schedules, across
//! error bounds, 1-element and ragged-final-chunk geometries, and refinement
//! sequences — and a mid-stream short read must roll back exactly, leaving a
//! retryable decoder with no stray bits in the field.

use std::sync::atomic::{AtomicIsize, Ordering};

use ipc_store::{Fault, FaultSource, SimProfile, SimulatedObjectStore};
use ipc_tensor::{ArrayD, Shape};
use ipcomp::source::{ByteRange, Bytes, ChunkSource};
use ipcomp::{
    compress, Config, IpcompError, MemorySource, ProgressiveDecoder, RetrievalRequest, RoiBox,
    StreamEvent,
};
use proptest::prelude::*;

/// `ProgressiveDecoder::with_kernel`'s `referee` flag: the point-wise
/// referee, then the run kernels.
const KERNELS: [bool; 2] = [true, false];

fn field(dims: &[usize], seed: u64) -> ArrayD<f64> {
    let shape = Shape::new(dims);
    ArrayD::from_fn(shape, |c| {
        let mut h = seed ^ 0x2545_f491_4f6c_dd1d;
        for (i, &x) in c.iter().enumerate() {
            h ^= (x as u64).wrapping_mul(0x0100_0000_01b3 << i);
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let noise = ((h >> 40) as f64 / (1 << 24) as f64) - 0.5;
        (c[0] as f64 * 0.3).sin() * 2.0 + c.iter().sum::<usize>() as f64 * 0.04 + noise * 0.1
    })
}

/// A source with a schedulable outage: `arm(n)` lets the next `n` reads
/// through and fails every read after them, until `heal()`. Letting a
/// few reads through means several refinement levels *complete* before
/// the failure — exactly the state that must be rolled back.
struct FlakySource {
    inner: MemorySource,
    /// Reads remaining before failure; negative counts failed reads.
    budget: AtomicIsize,
}

impl FlakySource {
    fn arm(&self, allow: isize) {
        self.budget.store(allow, Ordering::Relaxed);
    }

    fn heal(&self) {
        self.budget.store(isize::MAX, Ordering::Relaxed);
    }

    fn failed_reads(&self) -> isize {
        (-self.budget.load(Ordering::Relaxed)).max(0)
    }
}

impl ChunkSource for FlakySource {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> ipcomp::Result<Vec<Bytes>> {
        if self.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
            return Err(IpcompError::Io("injected outage".into()));
        }
        self.inner.read_ranges(ranges)
    }
}

/// Crop row-major `bits` over `dims` to `bounds`.
fn crop(bits: &[u64], dims: &[usize], bounds: &RoiBox) -> Vec<u64> {
    let mut out = Vec::with_capacity(bounds.len());
    let mut coords: Vec<usize> = bounds.lo[..dims.len()].to_vec();
    loop {
        out.push(bits[coords.iter().zip(dims).fold(0, |off, (&c, &d)| off * d + c)]);
        let mut d = dims.len();
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

/// One retrieval on the `(referee, threads)` kernel, slice and source
/// backed, bulk and streaming — returns the four outputs' bits. On a precinct
/// container, region retrievals (an interior box and one touching the far
/// domain edge) must additionally equal the crop of the same kernel's full
/// decode: the windowed cascade pass agrees with every kernel and schedule.
fn decode_all_ways(
    c: &ipcomp::Compressed,
    request: RetrievalRequest,
    (referee, threads): (bool, usize),
) -> Vec<(String, Vec<u64>, usize)> {
    let source = MemorySource::new(c.to_bytes());
    let mut out = Vec::new();
    let bits = |r: &ipcomp::Retrieval| r.data.as_slice().iter().map(|v| v.to_bits()).collect();

    let mut d = ProgressiveDecoder::new(c).with_kernel(referee, threads);
    let r = d.retrieve(request).unwrap();
    out.push(("slice bulk".to_string(), bits(&r), r.bytes_total));

    if c.header.precincts.is_some() {
        let dims = &c.header.dims;
        let full: Vec<u64> = bits(&r);
        let interior: Vec<usize> = dims.iter().map(|&d| d / 3).collect();
        let inner_hi: Vec<usize> = dims.iter().map(|&d| (2 * d / 3).max(d / 3 + 1)).collect();
        let edge: Vec<usize> = dims.iter().map(|&d| d - d.div_ceil(4)).collect();
        for bounds in [RoiBox::new(&interior, &inner_hi), RoiBox::new(&edge, dims)] {
            let want = crop(&full, dims, &bounds);
            let roi = d.retrieve_roi(bounds, request).unwrap();
            assert_eq!(bits(&roi), want, "slice roi {bounds:?} {request:?}");
            let mut ranged = ProgressiveDecoder::from_source(&source)
                .unwrap()
                .with_kernel(referee, threads);
            let roi = ranged.retrieve_roi(bounds, request).unwrap();
            assert_eq!(bits(&roi), want, "source roi {bounds:?} {request:?}");
        }
    }

    let mut d = ProgressiveDecoder::new(c).with_kernel(referee, threads);
    let r = d.retrieve_streaming_events(request, |_| {}).unwrap();
    out.push(("slice stream".to_string(), bits(&r), r.bytes_total));

    let mut d = ProgressiveDecoder::from_source(&source)
        .unwrap()
        .with_kernel(referee, threads);
    let r = d.retrieve(request).unwrap();
    out.push(("source bulk".to_string(), bits(&r), r.bytes_total));

    let mut d = ProgressiveDecoder::from_source(&source)
        .unwrap()
        .with_kernel(referee, threads);
    let r = d.retrieve_streaming_events(request, |_| {}).unwrap();
    out.push(("source events".to_string(), bits(&r), r.bytes_total));
    out
}

/// Assert that every kernel implementation, every decode path, and both the
/// serial and a forced 3-thread concurrent sub-pass schedule produce
/// identical bits and byte accounting for each request.
fn assert_all_paths_bit_identical(data: &ArrayD<f64>, config: &Config, eb: f64) {
    let c = compress(data, eb, config).unwrap();
    for request in [RetrievalRequest::ErrorBound(1e-2), RetrievalRequest::Full] {
        let mut want: Option<(Vec<u64>, usize)> = None;
        for threads in [0, 3] {
            for referee in KERNELS {
                for (name, bits, bytes) in decode_all_ways(&c, request, (referee, threads)) {
                    match &want {
                        None => want = Some((bits, bytes)),
                        Some((wb, wn)) => {
                            assert_eq!(
                                &bits, wb,
                                "{name} diverged (referee={referee} threads={threads} {request:?})"
                            );
                            assert_eq!(&bytes, wn, "{name} byte accounting");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn streamed_cascade_bit_identical_across_error_bounds() {
    let data = field(&[21, 14, 12], 3);
    for eb in [1e-2, 1e-4, 1e-7] {
        assert_all_paths_bit_identical(&data, &Config::default(), eb);
    }
    // The precinct layout adds region retrievals to the sweep.
    assert_all_paths_bit_identical(&data, &Config::with_precincts(&[8, 5, 6]), 1e-6);
}

#[test]
fn one_element_and_ragged_geometries_bit_identical() {
    for dims in [
        vec![1usize],
        vec![1, 1, 1],
        vec![2, 1, 3],
        vec![17, 9, 11],
        vec![1283usize],
    ] {
        let data = field(&dims, 9);
        let config = Config {
            chunk_bytes: 8,
            ..Config::default()
        };
        assert_all_paths_bit_identical(&data, &config, 1e-5);
    }
}

#[test]
fn refinement_sequences_bit_identical_across_kernels() {
    let data = field(&[18, 13, 9], 5);
    let c = compress(&data, 1e-7, &Config::default()).unwrap();
    let run = |referee: bool| -> Vec<Vec<u64>> {
        let mut d = ProgressiveDecoder::new(&c).with_kernel(referee, 0);
        [
            RetrievalRequest::ErrorBound(1e-2),
            RetrievalRequest::ErrorBound(1e-4),
            RetrievalRequest::Full,
        ]
        .iter()
        .map(|&r| {
            d.retrieve(r)
                .unwrap()
                .data
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
    };
    let [reference, run_kernels] = KERNELS.map(run);
    assert_eq!(run_kernels, reference);
}

#[test]
fn cascade_events_report_complete_reconstruction_per_retrieval() {
    let data = field(&[16, 12, 10], 7);
    let config = Config {
        chunk_bytes: 32,
        ..Config::default()
    };
    let c = compress(&data, 1e-6, &config).unwrap();
    let mut d = ProgressiveDecoder::new(&c);
    for request in [RetrievalRequest::ErrorBound(1e-2), RetrievalRequest::Full] {
        let mut passes = Vec::new();
        d.retrieve_streaming_events(request, |e| {
            if let StreamEvent::LevelReconstructed(p) = e {
                passes.push(p);
            }
        })
        .unwrap();
        // Initial retrieval and every refinement replay the full cascade
        // (refinements propagate deltas through all levels).
        let total = passes.last().expect("passes reported").levels_total;
        assert_eq!(passes.len(), total, "{request:?}");
        for (i, p) in passes.iter().enumerate() {
            assert_eq!(p.level_idx, i, "{request:?}");
        }
    }
}

#[test]
fn failed_refinement_rolls_back_and_a_healed_retry_is_exact() {
    let data = field(&[18, 13, 11], 29);
    let config = Config {
        chunk_bytes: 32,
        ..Config::default()
    };
    let c = compress(&data, 1e-7, &config).unwrap();

    // Reference: uninterrupted coarse → full refinement. The coarse step
    // loads enough that the refinement's levels sit too far apart to bridge
    // within its byte budget, so it reads in several fetch groups.
    let coarse_request = RetrievalRequest::ErrorBound(1e-3);
    let mut ref_dec = ProgressiveDecoder::new(&c);
    ref_dec.retrieve(coarse_request).unwrap();
    let reference = ref_dec.retrieve(RetrievalRequest::Full).unwrap();

    // How many backend reads (one per fetch group) an uninterrupted
    // retrieval issues, so the outage sweeps stay strictly inside the
    // failing range.
    let reads_of = |first: Option<RetrievalRequest>, then: RetrievalRequest| {
        let source = FlakySource {
            inner: MemorySource::new(c.to_bytes()),
            budget: AtomicIsize::new(isize::MAX),
        };
        let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
        if let Some(first) = first {
            dec.retrieve(first).unwrap();
        }
        let before = source.budget.load(Ordering::Relaxed);
        dec.retrieve(then).unwrap();
        before - source.budget.load(Ordering::Relaxed)
    };
    let refinement_reads = reads_of(Some(coarse_request), RetrievalRequest::Full);
    assert!(
        refinement_reads > 2,
        "need a multi-read refinement to sweep"
    );

    for streaming in [false, true] {
        // Sweep the outage point so at least some cases fail after several
        // levels have fully loaded (the stranded-delta state).
        for allow in 0..refinement_reads {
            let source = FlakySource {
                inner: MemorySource::new(c.to_bytes()),
                budget: AtomicIsize::new(isize::MAX),
            };
            let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
            let coarse = dec.retrieve(coarse_request).unwrap();

            // Outage mid-refinement: the full retrieval must fail...
            source.arm(allow);
            let failed = if streaming {
                dec.retrieve_streaming_events(RetrievalRequest::Full, |_| {})
            } else {
                dec.retrieve(RetrievalRequest::Full)
            };
            assert!(failed.is_err(), "outage must fail the refinement");
            assert!(source.failed_reads() > 0, "outage must have been hit");
            // ...and leave the decoder exactly where it was: same byte
            // accounting, and a healed retry must reproduce the
            // uninterrupted refinement bit for bit (no stranded deltas, no
            // double counting).
            assert_eq!(
                dec.bytes_loaded(),
                coarse.bytes_total,
                "allow={allow}: rollback leaked bytes"
            );
            source.heal();
            let retried = dec.retrieve(RetrievalRequest::Full).unwrap();
            assert_eq!(
                retried.data.as_slice(),
                reference.data.as_slice(),
                "streaming={streaming} allow={allow}: retry after failed refinement diverged"
            );
            assert_eq!(retried.bytes_total, reference.bytes_total);
        }

        // A failed *initial* reconstruction keeps its partial loads (the
        // retry consumes them from the accumulators), but must not charge
        // the base read (header + anchors + metadata) twice. The retry is a
        // one-shot reconstruction, so it compares against a one-shot
        // reference (refinement is only float-drift-equal to one-shot). A
        // mid-bound request reads in several groups (a `Full` one is a
        // single contiguous read), so the outage can land between them.
        let initial = RetrievalRequest::ErrorBound(1e-2);
        let one_shot = {
            let mut d = ProgressiveDecoder::new(&c);
            d.retrieve(initial).unwrap()
        };
        let initial_reads = reads_of(None, initial);
        assert!(initial_reads > 2, "need a multi-read initial retrieval");
        for allow in 0..initial_reads {
            let source = FlakySource {
                inner: MemorySource::new(c.to_bytes()),
                budget: AtomicIsize::new(isize::MAX),
            };
            let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
            source.arm(allow);
            let failed = if streaming {
                dec.retrieve_streaming_events(initial, |_| {})
            } else {
                dec.retrieve(initial)
            };
            assert!(failed.is_err(), "outage must fail the initial retrieval");
            source.heal();
            let retried = dec.retrieve(initial).unwrap();
            assert_eq!(
                retried.data.as_slice(),
                one_shot.data.as_slice(),
                "streaming={streaming} allow={allow}: retry after failed initial diverged"
            );
            assert_eq!(
                retried.bytes_total, one_shot.bytes_total,
                "streaming={streaming} allow={allow}: base bytes double-counted on retry"
            );
        }
    }
}

#[test]
fn short_read_faults_roll_back_cascade_exactly() {
    let data = field(&[14, 11, 9], 13);
    let config = Config {
        chunk_bytes: 32,
        ..Config::default()
    };
    let c = compress(&data, 1e-7, &config).unwrap();
    let bytes = c.to_bytes();

    let honest = MemorySource::new(bytes.clone());
    let coarse_ref = {
        let mut d = ProgressiveDecoder::from_source(&honest).unwrap();
        d.retrieve(RetrievalRequest::ErrorBound(1e-2)).unwrap()
    };
    let full_ref = {
        let mut d = ProgressiveDecoder::from_source(&honest).unwrap();
        d.retrieve(RetrievalRequest::Full).unwrap()
    };

    let mut failures = 0usize;
    for after in (0..200).step_by(9) {
        for streaming in [false, true] {
            let sim = SimulatedObjectStore::new(
                FaultSource::new(
                    MemorySource::new(bytes.clone()),
                    Fault::ShortReadAfter(after),
                ),
                SimProfile::free(),
            );
            let Ok(mut dec) = ProgressiveDecoder::from_source(&sim) else {
                failures += 1;
                continue;
            };
            let result = if streaming {
                dec.retrieve_streaming_events(RetrievalRequest::Full, |_| {})
            } else {
                dec.retrieve(RetrievalRequest::Full)
            };
            match result {
                Ok(out) => {
                    assert_eq!(out.data.as_slice(), full_ref.data.as_slice());
                    assert_eq!(out.bytes_total, full_ref.bytes_total);
                }
                Err(e) => {
                    failures += 1;
                    assert!(
                        matches!(
                            e,
                            IpcompError::CorruptContainer(_)
                                | IpcompError::Codec(_)
                                | IpcompError::Io(_)
                                | IpcompError::InvalidInput(_)
                        ),
                        "unexpected error class: {e:?}"
                    );
                    // A failed retrieval must leave no partial cascade state:
                    // if the persistent fault permits a coarse retrieval, it
                    // must be bit-identical to an honest coarse decode.
                    if let Ok(out) =
                        dec.retrieve_streaming_events(RetrievalRequest::ErrorBound(1e-2), |_| {})
                    {
                        assert_eq!(
                            out.data.as_slice(),
                            coarse_ref.data.as_slice(),
                            "after={after} streaming={streaming}: stray bits after rollback"
                        );
                    }
                }
            }
        }
    }
    assert!(failures > 10, "fault sweep never hit the decode path");
}

/// A failed *initial* retrieval keeps the levels it finished loading, and
/// the retry feeds them to the cascade without reloading. For a
/// precinct-partitioned container those kept codes sit in precinct-major
/// order and must be canonicalised like freshly loaded ones — on the ranged
/// bulk path too.
#[test]
fn failed_initial_retrieval_of_a_precinct_container_retries_exactly() {
    let data = field(&[18, 13, 11], 31);
    let c = compress(&data, 1e-7, &Config::with_precincts(&[6, 5, 4])).unwrap();
    // A mid-bound request: its levels are separated by the planes it leaves
    // out, so it reads in several fetch groups and an outage can fall
    // between them (a `Full` retrieve is one contiguous read).
    let request = RetrievalRequest::ErrorBound(1e-2);
    let one_shot = ProgressiveDecoder::new(&c).retrieve(request).unwrap();
    let flaky = || FlakySource {
        inner: MemorySource::new(c.to_bytes()),
        budget: AtomicIsize::new(isize::MAX),
    };
    // Reads one clean retrieval issues (one per fetch group).
    let reads = {
        let source = flaky();
        let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
        let before = source.budget.load(Ordering::Relaxed);
        dec.retrieve(request).unwrap();
        before - source.budget.load(Ordering::Relaxed)
    };
    let mut resumed = 0usize;
    for allow in 1..reads {
        let source = flaky();
        let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
        source.arm(allow);
        assert!(dec.retrieve(request).is_err());
        resumed += dec.planes_loaded().iter().filter(|&&p| p > 0).count();
        source.heal();
        let retried = dec.retrieve(request).unwrap();
        assert_eq!(
            retried.data.as_slice(),
            one_shot.data.as_slice(),
            "allow={allow}: retry after a partial initial load diverged"
        );
        assert_eq!(retried.bytes_total, one_shot.bytes_total, "allow={allow}");
    }
    assert!(
        resumed > 0,
        "the sweep must leave loaded levels to resume from"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random geometry, chunking, and fidelity: every kernel and sub-pass
    /// schedule is bit-identical on every decode path.
    #[test]
    fn prop_streamed_cascade_bit_identical(
        d0 in 1usize..16,
        d1 in 1usize..11,
        d2 in 1usize..8,
        chunk_step in 0usize..4,
        seed in any::<u64>(),
        eb_exp in 2u32..7,
    ) {
        let data = field(&[d0, d1, d2], seed);
        let config = Config {
            chunk_bytes: chunk_step * 24, // 0 (monolithic) or 24..72
            ..Config::default()
        };
        assert_all_paths_bit_identical(&data, &config, 10f64.powi(-(eb_exp as i32)));
    }
}
