//! Telemetry primitive tests: concurrent correctness under thread fan-out,
//! histogram merge/percentile properties, span nesting with a simulated
//! clock, and snapshot-schema stability.
//!
//! Tests that flip process-global state (the clock, the tracer) serialize on
//! [`GLOBAL`] so the default parallel test runner can't interleave them.

use std::sync::{Arc, Mutex, MutexGuard};

use ipc_telemetry as telemetry;
use proptest::prelude::*;
use telemetry::{Histogram, HistogramSnapshot, ManualClock};

static GLOBAL: Mutex<()> = Mutex::new(());

/// Take the global-state lock and reset the tracer and the clock (tests must
/// not depend on what an earlier test left switched on).
fn lock_global() -> MutexGuard<'static, ()> {
    let guard = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::trace::set_tracing(false);
    telemetry::set_clock(None);
    let _ = telemetry::trace::take_events();
    guard
}

#[test]
fn concurrent_counters_and_histograms_lose_nothing() {
    let _g = lock_global();
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let c = telemetry::counter("test.fanout.counter");
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    c.reset();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.add(1);
                    h.record(t * PER_THREAD + i + 1);
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS * PER_THREAD);
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.min, 1);
    assert_eq!(snap.max, THREADS * PER_THREAD);
    // Sum of 1..=N.
    let n = THREADS * PER_THREAD;
    assert_eq!(snap.sum, n * (n + 1) / 2);
    assert_eq!(snap.buckets.iter().sum::<u64>(), n);
}

#[test]
fn gauge_tracks_signed_deltas() {
    let _g = lock_global();
    let g = telemetry::gauge("test.gauge");
    g.set(0);
    g.add(5);
    g.add(-8);
    assert_eq!(g.get(), -3);
}

#[test]
fn registry_returns_the_same_handle_for_the_same_name() {
    let _g = lock_global();
    let a = telemetry::counter("test.same.name") as *const _;
    let b = telemetry::counter("test.same.name") as *const _;
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Percentile estimates stay within one bucket width (6.25% relative,
    /// or ±1 absolute for small values) of the exact order statistic, for
    /// arbitrary sample sets spanning many octaves.
    #[test]
    fn percentiles_bounded_by_bucket_width(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..400),
        qx in 0.0f64..1.0,
    ) {
        let _g = lock_global();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = (qx * (sorted.len() - 1) as f64) as usize;
        let exact = sorted[rank];
        let est = h.percentile(qx);
        // The estimate is the bucket's upper bound clamped to [min, max]:
        // never below the exact order statistic's bucket lower bound, and at
        // most one bucket width above it.
        let width = (exact >> 4).max(1);
        prop_assert!(
            est + width >= exact && est <= exact + width,
            "q={qx} exact={exact} est={est} width={width}"
        );
    }

    /// Merging snapshots then querying is identical to recording every
    /// sample into one histogram.
    #[test]
    fn merge_equals_single_histogram(
        a in proptest::collection::vec(0u64..1_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let _g = lock_global();
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&ha.snapshot());
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }
}

#[test]
fn span_nesting_with_manual_clock_is_deterministic() {
    let _g = lock_global();
    let clock = ManualClock::new();
    telemetry::set_clock(Some(Arc::new(clock.clone())));
    telemetry::trace::set_tracing(true);
    let _ = telemetry::trace::take_events();

    let outer_h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    {
        let _outer = telemetry::span_timed("test", "outer", outer_h).arg("tenant", 7);
        clock.advance(100);
        {
            let _inner = telemetry::span("test", "inner");
            clock.advance(40);
        }
        clock.advance(10);
    }
    telemetry::trace::set_tracing(false);
    telemetry::set_clock(None);

    let events = telemetry::trace::take_events();
    assert_eq!(
        events.iter().map(|e| e.name).collect::<Vec<_>>(),
        vec!["inner", "outer"],
        "spans close inner-first"
    );
    let inner = &events[0];
    let outer = &events[1];
    assert_eq!((inner.ts_ns, inner.dur_ns), (100, 40));
    assert_eq!((outer.ts_ns, outer.dur_ns), (0, 150));
    assert!(
        outer.ts_ns <= inner.ts_ns && inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns,
        "inner span nests within outer"
    );
    assert_eq!(outer.args, vec![("tenant", 7)]);
    // The histogram saw the same deterministic duration.
    let snap = outer_h.snapshot();
    assert_eq!((snap.count, snap.min, snap.max), (1, 150, 150));
}

#[test]
fn spans_without_tracing_still_feed_histograms() {
    let _g = lock_global();
    let clock = ManualClock::new();
    telemetry::set_clock(Some(Arc::new(clock.clone())));
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    {
        let _s = telemetry::span_timed("test", "quiet", h);
        clock.advance(25);
    }
    telemetry::set_clock(None);
    assert_eq!(h.snapshot().max, 25);
    assert!(
        telemetry::trace::take_events().is_empty(),
        "no trace events while tracing is off"
    );
}

#[test]
fn snapshot_schema_is_stable() {
    let _g = lock_global();
    telemetry::counter("test.schema.counter").reset();
    telemetry::counter("test.schema.counter").add(42);
    telemetry::gauge("test.schema.gauge").set(-1);
    let h = telemetry::histogram("test.schema.hist");
    h.reset();
    for v in [1u64, 10, 30] {
        h.record(v);
    }
    let json = telemetry::snapshot_json();
    // Top-level shape.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains(&format!("\"schema\": \"{}\"", telemetry::SNAPSHOT_SCHEMA)));
    assert!(json.contains("\"enabled\": true"));
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(json.contains(section), "missing {section} in {json}");
    }
    // Registered instruments appear with their exact values.
    assert!(json.contains("\"test.schema.counter\": 42"));
    assert!(json.contains("\"test.schema.gauge\": -1"));
    // Histogram payload carries every summary field the benches consume.
    let hist_line = json
        .lines()
        .find(|l| l.contains("test.schema.hist"))
        .expect("histogram line");
    for field in [
        "\"count\": 3",
        "\"sum\": 41",
        "\"mean\":",
        "\"min\": 1",
        "\"max\": 30",
        "\"p50\":",
        "\"p90\":",
        "\"p95\":",
        "\"p99\":",
    ] {
        assert!(hist_line.contains(field), "missing {field} in {hist_line}");
    }
}

#[test]
fn chrome_trace_export_round_trips() {
    let _g = lock_global();
    let clock = ManualClock::new();
    telemetry::set_clock(Some(Arc::new(clock.clone())));
    telemetry::trace::set_tracing(true);
    let _ = telemetry::trace::take_events();
    {
        let _s = telemetry::span("test", "export \"quoted\"").arg("bytes", 4096);
        clock.advance(1500);
    }
    telemetry::trace::set_tracing(false);
    telemetry::set_clock(None);

    let events = telemetry::trace::take_events();
    let json = telemetry::trace::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.contains("\"ph\": \"X\""));
    assert!(json.contains("\"name\": \"export \\\"quoted\\\"\""));
    assert!(json.contains("\"dur\": 1.500"), "ns→µs conversion: {json}");
    assert!(json.contains("\"bytes\": 4096"));

    // write_chrome_trace drains the buffer to disk.
    telemetry::trace::set_tracing(true);
    {
        let _s = telemetry::span("test", "to-disk");
    }
    telemetry::trace::set_tracing(false);
    let path = std::env::temp_dir().join(format!("ipc_trace_test_{}.json", std::process::id()));
    let n = telemetry::trace::write_chrome_trace(&path).expect("write trace");
    assert_eq!(n, 1);
    let body = std::fs::read_to_string(&path).expect("read trace back");
    assert!(body.contains("\"to-disk\""));
    let _ = std::fs::remove_file(&path);
}
