//! One traced retrieve — full-domain or region — produces the full span tree
//! the chrome://tracing workflow relies on: fetch/entropy/scatter stage spans
//! and cascade passes, all nested inside the root retrieve span.

use ipc_tensor::{ArrayD, Shape};
use ipcomp::compressor::compress;
use ipcomp::config::Config;
use ipcomp::progressive::{ProgressiveDecoder, RetrievalRequest};
use ipcomp::RoiBox;

#[test]
fn traced_retrieve_emits_all_stage_spans() {
    let shape = Shape::d3(24, 18, 20);
    let data = ArrayD::from_fn(shape, |c| {
        (c[0] as f64 * 0.21).sin() * 3.0 + (c[1] as f64 * 0.13).cos() * 2.0 + c[2] as f64 * 0.05
    });
    let region = RoiBox::new(&[4, 3, 6], &[15, 12, 17]);
    for (config, region, root_name) in [
        (Config::default(), None, "retrieve"),
        (
            Config::with_precincts(&[8, 6, 5]),
            Some(region),
            "retrieve_roi",
        ),
    ] {
        traced_retrieve(&data, &config, region, root_name);
    }
}

fn traced_retrieve(data: &ArrayD<f64>, config: &Config, region: Option<RoiBox>, root_name: &str) {
    let c = compress(data, 1e-6, config).unwrap();

    let source = ipcomp::source::MemorySource::new(c.to_bytes());

    ipc_telemetry::trace::set_tracing(true);
    let _ = ipc_telemetry::trace::take_events();
    let mut dec = ProgressiveDecoder::from_source(&source).unwrap();
    match region {
        Some(bounds) => dec.retrieve_roi(bounds, RetrievalRequest::Full).unwrap(),
        None => dec.retrieve(RetrievalRequest::Full).unwrap(),
    };
    ipc_telemetry::trace::set_tracing(false);
    let events = ipc_telemetry::trace::take_events();

    for name in ["fetch", "entropy", "scatter", "cascade.pass", root_name] {
        assert!(
            events.iter().any(|e| e.name == name),
            "missing span {name:?} in {:?}",
            events.iter().map(|e| e.name).collect::<Vec<_>>()
        );
    }

    // Every stage span nests inside the root retrieve span (one clock for
    // all threads, so interval containment holds across the rayon pool).
    let root = events.iter().find(|e| e.name == root_name).unwrap();
    for e in &events {
        assert!(
            e.ts_ns >= root.ts_ns && e.ts_ns + e.dur_ns <= root.ts_ns + root.dur_ns,
            "span {} [{}, {}] escapes {root_name} [{}, {}]",
            e.name,
            e.ts_ns,
            e.ts_ns + e.dur_ns,
            root.ts_ns,
            root.ts_ns + root.dur_ns
        );
    }

    // The stage byte counts surfaced as span args and counters.
    let fetch = events.iter().find(|e| e.name == "fetch").unwrap();
    assert!(
        fetch.args.iter().any(|&(k, v)| k == "bytes" && v > 0),
        "fetch span carries a byte count: {:?}",
        fetch.args
    );
    assert!(ipcomp::obs::metrics().retrieves.get() >= 1);
    assert!(ipcomp::obs::metrics().fetch_bytes.get() > 0);

    // And the dump is valid chrome trace-event JSON.
    let json = ipc_telemetry::trace::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.contains("\"cat\": \"cascade\""));
}
