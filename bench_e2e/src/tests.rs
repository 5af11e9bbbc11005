//! Whole-harness tests at `--smoke` scale.

use crate::harness::{Io, OpRecord, Oracle};
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{self, RunArgs, RunResult};
use crate::stats::Timing;
use crate::workloads::WORKLOADS;

fn smoke_args(workload: &str, seed: u64, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
        threads: None,
        default_threads_op_p50_ms: 0.0,
        trace_out: None,
    }
}

fn metric(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} missing from {}", result.workload))
        .1
}

#[test]
fn same_seed_gives_identical_counts_on_the_single_caller_workloads() {
    for (name, _) in WORKLOADS.iter().filter(|w| w.0 != "service_mix") {
        let a = run::run(&smoke_args(name, 7, false)).unwrap();
        let b = run::run(&smoke_args(name, 7, false)).unwrap();
        assert!(
            a.correct() && b.correct(),
            "{name}: {:?} {:?}",
            a.problems,
            b.problems
        );
        for m in [
            "io_bytes_per_op",
            "backend_requests_per_op",
            "sim_backend_ms_per_op",
            "stored_ratio",
        ] {
            assert_eq!(
                metric(&a, m).to_bits(),
                metric(&b, m).to_bits(),
                "{name}.{m}"
            );
            assert!(metric(&a, m) > 0.0, "{name}.{m} must never read 0");
        }
        assert_eq!(metric(&a, "pass_share"), 1.0);
    }
    // And another seed gives other inputs.
    let a = run::run(&smoke_args("compress_v2", 7, false)).unwrap();
    let c = run::run(&smoke_args("compress_v2", 8, false)).unwrap();
    assert_ne!(metric(&a, "io_bytes_per_op"), metric(&c, "io_bytes_per_op"));
}

#[test]
fn untraced_runs_report_exactly_the_end_to_end_metrics() {
    let r = run::run(&smoke_args("service_mix", 3, false)).unwrap();
    assert!(r.correct(), "{:?}", r.problems);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    let table: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, table);
    assert!(
        r.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
        "{:?}",
        r.metrics
    );
    // The driver line carries the four keys the contract names.
    let line = json::parse(&r.driver_json().render()).unwrap();
    let keys: Vec<&str> = line.fields().iter().map(|f| f.0.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_replay_the_op_bit_exactly() {
    for (name, _) in WORKLOADS {
        let r = run::run(&smoke_args(name, 5, true)).unwrap();
        // A replay digest that differs from the oracle counts as a failure,
        // so `correct` also says the layer calls rebuilt the op's output.
        assert!(r.correct(), "{name}: failed {} {:?}", r.failed, r.problems);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, table, "{name}");
        assert!(
            r.metrics.iter().all(|m| m.1.is_finite()),
            "{name}: {:?}",
            r.metrics
        );
        assert!(metric(&r, "harness.layers_sum_over_op") > 0.0, "{name}");
    }
}

fn record(index: usize, digest: u64, ok: bool) -> OpRecord {
    OpRecord {
        index,
        timing: Timing {
            start_ns: 0,
            end_ns: 1,
        },
        io: Io::default(),
        digest,
        ok,
    }
}

#[test]
fn a_wrong_expected_checksum_fails_the_run() {
    let records = [
        record(0, 11, true),
        record(1, 12, true),
        record(2, 13, false),
    ];
    let oracle = |shift: u64, problems: Vec<String>| Oracle {
        expected: Box::new(move |i| 11 + i as u64 + shift),
        linf_over_bound: 0.5,
        problems,
    };
    // Matching digests: only the op that reported failure counts.
    assert_eq!(run::count_failures(&records, &oracle(0, vec![])), 1);
    // A wrong expected checksum fails every op it touches...
    assert_eq!(run::count_failures(&records, &oracle(1, vec![])), 3);
    // ...and an oracle that failed its own checks fails them all.
    assert_eq!(
        run::count_failures(&records[..2], &oracle(0, vec!["bound".into()])),
        2
    );
    // The process exit code follows `correct()`.
    let result = |failed| RunResult {
        workload: "w".into(),
        trace: false,
        attempted: 3,
        failed,
        problems: vec![],
        metrics: vec![],
        diagnostics: vec![],
    };
    assert!(result(0).correct());
    assert!(!result(1).correct());
}

#[test]
fn unknown_workloads_are_an_error_not_a_panic() {
    assert!(run::run(&smoke_args("no_such_workload", 1, false)).is_err());
}

/// `BENCHMARK.json` at the repo root names the same workloads and metrics,
/// with the same units and directions, as the tables the binary prints from.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.fields().iter().map(|f| f.0.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let triples = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        t.iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect()
    };
    assert_eq!(triples("end_to_end"), table(END_TO_END));
    assert_eq!(triples("per_layer"), table(PER_LAYER));
    assert!(PER_LAYER.len() <= 128);
    for m in doc.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.0));
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn samples_combine_to_the_fastest_timing_and_median_of_the_rest() {
    let sample = |op_p50: f64, setup: f64, failed: usize| RunResult {
        workload: "w".into(),
        trace: false,
        attempted: 10,
        failed,
        problems: vec![],
        metrics: END_TO_END
            .iter()
            .map(|&(name, _, _)| {
                let value = match name {
                    "op_p50_ms" => op_p50,
                    "ops_per_s" => 1e3 / op_p50,
                    "setup_s" => setup,
                    "pass_share" => 1.0 - failed as f64 / 10.0,
                    _ => 7.0,
                };
                (name, value)
            })
            .collect(),
        diagnostics: vec![("harness.block_spread", op_p50 / 10.0)],
    };
    let samples = [
        sample(12.0, 1.0, 0),
        sample(10.0, 3.0, 1),
        sample(15.0, 2.0, 0),
    ];
    // Each sample survives the trip through the record its process prints.
    for s in &samples {
        let back = RunResult::from_json(&json::parse(&s.file_json().render()).unwrap()).unwrap();
        assert_eq!(
            (back.metrics.clone(), back.failed),
            (s.metrics.clone(), s.failed)
        );
    }
    let run = run::combine(&samples);
    assert_eq!(metric(&run, "op_p50_ms"), 10.0);
    assert_eq!(metric(&run, "ops_per_s"), 100.0);
    assert_eq!(metric(&run, "setup_s"), 2.0);
    assert_eq!(metric(&run, "io_bytes_per_op"), 7.0);
    assert_eq!(metric(&run, "pass_share"), 0.9);
    assert_eq!((run.attempted, run.failed), (30, 1));
    assert!(!run.correct());
    // Diagnostics follow the fastest sample; the spread across samples is kept.
    assert!(run.diagnostics.contains(&("harness.block_spread", 1.0)));
    assert!(run.diagnostics.contains(&("harness.sample_spread", 1.5)));
}
