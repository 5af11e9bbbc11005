//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer metrics.
//!
//! An untraced run is [`SAMPLES`] *sample* processes run one after the
//! other, each with its own set-up, warm-up, timed phase and oracle. On the
//! shared boxes this runs on, a process's speed depends on state it keeps
//! for life (mostly which physical pages back its heap): ops inside one
//! process agree within a few percent while identical processes differ by
//! 10–25 %. The timing metrics therefore come from the fastest sample — the
//! reproducible floor — and everything else is the median over samples,
//! which is also how `setup_s` becomes a median of several set-ups.

use std::time::Instant;

use crate::harness::{cpu_ms, peak_rss_mb, Budget, Clock, OpRecord, Oracle, Workload};
use crate::json::Value;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{fastest_blocks, median, percentile, Timing};
use crate::trace::Tracer;
use crate::workloads;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Worker threads the program's pools were pinned to (`None` = library
    /// default); recorded, the pinning itself happens at process start.
    pub threads: Option<usize>,
    /// Median op latency of a probe process left at the library's default
    /// thread count (traced runs only; 0 when no probe ran).
    pub default_threads_op_p50_ms: f64,
    /// Where the chrome trace of a traced run goes (next to `--out`).
    pub trace_out: Option<std::path::PathBuf>,
}

/// Sample processes per untraced run.
pub const SAMPLES: usize = 3;
/// Ops per phase in `--smoke`.
const SMOKE_OPS: usize = 5;

/// Diagnostics a traced run reports beside the per-layer metrics.
const TRACED_DIAGNOSTICS: [&str; 2] = ["harness.replays", "harness.spans"];

/// Diagnostics a sample reports beside the end-to-end metrics.
const SAMPLE_DIAGNOSTICS: [&str; 8] = [
    "harness.block_spread",
    "harness.kept_block_spread",
    "harness.blocks",
    "harness.kept_ops",
    "harness.op_p90_ms",
    "harness.op_p99_ms",
    "harness.cpu_ms_per_op",
    "check.linf_over_bound",
];

#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// Exactly the metric set the run's mode defines, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra numbers for the result file (never gated).
    pub diagnostics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Value of metric `name`; 0 when the run does not report it.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The single-line result object the driver reads.
    pub fn driver_json(&self) -> Value {
        let mut metrics = Value::obj();
        for (name, value) in &self.metrics {
            metrics.set(
                name,
                Value::obj()
                    .with("value", *value)
                    .with("unit", unit_of(name).unwrap_or("")),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The richer record `--out` files hold (what `compare` reads) and
    /// sample processes print.
    pub fn file_json(&self) -> Value {
        let mut diagnostics = Value::obj();
        for (name, value) in &self.diagnostics {
            diagnostics.set(name, *value);
        }
        let mut v = self.driver_json();
        v.set("workload", self.workload.as_str());
        v.set("trace", self.trace);
        v.set("diagnostics", diagnostics);
        v.set(
            "problems",
            self.problems
                .iter()
                .map(|p| p.as_str().into())
                .collect::<Vec<Value>>(),
        );
        v
    }

    /// Rebuild a result from [`RunResult::file_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let trace = v.get("trace") == Some(&Value::Bool(true));
        let table = if trace { PER_LAYER } else { END_TO_END };
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|n| n as usize)
                .ok_or(format!("sample record has no {key}"))
        };
        let metrics = table
            .iter()
            .map(|&(name, _, _)| {
                v.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .map(|value| (name, value))
                    .ok_or(format!("sample record has no {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let diagnostics = SAMPLE_DIAGNOSTICS
            .iter()
            .chain(&TRACED_DIAGNOSTICS)
            .filter_map(|&name| {
                let value = v.get("diagnostics")?.get(name)?.as_f64()?;
                Some((name, value))
            })
            .collect();
        Ok(Self {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("sample record has no workload")?
                .to_string(),
            trace,
            attempted: count("attempted")?,
            failed: count("failed")?,
            problems: v
                .get("problems")
                .map_or(&[][..], Value::as_arr)
                .iter()
                .filter_map(|p| p.as_str().map(String::from))
                .collect(),
            metrics,
            diagnostics,
        })
    }
}

/// Fold the samples of one untraced run into its result: timing metrics from
/// the fastest sample, every other metric the median over samples, ops and
/// failures summed.
pub fn combine(samples: &[RunResult]) -> RunResult {
    let fastest = samples
        .iter()
        .min_by(|a, b| a.metric("op_p50_ms").total_cmp(&b.metric("op_p50_ms")))
        .expect("at least one sample");
    let across = |name: &str| -> Vec<f64> { samples.iter().map(|s| s.metric(name)).collect() };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, _, _)| {
            let value = match name {
                "op_p50_ms" | "ops_per_s" => fastest.metric(name),
                "pass_share" => across(name).into_iter().fold(1.0, f64::min),
                _ => median(&across(name)),
            };
            (name, value)
        })
        .collect();
    let slowest = across("op_p50_ms").into_iter().fold(0.0, f64::max);
    let mut diagnostics = fastest.diagnostics.clone();
    diagnostics.push(("harness.samples", samples.len() as f64));
    diagnostics.push((
        "harness.sample_spread",
        slowest / fastest.metric("op_p50_ms").max(1e-12),
    ));
    RunResult {
        workload: fastest.workload.clone(),
        trace: false,
        attempted: samples.iter().map(|s| s.attempted).sum(),
        failed: samples.iter().map(|s| s.failed).sum(),
        problems: samples.iter().flat_map(|s| s.problems.clone()).collect(),
        metrics,
        diagnostics,
    }
}

/// Failed ops: those that reported failure plus those whose digest differs
/// from the oracle's. An untrusted oracle fails everything.
pub(crate) fn count_failures(records: &[OpRecord], oracle: &Oracle) -> usize {
    if !oracle.problems.is_empty() {
        return records.len();
    }
    records
        .iter()
        .filter(|r| !r.ok || r.digest != (oracle.expected)(r.index))
        .count()
}

fn timings(records: &[OpRecord]) -> Vec<Timing> {
    records.iter().map(|r| r.timing).collect()
}

fn warm_up(wl: &mut dyn Workload, args: &RunArgs, clock: &Clock) {
    let budget = if args.smoke {
        Budget::exactly(1)
    } else {
        Budget {
            seconds: (0.1 * args.seconds).min(0.5),
            min_ops: 2,
            max_ops: usize::MAX,
        }
    };
    wl.run(budget, clock);
}

/// `share` of the run's seconds (at least `min_ops` ops); a fixed handful
/// of ops in `--smoke`.
fn phase(args: &RunArgs, share: f64, min_ops: usize) -> Budget {
    if args.smoke {
        Budget::exactly(SMOKE_OPS)
    } else {
        Budget {
            seconds: args.seconds * share,
            min_ops,
            max_ops: usize::MAX,
        }
    }
}

/// Run in this process: the traced run, or one sample of an untraced run.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced(args)
    } else {
        sample(args)
    }
}

/// One sample: set-up, warm-up, the timed phase, then the oracle.
fn sample(args: &RunArgs) -> Result<RunResult, String> {
    let t = Instant::now();
    let mut wl = workloads::setup(&args.workload, args.seed, args.smoke)?;
    let setup_s = t.elapsed().as_secs_f64();
    let clock = Clock::start();
    warm_up(wl.as_mut(), args, &clock);

    let cpu_before = cpu_ms();
    let records = wl.run(phase(args, 1.0, 6), &clock);
    let cpu_per_op = (cpu_ms() - cpu_before) / records.len() as f64;
    // Before the oracle allocates its reference fields.
    let peak_rss = peak_rss_mb();

    let oracle = wl.oracle();
    let failed = count_failures(&records, &oracle);
    let summary = fastest_blocks(&timings(&records), wl.concurrent());

    // Count metrics average whole input cycles so they repeat exactly
    // however many ops the run fitted.
    let cycle = wl.cycle();
    let counted = if records.len() >= cycle {
        &records[..records.len() / cycle * cycle]
    } else {
        &records[..]
    };
    let mean = |f: fn(&OpRecord) -> f64| counted.iter().map(f).sum::<f64>() / counted.len() as f64;

    let latencies: Vec<f64> = records.iter().map(|r| r.timing.ms()).collect();
    let values = [
        ("setup_s", setup_s),
        ("op_p50_ms", summary.op_p50_ms),
        ("ops_per_s", summary.ops_per_s),
        ("io_bytes_per_op", mean(|r| r.io.bytes)),
        ("backend_requests_per_op", mean(|r| r.io.gets)),
        ("sim_backend_ms_per_op", mean(|r| r.io.sim_ms)),
        ("stored_ratio", wl.stored_ratio()),
        ("peak_rss_mb", peak_rss),
        ("pass_share", 1.0 - failed as f64 / records.len() as f64),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(END_TO_END.iter().map(|m| m.0)));
    let diagnostics = [
        summary.block_spread,
        summary.kept_spread,
        summary.blocks as f64,
        summary.kept_ops as f64,
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        cpu_per_op,
        oracle.linf_over_bound,
    ];
    Ok(RunResult {
        workload: args.workload.clone(),
        trace: false,
        attempted: records.len(),
        failed,
        problems: oracle.problems,
        metrics: values.to_vec(),
        diagnostics: SAMPLE_DIAGNOSTICS.into_iter().zip(diagnostics).collect(),
    })
}

/// Set-up once, then: real ops alternately bare and inside a harness span
/// (the tracing overhead), and the replay of ops as layer calls.
fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let mut wl = workloads::setup(&args.workload, args.seed, args.smoke)?;
    let clock = Clock::start();
    warm_up(wl.as_mut(), args, &clock);
    let mut tracer = Tracer::new();

    // Phase A/B: the same op with and without a harness span around it. A
    // depth-1 loop alternates the two so drift on a shared box penalises
    // neither side; a concurrent workload keeps its ops in flight and runs
    // the two halves back to back instead.
    let cpu_before = cpu_ms();
    let (mut bare, mut spanned): (Vec<OpRecord>, Vec<OpRecord>) = (Vec::new(), Vec::new());
    if wl.concurrent() {
        bare = wl.run(phase(args, 0.2, 10), &clock);
        let open = tracer.begin("op");
        spanned = wl.run(phase(args, 0.2, 10), &clock);
        tracer.end(open);
    } else {
        let budget = phase(args, 0.4, 4);
        let started = Instant::now();
        while budget.open(bare.len(), started) {
            bare.push(wl.op(&clock));
            let open = tracer.begin("op");
            spanned.push(wl.op(&clock));
            tracer.end(open);
        }
    }
    let cpu_per_op = (cpu_ms() - cpu_before) / (bare.len() + spanned.len()) as f64;
    let summary = fastest_blocks(&timings(&bare), wl.concurrent());
    let op_p50_ms = summary.op_p50_ms;
    let spanned_p50_ms = fastest_blocks(&timings(&spanned), wl.concurrent()).op_p50_ms;

    // The replay: each op as the sequence of layer calls under it.
    let min_replays = if op_p50_ms >= 300.0 { 6 } else { 20 };
    let budget = if args.smoke {
        Budget::exactly(1)
    } else {
        phase(args, 0.6, min_replays)
    };
    let started = Instant::now();
    let mut replays: Vec<(usize, Option<u64>)> = Vec::new();
    while budget.open(replays.len(), started) {
        let index = replays.len();
        replays.push((index, wl.replay(index, &mut tracer)));
    }

    let oracle = wl.oracle();
    let mut failed = count_failures(&bare, &oracle) + count_failures(&spanned, &oracle);
    failed += replays
        .iter()
        .filter(|(i, d)| !oracle.problems.is_empty() || *d != Some((oracle.expected)(*i)))
        .count();
    let attempted = bare.len() + spanned.len() + replays.len();

    // Layers: medians of the top-level spans against the untraced op, and
    // the shares the issue's design table predicts. Storage time that is
    // simulated (accounted, never slept) is added to the spans it belongs
    // to for the shares, since that is what a caller would wait for.
    let simulated = wl.simulated_ms();
    let sim_of = |name: &str| simulated.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
    let top = wl.top_layers();
    let layers_sum: f64 = top.iter().map(|n| tracer.median_ms(n)).sum();
    let cost = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| tracer.median_self_ms(n) + sim_of(n))
            .sum()
    };
    let (most, little) = wl.design();
    let total_cost = cost(top).max(1e-12);

    let mut values: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();
    let mut put = |name: &str, v: f64| match values.iter_mut().find(|m| m.0 == name) {
        Some(slot) => slot.1 = v,
        // Counts recorded for internal use only (e.g. decoded bytes) have no
        // metric of their own.
        None => debug_assert!(unit_of(name).is_none()),
    };
    for (name, v) in wl.layer_metrics(&tracer, op_p50_ms) {
        put(name, v);
    }
    let latencies: Vec<f64> = bare.iter().map(|r| r.timing.ms()).collect();
    put("datagen.generate_s", wl.datagen_s());
    put("harness.op_p50_ms", op_p50_ms);
    put("harness.op_p90_ms", percentile(&latencies, 0.90));
    put("harness.op_p99_ms", percentile(&latencies, 0.99));
    put("harness.block_spread", summary.block_spread);
    put("harness.cpu_ms_per_op", cpu_per_op);
    put(
        "harness.op_p50_ms_default_threads",
        args.default_threads_op_p50_ms,
    );
    put("harness.threads", args.threads.unwrap_or(0) as f64);
    put("harness.layers_sum_over_op", layers_sum / op_p50_ms);
    put("harness.unattributed_ms", op_p50_ms - layers_sum);
    put(
        "harness.trace_overhead_share",
        spanned_p50_ms / op_p50_ms - 1.0,
    );
    put("harness.most_work_share", cost(most) / total_cost);
    put("harness.little_work_share", cost(little) / total_cost);
    put("check.linf_over_bound", oracle.linf_over_bound);

    let mut problems = oracle.problems;
    let ratio = layers_sum / op_p50_ms;
    if !args.smoke && !(0.5..=2.0).contains(&ratio) {
        problems.push(format!(
            "replay no longer measures the op: layers sum to {ratio:.3} of op_p50_ms"
        ));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(RunResult {
        workload: args.workload.clone(),
        trace: true,
        attempted,
        failed,
        problems,
        metrics: values,
        diagnostics: TRACED_DIAGNOSTICS
            .into_iter()
            .zip([replays.len() as f64, tracer.spans().len() as f64])
            .collect(),
    })
}
