//! `bench_e2e`: the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! bench_e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out f.json]
//! bench_e2e --all [--seed ..] [--seconds ..] [--out f.json]   # every workload, both modes
//! bench_e2e --smoke                                            # tiny shapes, seconds
//! bench_e2e compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ```
//!
//! The process the caller starts only orchestrates: every measurement runs
//! in a child process it starts with the measurement environment pinned
//! (see [`measurement_env`]) and waits for. An untraced run is three such
//! sample processes, one after the other (see `run.rs` for why); a traced
//! run is one, plus a short probe at the library's default thread count.
//! The last line of standard output is the result object `BENCHMARK.json`'s
//! contract defines; the lines before it print every metric by name with
//! its unit. See README.md in this directory for the metric and workload
//! tables.

mod calls;
mod compare;
mod harness;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use run::{RunArgs, RunResult};

const DEFAULT_SEED: u64 = 2025;
const DEFAULT_SECONDS: f64 = 8.0;

/// The gated configuration is the plain single-threaded one. At the
/// library default (one spawned-per-call worker per core) the same op does
/// not repeat within 25 % on a shared 2-vCPU box, so that configuration is
/// measured beside it (`harness.op_p50_ms_default_threads`) instead of
/// being gated on.
const PINNED_THREADS: usize = 1;

struct Cli {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Threads the program's pools are pinned to; `None` leaves the
    /// library default (`--threads default`).
    threads: Option<usize>,
    out: Option<PathBuf>,
    /// Internal (`--measure`): this is a measurement child; run in-process
    /// and print the full record.
    measure: bool,
    /// Internal: what the default-threads probe measured, for a traced child.
    default_threads_ms: f64,
    /// Internal: where a traced child writes its chrome trace.
    trace_file: Option<PathBuf>,
}

fn number<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        smoke: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        threads: Some(PINNED_THREADS),
        out: None,
        measure: false,
        default_threads_ms: 0.0,
        trace_file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = number(arg, &value()?)?,
            "--seconds" => cli.seconds = number(arg, &value()?)?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => cli.trace = true,
            "--threads" => {
                cli.threads = match value()?.as_str() {
                    "default" => None,
                    n => Some(number(arg, n)?),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--measure" => cli.measure = true,
            "--default-threads-ms" => cli.default_threads_ms = number(arg, &value()?)?,
            "--trace-file" => cli.trace_file = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

/// Variables that change what the program under test does; a run started
/// with any of them set would not measure what the benchmark defines.
fn refused_environment() -> Option<String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IPC_") || k == "RAYON_NUM_THREADS")
        .collect();
    (!set.is_empty()).then(|| {
        format!(
            "refusing to run: {} set; the benchmark pins its own environment (unset and retry)",
            set.join(", ")
        )
    })
}

/// The environment every measurement child runs in.
///
/// * `RAYON_NUM_THREADS`: the thread count under test (removed for the
///   library default).
/// * `MALLOC_MMAP_THRESHOLD_` / `MALLOC_TRIM_THRESHOLD_`: glibc normally
///   adapts both thresholds to the sizes a process frees, and whether an
///   8 MB field buffer then stays in the heap or is unmapped and faulted in
///   again on every op flips with the seed and the run (9.5 ms vs 20 ms for
///   the same full retrieve, 30 k vs 1.2 M page faults per run). Fixing the
///   thresholds — blocks up to 32 MiB come from the heap, the heap is never
///   trimmed — takes that coin toss out: after warm-up an op costs what the
///   library computes, not what the kernel charges for fresh pages. Other
///   allocators ignore the variables.
fn measurement_env(cmd: &mut Command, threads: Option<usize>) {
    match threads {
        Some(n) => cmd.env("RAYON_NUM_THREADS", n.to_string()),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    cmd.env("MALLOC_MMAP_THRESHOLD_", (32usize << 20).to_string())
        .env("MALLOC_TRIM_THRESHOLD_", i32::MAX.to_string());
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Where and how the numbers were taken; the head of every result file.
fn header(cli: &Cli, refusal: Option<&str>) -> Value {
    let profile = calls::sim_profile();
    Value::obj()
        .with("benchmark", "bench_e2e")
        .with("git_sha", git_sha())
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |p| p.get()),
        )
        .with(
            "threads",
            cli.threads
                .map_or(Value::from("library default"), Value::from),
        )
        .with("allocator", "glibc thresholds fixed: mmap 32 MiB, no trim")
        .with("cascade_avx2_available", calls::cascade_avx2_available())
        .with(
            "cargo_features",
            "ipcomp: simd, telemetry; ipc_store: simd, telemetry",
        )
        .with("samples_per_untraced_run", run::SAMPLES)
        .with(
            "blocks",
            "10 equal blocks per timed phase (fewer under 20 ops), fastest half kept",
        )
        .with(
            "sim_profile",
            Value::obj()
                .with(
                    "latency_ms_per_request",
                    profile.latency_per_request.as_secs_f64() * 1e3,
                )
                .with("throughput_mb_s", profile.throughput_bytes_per_sec * 1e-6)
                .with("real_sleep", profile.real_sleep),
        )
        .with("refusal", refusal.map_or(Value::Null, Value::from))
}

/// Append `result` to the result file at `path` (created with a header on
/// first use), so repeats and `--all` accumulate in one file.
fn append_result(path: &Path, cli: &Cli, result: &RunResult) -> Result<(), String> {
    let existing = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok());
    let mut results: Vec<Value> = existing
        .as_ref()
        .and_then(|doc| doc.get("results"))
        .map_or_else(Vec::new, |r| r.as_arr().to_vec());
    let head = existing
        .as_ref()
        .and_then(|doc| doc.get("header").cloned())
        .unwrap_or_else(|| header(cli, None));
    let mut record = result.file_json();
    record.set("seed", cli.seed);
    record.set("seconds", cli.seconds);
    record.set("smoke", cli.smoke);
    results.push(record);
    let doc = Value::obj().with("header", head).with("results", results);
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn print_metrics(result: &RunResult) {
    println!(
        "# {} ({}): {} ops attempted, {} failed",
        result.workload,
        if result.trace { "traced" } else { "untraced" },
        result.attempted,
        result.failed
    );
    for (name, value) in result.metrics.iter().chain(&result.diagnostics) {
        println!(
            "{name:<36} {value:>18.6} {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
    for p in &result.problems {
        println!("PROBLEM: {p}");
    }
}

/// Run one measurement in this process (a measurement child or `--smoke`).
fn measure_here(cli: &Cli, workload: &str) -> Result<RunResult, String> {
    run::run(&RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        threads: cli.threads,
        default_threads_op_p50_ms: cli.default_threads_ms,
        trace_out: cli.trace_file.clone(),
    })
}

/// Start this executable as a measurement child, wait for it, and parse the
/// record it prints last.
fn measure_in_child(
    cli: &Cli,
    workload: &str,
    trace: bool,
    seconds: f64,
    threads: Option<usize>,
    extra: &[String],
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--measure", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args([
            "--threads",
            &threads.map_or("default".into(), |n| n.to_string()),
        ])
        .args(extra)
        .stderr(std::process::Stdio::inherit());
    measurement_env(&mut cmd, threads);
    let output = cmd
        .output()
        .map_err(|e| format!("starting a measurement process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!(
        "measurement process printed nothing ({})",
        output.status
    ))?;
    RunResult::from_json(&json::parse(last).map_err(|e| format!("measurement record: {e}"))?)
}

/// One run of `workload` as the caller asked for it.
fn run_one(cli: &Cli, workload: &str) -> Result<RunResult, String> {
    let result = if cli.smoke {
        measure_here(cli, workload)?
    } else if cli.trace {
        // The same op at the library's default thread count, in a process
        // of its own so neither configuration's state leaks into the other.
        let probe_s = (0.2 * cli.seconds).max(1.0);
        let probe = measure_in_child(cli, workload, false, probe_s, None, &[])?;
        let mut extra = vec![
            "--default-threads-ms".to_string(),
            probe.metric("op_p50_ms").to_string(),
        ];
        if let Some(out) = &cli.out {
            let path = out.with_extension(format!("{workload}.trace.json"));
            extra.extend(["--trace-file".to_string(), path.display().to_string()]);
        }
        measure_in_child(cli, workload, true, cli.seconds, cli.threads, &extra)?
    } else {
        let share = cli.seconds / run::SAMPLES as f64;
        let samples = (0..run::SAMPLES)
            .map(|_| measure_in_child(cli, workload, false, share, cli.threads, &[]))
            .collect::<Result<Vec<_>, _>>()?;
        run::combine(&samples)
    };
    if let Some(out) = &cli.out {
        append_result(out, cli, &result)?;
    }
    Ok(result)
}

/// `--smoke` without a workload: all seven at tiny scale, untraced then
/// traced, in this process. Only correctness is asserted.
fn smoke_all(cli: &mut Cli) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in workloads::WORKLOADS {
        for trace in [false, true] {
            cli.trace = trace;
            let result = run_one(cli, name)?;
            println!(
                "smoke {name:<22} {:<8} attempted {:>3} failed {} {}",
                if trace { "traced" } else { "untraced" },
                result.attempted,
                result.failed,
                result.problems.join("; ")
            );
            ok &= result.correct();
        }
    }
    Ok(ok)
}

/// `--all`: every workload, untraced then traced.
fn run_all(cli: &mut Cli) -> Result<bool, String> {
    let mut ok = true;
    for (name, _) in workloads::WORKLOADS {
        for trace in [false, true] {
            cli.trace = trace;
            let result = run_one(cli, name)?;
            print_metrics(&result);
            ok &= result.correct();
        }
    }
    Ok(ok)
}

fn compare_main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a path")?);
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: bench_e2e compare <a.json> <b.json> [--bounds BENCHMARK.json]".into());
    };
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let bounds_text = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("{}: {e}", bounds_path.display()))?;
    let bounds = compare::load_bounds(&bounds_text)?;
    let (table, any_worse) = compare::compare(&read(a)?, &read(b)?, &bounds);
    print!("{table}");
    Ok(!any_worse)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let mut cli = parse_cli(&args)?;
    if cli.measure {
        // A measurement child: the orchestrator pinned the environment.
        let name = cli.workload.clone().ok_or("--measure needs --workload")?;
        let result = measure_here(&cli, &name)?;
        println!("{}", result.file_json().render());
        return Ok(result.correct());
    }
    if let Some(refusal) = refused_environment() {
        if let Some(out) = &cli.out {
            let doc = Value::obj()
                .with("header", header(&cli, Some(&refusal)))
                .with("results", Vec::<Value>::new());
            std::fs::write(out, doc.render() + "\n").map_err(|e| e.to_string())?;
        }
        return Err(refusal);
    }
    if cli.all {
        return run_all(&mut cli);
    }
    match cli.workload.clone() {
        None if cli.smoke => smoke_all(&mut cli),
        None => Err("one of --workload <name>, --all, --smoke or `compare` is required".into()),
        Some(name) => {
            let result = run_one(&cli, &name)?;
            print_metrics(&result);
            // The contract's result object: last line of standard output.
            println!("{}", result.driver_json().render());
            Ok(result.correct())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
