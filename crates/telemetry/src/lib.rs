//! Unified telemetry for the IPComp retrieval stack.
//!
//! One process-wide registry of lock-free [`Counter`]s, [`Gauge`]s, and
//! log-linear [`Histogram`]s (hot path: one relaxed atomic add), plus
//! lightweight [`trace`] spans with explicit clock injection so simulated
//! benchmarks and wall-clock runs share one schema. Exports are a stable
//! JSON snapshot ([`snapshot_json`]) and a chrome://tracing span dump
//! ([`trace::write_chrome_trace`]).
//!
//! # Tracing
//!
//! Counters, gauges and histograms always record. Span *events* are
//! additionally gated on [`trace::tracing`], off until
//! [`trace::set_tracing`] switches it on; histogram recording does not
//! require tracing.
//!
//! # Clocks
//!
//! Spans time themselves against the process clock ([`now_nanos`]):
//! monotonic wall time by default, or any injected [`Clock`] — e.g. a
//! [`ManualClock`] driven by a store simulation — via [`set_clock`]. Swapping
//! clocks is a test/bench affordance; the hot path pays one relaxed load to
//! detect a custom clock.

mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use trace::{span, span_timed, Span};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Version tag of the JSON snapshot schema (see [`snapshot_json`]).
pub const SNAPSHOT_SCHEMA: &str = "ipc-telemetry-v1";

// ---------------------------------------------------------------------------
// Clock injection
// ---------------------------------------------------------------------------

/// A monotonic nanosecond clock that spans time themselves against.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_nanos(&self) -> u64;
}

/// Monotonic wall time ([`Instant`]) since first use in this process.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealClock;

static EPOCH: OnceLock<Instant> = OnceLock::new();

impl Clock for RealClock {
    fn now_nanos(&self) -> u64 {
        let epoch = *EPOCH.get_or_init(Instant::now);
        Instant::now().duration_since(epoch).as_nanos() as u64
    }
}

/// A hand-advanced clock for simulations and deterministic tests. Cloning
/// shares the underlying time, so a store simulation can advance the same
/// clock the spans read.
#[derive(Debug, Default, Clone)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance by `nanos`, returning the previous reading.
    pub fn advance(&self, nanos: u64) -> u64 {
        self.0.fetch_add(nanos, Ordering::Relaxed)
    }

    /// Jump to an absolute reading.
    pub fn set(&self, nanos: u64) {
        self.0.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

static HAS_CUSTOM_CLOCK: AtomicBool = AtomicBool::new(false);
static CUSTOM_CLOCK: Mutex<Option<Arc<dyn Clock>>> = Mutex::new(None);

/// Install a custom process clock (e.g. a simulation's [`ManualClock`]), or
/// restore the default wall clock with `None`. Affects span timing globally;
/// intended for single-tenant benches and tests.
pub fn set_clock(clock: Option<Arc<dyn Clock>>) {
    let mut slot = CUSTOM_CLOCK.lock().expect("clock lock");
    HAS_CUSTOM_CLOCK.store(clock.is_some(), Ordering::Release);
    *slot = clock;
}

/// Current reading of the process clock (custom if installed, else
/// monotonic wall time).
#[inline]
pub fn now_nanos() -> u64 {
    if HAS_CUSTOM_CLOCK.load(Ordering::Acquire) {
        if let Some(clock) = CUSTOM_CLOCK.lock().expect("clock lock").as_ref() {
            return clock.now_nanos();
        }
    }
    RealClock.now_nanos()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static Histogram>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(Mutex::default)
}

/// The process-wide counter named `name`, created on first use. The handle
/// is `'static`: resolve it once (e.g. into a `OnceLock`) and the hot path
/// never touches the registry lock again.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().expect("registry lock");
    reg.counters
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The process-wide gauge named `name`, created on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock().expect("registry lock");
    reg.gauges
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// The process-wide histogram named `name`, created on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut reg = registry().lock().expect("registry lock");
    reg.histograms
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Escape `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Stable JSON snapshot of every registered metric:
///
/// ```json
/// {
///   "schema": "ipc-telemetry-v1",
///   "enabled": true,
///   "counters": {"name": 42},
///   "gauges": {"name": -1},
///   "histograms": {"name": {"count": 9, "sum": 90, "mean": 10.0,
///                            "min": 1, "max": 30,
///                            "p50": 10, "p90": 28, "p95": 29, "p99": 30}}
/// }
/// ```
///
/// Keys are sorted (BTreeMap order) so snapshots diff cleanly; the schema is
/// covered by a stability test and is what the `BENCH_*.json` emitters embed.
pub fn snapshot_json() -> String {
    let reg = registry().lock().expect("registry lock");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SNAPSHOT_SCHEMA}\",\n"));
    out.push_str("  \"enabled\": true,\n");
    out.push_str("  \"counters\": {");
    let mut first = true;
    for (name, c) in &reg.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", json_escape(name), c.get()));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, g) in &reg.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", json_escape(name), g.get()));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    first = true;
    for (name, h) in &reg.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {}",
            json_escape(name),
            h.snapshot().to_json()
        ));
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push('}');
    out
}
