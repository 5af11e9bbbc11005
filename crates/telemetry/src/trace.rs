//! Lightweight trace spans and a chrome://tracing exporter.
//!
//! A [`Span`] is a scope guard: it reads the process clock on creation and
//! again on drop, records the duration into an optional histogram, and — when
//! tracing is switched on — appends a complete ("ph":"X") event to a global
//! in-memory buffer. [`write_chrome_trace`] drains that buffer into a JSON
//! file that loads directly in chrome://tracing or Perfetto.
//!
//! Tracing is off until [`set_tracing`]`(true)` turns it on. When both
//! tracing is off and no histogram is attached, a span never reads the
//! clock.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{now_nanos, Histogram};

/// Hard cap on buffered trace events; further spans are counted but dropped
/// so an accidentally long traced run cannot exhaust memory.
pub const MAX_TRACE_EVENTS: usize = 1 << 20;

/// One completed span, in chrome trace-event terms.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (static so recording never allocates for it).
    pub name: &'static str,
    /// Event category (layer name: "pipeline", "cascade", "store", ...).
    pub cat: &'static str,
    /// Start timestamp, nanoseconds on the process clock.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread (small dense id, not the OS tid).
    pub tid: u64,
    /// Numeric span arguments (tenant id, level, byte counts, ...).
    pub args: Vec<(&'static str, u64)>,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();

fn events() -> &'static Mutex<Vec<TraceEvent>> {
    EVENTS.get_or_init(Mutex::default)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Whether span events are being collected: off until switched on with
/// [`set_tracing`].
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Switch span-event collection on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// A scope guard timing one region of code. Create with [`span`] (trace
/// event only) or [`span_timed`] (trace event + duration histogram); attach
/// numeric context with [`Span::arg`]. The measurement happens on drop.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    start: u64,
    hist: Option<&'static Histogram>,
    traced: bool,
    args: Vec<(&'static str, u64)>,
}

impl Span {
    fn new(name: &'static str, cat: &'static str, hist: Option<&'static Histogram>) -> Self {
        let traced = tracing();
        let active = traced || hist.is_some();
        Self {
            name,
            cat,
            start: if active { now_nanos() } else { 0 },
            hist,
            traced,
            args: Vec::new(),
        }
    }

    /// Attach a numeric argument (shown in the chrome trace viewer).
    pub fn arg(mut self, name: &'static str, value: u64) -> Self {
        self.add_arg(name, value);
        self
    }

    /// Attach a numeric argument to a live span (for values only known
    /// mid-scope, e.g. byte counts computed inside the timed region).
    pub fn add_arg(&mut self, name: &'static str, value: u64) {
        if self.traced {
            self.args.push((name, value));
        }
    }

    /// Whether this span will record anything on drop.
    pub fn is_active(&self) -> bool {
        self.traced || self.hist.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.is_active() {
            return;
        }
        let dur = now_nanos().saturating_sub(self.start);
        if let Some(h) = self.hist {
            h.record(dur);
        }
        if self.traced {
            let ev = TraceEvent {
                name: self.name,
                cat: self.cat,
                ts_ns: self.start,
                dur_ns: dur,
                tid: TID.with(|t| *t),
                args: std::mem::take(&mut self.args),
            };
            let mut buf = events().lock().expect("trace lock");
            if buf.len() < MAX_TRACE_EVENTS {
                buf.push(ev);
            } else {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Start a span that emits a trace event when tracing is on. Costs nothing
/// (no clock read) when tracing is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    Span::new(name, cat, None)
}

/// Start a span that records its duration into `hist`, and additionally
/// emits a trace event when tracing is on.
#[inline]
pub fn span_timed(cat: &'static str, name: &'static str, hist: &'static Histogram) -> Span {
    Span::new(name, cat, Some(hist))
}

/// Drain and return all buffered trace events (test introspection).
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *events().lock().expect("trace lock"))
}

/// Events dropped after the buffer hit [`MAX_TRACE_EVENTS`].
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Render events as chrome trace-event JSON (the `{"traceEvents": [...]}`
/// wrapper; timestamps in microseconds as the format requires).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut args = String::new();
        for (j, (k, v)) in ev.args.iter().enumerate() {
            if j > 0 {
                args.push_str(", ");
            }
            args.push_str(&format!("\"{}\": {}", crate::json_escape(k), v));
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
            crate::json_escape(ev.name),
            crate::json_escape(ev.cat),
            ev.ts_ns as f64 / 1e3,
            ev.dur_ns as f64 / 1e3,
            ev.tid,
            args,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Drain the buffered events into a chrome://tracing-format JSON file.
/// Returns the number of events written.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let drained = take_events();
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace_json(&drained).as_bytes())?;
    Ok(drained.len())
}
