//! Harness-side spans around the calls into each layer.
//!
//! Spans live in memory until the run ends; a layer's self time is its span
//! minus the part its children cover. In this benchmark the spans are
//! recorded from outside the program (around public calls); spans inside the
//! program are a later change that these numbers are the target for.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The replayed operation this span belongs to.
    pub op: u32,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start attributing spans to replayed operation `op`.
    pub fn set_op(&mut self, op: usize) {
        debug_assert!(self.stack.is_empty(), "op changed inside an open span");
        self.op = op as u32;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        self.spans[open.0 as usize].end_ns = now;
    }

    /// Time `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-op totals of every span called `name` (an op with several such
    /// spans, e.g. one per ladder rung, contributes their sum).
    fn per_op(&self, name: &str, value: impl Fn(usize, &Span) -> f64) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *by_op.entry(s.op).or_insert(0.0) += value(i, s);
            }
        }
        by_op.into_values().collect()
    }

    /// Median over ops of the time spent in spans called `name`; 0 when the
    /// workload never opened one.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.per_op(name, |_, s| s.ms()))
    }

    /// Like [`Tracer::median_ms`] for self time (span minus its children).
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p as usize] += s.ms();
            }
        }
        median(&self.per_op(name, |i, s| (s.ms() - child_ms[i]).max(0.0)))
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) rendering of every span.
    pub fn chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj()
                    .with("name", s.name)
                    .with("ph", "X")
                    .with("pid", 1usize)
                    .with("tid", 1usize)
                    .with("ts", s.start_ns as f64 * 1e-3)
                    .with("dur", (s.end_ns - s.start_ns) as f64 * 1e-3)
                    .with(
                        "args",
                        Value::obj()
                            .with("id", id)
                            .with("op", s.op as usize)
                            .with(
                                "parent",
                                s.parent.map_or(Value::Null, |p| (p as usize).into()),
                            )
                            .with("start_ns", s.start_ns)
                            .with("end_ns", s.end_ns),
                    )
            })
            .collect();
        Value::obj().with("traceEvents", events).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_per_op() {
        let mut t = Tracer::new();
        // Hand-written spans: op 0 has parent 10 ms with children 3 + 4 ms;
        // op 1 has a bare 6 ms parent.
        t.spans = vec![
            Span {
                name: "p",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                op: 0,
            },
            Span {
                name: "c",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "c",
                start_ns: 5_000_000,
                end_ns: 9_000_000,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "p",
                start_ns: 20_000_000,
                end_ns: 26_000_000,
                parent: None,
                op: 1,
            },
        ];
        assert_eq!(t.median_ms("p"), 8.0);
        assert_eq!(t.median_self_ms("p"), 4.5); // median(3, 6)
        assert_eq!(t.median_ms("c"), 7.0); // both children sum inside op 0
        assert_eq!(t.median_ms("absent"), 0.0);
        assert!(t.chrome_json().contains("\"traceEvents\""));
    }

    #[test]
    fn begin_end_nest_and_record_parents() {
        let mut t = Tracer::new();
        t.set_op(3);
        let outer = t.begin("outer");
        t.span("inner", || ());
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
