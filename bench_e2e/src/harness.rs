//! What every workload shares: the op record, the timed loop, the digest
//! outputs are compared by, and the process counters.

use std::time::Instant;

use crate::stats::Timing;
use crate::trace::Tracer;

/// Bytes, requests and simulated storage time that crossed the storage
/// boundary during one op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Io {
    pub bytes: f64,
    pub gets: f64,
    pub sim_ms: f64,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Position in the workload's deterministic input sequence (warm-up
    /// included); selects the op's expected digest.
    pub index: usize,
    pub timing: Timing,
    pub io: Io,
    /// FNV-64 over the op's output bits (folded across outputs when an op
    /// returns several); compared with the oracle after the timed phase.
    pub digest: u64,
    /// `false` when the op returned `Err`, was refused, or reported an error
    /// bound above the one requested.
    pub ok: bool,
}

/// How long a phase runs: until `seconds` have passed and at least `min_ops`
/// completed, never more than `max_ops`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
    pub max_ops: usize,
}

impl Budget {
    pub fn exactly(ops: usize) -> Self {
        Self {
            seconds: 0.0,
            min_ops: ops,
            max_ops: ops,
        }
    }

    pub fn open(&self, done: usize, started: Instant) -> bool {
        done < self.max_ops
            && (done < self.min_ops || started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// Process-wide monotonic clock all op timings share.
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Time `f`, returning its result and timing.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Timing) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (out, Timing { start_ns, end_ns })
    }
}

/// What the oracle of a workload found.
pub struct Oracle {
    /// Expected digest of the op with [`OpRecord::index`] `i`.
    pub expected: Box<dyn Fn(usize) -> u64>,
    /// Largest achieved L∞ error ÷ the bound requested for it.
    pub linf_over_bound: f64,
    /// Round-trip and bound checks of the oracle itself; a failure here
    /// fails every op (the reference cannot be trusted).
    pub problems: Vec<String>,
}

/// Per-layer numbers a workload adds to the traced run's report.
pub type Metrics = Vec<(&'static str, f64)>;

/// One of the seven workloads, set up and ready to run.
pub trait Workload {
    /// The next op of the input sequence, timed on `clock`.
    fn op(&mut self, clock: &Clock) -> OpRecord;

    /// Ops per deterministic cycle of inputs: count metrics average whole
    /// cycles so they do not depend on how many ops a run fits.
    fn cycle(&self) -> usize {
        1
    }

    /// Whether several ops are in flight at once.
    fn concurrent(&self) -> bool {
        false
    }

    /// Run ops until `budget` closes, in completion order. The default is
    /// a closed loop of depth 1.
    fn run(&mut self, budget: Budget, clock: &Clock) -> Vec<OpRecord> {
        let started = Instant::now();
        let mut out = Vec::new();
        while budget.open(out.len(), started) {
            out.push(self.op(clock));
        }
        out
    }

    /// Stored bytes ÷ raw `f64` bytes of what the workload wrote or reads.
    fn stored_ratio(&self) -> f64;

    /// Build the independent reference (after the timed phase).
    fn oracle(&mut self) -> Oracle;

    /// Seconds `ipc_datagen` took during set-up.
    fn datagen_s(&self) -> f64;

    /// Replay the op with index `i` as the sequence of layer calls under it, each in a
    /// span. Returns the replay's digest where it reconstructs the op's
    /// output (checked against the oracle), `None` where it does not.
    fn replay(&mut self, i: usize, tracer: &mut Tracer) -> Option<u64>;

    /// Span names whose medians should sum to the op.
    fn top_layers(&self) -> &'static [&'static str];

    /// Span names the issue says do most of the work / little of it here.
    fn design(&self) -> (&'static [&'static str], &'static [&'static str]);

    /// Spans whose storage time is simulated, with that time per op in ms.
    fn simulated_ms(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Workload-specific per-layer metrics, computed after the replay.
    fn layer_metrics(&mut self, tracer: &Tracer, op_p50_ms: f64) -> Metrics;
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a (64-bit) over raw bytes.
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a (64-bit) over the little-endian bit patterns of `values`, byte by
/// byte: the digest `StoreService` reports for a workload's final field, so
/// the one `service_mix` outputs are compared by.
pub fn fnv_field_bytes(values: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The FNV-1a fold taken a 64-bit word at a time over the bit patterns of
/// `values`: equal digests mean bit-identical fields. Eight times cheaper
/// than the byte-wise form, which matters because every timed op's output
/// is hashed between ops.
pub fn fnv_field(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| (h ^ v.to_bits()).wrapping_mul(FNV_PRIME))
}

/// Order-sensitive fold of several output digests into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(FNV_OFFSET, |h, d| {
        (h.rotate_left(17) ^ d).wrapping_mul(FNV_PRIME)
    })
}

/// Largest point-wise absolute difference.
pub fn linf(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "L-inf over fields of different size");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Row-major crop of `[lo, hi)` out of a 2-D field of side `n`.
pub fn crop_2d(field: &[f64], n: usize, lo: [usize; 2], hi: [usize; 2]) -> Vec<f64> {
    (lo[0]..hi[0])
        .flat_map(|x| field[x * n + lo[1]..x * n + hi[1]].iter().copied())
        .collect()
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// Peak resident set size (`VmHWM`) of this process in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process in ms (`/proc/self/stat` fields
/// 14 and 15, at the Linux default of 100 ticks per second).
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may contain spaces; fields after
            // its closing parenthesis are space-separated.
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(fnv_bytes(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv_bytes(b"foobar"), 0x85944171f73967e8);
        // The field digest is the byte digest of the little-endian bits.
        let v = [1.5f64, -0.0, f64::MIN_POSITIVE];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
        assert_eq!(fnv_field_bytes(&v), fnv_bytes(&bytes));
        // The word-wise digest separates bit patterns, not values.
        assert_ne!(fnv_field(&[0.0]), fnv_field(&[-0.0]));
        assert_ne!(fnv_field(&[1.0, 2.0]), fnv_field(&[2.0, 1.0]));
        assert_eq!(fnv_field(&[]), 0xcbf29ce484222325);
    }

    #[test]
    fn fold_is_order_sensitive() {
        assert_ne!(fold_digests([1, 2]), fold_digests([2, 1]));
        assert_ne!(fold_digests([1]), fold_digests([1, 1]));
    }

    #[test]
    fn crop_takes_the_requested_rows_and_columns() {
        let f: Vec<f64> = (0..16).map(f64::from).collect();
        assert_eq!(crop_2d(&f, 4, [1, 2], [3, 4]), vec![6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn process_counters_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_ms() >= 0.0);
        }
    }
}
