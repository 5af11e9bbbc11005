//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! log-linear histograms.
//!
//! Everything here is plain atomics — recording a sample is a handful of
//! relaxed adds with no locking, allocation, or branching on contended
//! state, so the primitives are safe to put on decode hot paths.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event/byte counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add `n` (one relaxed add).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (benchmark harness epochs; not a hot-path operation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (queue depths, residency).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^4 = 16 log-linear sub-buckets per octave, so a
/// bucket's width is at most 1/16 (6.25%) of its lower bound — percentile
/// estimates carry at most that relative error.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values `0..SUB` get exact unit buckets; every octave `[2^o, 2^(o+1))` for
/// `o >= SUB_BITS` gets `SUB` equal sub-buckets.
pub(crate) const NBUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = ((v >> (octave - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    ((octave - SUB_BITS) as usize + 1) * SUB + sub
}

/// Inclusive `[lower, upper]` value range of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64);
    }
    let octave = (idx / SUB) as u32 + SUB_BITS - 1;
    let sub = (idx % SUB) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let lower = (1u64 << octave) + sub * width;
    // `width - 1` first: the top bucket's upper bound is exactly u64::MAX,
    // so `lower + width` would overflow.
    (lower, lower + (width - 1))
}

/// A fixed-bucket log-linear histogram of `u64` samples (durations in
/// nanoseconds, byte counts). Recording is three relaxed adds plus two
/// relaxed min/max updates; there are no locks and no allocation after
/// construction. Percentiles are exact to within one bucket width (≤ 6.25%
/// relative) and clamped to the observed min/max.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time copy for percentile math, merging, and
    /// export. (Consistency is per-field relaxed — exact once concurrent
    /// writers quiesce, which is when snapshots are taken.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]` (see
    /// [`HistogramSnapshot::percentile`]).
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }

    /// Reset all state to empty (benchmark harness epochs).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Owned copy of a [`Histogram`]'s state: mergeable, queryable, exportable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (empty for [`HistogramSnapshot::empty`]).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `floor(q * (count - 1))`, clamped
    /// to the observed `[min, max]`. Within one bucket width (≤ 6.25%
    /// relative) of the exact order statistic; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                let (_, upper) = bucket_bounds(idx);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other`'s samples into this snapshot. Merging snapshots and then
    /// querying is identical to having recorded every sample into one
    /// histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (d, &s) in self.buckets.iter_mut().zip(&other.buckets) {
            *d += s;
        }
    }

    /// Stable JSON object summarizing the distribution — the per-histogram
    /// payload of the registry snapshot schema.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}}}",
            self.count,
            self.sum,
            self.mean(),
            if self.count == 0 { 0 } else { self.min },
            self.max,
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.95),
            self.percentile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_invert() {
        let mut samples = vec![0u64];
        for shift in 0u32..64 {
            let base = 1u64 << shift;
            for off in [0u64, 1, base / 3, base / 2, base - 1] {
                samples.push(base.saturating_add(off));
            }
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        let mut last = 0usize;
        for &v in &samples {
            let idx = bucket_index(v);
            assert!(idx < NBUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "v={v} idx={idx} last={last}");
            last = idx;
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn percentiles_track_exact_order_statistics() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let est = h.percentile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err <= 1.0 / 16.0 + 1e-9, "q={q} est={est} exact={exact}");
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(1.0), 1000);
    }
}
