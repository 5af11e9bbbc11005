//! Object-store simulator: wraps any [`ChunkSource`] with a configurable
//! per-request cost model and request accounting, so benchmarks can model
//! S3-like access — every range is one GET with fixed latency plus a
//! throughput term — on a single box; [`FaultSource`] injects short reads
//! for hardening tests.
//!
//! The simulated clock is accounted unconditionally (and readable via
//! [`SimulatedObjectStore::stats`]); actually sleeping for it is opt-in so CI
//! smoke runs stay fast while local benchmark runs can produce wall-clock
//! numbers too.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ipc_telemetry::{Clock, Counter, ManualClock};
use ipcomp::source::{ByteRange, Bytes, ChunkSource};
use ipcomp::Result;

/// Cost model of one simulated remote store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimProfile {
    /// Fixed cost charged per requested range (one range = one GET).
    pub latency_per_request: Duration,
    /// Transfer rate; `0.0` means infinitely fast (latency-only model).
    pub throughput_bytes_per_sec: f64,
    /// Actually sleep for the simulated time instead of only accounting it.
    pub real_sleep: bool,
}

impl SimProfile {
    /// The paper-style default: 5 ms per request, 200 MB/s, accounting only.
    pub fn object_store() -> Self {
        Self {
            latency_per_request: Duration::from_millis(5),
            throughput_bytes_per_sec: 200e6,
            real_sleep: false,
        }
    }

    /// Free access — counts requests without charging time.
    pub fn free() -> Self {
        Self {
            latency_per_request: Duration::ZERO,
            throughput_bytes_per_sec: 0.0,
            real_sleep: false,
        }
    }
}

/// Fault injection applied to returned buffers by a [`FaultSource`].
///
/// The request index the fault triggers on counts the requests issued
/// through that one wrapper, so it is deterministic: wrap one session's
/// stack to fault exactly that session's nth request. Under a
/// [`SimulatedObjectStore`] (`SimulatedObjectStore::new(FaultSource::new(inner,
/// fault), profile)`) it sees the simulator's request indices, because the
/// simulator forwards each batch whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Honest backend.
    None,
    /// Every range request with index `>= after` returns only the first
    /// half of its bytes — the kind of silent truncation an interrupted
    /// transfer produces. Consumers must surface a bounded error, never
    /// panic.
    ShortReadAfter(u64),
}

impl Fault {
    /// Apply the fault to one batch of returned buffers, where
    /// `first_index` is the request index of `bufs[0]` under the applying
    /// wrapper's counter.
    fn apply(self, first_index: u64, bufs: Vec<Bytes>) -> Vec<Bytes> {
        match self {
            Fault::None => bufs,
            Fault::ShortReadAfter(after) => bufs
                .into_iter()
                .enumerate()
                .map(|(i, b)| {
                    if first_index + i as u64 >= after && !b.is_empty() {
                        let keep = b.len() / 2;
                        b.slice(0..keep)
                    } else {
                        b
                    }
                })
                .collect(),
        }
    }
}

/// Cumulative counters of one simulated store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Individual range requests served (each modeling one GET).
    pub requests: u64,
    /// `read_ranges` batches served.
    pub batches: u64,
    /// Payload bytes returned.
    pub bytes: u64,
    /// Total simulated transfer time in seconds.
    pub simulated_secs: f64,
}

/// A [`ChunkSource`] wrapper that charges a latency/throughput cost per
/// range and counts traffic.
pub struct SimulatedObjectStore<S> {
    inner: S,
    profile: SimProfile,
    requests: Counter,
    batches: Counter,
    bytes: Counter,
    /// Simulated time, exposed as an injectable [`Clock`] so trace spans can
    /// run on the same timeline the cost model charges
    /// ([`SimulatedObjectStore::clock`] + [`ipc_telemetry::set_clock`]).
    clock: ManualClock,
}

impl<S: ChunkSource> SimulatedObjectStore<S> {
    /// Wrap `inner` with the given cost model.
    pub fn new(inner: S, profile: SimProfile) -> Self {
        Self {
            inner,
            profile,
            requests: Counter::new(),
            batches: Counter::new(),
            bytes: Counter::new(),
            clock: ManualClock::new(),
        }
    }

    /// The simulated clock this store advances; clone shares the timeline.
    pub fn clock(&self) -> ManualClock {
        self.clock.clone()
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            requests: self.requests.get(),
            batches: self.batches.get(),
            bytes: self.bytes.get(),
            simulated_secs: self.clock.now_nanos() as f64 * 1e-9,
        }
    }

    /// Reset the traffic counters.
    pub fn reset_stats(&self) {
        self.requests.reset();
        self.batches.reset();
        self.bytes.reset();
        self.clock.set(0);
    }
}

impl<S: ChunkSource> ChunkSource for SimulatedObjectStore<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        self.requests.add(ranges.len() as u64);
        self.batches.incr();
        let total: u64 = ranges.iter().map(|r| r.len as u64).sum();
        self.bytes.add(total);
        let m = crate::obs::metrics();
        m.sim_requests.add(ranges.len() as u64);
        m.sim_bytes.add(total);

        let mut cost = self.profile.latency_per_request * ranges.len() as u32;
        if self.profile.throughput_bytes_per_sec > 0.0 {
            cost += Duration::from_secs_f64(total as f64 / self.profile.throughput_bytes_per_sec);
        }
        self.clock.advance(cost.as_nanos() as u64);
        if self.profile.real_sleep && !cost.is_zero() {
            std::thread::sleep(cost);
        }

        self.inner.read_ranges(ranges)
    }
}

/// Deterministic per-session fault injection: a [`ChunkSource`] wrapper
/// with its **own** request counter, so the fault's trigger index counts
/// only the requests issued through this wrapper. Wrap exactly one
/// session's view of a shared stack and that session — and no concurrent
/// peer — observes the fault on its nth request, reproducibly, however the
/// scheduler interleaves the fleet.
///
/// The fault is swappable at runtime ([`FaultSource::set_fault`]), which
/// models a transient backend: inject, observe the bounded error and
/// rollback, heal, and verify the retry completes bit-identically.
pub struct FaultSource<S> {
    inner: S,
    fault: Mutex<Fault>,
    requests: AtomicU64,
}

impl<S: ChunkSource> FaultSource<S> {
    /// Wrap `inner`, applying `fault` against this wrapper's own counter.
    pub fn new(inner: S, fault: Fault) -> Self {
        Self {
            inner,
            fault: Mutex::new(fault),
            requests: AtomicU64::new(0),
        }
    }

    /// Replace the active fault (e.g. heal with [`Fault::None`]). The
    /// request counter keeps running.
    pub fn set_fault(&self, fault: Fault) {
        *self.fault.lock().expect("fault lock") = fault;
    }

    /// Requests issued through this wrapper so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

impl<S: ChunkSource> ChunkSource for FaultSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        let first_index = self
            .requests
            .fetch_add(ranges.len() as u64, Ordering::Relaxed);
        let fault = *self.fault.lock().expect("fault lock");
        let bufs = self.inner.read_ranges(ranges)?;
        Ok(fault.apply(first_index, bufs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcomp::source::MemorySource;

    #[test]
    fn counts_requests_bytes_and_simulated_time() {
        let sim = SimulatedObjectStore::new(
            MemorySource::new(vec![7u8; 1000]),
            SimProfile {
                latency_per_request: Duration::from_millis(5),
                throughput_bytes_per_sec: 1000.0,
                real_sleep: false,
            },
        );
        sim.read_ranges(&[ByteRange::new(0, 100), ByteRange::new(500, 400)])
            .unwrap();
        let s = sim.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.batches, 1);
        assert_eq!(s.bytes, 500);
        // 2 × 5 ms latency + 500 B at 1000 B/s = 0.51 s.
        assert!(
            (s.simulated_secs - 0.51).abs() < 1e-9,
            "{}",
            s.simulated_secs
        );
        sim.reset_stats();
        assert_eq!(sim.stats().requests, 0);
    }

    #[test]
    fn short_read_fault_truncates_after_threshold() {
        let sim = SimulatedObjectStore::new(
            FaultSource::new(MemorySource::new(vec![1u8; 64]), Fault::ShortReadAfter(1)),
            SimProfile::free(),
        );
        let bufs = sim
            .read_ranges(&[ByteRange::new(0, 16), ByteRange::new(16, 16)])
            .unwrap();
        assert_eq!(bufs[0].len(), 16);
        assert_eq!(bufs[1].len(), 8);
        // And read_ranges_exact surfaces it as a bounded error.
        assert!(ipcomp::source::read_ranges_exact(&sim, &[ByteRange::new(0, 16)]).is_err());
    }

    #[test]
    fn fault_source_counts_per_wrapper_not_globally() {
        use std::sync::Arc;
        // One shared backend, two per-session fault wrappers: the fault
        // routes to each wrapper's own second request regardless of how the
        // other wrapper's traffic interleaves.
        let shared = Arc::new(MemorySource::new(vec![2u8; 256]));
        let a = FaultSource::new(Arc::clone(&shared) as Arc<dyn ChunkSource>, Fault::None);
        let b = FaultSource::new(
            Arc::clone(&shared) as Arc<dyn ChunkSource>,
            Fault::ShortReadAfter(1),
        );
        let r = [ByteRange::new(0, 32)];
        // Interleave traffic: a, b, a, b.
        assert_eq!(a.read_ranges(&r).unwrap()[0].len(), 32);
        assert_eq!(
            b.read_ranges(&r).unwrap()[0].len(),
            32,
            "b's request 0 is clean"
        );
        assert_eq!(a.read_ranges(&r).unwrap()[0].len(), 32);
        assert_eq!(
            b.read_ranges(&r).unwrap()[0].len(),
            16,
            "b's request 1 faults"
        );
        assert_eq!(a.read_ranges(&r).unwrap()[0].len(), 32, "a never faults");
        assert_eq!((a.requests(), b.requests()), (3, 2));
        // Healing stops further faults.
        b.set_fault(Fault::None);
        assert_eq!(b.read_ranges(&r).unwrap()[0].len(), 32);
    }
}
