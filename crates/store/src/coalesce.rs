//! Range coalescing: merge adjacent or near-adjacent byte ranges into
//! batched reads.
//!
//! The decoder requests one range per chunk. Because a retrieval plan loads
//! the *top* planes of each level and the container stores planes
//! low-to-high, those chunk ranges form long contiguous runs at the tail of
//! every level's payload — per-chunk GETs against an object store would pay
//! per-request latency dozens of times for bytes that are physically
//! adjacent. [`coalesce_ranges`] merges runs whose gap is at most a
//! configurable threshold (paying for the gap bytes to save a request), and
//! [`CoalescingSource`] applies that transparently under any consumer.
//!
//! The gap rule is optimal only over the ranges of *one call* — "merge iff
//! gap < latency × bandwidth" minimises `gets × latency + bytes ÷ bandwidth`
//! for a sorted list, and says nothing about ranges it never sees together.
//! What a call contains is decided above this layer: a retrieval hands the
//! stack one `read_ranges` per **fetch group** of its lowered plan
//! (`ipcomp::planner::fetch_groups`, read by the request's fetch), and
//! groups span level and archive-step boundaries only within a byte budget
//! of a sixteenth of the plan — because at an object store's break-even gap
//! (1 MB) merging a whole request would read 1.3–2.2× its planned bytes.
//! This layer's rule is unchanged by that; it simply gets to apply it to
//! ranges that used to arrive in separate calls.

use std::time::Duration;

use ipcomp::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource};
use ipcomp::Result;

/// Where a requested range landed inside the coalesced read list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeSlice {
    /// Index into the coalesced range list.
    pub read: usize,
    /// Byte offset of the requested range inside that read.
    pub offset: usize,
}

/// Merge `ranges` into the minimal list of batched reads such that two
/// ranges share a read iff the gap between them is at most `max_gap` bytes.
/// Returns the batched reads (sorted by offset) and, for every input range,
/// where it lives inside them. Input order and overlap are arbitrary;
/// zero-length ranges resolve to empty slices of whichever read is current.
pub fn coalesce_ranges(ranges: &[ByteRange], max_gap: u64) -> (Vec<ByteRange>, Vec<RangeSlice>) {
    if ranges.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_by_key(|&i| (ranges[i].offset, ranges[i].len));

    let mut reads: Vec<ByteRange> = Vec::new();
    let mut slices = vec![RangeSlice { read: 0, offset: 0 }; ranges.len()];
    for &i in &order {
        let r = ranges[i];
        let extend = match reads.last() {
            Some(last) => r.offset <= last.end().saturating_add(max_gap),
            None => false,
        };
        if extend {
            let last = reads.last_mut().expect("non-empty");
            let new_end = last.end().max(r.end());
            last.len = (new_end - last.offset) as usize;
        } else {
            reads.push(r);
        }
        let read = reads.len() - 1;
        slices[i] = RangeSlice {
            read,
            offset: (r.offset - reads[read].offset) as usize,
        };
    }
    (reads, slices)
}

/// A [`ChunkSource`] wrapper that answers per-chunk range requests by
/// issuing coalesced batched reads to the wrapped source and slicing the
/// results back out (zero-copy via [`Bytes`]).
pub struct CoalescingSource<S> {
    inner: S,
    max_gap: u64,
}

/// The break-even gap of a backend traffic model: bridging a gap pays
/// `gap / throughput` in transfer time to save one request's fixed
/// `latency`, so merging wins exactly while `gap ≤ latency × throughput`.
/// The paper-style object store (5 ms per GET, 200 MB/s) breaks even at
/// 1 MB — ~250× the 4 KiB threshold that suits a local disk. A
/// latency-only model (zero/non-finite throughput) merges unconditionally.
pub fn traffic_model_gap(latency_per_request: Duration, throughput_bytes_per_sec: f64) -> u64 {
    if !(throughput_bytes_per_sec.is_finite() && throughput_bytes_per_sec > 0.0) {
        return u64::MAX;
    }
    (latency_per_request.as_secs_f64() * throughput_bytes_per_sec) as u64
}

impl<S: ChunkSource> CoalescingSource<S> {
    /// Coalesce requests whose gap is at most `max_gap` bytes.
    pub fn new(inner: S, max_gap: u64) -> Self {
        Self { inner, max_gap }
    }

    /// The configured gap threshold.
    pub fn max_gap(&self) -> u64 {
        self.max_gap
    }
}

impl<S: ChunkSource> ChunkSource for CoalescingSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        let (reads, slices) = coalesce_ranges(ranges, self.max_gap);
        let m = crate::obs::metrics();
        m.coalesce_ranges_in.add(ranges.len() as u64);
        m.coalesce_reads_out.add(reads.len() as u64);
        let bufs = read_ranges_exact(&self.inner, &reads)?;
        Ok(ranges
            .iter()
            .zip(&slices)
            .map(|(r, s)| bufs[s.read].slice(s.offset..s.offset + r.len))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcomp::source::MemorySource;

    #[test]
    fn adjacent_ranges_merge_and_gaps_split() {
        let ranges = [
            ByteRange::new(0, 10),
            ByteRange::new(10, 10),
            ByteRange::new(25, 5),  // gap of 5 from 20
            ByteRange::new(100, 4), // far away
        ];
        let (reads, _) = coalesce_ranges(&ranges, 0);
        assert_eq!(
            reads,
            vec![
                ByteRange::new(0, 20),
                ByteRange::new(25, 5),
                ByteRange::new(100, 4)
            ]
        );
        let (reads, _) = coalesce_ranges(&ranges, 5);
        assert_eq!(reads, vec![ByteRange::new(0, 30), ByteRange::new(100, 4)]);
    }

    #[test]
    fn unsorted_and_overlapping_inputs_resolve_correctly() {
        let data: Vec<u8> = (0..=255).collect();
        let src = CoalescingSource::new(MemorySource::new(data.clone()), 8);
        let ranges = [
            ByteRange::new(40, 8),
            ByteRange::new(0, 16),
            ByteRange::new(8, 16), // overlaps the previous
            ByteRange::new(200, 0),
        ];
        let bufs = src.read_ranges(&ranges).unwrap();
        for (r, b) in ranges.iter().zip(&bufs) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
        }
    }

    #[test]
    fn traffic_model_gap_matches_break_even() {
        // 5 ms × 200 MB/s = 1 MB break-even.
        assert_eq!(
            traffic_model_gap(Duration::from_millis(5), 200e6),
            1_000_000
        );
        // Local NVMe-ish: 100 µs × 2 GB/s = 200 KB.
        assert_eq!(traffic_model_gap(Duration::from_micros(100), 2e9), 200_000);
        // Latency-only models merge everything.
        assert_eq!(traffic_model_gap(Duration::from_millis(5), 0.0), u64::MAX);
    }

    #[test]
    fn coalescing_reduces_inner_request_count() {
        use crate::sim::{SimProfile, SimulatedObjectStore};
        let sim = SimulatedObjectStore::new(MemorySource::new(vec![0u8; 4096]), SimProfile::free());
        let src = CoalescingSource::new(&sim, 16);
        let ranges: Vec<ByteRange> = (0..32).map(|i| ByteRange::new(i * 64, 64)).collect();
        src.read_ranges(&ranges).unwrap();
        assert_eq!(sim.stats().requests, 1, "fully contiguous run is one GET");
    }
}
