//! Whole-payload collapse for small containers: below the backend's
//! latency/throughput break-even, ranged retrieval *loses* on wall-clock —
//! every GET pays the fixed latency, and a container smaller than
//! `latency × throughput` transfers in less time than one extra round trip
//! costs. The ROADMAP carried this as an honest caveat since PR 3; this
//! source closes it by turning the whole plan into **one** backend GET.
//!
//! [`WholeReadSource`] fetches the entire container on first use (a single
//! `read_ranges` of `[0, len)` against the wrapped source) and serves every
//! subsequent range as a zero-copy slice of that one buffer. The decoder,
//! planner, and session stack above are unchanged — they still request
//! exact chunk ranges, the backend just sees one request total. See
//! [`crate::session::StoreOptions::whole_read_below`] for the policy switch
//! that picks this layer, and [`crate::traffic_model_gap`] for the
//! break-even threshold it is compared against.

use std::sync::Mutex;

use ipcomp::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource};
use ipcomp::{IpcompError, Result};

/// A [`ChunkSource`] that materializes the wrapped source with one
/// whole-payload read and answers all range requests from memory.
pub struct WholeReadSource<S> {
    inner: S,
    len: u64,
    /// Fetched lazily so merely opening a store does not pay the transfer;
    /// `ContainerStore` parses metadata through the same collapsed source,
    /// so in practice the single GET happens at open time.
    payload: Mutex<Option<Bytes>>,
}

impl<S: ChunkSource> WholeReadSource<S> {
    /// Collapse all reads of `inner` into one whole-payload fetch.
    pub fn new(inner: S) -> Self {
        let len = inner.len();
        Self {
            inner,
            len,
            payload: Mutex::new(None),
        }
    }

    /// Whether the single backend fetch has happened yet.
    pub fn is_resident(&self) -> bool {
        self.payload.lock().expect("whole-read lock").is_some()
    }

    fn payload(&self) -> Result<Bytes> {
        let mut slot = self.payload.lock().expect("whole-read lock");
        if let Some(b) = slot.as_ref() {
            return Ok(b.clone());
        }
        let whole = ByteRange::new(0, self.len as usize);
        let mut bufs = read_ranges_exact(&self.inner, std::slice::from_ref(&whole))?;
        let bytes = bufs.pop().expect("one buffer per range");
        *slot = Some(bytes.clone());
        Ok(bytes)
    }
}

impl<S: ChunkSource> ChunkSource for WholeReadSource<S> {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        let payload = self.payload()?;
        ranges
            .iter()
            .map(|r| {
                if r.end() > self.len {
                    return Err(IpcompError::InvalidInput(format!(
                        "range {}..{} beyond container of {} bytes",
                        r.offset,
                        r.end(),
                        self.len
                    )));
                }
                Ok(payload.slice(r.offset as usize..r.end() as usize))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimProfile, SimulatedObjectStore};
    use ipcomp::source::MemorySource;

    #[test]
    fn all_ranges_served_from_one_backend_get() {
        let data: Vec<u8> = (0..=255).cycle().take(4096).map(|v| v as u8).collect();
        let sim = SimulatedObjectStore::new(MemorySource::new(data.clone()), SimProfile::free());
        let whole = WholeReadSource::new(&sim);
        assert!(!whole.is_resident());
        let ranges = [
            ByteRange::new(0, 16),
            ByteRange::new(4000, 96),
            ByteRange::new(128, 0),
        ];
        let bufs = whole.read_ranges(&ranges).unwrap();
        for (r, b) in ranges.iter().zip(&bufs) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
        }
        whole.read_ranges(&[ByteRange::new(512, 512)]).unwrap();
        let s = sim.stats();
        assert_eq!(s.requests, 1, "exactly one backend GET");
        assert_eq!(s.bytes, 4096);
        assert!(whole.is_resident());
    }

    #[test]
    fn out_of_bounds_range_is_a_bounded_error() {
        let whole = WholeReadSource::new(MemorySource::new(vec![1u8; 64]));
        assert!(whole.read_ranges(&[ByteRange::new(32, 64)]).is_err());
        // In-bounds still works afterwards.
        assert_eq!(
            whole.read_ranges(&[ByteRange::new(32, 32)]).unwrap()[0].len(),
            32
        );
    }

    #[test]
    fn short_backend_read_surfaces_as_error_not_panic() {
        use crate::sim::{Fault, FaultSource};
        let sim = SimulatedObjectStore::new(
            FaultSource::new(MemorySource::new(vec![1u8; 64]), Fault::ShortReadAfter(0)),
            SimProfile::free(),
        );
        let whole = WholeReadSource::new(&sim);
        assert!(whole.read_ranges(&[ByteRange::new(0, 16)]).is_err());
        assert!(!whole.is_resident(), "truncated payload must not be kept");
    }
}
