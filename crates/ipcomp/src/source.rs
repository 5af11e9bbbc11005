//! Byte-range access to container storage.
//!
//! The version-2 container makes every `(level, plane, chunk)` triple
//! addressable from metadata alone; this module supplies the read side of
//! that bargain: a [`ChunkSource`] yields arbitrary byte ranges of one
//! serialized container, so retrieval can fetch exactly the chunk ranges a
//! plan needs instead of materializing the whole archive first.
//!
//! The trait is deliberately tiny — `len` plus a *batched* `read_ranges` —
//! because batching is where storage backends differ: an in-memory slice
//! answers each range for free, a file turns them into `pread`s, and an
//! object store wants adjacent ranges merged into as few GETs as possible.
//! Wrappers that coalesce, cache, or simulate remote latency live in the
//! `ipc_store` crate and compose through this same trait; the decoder reads
//! a request's per-chunk ranges in a few batched calls, one per fetch group
//! (`planner::RequestFetch`), and lets the source stack decide how they hit
//! the wire.
//!
//! Buffers travel as [`Bytes`] — a cheaply sliceable reference into shared
//! storage — so an in-memory backend and every cache layer above it stay
//! zero-copy.

use std::ops::Range;
use std::sync::Arc;

use crate::error::{IpcompError, Result};

/// One contiguous byte range of a serialized container. Ranges order by
/// offset, then length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteRange {
    /// Absolute offset of the first byte.
    pub offset: u64,
    /// Number of bytes.
    pub len: usize,
}

impl ByteRange {
    /// Construct a range from offset and length.
    pub fn new(offset: u64, len: usize) -> Self {
        Self { offset, len }
    }

    /// One past the last byte of the range.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// A cheaply cloneable, sliceable view into shared immutable bytes.
///
/// Sources return `Bytes` so that slicing a coalesced read back into
/// per-chunk buffers (and handing cache hits to several sessions at once)
/// never copies payload.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    range: Range<usize>,
}

impl Bytes {
    /// Wrap an owned buffer (one allocation hand-off, no further copies).
    pub fn from_vec(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v);
        let range = 0..data.len();
        Self { data, range }
    }

    /// Wrap shared storage in full.
    pub fn from_arc(data: Arc<[u8]>) -> Self {
        let range = 0..data.len();
        Self { data, range }
    }

    /// A sub-view of this buffer (zero-copy).
    ///
    /// # Panics
    ///
    /// Panics if `sub` is out of bounds — callers slice with ranges they
    /// computed from this buffer's own length.
    pub fn slice(&self, sub: Range<usize>) -> Bytes {
        assert!(
            sub.start <= sub.end && sub.end <= self.len(),
            "slice bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            range: (self.range.start + sub.start)..(self.range.start + sub.end),
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Size of the shared backing allocation this view keeps alive. A cache
    /// that retains small slices of large coalesced reads can use this to
    /// decide when storing the view would pin far more memory than it
    /// accounts for.
    pub fn backing_len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.range.clone()]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Ranged read access to one serialized container.
///
/// Implementations must be shareable across threads (decode fans out over
/// rayon) and should answer each requested range with **exactly** `range.len`
/// bytes; consumers re-validate through [`read_ranges_exact`] so a
/// misbehaving backend surfaces as a bounded [`IpcompError`], never a panic
/// or an over-read.
pub trait ChunkSource: Send + Sync {
    /// Total size of the container in bytes.
    fn len(&self) -> u64;

    /// Whether the container is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the given byte ranges; the result has one buffer per requested
    /// range, in request order.
    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>>;

    /// Convenience wrapper for a single range.
    fn read_range(&self, range: ByteRange) -> Result<Bytes> {
        let mut bufs = self.read_ranges(std::slice::from_ref(&range))?;
        bufs.pop()
            .ok_or(IpcompError::CorruptContainer("source returned no buffer"))
    }
}

impl<S: ChunkSource + ?Sized> ChunkSource for Arc<S> {
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        (**self).read_ranges(ranges)
    }
}

impl<S: ChunkSource + ?Sized> ChunkSource for &S {
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        (**self).read_ranges(ranges)
    }
}

/// Fetch `ranges` and verify every buffer has exactly the requested length.
///
/// All container-decoding paths go through this, so a backend that returns a
/// short (or long) read — a truncated object, a failing simulated store —
/// produces a clean [`IpcompError::CorruptContainer`] instead of feeding the
/// entropy decoders undersized buffers.
pub fn read_ranges_exact(source: &dyn ChunkSource, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
    let bufs = source.read_ranges(ranges)?;
    if bufs.len() != ranges.len() {
        return Err(IpcompError::CorruptContainer(
            "source returned wrong buffer count",
        ));
    }
    for (buf, range) in bufs.iter().zip(ranges) {
        if buf.len() != range.len {
            return Err(IpcompError::CorruptContainer("source returned short read"));
        }
    }
    Ok(bufs)
}

/// In-memory [`ChunkSource`] over a fully resident serialized container.
///
/// Every read is a zero-copy [`Bytes`] view of the shared buffer, so this
/// backend preserves the cost profile of the historical slice-based API while
/// exercising the exact code paths remote backends use.
#[derive(Clone)]
pub struct MemorySource {
    data: Arc<[u8]>,
}

impl MemorySource {
    /// Take ownership of a serialized container.
    pub fn new(data: Vec<u8>) -> Self {
        Self {
            data: Arc::from(data),
        }
    }

    /// Share an already-`Arc`ed container.
    pub fn from_arc(data: Arc<[u8]>) -> Self {
        Self { data }
    }
}

impl From<Vec<u8>> for MemorySource {
    fn from(v: Vec<u8>) -> Self {
        MemorySource::new(v)
    }
}

impl ChunkSource for MemorySource {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        let mut out = Vec::with_capacity(ranges.len());
        for r in ranges {
            if r.end() > self.data.len() as u64 {
                return Err(IpcompError::CorruptContainer(
                    "byte range beyond end of source",
                ));
            }
            out.push(
                Bytes::from_arc(Arc::clone(&self.data)).slice(r.offset as usize..r.end() as usize),
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slicing_is_zero_copy_and_bounded() {
        let b = Bytes::from_vec((0u8..32).collect());
        assert_eq!(b.len(), 32);
        let mid = b.slice(8..16);
        assert_eq!(&mid[..], &(8u8..16).collect::<Vec<_>>()[..]);
        let inner = mid.slice(2..4);
        assert_eq!(&inner[..], &[10, 11]);
    }

    #[test]
    #[should_panic(expected = "slice bounds")]
    fn bytes_out_of_range_slice_panics() {
        let b = Bytes::from_vec(vec![0; 4]);
        let _ = b.slice(2..6);
    }

    #[test]
    fn memory_source_reads_exact_ranges() {
        let data: Vec<u8> = (0..=255).collect();
        let src = MemorySource::new(data.clone());
        assert_eq!(src.len(), 256);
        let bufs = src
            .read_ranges(&[
                ByteRange::new(0, 4),
                ByteRange::new(250, 6),
                ByteRange::new(7, 0),
            ])
            .unwrap();
        assert_eq!(&bufs[0][..], &data[0..4]);
        assert_eq!(&bufs[1][..], &data[250..256]);
        assert!(bufs[2].is_empty());
    }

    #[test]
    fn memory_source_rejects_out_of_bounds() {
        let src = MemorySource::new(vec![0; 16]);
        assert!(src.read_ranges(&[ByteRange::new(10, 7)]).is_err());
        assert!(src.read_range(ByteRange::new(17, 0)).is_err());
    }

    #[test]
    fn read_ranges_exact_flags_short_reads() {
        struct Short;
        impl ChunkSource for Short {
            fn len(&self) -> u64 {
                100
            }
            fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
                Ok(ranges
                    .iter()
                    .map(|r| Bytes::from_vec(vec![0; r.len / 2]))
                    .collect())
            }
        }
        let err = read_ranges_exact(&Short, &[ByteRange::new(0, 8)]).unwrap_err();
        assert!(matches!(err, IpcompError::CorruptContainer(_)));
    }
}
