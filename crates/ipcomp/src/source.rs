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
//! `ipc_store` crate and compose through this same trait; the decoder only
//! ever issues per-chunk ranges and lets the source stack decide how they
//! hit the wire.
//!
//! Buffers travel as [`Bytes`] — a cheaply sliceable reference into shared
//! storage — so an in-memory backend and every cache layer above it stay
//! zero-copy.

use std::ops::Range;
use std::sync::{Arc, Mutex};

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

/// A fixed byte window of a parent source, exposed as a [`ChunkSource`] of
/// its own.
///
/// The archive container (format v4) embeds one standard per-step container
/// after another; an `OffsetSource` makes each embedded container addressable
/// with container-local offsets, so [`crate::ContainerMap`] and the
/// progressive decoder work on it unchanged. Reads translate to
/// parent-absolute offsets before they hit the parent, which means any cache
/// or coalescing layer *below* the window still sees one shared key space —
/// exactly what lets consecutive-step retrievals deduplicate the chunks they
/// have in common.
#[derive(Clone)]
pub struct OffsetSource<S> {
    inner: S,
    offset: u64,
    len: u64,
}

impl<S: ChunkSource> OffsetSource<S> {
    /// View `len` bytes of `inner` starting at `offset`.
    ///
    /// Fails if the window exceeds the parent, so a corrupt archive
    /// directory surfaces here instead of as an out-of-bounds read later.
    pub fn new(inner: S, offset: u64, len: u64) -> Result<Self> {
        if offset.checked_add(len).is_none_or(|end| end > inner.len()) {
            return Err(IpcompError::CorruptContainer(
                "window beyond end of parent source",
            ));
        }
        Ok(Self { inner, offset, len })
    }
}

impl<S: ChunkSource> ChunkSource for OffsetSource<S> {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        let mut shifted = Vec::with_capacity(ranges.len());
        for r in ranges {
            if r.end() > self.len {
                return Err(IpcompError::CorruptContainer(
                    "byte range beyond end of window",
                ));
            }
            shifted.push(ByteRange::new(self.offset + r.offset, r.len));
        }
        self.inner.read_ranges(&shifted)
    }
}

/// A request's planned reads, fetched one **group** at a time.
///
/// The decoder asks its source for a level's (or a chunk region's, or a
/// precinct run's) ranges when it reaches them; issued as they come, ranges
/// that are byte-adjacent across a level or step boundary never share a
/// `read_ranges` call, so no coalescing layer below can merge them. A
/// `PlannedSource` is built once per request from the lowered plan, cut into
/// fetch groups ([`crate::planner::fetch_groups`]): the first touch of any
/// range of a group fetches the *whole group* with a single
/// [`read_ranges_exact`] on the wrapped source — where the cache sees today's
/// per-chunk keys and the coalescer applies its own gap rule to all of them
/// at once — and every later read of the group is a zero-copy [`Bytes`]
/// clone. A range the plan does not hold passes through untouched.
///
/// Groups are lazy and short-lived: nothing is fetched before the decoder
/// touches it (so streaming and per-level / per-step rollback are as
/// before), a failed fetch leaves the group unfetched (the load that touched
/// it fails; a retry fetches again), and a group's buffers are dropped once
/// every one of its ranges has been served as often as the plan listed it.
pub struct PlannedSource<S> {
    inner: S,
    /// Every distinct planned range with its `(group, slot)`, sorted by range.
    index: Vec<(ByteRange, usize, usize)>,
    groups: Vec<Mutex<FetchGroup>>,
}

struct FetchGroup {
    /// The group's distinct ranges, sorted.
    ranges: Vec<ByteRange>,
    /// Serves still owed per range: how often the plan listed it.
    owed: Vec<usize>,
    /// Ranges with serves still owed; the buffers go when this reaches zero.
    unserved: usize,
    /// One buffer per range while the group is resident.
    bufs: Option<Vec<Bytes>>,
}

impl<S: ChunkSource> PlannedSource<S> {
    /// Serve `groups` — each the planned ranges one `read_ranges` should
    /// fetch, a range repeated once per planned read of it — from `inner`.
    pub fn new(inner: S, groups: Vec<Vec<ByteRange>>) -> Self {
        let mut index = Vec::new();
        let groups = groups
            .into_iter()
            .enumerate()
            .map(|(g, mut planned)| {
                planned.sort_unstable();
                let (mut ranges, mut owed) = (Vec::new(), Vec::new());
                for r in planned {
                    if ranges.last() == Some(&r) {
                        *owed.last_mut().expect("parallel to ranges") += 1;
                    } else {
                        index.push((r, g, ranges.len()));
                        ranges.push(r);
                        owed.push(1);
                    }
                }
                Mutex::new(FetchGroup {
                    unserved: ranges.len(),
                    ranges,
                    owed,
                    bufs: None,
                })
            })
            .collect();
        index.sort_unstable();
        Self {
            inner,
            index,
            groups,
        }
    }

    /// The buffer of slot `slot` of group `g`, fetching the group on its
    /// first touch; `None` once the group has been served out and dropped.
    fn serve(&self, g: usize, slot: usize) -> Result<Option<Bytes>> {
        let mut group = self.groups[g].lock().expect("fetch group lock");
        if group.unserved == 0 {
            return Ok(None);
        }
        if group.bufs.is_none() {
            group.bufs = Some(read_ranges_exact(&self.inner, &group.ranges)?);
        }
        let buf = group.bufs.as_ref().expect("just fetched")[slot].clone();
        if group.owed[slot] > 0 {
            group.owed[slot] -= 1;
            if group.owed[slot] == 0 {
                group.unserved -= 1;
                if group.unserved == 0 {
                    group.bufs = None;
                }
            }
        }
        Ok(Some(buf))
    }
}

impl<S: ChunkSource> ChunkSource for PlannedSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        let mut unplanned = Vec::new();
        let mut out = Vec::with_capacity(ranges.len());
        for r in ranges {
            let planned = match self.index.binary_search_by_key(r, |e| e.0) {
                Ok(i) => self.serve(self.index[i].1, self.index[i].2)?,
                Err(_) => None,
            };
            if planned.is_none() {
                unplanned.push(*r);
            }
            out.push(planned);
        }
        let mut passed = if unplanned.is_empty() {
            Vec::new()
        } else {
            self.inner.read_ranges(&unplanned)?
        }
        .into_iter();
        out.into_iter()
            .map(|b| {
                b.or_else(|| passed.next())
                    .ok_or(IpcompError::CorruptContainer(
                        "source returned wrong buffer count",
                    ))
            })
            .collect()
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

    /// Counts `read_ranges` calls and can be told to fail them.
    struct Counting {
        inner: MemorySource,
        calls: std::sync::atomic::AtomicUsize,
        failing: std::sync::atomic::AtomicBool,
    }

    impl Counting {
        fn new(len: usize) -> Self {
            Self {
                inner: MemorySource::new((0..len).map(|i| i as u8).collect()),
                calls: Default::default(),
                failing: Default::default(),
            }
        }
        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl ChunkSource for Counting {
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
            use std::sync::atomic::Ordering::SeqCst;
            self.calls.fetch_add(1, SeqCst);
            if self.failing.load(SeqCst) {
                return Err(IpcompError::Io("injected outage".into()));
            }
            self.inner.read_ranges(ranges)
        }
    }

    fn r(offset: u64, len: usize) -> ByteRange {
        ByteRange::new(offset, len)
    }

    fn check(bufs: &[Bytes], ranges: &[ByteRange]) {
        assert_eq!(bufs.len(), ranges.len());
        for (b, range) in bufs.iter().zip(ranges) {
            let want: Vec<u8> = (range.offset..range.end()).map(|i| i as u8).collect();
            assert_eq!(&b[..], &want[..], "{range:?}");
        }
    }

    #[test]
    fn planned_source_reads_each_group_once_whatever_the_touch_order() {
        let inner = Counting::new(256);
        let (a, b) = (
            vec![r(0, 8), r(8, 8), r(40, 4)],
            vec![r(100, 16), r(130, 2)],
        );
        let src = PlannedSource::new(&inner, vec![a.clone(), b.clone()]);
        assert_eq!(src.len(), 256);
        // Second group first, out of order, one range repeated, then the
        // first group split over two calls: still one inner read per group.
        check(&src.read_ranges(&[b[1], b[1]]).unwrap(), &[b[1], b[1]]);
        assert_eq!(inner.calls(), 1);
        check(&src.read_ranges(&[a[2], a[0]]).unwrap(), &[a[2], a[0]]);
        check(&src.read_ranges(&[b[0], a[1]]).unwrap(), &[b[0], a[1]]);
        assert_eq!(inner.calls(), 2);
        // Slices share the group's buffers rather than copying them.
        let again = PlannedSource::new(&inner, vec![a.clone()]);
        let bufs = again.read_ranges(&a[..2]).unwrap();
        assert!(bufs.iter().all(|b| b.backing_len() == 256));
    }

    #[test]
    fn planned_source_passes_unplanned_ranges_through_in_request_order() {
        let inner = Counting::new(256);
        let src = PlannedSource::new(&inner, vec![vec![r(0, 8), r(8, 8)]]);
        // A stranger, a planned range, a sub-range of a planned one (not an
        // exact match, so also a stranger): one group read, one pass-through.
        let ask = [r(200, 5), r(8, 8), r(2, 3)];
        check(&src.read_ranges(&ask).unwrap(), &ask);
        assert_eq!(inner.calls(), 2);
        // Out of bounds is the wrapped source's error, planned groups or not.
        assert!(src.read_ranges(&[r(250, 7)]).is_err());
        assert!(src.read_ranges(&[r(0, 8), r(256, 1)]).is_err());
    }

    #[test]
    fn planned_source_releases_a_group_after_its_last_owed_serve() {
        let inner = Counting::new(256);
        // `r(0, 8)` is planned twice (two decodes read it), `r(8, 8)` once.
        let src = PlannedSource::new(&inner, vec![vec![r(0, 8), r(8, 8), r(0, 8)]]);
        let resident =
            |src: &PlannedSource<&Counting>| src.groups[0].lock().unwrap().bufs.is_some();
        src.read_ranges(&[r(0, 8), r(8, 8)]).unwrap();
        assert!(resident(&src), "one serve of r(0, 8) is still owed");
        src.read_ranges(&[r(0, 8)]).unwrap();
        assert!(!resident(&src), "served out: the buffers are dropped");
        assert_eq!(inner.calls(), 1);
        // A late touch is an unplanned read, not a refetch of the group.
        check(&src.read_ranges(&[r(8, 8)]).unwrap(), &[r(8, 8)]);
        assert_eq!(inner.calls(), 2);
        assert!(!resident(&src));
    }

    #[test]
    fn planned_source_failed_group_is_refetched_after_the_source_heals() {
        use std::sync::atomic::Ordering::SeqCst;
        let inner = Counting::new(256);
        let src = PlannedSource::new(&inner, vec![vec![r(0, 8)], vec![r(64, 8), r(80, 8)]]);
        src.read_ranges(&[r(0, 8)]).unwrap();
        inner.failing.store(true, SeqCst);
        assert!(src.read_ranges(&[r(64, 8)]).is_err());
        assert!(src.groups[1].lock().unwrap().bufs.is_none());
        // The group that was already resident is unaffected by the outage...
        inner.failing.store(false, SeqCst);
        let calls = inner.calls();
        // ...and the failed one is fetched again, whole, on the retry.
        check(
            &src.read_ranges(&[r(64, 8), r(80, 8)]).unwrap(),
            &[r(64, 8), r(80, 8)],
        );
        assert_eq!(inner.calls(), calls + 1);

        // A short read is a failed fetch too: nothing undersized stays resident.
        struct Short(MemorySource);
        impl ChunkSource for Short {
            fn len(&self) -> u64 {
                self.0.len()
            }
            fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
                let bufs = self.0.read_ranges(ranges)?;
                Ok(bufs.into_iter().map(|b| b.slice(0..b.len() / 2)).collect())
            }
        }
        let src = PlannedSource::new(Short(MemorySource::new(vec![0; 64])), vec![vec![r(0, 8)]]);
        assert!(src.read_ranges(&[r(0, 8)]).is_err());
        assert!(src.groups[0].lock().unwrap().bufs.is_none());
    }

    #[test]
    fn planned_source_concurrent_touches_fetch_a_group_once() {
        // Both threads pass the barrier before either touches the group, so
        // the touches race; the group's lock makes the loser wait for the
        // winner's fetch instead of issuing its own.
        let inner = Counting::new(256);
        let barrier = std::sync::Barrier::new(2);
        let group = vec![r(0, 16), r(32, 16)];
        let src = PlannedSource::new(&inner, vec![group.clone()]);
        std::thread::scope(|s| {
            for range in &group {
                let (src, barrier) = (&src, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    check(&src.read_ranges(&[*range]).unwrap(), &[*range]);
                });
            }
        });
        assert_eq!(inner.calls(), 1);
    }
}
