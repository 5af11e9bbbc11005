//! Byte-budgeted LRU cache over a [`ChunkSource`], with protected admission
//! for the hot coarse prefix and per-tenant admission quotas.
//!
//! Keys are the exact requested ranges. That is effective because the
//! decoder always addresses a given chunk by the same `(offset, len)` pair —
//! the chunk index is immutable — so every re-request of a chunk by another
//! session (or a refinement pass) is a guaranteed key match. The one
//! exception is a region retrieval, which reads each maximal run of
//! consecutive precinct ids it selects as a single range
//! (`planner::lower_plan` over a region): its keys are per run, so two
//! regions share an entry only where their precinct runs coincide, and a
//! region never hits the per-chunk entries a full-domain read admitted. The
//! cache sits
//! *above* coalescing in a source stack: hits are served per chunk without
//! touching the backend, and the misses of one batch flow down in a single
//! `read_ranges` call that the coalescer can still merge.
//!
//! **One lock**: the LRU map, the protected set, the per-tag ledger, the
//! quotas, the recency clock and the resident byte count live together
//! behind one mutex, so every ledger invariant (resident bytes equal the sum
//! of the per-tag residencies plus the untagged entries, the budget, each
//! quota) holds at every observation point. The miss fetch runs *outside*
//! the lock; admission retakes it and makes room before each insert.
//! [`CachedSource::stats`] is the sum of the per-tag slots, not a second set
//! of counters.
//!
//! **Admission/eviction policy**: ranges registered via
//! [`CachedSource::protect`] — in practice the top-plane chunks every client
//! touches first — are evicted only when no unprotected entry remains over
//! budget. Pure LRU failed exactly there: one client's one-shot sweep
//! through the low planes (a `Full` retrieval reads megabytes it will never
//! re-read) evicted the coarse prefix that every *other* client hits, so
//! fleet hit rates collapsed after each deep retrieval.
//!
//! **Tenancy**: reads can carry a [`CacheTag`] (see
//! [`CachedSource::read_ranges_tagged`] and the [`TaggedSource`] wrapper a
//! per-tenant session stack uses). Entries remember which tag admitted them,
//! and a tag can be given an *admission quota* ([`CachedSource::set_quota`]):
//! once the tag's resident bytes reach its quota, its new admissions recycle
//! its **own** least-recently-used unprotected entries instead of evicting
//! anyone else's — so one tenant's deep sweep can displace other tenants'
//! entries (and the protected coarse prefix) by at most its quota, however
//! many megabytes it streams through. Per-tag hit/miss/byte counters back
//! the service layer's per-tenant accounting.
//!
//! Concurrency: because the miss fetch happens outside the lock, two
//! sessions racing on the same cold chunk may both fetch it (the first
//! admission wins). That duplicates a read instead of serializing every
//! client behind remote latency — the right trade for a read-only cache.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use ipcomp::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource};
use ipcomp::Result;

/// Identifies the tenant (or session) a tagged read acts on behalf of.
pub type CacheTag = u32;

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Ranges served from the cache.
    pub hits: u64,
    /// Ranges fetched from the wrapped source.
    pub misses: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Ranges registered as protected (whether or not resident).
    pub protected_ranges: usize,
}

/// Per-tag counters and residency (see [`CachedSource::tag_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Ranges this tag's reads served from the cache.
    pub hits: u64,
    /// Ranges this tag's reads had to fetch from the wrapped source.
    pub misses: u64,
    /// Payload bytes of those missed ranges.
    pub miss_bytes: u64,
    /// Bytes currently resident that this tag's reads admitted.
    pub resident_bytes: usize,
}

/// Result of a tagged read: the payload plus which requested ranges missed,
/// so a caller can attribute backend cost (a simulated latency model, a
/// byte meter) to exactly the traffic this call generated.
#[derive(Debug, Clone)]
pub struct TaggedRead {
    /// One buffer per requested range, in request order.
    pub bytes: Vec<Bytes>,
    /// Indices (into the request slice) of ranges served by the wrapped
    /// source rather than the cache.
    pub missed: Vec<u32>,
}

struct CacheEntry {
    bytes: Bytes,
    tick: u64,
    owner: Option<CacheTag>,
}

/// Hit/miss accounting of one attribution slot (a tag, or the untagged
/// reads). This is the **only** bookkeeping — the cache-wide view in
/// [`CacheStats`] is the sum over slots, not a second set of counters.
#[derive(Default, Clone, Copy)]
struct TagCounters {
    hits: u64,
    misses: u64,
    miss_bytes: u64,
}

#[derive(Default)]
struct TagState {
    resident: usize,
    counts: TagCounters,
}

/// Everything the cache knows, behind its one lock.
#[derive(Default)]
struct CacheState {
    map: HashMap<ByteRange, CacheEntry>,
    /// Keys shielded from eviction while any unprotected victim exists.
    protected: HashSet<ByteRange>,
    tags: HashMap<CacheTag, TagState>,
    /// Accounting slot for reads that carry no tag.
    untagged: TagCounters,
    /// Per-tag admission quotas.
    quotas: HashMap<CacheTag, usize>,
    /// Recency clock; an entry's `tick` is the clock at its last touch.
    clock: u64,
    /// Bytes of every entry in `map`.
    resident: usize,
}

impl CacheState {
    fn slot(&mut self, tag: Option<CacheTag>) -> &mut TagCounters {
        match tag {
            Some(tag) => &mut self.tags.entry(tag).or_default().counts,
            None => &mut self.untagged,
        }
    }

    /// Remove `key`, keeping the global and per-owner residency in sync.
    fn remove_entry(&mut self, key: ByteRange) {
        if let Some(e) = self.map.remove(&key) {
            self.resident -= e.bytes.len();
            if let Some(t) = e.owner.and_then(|owner| self.tags.get_mut(&owner)) {
                t.resident = t.resident.saturating_sub(e.bytes.len());
            }
        }
    }

    /// Least-recently-used entry matching `pick`. The scan is linear in the
    /// entry count, which stays small (entries are chunk-sized, so a budget
    /// holds at most budget / chunk_size of them) — and runs only on the
    /// admission path, where the caller already paid backend latency.
    fn lru_victim(&self, pick: impl Fn(&ByteRange, &CacheEntry) -> bool) -> Option<ByteRange> {
        self.map
            .iter()
            .filter(|(k, e)| pick(k, e))
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| *k)
    }

    /// Make room for a `len`-byte admission under `budget` by evicting LRU
    /// *unprotected* entries. An admission of a protected key may fall back
    /// to evicting protected entries (so the byte budget still bounds memory
    /// when the protected set exceeds it); an unprotected admission is
    /// refused instead — a sweep never displaces the protected prefix.
    fn make_room(&mut self, budget: usize, len: usize, key_is_protected: bool) -> bool {
        if len > budget {
            return false;
        }
        while self.resident + len > budget {
            let victim = self
                .lru_victim(|k, _| !self.protected.contains(k))
                .or_else(|| {
                    key_is_protected
                        .then(|| self.lru_victim(|_, _| true))
                        .flatten()
                });
            match victim {
                Some(k) => self.remove_entry(k),
                None => return false,
            }
        }
        true
    }

    /// Make room for a `len`-byte admission by `tag` under its quota by
    /// evicting the tag's own LRU unprotected entries. Returns `false` (do
    /// not admit) when the quota cannot be met that way — the entry alone
    /// exceeds the quota, or everything the tag still holds is protected.
    fn make_tag_room(&mut self, tag: CacheTag, len: usize, quota: usize) -> bool {
        if len > quota {
            return false;
        }
        while self.tags.get(&tag).map_or(0, |t| t.resident) + len > quota {
            let victim =
                self.lru_victim(|k, e| e.owner == Some(tag) && !self.protected.contains(k));
            match victim {
                Some(k) => self.remove_entry(k),
                None => return false,
            }
        }
        true
    }

    /// Admit a fetched miss unless another thread (or an earlier duplicate
    /// in the same batch) admitted the key first, or no room can be made for
    /// it: a quota'd tag recycles its own entries, and oversized entries
    /// (and unprotected entries that would displace the protected prefix)
    /// bypass the cache.
    fn admit(&mut self, budget: usize, tag: Option<CacheTag>, key: ByteRange, buf: &Bytes) {
        if self.map.contains_key(&key) {
            return;
        }
        let quota = tag.and_then(|t| Some((t, *self.quotas.get(&t)?)));
        if let Some((tag, q)) = quota {
            if !self.make_tag_room(tag, key.len, q) {
                return;
            }
        }
        if !self.make_room(budget, key.len, self.protected.contains(&key)) {
            return;
        }
        // A coalescing layer below returns slices of one large merged read;
        // storing such a slice would pin the whole backing buffer while
        // `resident` counts only the slice. Copy into a right-sized
        // allocation so the byte budget bounds real memory (one chunk-sized
        // memcpy per miss).
        let stored = if buf.len() == buf.backing_len() {
            buf.clone()
        } else {
            Bytes::from_vec(buf.to_vec())
        };
        self.clock += 1;
        self.resident += stored.len();
        if let Some(tag) = tag {
            self.tags.entry(tag).or_default().resident += stored.len();
        }
        let entry = CacheEntry {
            bytes: stored,
            tick: self.clock,
            owner: tag,
        };
        self.map.insert(key, entry);
    }
}

/// A [`ChunkSource`] wrapper holding recently requested ranges in an LRU
/// cache with a byte budget, all of its state behind one lock.
pub struct CachedSource<S> {
    inner: S,
    budget: usize,
    state: Mutex<CacheState>,
}

impl<S: ChunkSource> CachedSource<S> {
    /// Cache up to `budget_bytes` of range payload.
    pub fn new(inner: S, budget_bytes: usize) -> Self {
        Self {
            inner,
            budget: budget_bytes,
            state: Mutex::new(CacheState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().expect("cache lock")
    }

    /// Register ranges whose entries should survive one-shot sweeps: they
    /// are evicted only when no unprotected entry is left to evict. Callers
    /// should keep the protected set comfortably below the byte budget
    /// (e.g. the top-plane chunks, see `ContainerStore`); protecting more
    /// than the budget degenerates to plain LRU among the protected set.
    pub fn protect(&self, ranges: &[ByteRange]) {
        self.lock().protected.extend(ranges);
    }

    /// Cap the bytes `tag`'s reads may keep resident: once at the cap, the
    /// tag's new admissions evict its **own** least-recently-used
    /// unprotected entries (or are bypassed when none exist) instead of
    /// displacing other tags. `None` removes the cap.
    pub fn set_quota(&self, tag: CacheTag, quota: Option<usize>) {
        let quotas = &mut self.lock().quotas;
        match quota {
            Some(q) => quotas.insert(tag, q),
            None => quotas.remove(&tag),
        };
    }

    /// Snapshot of the hit/miss counters and residency. The cache-wide
    /// counters are the sum of every attribution slot (tags plus untagged)
    /// — there is no second, parallel set of global counters to drift.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        let slots = state
            .tags
            .values()
            .map(|t| t.counts)
            .chain([state.untagged]);
        let (hits, misses) = slots.fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
        CacheStats {
            hits,
            misses,
            resident_bytes: state.resident,
            entries: state.map.len(),
            protected_ranges: state.protected.len(),
        }
    }

    /// Snapshot of one tag's counters and admitted residency.
    pub fn tag_stats(&self, tag: CacheTag) -> TagStats {
        self.lock()
            .tags
            .get(&tag)
            .map_or_else(TagStats::default, |t| TagStats {
                hits: t.counts.hits,
                misses: t.counts.misses,
                miss_bytes: t.counts.miss_bytes,
                resident_bytes: t.resident,
            })
    }

    /// Tagged variant of `read_ranges`: serves `ranges` through the cache on
    /// behalf of `tag`, attributing admissions (quota-checked), hit/miss
    /// counters, and the returned miss list to it. `None` behaves like the
    /// plain untagged path (no quota, global counters only).
    ///
    /// The misses of the whole batch go to the backend as **one**
    /// `read_ranges_exact` call, outside the lock, so the coalescer below
    /// sees the batch's whole request pattern.
    pub fn read_ranges_tagged(
        &self,
        tag: Option<CacheTag>,
        ranges: &[ByteRange],
    ) -> Result<TaggedRead> {
        let mut out: Vec<Option<Bytes>> = Vec::with_capacity(ranges.len());
        let mut missed = Vec::new();
        {
            let mut state = self.lock();
            state.clock += 1;
            let tick = state.clock;
            for (i, r) in ranges.iter().enumerate() {
                match state.map.get_mut(r) {
                    Some(e) => {
                        e.tick = tick;
                        out.push(Some(e.bytes.clone()));
                    }
                    None => {
                        out.push(None);
                        missed.push(i);
                    }
                }
            }
            let hits = (ranges.len() - missed.len()) as u64;
            let miss_bytes: u64 = missed.iter().map(|&i| ranges[i].len as u64).sum();
            let slot = state.slot(tag);
            slot.hits += hits;
            slot.misses += missed.len() as u64;
            slot.miss_bytes += miss_bytes;
            let m = crate::obs::metrics();
            m.cache_hits.add(hits);
            m.cache_misses.add(missed.len() as u64);
            m.cache_miss_bytes.add(miss_bytes);
        }

        if !missed.is_empty() {
            let miss_ranges: Vec<ByteRange> = missed.iter().map(|&i| ranges[i]).collect();
            // read_ranges_exact guarantees sizes, so cached entries are
            // always exactly their key's length. A short read errors here,
            // *before* any admission below — truncated bytes never enter
            // the cache.
            let bufs = read_ranges_exact(&self.inner, &miss_ranges)?;
            let mut state = self.lock();
            for (&i, buf) in missed.iter().zip(bufs) {
                state.admit(self.budget, tag, ranges[i], &buf);
                out[i] = Some(buf);
            }
        }
        Ok(TaggedRead {
            bytes: out
                .into_iter()
                .map(|b| b.expect("all slots filled"))
                .collect(),
            missed: missed.into_iter().map(|i| i as u32).collect(),
        })
    }
}

impl<S: ChunkSource> ChunkSource for CachedSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        Ok(self.read_ranges_tagged(None, ranges)?.bytes)
    }
}

/// A [`ChunkSource`] that routes every read through a shared
/// [`CachedSource`] under one fixed [`CacheTag`] — the top of a tenant's
/// session stack, so the decoder below needs no notion of tenancy while the
/// cache still attributes (and quota-checks) all of the tenant's traffic.
pub struct TaggedSource<S> {
    cache: Arc<CachedSource<S>>,
    tag: CacheTag,
}

impl<S: ChunkSource> TaggedSource<S> {
    /// Read through `cache` on behalf of `tag`.
    pub fn new(cache: Arc<CachedSource<S>>, tag: CacheTag) -> Self {
        Self { cache, tag }
    }
}

impl<S: ChunkSource> ChunkSource for TaggedSource<S> {
    fn len(&self) -> u64 {
        self.cache.len()
    }

    fn read_ranges(&self, ranges: &[ByteRange]) -> Result<Vec<Bytes>> {
        Ok(self.cache.read_ranges_tagged(Some(self.tag), ranges)?.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimProfile, SimulatedObjectStore};
    use ipcomp::source::MemorySource;

    #[test]
    fn repeat_requests_hit_the_cache() {
        let sim = SimulatedObjectStore::new(MemorySource::new(vec![9u8; 4096]), SimProfile::free());
        let cache = CachedSource::new(&sim, 1 << 20);
        let ranges = [ByteRange::new(0, 128), ByteRange::new(1024, 64)];
        let a = cache.read_ranges(&ranges).unwrap();
        let b = cache.read_ranges(&ranges).unwrap();
        assert_eq!(&a[0][..], &b[0][..]);
        assert_eq!(sim.stats().requests, 2, "second round served from cache");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let data: Vec<u8> = (0..=255).cycle().take(4096).map(|v| v as u8).collect();
        let cache = CachedSource::new(MemorySource::new(data.clone()), 256);
        let r1 = ByteRange::new(0, 128);
        let r2 = ByteRange::new(128, 128);
        let r3 = ByteRange::new(256, 128);
        cache.read_ranges(&[r1, r2]).unwrap();
        // Touch r1 so r2 is the LRU victim when r3 arrives.
        cache.read_ranges(&[r1]).unwrap();
        cache.read_ranges(&[r3]).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert!(s.resident_bytes <= 256);
        // r1 still cached, r2 evicted.
        let before = cache.stats().misses;
        cache.read_ranges(&[r1]).unwrap();
        assert_eq!(cache.stats().misses, before);
        cache.read_ranges(&[r2]).unwrap();
        assert_eq!(cache.stats().misses, before + 1);
        // Content stays correct throughout.
        let buf = cache.read_ranges(&[r2]).unwrap();
        assert_eq!(&buf[0][..], &data[128..256]);
    }

    #[test]
    fn entries_from_coalesced_reads_are_right_sized_copies() {
        use crate::coalesce::CoalescingSource;
        let data: Vec<u8> = (0..=255).cycle().take(8192).map(|v| v as u8).collect();
        let inner = CoalescingSource::new(MemorySource::new(data.clone()), 1 << 16);
        let cache = CachedSource::new(inner, 1 << 20);
        // Both ranges merge into one backing read below the cache; the cached
        // entries must not pin that merged buffer.
        let ranges = [ByteRange::new(0, 64), ByteRange::new(4096, 64)];
        let first = cache.read_ranges(&ranges).unwrap();
        assert!(first.iter().any(|b| b.backing_len() > b.len()));
        let again = cache.read_ranges(&ranges).unwrap();
        for (r, b) in ranges.iter().zip(&again) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
            assert_eq!(b.backing_len(), b.len(), "cached entry pins extra bytes");
        }
        assert_eq!(cache.stats().resident_bytes, 128);
    }

    #[test]
    fn protected_entries_survive_one_shot_sweeps() {
        let data: Vec<u8> = (0..=255).cycle().take(8192).map(|v| v as u8).collect();
        let cache = CachedSource::new(MemorySource::new(data.clone()), 512);
        // The "hot coarse prefix": two chunks everyone re-reads.
        let hot = [ByteRange::new(0, 128), ByteRange::new(128, 128)];
        cache.protect(&hot);
        cache.read_ranges(&hot).unwrap();
        // A one-shot sweep through four times the budget of cold chunks.
        let sweep: Vec<ByteRange> = (0..16)
            .map(|i| ByteRange::new(1024 + i * 128, 128))
            .collect();
        for r in &sweep {
            cache.read_ranges(std::slice::from_ref(r)).unwrap();
        }
        // The hot prefix is still resident: re-reading it adds no misses.
        let misses_before = cache.stats().misses;
        let bufs = cache.read_ranges(&hot).unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before,
            "hot prefix was evicted"
        );
        for (r, b) in hot.iter().zip(&bufs) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
        }
        assert_eq!(cache.stats().protected_ranges, 2);
        assert!(cache.stats().resident_bytes <= 512);
    }

    #[test]
    fn protected_entries_still_bounded_by_budget() {
        // Protecting more than the budget must not leak memory: LRU applies
        // within the protected set once nothing unprotected remains.
        let cache = CachedSource::new(MemorySource::new(vec![3u8; 4096]), 256);
        let ranges: Vec<ByteRange> = (0..8).map(|i| ByteRange::new(i * 128, 128)).collect();
        cache.protect(&ranges);
        for r in &ranges {
            cache.read_ranges(std::slice::from_ref(r)).unwrap();
        }
        let s = cache.stats();
        assert!(
            s.resident_bytes <= 256,
            "budget must hold: {}",
            s.resident_bytes
        );
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn oversized_entries_bypass_the_cache() {
        let cache = CachedSource::new(MemorySource::new(vec![1u8; 4096]), 64);
        cache.read_ranges(&[ByteRange::new(0, 1024)]).unwrap();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn tagged_reads_report_misses_and_per_tag_counters() {
        let data: Vec<u8> = (0..=255).cycle().take(4096).map(|v| v as u8).collect();
        let cache = Arc::new(CachedSource::new(MemorySource::new(data), 1 << 20));
        let ranges = [ByteRange::new(0, 64), ByteRange::new(256, 64)];
        let first = cache.read_ranges_tagged(Some(7), &ranges).unwrap();
        assert_eq!(first.missed, vec![0, 1]);
        // Second read by another tag: all hits, misses attributed to 7 only.
        let second = cache.read_ranges_tagged(Some(9), &ranges).unwrap();
        assert!(second.missed.is_empty());
        let t7 = cache.tag_stats(7);
        let t9 = cache.tag_stats(9);
        assert_eq!((t7.hits, t7.misses, t7.miss_bytes), (0, 2, 128));
        assert_eq!((t9.hits, t9.misses), (2, 0));
        assert_eq!(t7.resident_bytes, 128);
        assert_eq!(t9.resident_bytes, 0);
    }

    #[test]
    fn quota_limits_a_tenants_residency_to_its_own_recycled_slots() {
        let data: Vec<u8> = (0..=255).cycle().take(16384).map(|v| v as u8).collect();
        let cache = Arc::new(CachedSource::new(MemorySource::new(data.clone()), 4096));
        // Tenant 1's working set: four chunks, no quota.
        let hot: Vec<ByteRange> = (0..4).map(|i| ByteRange::new(i * 128, 128)).collect();
        cache.read_ranges_tagged(Some(1), &hot).unwrap();
        // Tenant 2 sweeps 16 chunks with a 256-byte quota: only two of its
        // entries may be resident at any point, recycled among themselves.
        cache.set_quota(2, Some(256));
        for i in 0..16 {
            let r = ByteRange::new(4096 + i * 128, 128);
            cache
                .read_ranges_tagged(Some(2), std::slice::from_ref(&r))
                .unwrap();
            assert!(cache.tag_stats(2).resident_bytes <= 256);
        }
        // Tenant 1's entries all survived the sweep.
        let misses_before = cache.stats().misses;
        let bufs = cache.read_ranges_tagged(Some(1), &hot).unwrap();
        assert_eq!(cache.stats().misses, misses_before, "tenant 1 was evicted");
        for (r, b) in hot.iter().zip(&bufs.bytes) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
        }
        assert_eq!(cache.tag_stats(1).resident_bytes, 512);
    }

    #[test]
    fn quota_shields_protected_prefix_of_other_tenants() {
        let data: Vec<u8> = (0..=255).cycle().take(16384).map(|v| v as u8).collect();
        // Cache smaller than the sweep, so without a quota the sweep would
        // churn everything unprotected out.
        let cache = Arc::new(CachedSource::new(MemorySource::new(data.clone()), 1024));
        let prefix = [ByteRange::new(0, 128), ByteRange::new(128, 128)];
        cache.protect(&prefix);
        cache.read_ranges_tagged(Some(1), &prefix).unwrap();
        // Unprotected entry of tenant 1 too.
        let warm = ByteRange::new(512, 128);
        cache
            .read_ranges_tagged(Some(1), std::slice::from_ref(&warm))
            .unwrap();
        cache.set_quota(2, Some(384));
        let sweep: Vec<ByteRange> = (0..24)
            .map(|i| ByteRange::new(4096 + i * 128, 128))
            .collect();
        for r in &sweep {
            cache
                .read_ranges_tagged(Some(2), std::slice::from_ref(r))
                .unwrap();
        }
        // Tenant 2 held at most its quota; the protected prefix and tenant
        // 1's warm chunk never left (the quota'd sweep recycled its own
        // slots instead of pushing the cache over budget).
        assert!(cache.tag_stats(2).resident_bytes <= 384);
        let misses_before = cache.stats().misses;
        cache.read_ranges_tagged(Some(1), &prefix).unwrap();
        cache
            .read_ranges_tagged(Some(1), std::slice::from_ref(&warm))
            .unwrap();
        assert_eq!(
            cache.stats().misses,
            misses_before,
            "tenant 1 lost entries to tenant 2's sweep"
        );
    }

    #[test]
    fn entry_larger_than_quota_is_bypassed_not_admitted() {
        let cache = Arc::new(CachedSource::new(MemorySource::new(vec![5u8; 4096]), 2048));
        cache.set_quota(3, Some(100));
        cache
            .read_ranges_tagged(Some(3), &[ByteRange::new(0, 512)])
            .unwrap();
        assert_eq!(cache.tag_stats(3).resident_bytes, 0);
        assert_eq!(cache.stats().entries, 0);
        // Within quota admits normally.
        cache
            .read_ranges_tagged(Some(3), &[ByteRange::new(1024, 64)])
            .unwrap();
        assert_eq!(cache.tag_stats(3).resident_bytes, 64);
    }

    #[test]
    fn tagged_source_routes_through_shared_cache() {
        let sim = Arc::new(SimulatedObjectStore::new(
            MemorySource::new(vec![4u8; 2048]),
            SimProfile::free(),
        ));
        let cache = Arc::new(CachedSource::new(
            Arc::clone(&sim) as Arc<dyn ChunkSource>,
            1 << 20,
        ));
        let a = TaggedSource::new(Arc::clone(&cache), 1);
        let b = TaggedSource::new(Arc::clone(&cache), 2);
        let r = [ByteRange::new(0, 256)];
        a.read_ranges(&r).unwrap();
        b.read_ranges(&r).unwrap();
        assert_eq!(sim.stats().requests, 1, "b hits a's admission");
        assert_eq!(cache.tag_stats(1).misses, 1);
        assert_eq!(cache.tag_stats(2).hits, 1);
        assert_eq!(a.len(), 2048);
    }

    #[test]
    fn a_batchs_misses_reach_the_backend_as_one_coalesced_get() {
        use crate::coalesce::CoalescingSource;
        let data: Vec<u8> = (0..=255).cycle().take(16384).map(|v| v as u8).collect();
        let sim = SimulatedObjectStore::new(MemorySource::new(data.clone()), SimProfile::free());
        let cache = CachedSource::new(CoalescingSource::new(&sim, 4096), 1 << 20);
        let ranges: Vec<ByteRange> = (0..32).map(|i| ByteRange::new(i * 128, 128)).collect();
        let first = cache.read_ranges(&ranges).unwrap();
        for (r, b) in ranges.iter().zip(&first) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
        }
        // The misses of the batch went down as one read_ranges call, so the
        // coalescer below merged the contiguous run into a single GET.
        assert_eq!(sim.stats().requests, 1, "the batch's fetch was fragmented");
        // Re-read: every key is a hit on the entry the batch admitted.
        let again = cache.read_ranges(&ranges).unwrap();
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(&a[..], &b[..]);
        }
        assert_eq!(sim.stats().requests, 1, "re-read hit the backend");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (32, 32));
        assert_eq!(s.entries, 32);
        assert_eq!(s.resident_bytes, 32 * 128);
    }

    #[test]
    fn a_quotad_tag_fills_its_whole_quota() {
        // An entry larger than any fraction of the budget, but within it,
        // is admitted.
        let data: Vec<u8> = (0..=255).cycle().take(16384).map(|v| v as u8).collect();
        let cache = CachedSource::new(MemorySource::new(data.clone()), 4096);
        let big = ByteRange::new(0, 1024);
        cache.read_ranges(&[big]).unwrap();
        assert_eq!(cache.stats().entries, 1, "entry within the budget bypassed");
        // A quota'd tag sweeping more than its quota recycles its own slots
        // and ends holding exactly its quota (4 x 512), never more.
        cache.set_quota(2, Some(2048));
        let sweep: Vec<ByteRange> = (0..6)
            .map(|i| ByteRange::new(2048 + i * 512, 512))
            .collect();
        for r in &sweep {
            cache
                .read_ranges_tagged(Some(2), std::slice::from_ref(r))
                .unwrap();
            assert!(cache.tag_stats(2).resident_bytes <= 2048);
        }
        assert_eq!(cache.tag_stats(2).resident_bytes, 2048);
        assert!(cache.stats().resident_bytes <= 4096);
    }
}
