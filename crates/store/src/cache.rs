//! Byte-budgeted sharded LRU cache over a [`ChunkSource`], with protected
//! admission for the hot coarse prefix and per-tenant admission quotas.
//!
//! Keys are the exact requested ranges. That is effective because the
//! decoder always addresses a given chunk by the same `(offset, len)` pair —
//! the chunk index is immutable — so every re-request of a chunk by another
//! session (or a refinement pass) is a guaranteed key match. The one
//! exception is a region retrieval, which reads each maximal run of
//! consecutive masked precincts as a single range
//! (`LevelMap::fetch_planes` under a mask): its keys are per run, so two
//! regions share an entry only where their precinct runs coincide, and a
//! region never hits the per-chunk entries a full-domain read admitted. The
//! cache sits
//! *above* coalescing in a source stack: hits are served per chunk without
//! touching the backend, and the misses of one batch flow down in a single
//! `read_ranges` call that the coalescer can still merge.
//!
//! **Sharding**: the cache is split into N shards, each holding its slice of
//! the key space in its own LRU map behind its own lock, with the chunk key
//! hashed to pick the shard. The hot path — a batch of hits — touches only
//! the locks of the shards its keys live in, so concurrent sessions (a
//! tenant fleet on the service's workers) contend only when they touch the
//! *same* slice of the key space instead of serializing every read behind
//! one global mutex. The byte budget, tag quotas, and the oversized-entry
//! bypass stay **global**: misses admit under a single admission lock that
//! makes room *before* inserting, evicting the globally least-recently-used
//! victim (a shared atomic clock keeps recency comparable across shards).
//! Splitting the budget or a quota per shard instead would make entries
//! larger than `budget/N` or `quota/N` bypass the cache entirely — measured
//! as a >5x backend-GET inflation on the service workload. Serializing only
//! admissions is the right trade: misses already pay backend latency, while
//! hits (the steady state) scale with shard count.
//! [`CachedSource::stats`] and [`CachedSource::tag_stats`] aggregate over
//! shards, so callers observe one ledger regardless of N. The shard count
//! is `available_parallelism()`; [`CachedSource::with_shards`] with `N = 1`
//! is the single-lock cache the sharded one is tested against.
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
//! Concurrency: the miss fetch happens outside every lock, so two sessions
//! racing on the same cold chunk may both fetch it (last insert wins). That
//! duplicates a read instead of serializing every client behind remote
//! latency — the right trade for a read-only cache.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ipcomp::source::{read_ranges_exact, ByteRange, Bytes, ChunkSource};
use ipcomp::Result;

/// Identifies the tenant (or session) a tagged read acts on behalf of.
pub type CacheTag = u32;

/// Upper bound on the shard count: beyond this the cross-shard eviction scan
/// on the admission path costs more than any remaining lock contention.
const MAX_SHARDS: usize = 64;

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

/// One shard's slice of the key space: its LRU map, its slice of the
/// protected set, and its slice of the per-tag accounting.
struct CacheState {
    map: HashMap<ByteRange, CacheEntry>,
    /// Keys shielded from eviction while any unprotected victim exists.
    protected: HashSet<ByteRange>,
    resident: usize,
    tags: HashMap<CacheTag, TagState>,
    /// Accounting slot for reads that carry no tag.
    untagged: TagCounters,
}

impl CacheState {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            protected: HashSet::new(),
            resident: 0,
            tags: HashMap::new(),
            untagged: TagCounters::default(),
        }
    }

    /// Remove `key`, keeping shard and per-owner residency in sync; returns
    /// the freed byte count.
    fn remove_entry(&mut self, key: ByteRange) -> usize {
        match self.map.remove(&key) {
            Some(e) => {
                self.resident -= e.bytes.len();
                if let Some(owner) = e.owner {
                    if let Some(t) = self.tags.get_mut(&owner) {
                        t.resident = t.resident.saturating_sub(e.bytes.len());
                    }
                }
                e.bytes.len()
            }
            None => 0,
        }
    }
}

/// A [`ChunkSource`] wrapper holding recently requested ranges in a sharded
/// LRU cache with a global byte budget.
///
/// Lock order: `admission` → one shard at a time (never two shard locks
/// held together). The hit path takes shard locks only; entries are
/// inserted and removed only under the admission lock, so an entry a probe
/// found cannot vanish before its recency bump lands.
pub struct CachedSource<S> {
    inner: S,
    budget: usize,
    shards: Vec<Mutex<CacheState>>,
    /// Shared recency clock: ticks are comparable across shards, so the
    /// admission path can pick the globally least-recently-used victim.
    clock: AtomicU64,
    /// Global resident bytes, mutated only under `admission` (and `clear`);
    /// always equals the sum of the per-shard `resident` fields.
    resident: AtomicUsize,
    /// Full (unsplit) per-tag admission quotas.
    quotas: Mutex<HashMap<CacheTag, usize>>,
    /// Serializes miss admission and eviction across shards: budget and
    /// quota checks make room *before* inserting, so the global bounds hold
    /// at every observation point.
    admission: Mutex<()>,
}

impl<S: ChunkSource> CachedSource<S> {
    /// Cache up to `budget_bytes` of range payload, with one shard per
    /// hardware thread (`available_parallelism()`, clamped to 64).
    pub fn new(inner: S, budget_bytes: usize) -> Self {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_shards(inner, budget_bytes, shards)
    }

    /// Cache up to `budget_bytes` of range payload with the key space
    /// partitioned over `shards` independently locked LRU maps (clamped to
    /// `1..=64`). The budget and all tag quotas are global regardless of the
    /// shard count; `shards = 1` is the single-lock cache, the oracle the
    /// sharded cache is tested against.
    pub fn with_shards(inner: S, budget_bytes: usize, shards: usize) -> Self {
        let n = shards.clamp(1, MAX_SHARDS);
        Self {
            inner,
            budget: budget_bytes,
            shards: (0..n).map(|_| Mutex::new(CacheState::new())).collect(),
            clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            quotas: Mutex::new(HashMap::new()),
            admission: Mutex::new(()),
        }
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard a key belongs to (FNV-1a over the range's offset and length —
    /// stable, so a key always routes to the same lock and LRU map).
    fn shard_index(&self, r: &ByteRange) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in r
            .offset
            .to_le_bytes()
            .into_iter()
            .chain((r.len as u64).to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Register ranges whose entries should survive one-shot sweeps: they
    /// are evicted only when no unprotected entry is left to evict. Callers
    /// should keep the protected set comfortably below the byte budget
    /// (e.g. the top-plane chunks, see `ContainerStore`); protecting more
    /// than the budget degenerates to plain LRU among the protected set.
    pub fn protect(&self, ranges: &[ByteRange]) {
        for r in ranges {
            let mut state = self.shards[self.shard_index(r)].lock().expect("cache lock");
            state.protected.insert(*r);
        }
    }

    /// Cap the bytes `tag`'s reads may keep resident: once at the cap, the
    /// tag's new admissions evict its **own** least-recently-used
    /// unprotected entries (or are bypassed when none exist) instead of
    /// displacing other tags. `None` removes the cap. The quota bounds the
    /// tag's total residency across all shards.
    pub fn set_quota(&self, tag: CacheTag, quota: Option<usize>) {
        let mut quotas = self.quotas.lock().expect("cache quotas");
        match quota {
            Some(q) => {
                quotas.insert(tag, q);
            }
            None => {
                quotas.remove(&tag);
            }
        }
    }

    /// Snapshot of the hit/miss counters and residency, summed over shards.
    /// The cache-wide counters are the sum of every attribution slot (tags
    /// plus untagged) — there is no second, parallel set of global counters
    /// to drift.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats {
            hits: 0,
            misses: 0,
            resident_bytes: 0,
            entries: 0,
            protected_ranges: 0,
        };
        for shard in &self.shards {
            let state = shard.lock().expect("cache lock");
            out.hits += state.untagged.hits;
            out.misses += state.untagged.misses;
            for t in state.tags.values() {
                out.hits += t.counts.hits;
                out.misses += t.counts.misses;
            }
            out.resident_bytes += state.resident;
            out.entries += state.map.len();
            out.protected_ranges += state.protected.len();
        }
        out
    }

    /// Snapshot of one tag's counters and admitted residency, summed over
    /// shards.
    pub fn tag_stats(&self, tag: CacheTag) -> TagStats {
        let mut out = TagStats::default();
        for shard in &self.shards {
            let state = shard.lock().expect("cache lock");
            if let Some(t) = state.tags.get(&tag) {
                out.hits += t.counts.hits;
                out.misses += t.counts.misses;
                out.miss_bytes += t.counts.miss_bytes;
                out.resident_bytes += t.resident;
            }
        }
        out
    }

    /// Drop every cached entry (counters keep accumulating, protection and
    /// quota registrations persist).
    pub fn clear(&self) {
        let _adm = self.admission.lock().expect("cache admission");
        for shard in &self.shards {
            let mut state = shard.lock().expect("cache lock");
            state.map.clear();
            state.resident = 0;
            for t in state.tags.values_mut() {
                t.resident = 0;
            }
        }
        self.resident.store(0, Ordering::Relaxed);
    }

    /// Remove `key` from shard `sid`, keeping the global resident counter in
    /// sync. Caller holds the admission lock (and no shard lock).
    fn evict(&self, sid: usize, key: ByteRange) {
        let freed = self.shards[sid]
            .lock()
            .expect("cache lock")
            .remove_entry(key);
        self.resident.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Globally least-recently-used victim matching `pick` (each shard
    /// locked briefly, one at a time; the shared clock makes ticks
    /// comparable). The scan is linear in the entry count, which stays small
    /// (entries are chunk-sized, so a budget holds at most
    /// budget / chunk_size of them) — and runs only on the admission path,
    /// where the caller already paid backend latency for the miss.
    fn lru_victim(
        &self,
        mut pick: impl FnMut(&CacheState, &ByteRange, &CacheEntry) -> bool,
    ) -> Option<(usize, ByteRange)> {
        let mut best: Option<(usize, ByteRange, u64)> = None;
        for (sid, shard) in self.shards.iter().enumerate() {
            let state = shard.lock().expect("cache lock");
            for (k, e) in &state.map {
                if pick(&state, k, e) && best.is_none_or(|(_, _, t)| e.tick < t) {
                    best = Some((sid, *k, e.tick));
                }
            }
        }
        best.map(|(sid, k, _)| (sid, k))
    }

    /// Make room for a `len`-byte admission under the global budget by
    /// evicting globally-LRU *unprotected* entries. An admission of a
    /// protected key may fall back to evicting protected entries (so the
    /// byte budget still bounds memory when the protected set exceeds it);
    /// an unprotected admission is refused instead — a sweep never displaces
    /// the protected prefix. Caller holds the admission lock.
    fn make_room(&self, len: usize, key_is_protected: bool) -> bool {
        if len > self.budget {
            return false;
        }
        while self.resident.load(Ordering::Relaxed) + len > self.budget {
            let victim = self
                .lru_victim(|state, k, _| !state.protected.contains(k))
                .or_else(|| {
                    key_is_protected
                        .then(|| self.lru_victim(|_, _, _| true))
                        .flatten()
                });
            match victim {
                Some((sid, k)) => self.evict(sid, k),
                None => return false,
            }
        }
        true
    }

    /// Make room for a `len`-byte admission by `tag` under its quota by
    /// evicting the tag's own globally-LRU unprotected entries. Returns
    /// `false` (do not admit) when the quota cannot be met that way — the
    /// entry alone exceeds the quota, or everything the tag still holds is
    /// protected. Caller holds the admission lock, so no other thread can
    /// raise this tag's residency concurrently.
    fn make_tag_room(&self, tag: CacheTag, len: usize, quota: usize) -> bool {
        if len > quota {
            return false;
        }
        loop {
            let resident: usize = self
                .shards
                .iter()
                .map(|s| {
                    let state = s.lock().expect("cache lock");
                    state.tags.get(&tag).map_or(0, |t| t.resident)
                })
                .sum();
            if resident + len <= quota {
                return true;
            }
            let victim =
                self.lru_victim(|state, k, e| e.owner == Some(tag) && !state.protected.contains(k));
            match victim {
                Some((sid, k)) => self.evict(sid, k),
                None => return false,
            }
        }
    }

    /// Tagged variant of `read_ranges`: serves `ranges` through the cache on
    /// behalf of `tag`, attributing admissions (quota-checked), hit/miss
    /// counters, and the returned miss list to it. `None` behaves like the
    /// plain untagged path (no quota, global counters only).
    ///
    /// The misses of the whole batch — whichever shards they belong to —
    /// still go to the backend as **one** `read_ranges_exact` call, so
    /// sharding never fragments the request pattern the coalescer below
    /// sees: backend GET counts match the single-lock cache.
    pub fn read_ranges_tagged(
        &self,
        tag: Option<CacheTag>,
        ranges: &[ByteRange],
    ) -> Result<TaggedRead> {
        let mut out: Vec<Option<Bytes>> = vec![None; ranges.len()];
        let shard_of: Vec<usize> = ranges.iter().map(|r| self.shard_index(r)).collect();
        let mut missed = vec![false; ranges.len()];
        let (mut total_hits, mut total_misses, mut total_miss_bytes) = (0u64, 0u64, 0u64);
        for (sid, shard) in self.shards.iter().enumerate() {
            if !shard_of.contains(&sid) {
                continue;
            }
            let mut state = shard.lock().expect("cache lock");
            let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            let (mut hits, mut misses, mut miss_bytes) = (0u64, 0u64, 0u64);
            for (i, r) in ranges.iter().enumerate() {
                if shard_of[i] != sid {
                    continue;
                }
                if let Some(e) = state.map.get_mut(r) {
                    e.tick = tick;
                    out[i] = Some(e.bytes.clone());
                    hits += 1;
                } else {
                    missed[i] = true;
                    misses += 1;
                    miss_bytes += r.len as u64;
                }
            }
            let slot = match tag {
                Some(tag) => &mut state.tags.entry(tag).or_default().counts,
                None => &mut state.untagged,
            };
            slot.hits += hits;
            slot.misses += misses;
            slot.miss_bytes += miss_bytes;
            total_hits += hits;
            total_misses += misses;
            total_miss_bytes += miss_bytes;
        }
        let m = crate::obs::metrics();
        m.cache_hits.add(total_hits);
        m.cache_misses.add(total_misses);
        m.cache_miss_bytes.add(total_miss_bytes);

        let miss_idx: Vec<usize> = (0..ranges.len()).filter(|&i| missed[i]).collect();
        if !miss_idx.is_empty() {
            let miss_ranges: Vec<ByteRange> = miss_idx.iter().map(|&i| ranges[i]).collect();
            // Fetch outside every lock; read_ranges_exact guarantees sizes,
            // so cached entries are always exactly their key's length. A
            // short read errors here, *before* any admission below —
            // truncated bytes never enter the cache.
            let bufs = read_ranges_exact(&self.inner, &miss_ranges)?;
            for (&i, buf) in miss_idx.iter().zip(&bufs) {
                out[i] = Some(buf.clone());
            }
            // Admission: one entry at a time under the admission lock, making
            // room *before* inserting so the global budget and quota bounds
            // hold at every observation point.
            let _adm = self.admission.lock().expect("cache admission");
            let quota =
                tag.and_then(|t| self.quotas.lock().expect("cache quotas").get(&t).copied());
            for (k, &i) in miss_idx.iter().enumerate() {
                let r = ranges[i];
                let sid = shard_of[i];
                let key_is_protected = {
                    let state = self.shards[sid].lock().expect("cache lock");
                    // Another thread (or an earlier duplicate in this batch)
                    // may have admitted the key already.
                    if state.map.contains_key(&r) {
                        continue;
                    }
                    state.protected.contains(&r)
                };
                // Quota'd tags recycle their own entries; admission is
                // skipped when the quota cannot be met from them.
                if let (Some(tag), Some(q)) = (tag, quota) {
                    if !self.make_tag_room(tag, r.len, q) {
                        continue;
                    }
                }
                // Oversized entries (and unprotected entries that would
                // displace the protected prefix) bypass the cache.
                if !self.make_room(r.len, key_is_protected) {
                    continue;
                }
                // A coalescing layer below returns slices of one large
                // merged read; storing such a slice would pin the whole
                // backing buffer while `resident` counts only the slice.
                // Copy into a right-sized allocation so the byte budget
                // bounds real memory (one chunk-sized memcpy per miss).
                let buf = bufs[k].clone();
                let stored = if buf.len() == buf.backing_len() {
                    buf
                } else {
                    Bytes::from_vec(buf.to_vec())
                };
                let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                let mut state = self.shards[sid].lock().expect("cache lock");
                state.resident += stored.len();
                self.resident.fetch_add(stored.len(), Ordering::Relaxed);
                if let Some(tag) = tag {
                    state.tags.entry(tag).or_default().resident += stored.len();
                }
                state.map.insert(
                    r,
                    CacheEntry {
                        bytes: stored,
                        tick,
                        owner: tag,
                    },
                );
            }
        }
        Ok(TaggedRead {
            bytes: out
                .into_iter()
                .map(|b| b.expect("all slots filled"))
                .collect(),
            missed: miss_idx.into_iter().map(|i| i as u32).collect(),
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

    /// The tag this wrapper reads under.
    pub fn tag(&self) -> CacheTag {
        self.tag
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
        // Single shard: exact global LRU order is what this test pins down.
        let cache = CachedSource::with_shards(MemorySource::new(data.clone()), 256, 1);
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
        let cache = CachedSource::with_shards(MemorySource::new(data.clone()), 512, 1);
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
        let cache = CachedSource::with_shards(MemorySource::new(vec![3u8; 4096]), 256, 1);
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
        let cache = CachedSource::with_shards(MemorySource::new(vec![1u8; 4096]), 64, 1);
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
        let cache = Arc::new(CachedSource::with_shards(
            MemorySource::new(data.clone()),
            4096,
            1,
        ));
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
        let cache = Arc::new(CachedSource::with_shards(
            MemorySource::new(data.clone()),
            1024,
            1,
        ));
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
        let cache = Arc::new(CachedSource::with_shards(
            MemorySource::new(vec![5u8; 4096]),
            2048,
            1,
        ));
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
        assert_eq!(a.tag(), 1);
        assert_eq!(a.len(), 2048);
    }

    #[test]
    fn sharded_cache_serves_identical_bytes_and_one_aggregated_ledger() {
        use crate::coalesce::CoalescingSource;
        let data: Vec<u8> = (0..=255).cycle().take(16384).map(|v| v as u8).collect();
        let sim = SimulatedObjectStore::new(MemorySource::new(data.clone()), SimProfile::free());
        let cache = CachedSource::with_shards(CoalescingSource::new(&sim, 4096), 1 << 20, 8);
        assert_eq!(cache.shard_count(), 8);
        let ranges: Vec<ByteRange> = (0..32).map(|i| ByteRange::new(i * 128, 128)).collect();
        let first = cache.read_ranges(&ranges).unwrap();
        for (r, b) in ranges.iter().zip(&first) {
            assert_eq!(&b[..], &data[r.offset as usize..r.end() as usize]);
        }
        // The misses of the batch went down as one read_ranges call —
        // whichever shards they belong to — so the coalescer below still
        // merged the contiguous run into a single backend GET.
        assert_eq!(sim.stats().requests, 1, "sharding fragmented the fetch");
        // Re-read: every key routes back to the shard that admitted it.
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
    fn sharded_budget_and_quota_are_global_not_per_shard() {
        // An entry larger than budget/N (but within the budget) must still be
        // admitted — splitting the budget per shard would make every such
        // entry bypass the cache and refetch from the backend forever.
        let data: Vec<u8> = (0..=255).cycle().take(16384).map(|v| v as u8).collect();
        let cache = CachedSource::with_shards(MemorySource::new(data.clone()), 4096, 8);
        let big = ByteRange::new(0, 1024); // > 4096/8, < 4096
        cache.read_ranges(&[big]).unwrap();
        assert_eq!(
            cache.stats().entries,
            1,
            "entry within the global budget bypassed"
        );
        // Likewise a quota'd tag may concentrate its full quota wherever its
        // keys hash; only the *global* quota bounds it.
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
        // The tag reached its full quota (4 x 512), not quota/shards.
        assert_eq!(cache.tag_stats(2).resident_bytes, 2048);
        assert!(cache.stats().resident_bytes <= 4096);
    }

    #[test]
    fn sharded_protection_and_clear_apply_per_shard() {
        let data: Vec<u8> = (0..=255).cycle().take(8192).map(|v| v as u8).collect();
        let cache = CachedSource::with_shards(MemorySource::new(data), 1 << 20, 4);
        let ranges: Vec<ByteRange> = (0..8).map(|i| ByteRange::new(i * 128, 128)).collect();
        cache.protect(&ranges);
        assert_eq!(cache.stats().protected_ranges, 8);
        cache.read_ranges(&ranges).unwrap();
        assert_eq!(cache.stats().entries, 8);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.resident_bytes), (0, 0));
        // Protection registrations persist across clear, as before.
        assert_eq!(s.protected_ranges, 8);
    }
}
