//! Concurrency hammer for the sharded LRU cache: 8 threads, each a tagged
//! tenant, slam a deterministic workload through an 8-shard cache and a
//! single-lock (1-shard) oracle. The sharded cache must preserve every
//! ledger and isolation invariant the single lock gave us:
//!
//! - **bit-identity**: every returned buffer matches the backing data;
//! - **ledger exactness**: `hits + misses` equals the number of ranges
//!   requested, globally and per tag, and the global counters are exactly
//!   the sum of the per-tag slots (no drift between the two views);
//! - **budget**: resident bytes never exceed the configured global budget;
//! - **quota isolation**: a quota'd tenant's residency stays within its
//!   quota at every observation point, and the protected coarse prefix
//!   survives the whole hammer untouched;
//! - **backend parity**: replayed on one thread (so eviction order is
//!   deterministic), the sharded cache sends at most 1.05× the single-lock
//!   oracle's GETs to the backend — sharding must not fragment or inflate
//!   the miss stream.

use std::sync::Arc;
use std::thread;

use ipc_store::{CacheStats, CachedSource, SimProfile, SimulatedObjectStore, TagStats};
use ipcomp::source::{ByteRange, MemorySource};

const CHUNK: u64 = 128;
const NCHUNKS: u64 = 512;
const THREADS: usize = 8;
const ROUNDS: usize = 300;
const BUDGET: usize = 8192; // 64 chunks — far smaller than the 512-chunk data
const QUOTA: usize = 8 * CHUNK as usize; // 8 chunks, global across shards

fn backing() -> Vec<u8> {
    (0..NCHUNKS * CHUNK).map(|i| (i * 31 % 251) as u8).collect()
}

fn chunk_range(idx: u64) -> ByteRange {
    ByteRange::new(idx * CHUNK, CHUNK as usize)
}

/// Tags 4..8 are quota'd sweepers; 0..4 are unquota'd interactive tenants.
fn quota_of(tag: u32) -> Option<usize> {
    (tag >= 4).then_some(QUOTA)
}

/// Tag `t`'s batch for `round`, advancing its LCG: quota'd sweepers walk
/// far; interactive tenants mix a hot set with occasional deep reads.
fn next_batch(rng: &mut u64, t: u32, round: usize) -> [ByteRange; 2] {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let idx = if t >= 4 || round.is_multiple_of(4) {
        (*rng >> 33) % NCHUNKS
    } else {
        (*rng >> 33) % 16
    };
    [chunk_range(idx), chunk_range((idx + 7) % NCHUNKS)]
}

/// Tag `t`'s LCG seed: deterministic per tag so both caches see the same
/// per-tag request sequence.
fn seed(t: u32) -> u64 {
    0x9e37_79b9u64.wrapping_mul(u64::from(t) + 1) | 1
}

/// Run the 8-thread workload against a cache with `shards` shards and
/// return (global stats, per-tag stats, ranges requested per tag).
fn hammer(shards: usize) -> (CacheStats, Vec<TagStats>, Vec<u64>) {
    let data = backing();
    let cache = Arc::new(CachedSource::with_shards(
        MemorySource::new(data.clone()),
        BUDGET,
        shards,
    ));
    assert_eq!(cache.shard_count(), shards);
    // Protected coarse prefix, admitted before the hammer starts.
    let prefix: Vec<ByteRange> = (0..4).map(chunk_range).collect();
    cache.protect(&prefix);
    cache.read_ranges_tagged(Some(0), &prefix).unwrap();
    let prefix_misses = cache.tag_stats(0).misses;
    for t in 0..THREADS as u32 {
        cache.set_quota(t, quota_of(t));
    }

    let mut requested = vec![0u64; THREADS];
    requested[0] += prefix.len() as u64;
    thread::scope(|scope| {
        for t in 0..THREADS as u32 {
            let cache = Arc::clone(&cache);
            let data = &data;
            scope.spawn(move || {
                let mut rng = seed(t);
                for round in 0..ROUNDS {
                    let batch = next_batch(&mut rng, t, round);
                    let read = cache.read_ranges_tagged(Some(t), &batch).unwrap();
                    for (r, b) in batch.iter().zip(&read.bytes) {
                        assert_eq!(
                            &b[..],
                            &data[r.offset as usize..r.end() as usize],
                            "tag {t} got wrong bytes for {r:?}"
                        );
                    }
                    // Quota isolation holds at every observation point, not
                    // just at the end: this tag's residency only grows under
                    // its own reads, so a concurrent snapshot is sound.
                    if let Some(q) = quota_of(t) {
                        let resident = cache.tag_stats(t).resident_bytes;
                        assert!(resident <= q, "tag {t} over quota: {resident} > {q}");
                    }
                }
            });
        }
    });
    for req in &mut requested {
        *req += 2 * ROUNDS as u64;
    }

    // The protected prefix survived the hammer: re-reading it by tag 0 adds
    // hits only. (The protected set stays far under the global budget, so
    // admission always found an unprotected victim first.)
    let before = cache.tag_stats(0);
    cache.read_ranges_tagged(Some(0), &prefix).unwrap();
    let after = cache.tag_stats(0);
    assert_eq!(
        after.misses, before.misses,
        "protected prefix was evicted under {shards}-shard hammer"
    );
    assert!(before.misses >= prefix_misses);
    requested[0] += prefix.len() as u64;

    let stats = cache.stats();
    let tags: Vec<TagStats> = (0..THREADS as u32).map(|t| cache.tag_stats(t)).collect();
    (stats, tags, requested)
}

fn check_ledger(stats: &CacheStats, tags: &[TagStats], requested: &[u64], label: &str) {
    // Per-tag exactness: every requested range is either a hit or a miss.
    for (t, (ts, &req)) in tags.iter().zip(requested).enumerate() {
        assert_eq!(
            ts.hits + ts.misses,
            req,
            "{label}: tag {t} ledger drifted (hits {} + misses {} != requested {req})",
            ts.hits,
            ts.misses
        );
    }
    // Global counters are exactly the sum of the per-tag slots.
    let hits: u64 = tags.iter().map(|t| t.hits).sum();
    let misses: u64 = tags.iter().map(|t| t.misses).sum();
    assert_eq!(
        (stats.hits, stats.misses),
        (hits, misses),
        "{label}: global != sum of tags"
    );
    // Residency bounded by the configured global budget, and consistent
    // with the entry count (all entries are chunk-sized).
    assert!(
        stats.resident_bytes <= BUDGET,
        "{label}: resident {} over budget {BUDGET}",
        stats.resident_bytes
    );
    assert_eq!(
        stats.resident_bytes,
        stats.entries * CHUNK as usize,
        "{label}: entry sizing"
    );
    // Quota'd tags ended within quota; their residency is also part of the
    // global resident sum, which the per-shard ledgers keep exact.
    let tag_resident: usize = tags.iter().map(|t| t.resident_bytes).sum();
    assert!(
        tag_resident <= stats.resident_bytes,
        "{label}: tag residency exceeds global"
    );
    for (t, ts) in tags.iter().enumerate() {
        if let Some(q) = quota_of(t as u32) {
            assert!(ts.resident_bytes <= q, "{label}: tag {t} over quota");
        }
    }
}

#[test]
fn eight_thread_hammer_matches_single_lock_oracle() {
    let (sharded_stats, sharded_tags, requested) = hammer(8);
    let (oracle_stats, oracle_tags, oracle_requested) = hammer(1);
    assert_eq!(requested, oracle_requested, "workloads must be identical");

    check_ledger(&sharded_stats, &sharded_tags, &requested, "8-shard");
    check_ledger(
        &oracle_stats,
        &oracle_tags,
        &requested,
        "single-lock oracle",
    );

    // The deterministic part of the ledger — ranges requested per tag —
    // agrees exactly between the sharded cache and the oracle. (Hit/miss
    // splits may differ: eviction order depends on interleaving in both.)
    for (t, (s, o)) in sharded_tags.iter().zip(&oracle_tags).enumerate() {
        assert_eq!(
            s.hits + s.misses,
            o.hits + o.misses,
            "tag {t}: sharded and oracle ledgers count different request totals"
        );
    }
    assert_eq!(
        sharded_stats.hits + sharded_stats.misses,
        oracle_stats.hits + oracle_stats.misses,
        "sharded and oracle global ledgers count different request totals"
    );
}

/// The hammer's per-tag request sequences replayed round-robin on one
/// thread; returns the GETs that reached the backend.
fn sequential_backend_gets(shards: usize) -> u64 {
    let sim = Arc::new(SimulatedObjectStore::new(
        MemorySource::new(backing()),
        SimProfile::free(),
    ));
    let cache = CachedSource::with_shards(Arc::clone(&sim), BUDGET, shards);
    for t in 0..THREADS as u32 {
        cache.set_quota(t, quota_of(t));
    }
    let mut rngs: Vec<u64> = (0..THREADS as u32).map(seed).collect();
    for round in 0..ROUNDS {
        for t in 0..THREADS as u32 {
            let batch = next_batch(&mut rngs[t as usize], t, round);
            cache.read_ranges_tagged(Some(t), &batch).unwrap();
        }
    }
    sim.stats().requests
}

#[test]
fn sharding_does_not_inflate_backend_gets_over_the_single_lock() {
    let sharded = sequential_backend_gets(8);
    let single = sequential_backend_gets(1);
    assert!(single > 0);
    assert!(
        sharded as f64 <= single as f64 * 1.05,
        "8 shards sent {sharded} GETs to the backend vs {single} under the single lock"
    );
}
