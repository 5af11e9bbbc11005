//! Concurrency hammer for the LRU cache: 8 threads, each a tagged tenant,
//! slam a deterministic workload through one shared cache. Every ledger and
//! isolation invariant must hold under the interleaving:
//!
//! - **bit-identity**: every returned buffer matches the backing data;
//! - **ledger exactness**: `hits + misses` equals the number of ranges
//!   requested, globally and per tag, and the global counters are exactly
//!   the sum of the per-tag slots (no drift between the two views);
//! - **budget**: resident bytes never exceed the configured budget, and
//!   equal the sum of the per-tag residencies (every read here is tagged);
//! - **quota isolation**: a quota'd tenant's residency stays within its
//!   quota at every observation point, and the protected coarse prefix
//!   survives the whole hammer untouched.

use std::sync::Arc;
use std::thread;

use ipc_store::{CachedSource, TagStats};
use ipcomp::source::{ByteRange, MemorySource};

const CHUNK: u64 = 128;
const NCHUNKS: u64 = 512;
const THREADS: usize = 8;
const ROUNDS: usize = 300;
const BUDGET: usize = 8192; // 64 chunks — far smaller than the 512-chunk data
const QUOTA: usize = 8 * CHUNK as usize; // 8 chunks

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

/// Tag `t`'s LCG seed: deterministic per tag.
fn seed(t: u32) -> u64 {
    0x9e37_79b9u64.wrapping_mul(u64::from(t) + 1) | 1
}

#[test]
fn eight_thread_hammer_keeps_every_ledger_exact() {
    let data = backing();
    let cache = Arc::new(CachedSource::new(MemorySource::new(data.clone()), BUDGET));
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
    // hits only. (The protected set stays far under the budget, so admission
    // always found an unprotected victim first.)
    let before = cache.tag_stats(0);
    cache.read_ranges_tagged(Some(0), &prefix).unwrap();
    let after = cache.tag_stats(0);
    assert_eq!(
        after.misses, before.misses,
        "protected prefix was evicted under the hammer"
    );
    assert!(before.misses >= prefix_misses);
    requested[0] += prefix.len() as u64;

    let stats = cache.stats();
    let tags: Vec<TagStats> = (0..THREADS as u32).map(|t| cache.tag_stats(t)).collect();
    // Per-tag exactness: every requested range is either a hit or a miss.
    for (t, (ts, &req)) in tags.iter().zip(&requested).enumerate() {
        assert_eq!(
            ts.hits + ts.misses,
            req,
            "tag {t} ledger drifted (hits {} + misses {} != requested {req})",
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
        "global != sum of tags"
    );
    // Residency bounded by the configured budget, and consistent with the
    // entry count (all entries are chunk-sized).
    assert!(
        stats.resident_bytes <= BUDGET,
        "resident {} over budget {BUDGET}",
        stats.resident_bytes
    );
    assert_eq!(
        stats.resident_bytes,
        stats.entries * CHUNK as usize,
        "entry sizing"
    );
    // Every read here is tagged, so every entry has an owner: the global
    // resident count is exactly the sum of the per-tag residencies.
    let tag_resident: usize = tags.iter().map(|t| t.resident_bytes).sum();
    assert_eq!(
        tag_resident, stats.resident_bytes,
        "resident != sum of tag residencies"
    );
    for (t, ts) in tags.iter().enumerate() {
        if let Some(q) = quota_of(t as u32) {
            assert!(ts.resident_bytes <= q, "tag {t} over quota");
        }
    }
}
