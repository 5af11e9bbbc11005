//! Probe: in-process numbers of the region read and the full read, from the
//! repository rather than from throwaway code.
//!
//! It reads the 64 tiles of the `roi_remote` benchmark workload — the 1/64
//! tiles of its 2-D field in a version-3 container, at `ErrorBound(1e-3)` —
//! and prints one JSON line per row:
//!
//! * `roi_store`: each tile as one cold op through `ContainerStore` over a
//!   fresh `SimulatedObjectStore` (5 ms per GET, 200 MB/s), as the benchmark
//!   reads it: GETs, simulated ms, fetched bytes (the open included) and
//!   planned payload bytes per op, in-process p50, and allocations and live
//!   peak per op, with `ContainerStore::open`'s share of both apart;
//! * `roi_resident`: `ProgressiveDecoder::retrieve_roi` alone over the
//!   resident container: in-process p50, allocations and live peak per op;
//! * `full_resident`, one row per container: `ProgressiveDecoder::retrieve`
//!   of `Full` on a fresh decoder over the resident container — the
//!   `compress_v2` workload's field (Density, 96×104×104 at
//!   `1e-7 · range`) and the region reads' — with its in-process p50 and the
//!   share of the decoder's retrieve time (`ipcomp.retrieve.ns`) spent in
//!   cascade sub-passes (`ipcomp.cascade.pass_ns`).
//!
//! Every tile is hashed against the crop of a full-domain decode at the same
//! bound; the probe exits non-zero on a mismatch or a failed read.
//!
//! `IPC_SCALE=tiny` reads the benchmark's smoke sizes (256² in 16² precincts,
//! Density 24×26×26); any other scale its full sizes (1024² in 32²,
//! 96×104×104). The fields' seed is the first argument (default 2025). Thread count and allocator settings are the
//! caller's: run with `RAYON_NUM_THREADS=1` (and the benchmark's
//! `MALLOC_MMAP_THRESHOLD_` pin) to compare with single-thread numbers.
//!
//! ```sh
//! RAYON_NUM_THREADS=1 cargo run --release -p ipc_bench --bin probe -- 2025
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ipc_bench::Scale;
use ipc_datagen::Dataset;
use ipc_store::{
    plan_request, ContainerStore, MemorySource, SimProfile, SimulatedObjectStore, StoreOptions,
};
use ipc_tensor::{ArrayD, Shape};
use ipcomp::{compress, Compressed, Config, ProgressiveDecoder, RetrievalRequest, RoiBox};

/// `System`, plus live bytes, their peak and the number of allocations.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The benchmark's error bound for region reads.
const ROI_EB: f64 = 1e-3;

/// One op's cost at the allocator: `(allocations, live peak above the live
/// bytes at its start)`, and its result.
fn counted<T>(op: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let out = op();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (out, ALLOCS.load(Ordering::Relaxed) - allocs, peak)
}

/// The `roi_remote` field: smooth structure plus coordinate-hash noise so
/// the residual planes stay dense (the benchmark's generator).
fn roi_field(n: usize, seed: u64) -> ArrayD<f64> {
    let salt = seed.wrapping_mul(0xd6e8feb86659fd93);
    let (p0, p1) = ((seed % 97) as f64 * 0.13, (seed / 97 % 89) as f64 * 0.17);
    ArrayD::from_fn(Shape::d2(n, n), |c| {
        let h = (c[0].wrapping_mul(73856093) ^ c[1].wrapping_mul(19349663)) as u64 ^ salt;
        let noise = ((h.wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / (1 << 24) as f64) - 0.5;
        let (x, y) = (c[0] as f64, c[1] as f64);
        (x * 0.11 + p0).sin() * 3.0
            + (y * 0.07 + p1).cos() * 2.0
            + (x * 0.013).sin() * (y * 0.019).cos()
            + noise * 0.01
    })
}

/// FNV-1a over the values' bits.
fn fnv(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf29ce484222325, |h, v| {
        (v.to_bits().to_le_bytes().iter())
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
    })
}

/// The digest of every tile's crop of a full-domain decode at [`ROI_EB`].
fn expected_digests(c: &Compressed, n: usize, tiles: &[RoiBox]) -> Vec<u64> {
    let full = ProgressiveDecoder::new(c)
        .retrieve(RetrievalRequest::ErrorBound(ROI_EB))
        .unwrap_or_else(|e| fail(&format!("full-domain reference decode failed: {e}")));
    let data = full.data.as_slice();
    (tiles.iter())
        .map(|t| {
            let rows = (t.lo[0]..t.hi[0]).flat_map(|x| &data[x * n + t.lo[1]..x * n + t.hi[1]]);
            fnv(&rows.copied().collect::<Vec<_>>())
        })
        .collect()
}

fn fail(message: &str) -> ! {
    eprintln!("probe: {message}");
    std::process::exit(1)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let scale = Scale::from_env();
    let seed = std::env::args().nth(1).map_or(2025, |s| {
        s.parse().unwrap_or_else(|_| fail("the seed is an integer"))
    });
    let (n, extent, rounds) = match scale {
        Scale::Tiny => (256, 16, 2),
        _ => (1024, 32, 9),
    };
    let field = roi_field(n, seed);
    let c = compress(&field, 1e-7, &Config::with_precincts(&[extent, extent]))
        .unwrap_or_else(|e| fail(&format!("compress failed: {e}")));
    let bytes: Arc<[u8]> = c.to_bytes().into();
    let side = n / 8;
    let tiles: Vec<RoiBox> = (0..64)
        .map(|k| {
            let (x, y) = (k / 8 * side, k % 8 * side);
            RoiBox::new(&[x, y], &[x + side, y + side])
        })
        .collect();
    let want = expected_digests(&c, n, &tiles);
    let request = RetrievalRequest::ErrorBound(ROI_EB);
    let profile = SimProfile::object_store();
    let options = StoreOptions::for_backend(
        profile.latency_per_request,
        profile.throughput_bytes_per_sec,
    );
    let check = |k: usize, values: &[f64]| {
        if fnv(values) != want[k] {
            fail(&format!(
                "tile {k} ({:?}) differs from the crop of a full decode",
                tiles[k]
            ));
        }
    };

    // Through the store over the simulator, one cold op per tile.
    let (mut ms, mut gets, mut sim_ms, mut fetched, mut planned) = (vec![], 0, 0.0, 0, 0);
    let (mut allocs, mut peaks, mut open_allocs, mut open_peaks) = (vec![], vec![], vec![], vec![]);
    for round in 0..rounds {
        for (k, &tile) in tiles.iter().enumerate() {
            let sim = Arc::new(SimulatedObjectStore::new(
                MemorySource::from_arc(Arc::clone(&bytes)),
                profile,
            ));
            let (before, base) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
            let start = Instant::now();
            let (out, count, peak) = counted(|| {
                let store = ContainerStore::open(Arc::clone(&sim) as _, options)?;
                let open = (
                    ALLOCS.load(Ordering::Relaxed) - before,
                    PEAK.load(Ordering::Relaxed) - base,
                );
                let out = store.session().retrieve_roi(tile, request)?;
                Ok::<_, ipcomp::IpcompError>((out, store, open))
            });
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            let (out, store, open) = out.unwrap_or_else(|e| fail(&format!("tile {k}: {e}")));
            check(k, out.data.as_slice());
            if round == 0 {
                let stats = sim.stats();
                gets += stats.requests;
                sim_ms += stats.simulated_secs * 1e3;
                fetched += stats.bytes;
                let plan = plan_request(store.map(), &[], request, Some(tile))
                    .unwrap_or_else(|e| fail(&format!("tile {k}: {e}")));
                planned += plan.payload_bytes();
                allocs.push(count as f64);
                peaks.push(peak as f64);
                open_allocs.push(open.0 as f64);
                open_peaks.push(open.1 as f64);
            }
        }
    }
    let ops = tiles.len() as f64;
    let field_bytes = n * n * std::mem::size_of::<f64>();
    println!(
        "{{\"row\": \"roi_store\", \"n\": {n}, \"precinct\": {extent}, \"seed\": {seed}, \
         \"ops\": {}, \"gets_per_op\": {:.3}, \"sim_ms_per_op\": {:.3}, \
         \"fetched_bytes_per_op\": {:.0}, \"planned_bytes_per_op\": {:.0}, \"p50_ms\": {:.4}, \
         \"allocs_per_op\": {:.0}, \"live_peak_bytes_per_op\": {:.0}, \
         \"open_allocs_per_op\": {:.0}, \"open_live_peak_bytes_per_op\": {:.0}, \
         \"field_f64_bytes\": {field_bytes}}}",
        ms.len(),
        gets as f64 / ops,
        sim_ms / ops,
        fetched as f64 / ops,
        planned as f64 / ops,
        median(ms),
        median(allocs),
        median(peaks),
        median(open_allocs),
        median(open_peaks),
    );

    // The resident region read alone.
    let (mut ms, mut allocs, mut peaks) = (vec![], vec![], vec![]);
    for round in 0..rounds {
        for (k, &tile) in tiles.iter().enumerate() {
            let mut dec = ProgressiveDecoder::new(&c);
            let start = Instant::now();
            let (out, count, peak) = counted(|| dec.retrieve_roi(tile, request));
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            let out = out.unwrap_or_else(|e| fail(&format!("tile {k}: {e}")));
            check(k, out.data.as_slice());
            if round == 0 {
                allocs.push(count as f64);
                peaks.push(peak as f64);
            }
        }
    }
    println!(
        "{{\"row\": \"roi_resident\", \"n\": {n}, \"precinct\": {extent}, \"seed\": {seed}, \
         \"ops\": {}, \"p50_ms\": {:.4}, \"allocs_per_op\": {:.0}, \
         \"live_peak_bytes_per_op\": {:.0}, \"field_f64_bytes\": {field_bytes}}}",
        ms.len(),
        median(ms),
        median(allocs),
        median(peaks),
    );

    // The full read on a fresh decoder: the region reads' container, and the
    // `compress_v2` workload's.
    let shape = match scale {
        Scale::Tiny => Shape::d3(24, 26, 26),
        _ => Shape::d3(96, 104, 104),
    };
    let density = Dataset::Density.generate(&shape, seed);
    let eb = 1e-7 * density.value_range();
    let v2 = compress(&density, eb, &Config::default())
        .unwrap_or_else(|e| fail(&format!("compress failed: {e}")));
    let dims = |c: &Compressed| {
        let dims: Vec<String> = c.header.dims.iter().map(|d| d.to_string()).collect();
        dims.join("x")
    };
    let m = (
        ipc_telemetry::histogram("ipcomp.cascade.pass_ns"),
        ipc_telemetry::histogram("ipcomp.retrieve.ns"),
    );
    for (name, c) in [("density", &v2), ("roi_field", &c)] {
        let (pass_ns, retrieve_ns) = (m.0.snapshot().sum, m.1.snapshot().sum);
        let ms: Vec<f64> = (0..rounds.max(3))
            .map(|_| {
                let start = Instant::now();
                ProgressiveDecoder::new(c)
                    .retrieve(RetrievalRequest::Full)
                    .unwrap_or_else(|e| fail(&format!("{name} full read: {e}")));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let share =
            (m.0.snapshot().sum - pass_ns) as f64 / (m.1.snapshot().sum - retrieve_ns) as f64;
        println!(
            "{{\"row\": \"full_resident\", \"field\": \"{name}\", \"dims\": \"{}\", \
             \"seed\": {seed}, \"ops\": {}, \"p50_ms\": {:.4}, \"cascade_share\": {share:.4}}}",
            dims(c),
            ms.len(),
            median(ms),
        );
    }
}
