//! What a region read costs in memory, measured at the allocator: reading a
//! 1/64 tile of a 512² precinct container must hold state sized by the
//! region, never an array of the whole field.
//!
//! A test binary of its own with one `#[test]`, so nothing else allocates
//! while the read is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ipc_tensor::{ArrayD, Shape};
use ipcomp::{compress, Config, ProgressiveDecoder, RetrievalRequest, RoiBox};

/// `System`, plus live bytes, their peak, the number of allocations and the
/// largest single one while `ARMED` is set.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if ARMED.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
        COUNT.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
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

#[test]
fn a_region_read_holds_no_field_sized_buffer() {
    let n = 512;
    let field = ArrayD::from_fn(Shape::d2(n, n), |c| {
        let (x, y) = (c[0] as f64, c[1] as f64);
        let h = (c[0].wrapping_mul(73_856_093) ^ c[1].wrapping_mul(19_349_663)) as u64;
        let noise = (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64;
        (x * 0.11).sin() * 3.0 + (y * 0.07).cos() * 2.0 + (noise - 0.5) * 0.01
    });
    let c = compress(&field, 1e-7, &Config::with_precincts(&[32, 32])).unwrap();
    let tile = RoiBox::new(&[192, 256], &[256, 320]);
    let request = RetrievalRequest::ErrorBound(1e-3);

    // Warm-up: one-time per-process state (telemetry registries, the
    // thread's entropy tables) is allocated here, not in the counted read.
    let mut warm = ProgressiveDecoder::new(&c);
    warm.retrieve_roi(RoiBox::new(&[0, 0], &[8, 8]), request)
        .unwrap();

    let mut dec = ProgressiveDecoder::new(&c);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = dec.retrieve_roi(tile, request);
    ARMED.store(false, Ordering::Relaxed);
    let out = out.unwrap();
    assert_eq!(out.data.shape().dims(), &[64, 64]);

    let field_bytes = n * n * std::mem::size_of::<f64>();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let largest = LARGEST.load(Ordering::Relaxed);
    let count = COUNT.load(Ordering::Relaxed);
    println!("region read: live peak {peak} B, {count} allocations, largest {largest} B (field {field_bytes} B)");
    assert!(
        2 * peak <= field_bytes,
        "live peak {peak} B exceeds half a field ({field_bytes} B of f64)"
    );
    assert!(
        largest < field_bytes,
        "one allocation of {largest} B is a field's worth ({field_bytes} B)"
    );
}
