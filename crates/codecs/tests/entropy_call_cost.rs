//! The fixed cost of one `lzr_compress` call, measured in bytes requested from
//! the allocator instead of on a clock: a call on a precinct-sized chunk must
//! allocate in proportion to the chunk, not to the match finder's table.
//!
//! A test binary of its own with one `#[test]`, so nothing else allocates
//! while a call is being counted.

use ipc_codecs::{lzr_compress, lzr_decompress};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, plus a running total of every byte requested.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_call_allocates_in_proportion_to_its_input() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2025);
    let mut inputs: Vec<(usize, Vec<u8>)> = Vec::new();
    for len in [1usize, 3, 24, 96, 4096] {
        // Match-free (a counter has no repeated 4-gram inside 256 bytes, and
        // the 4 KiB one repeats only at distance 256), all-zero, random.
        inputs.push((len, (0..len).map(|i| i as u8).collect()));
        inputs.push((len, vec![0u8; len]));
        inputs.push((len, (0..len).map(|_| rng.gen()).collect()));
    }

    // Warm-up: the thread's match table is allocated once, here.
    assert_eq!(
        lzr_decompress(&lzr_compress(&[9u8; 64])).unwrap(),
        [9u8; 64]
    );

    for (len, input) in &inputs {
        let before = REQUESTED.load(Ordering::Relaxed);
        let stream = lzr_compress(input);
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        let budget = if *len <= 96 { 32 << 10 } else { 128 << 10 };
        assert!(
            requested < budget,
            "lzr_compress of {len} bytes requested {requested} B from the allocator (budget {budget} B)"
        );
        assert_eq!(lzr_decompress(&stream).unwrap(), *input);
    }
}
