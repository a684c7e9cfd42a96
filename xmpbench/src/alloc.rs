//! Counting global allocator: live bytes, an exact high-water mark
//! (updated on every allocation, not sampled) and an allocation count.
//! The counters are statistics that publish no other data, so every
//! access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// `System` plus the three counters above.
pub struct Counting;

fn grew(bytes: usize) {
    COUNT.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the counters are plain atomics and never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Allocations (and reallocations) so far; the `xmp_netsim` alloc probe.
pub fn count() -> u64 {
    COUNT.load(Relaxed)
}

/// Restart the high-water mark at the current live size and return it.
pub fn reset_peak() -> u64 {
    let now = live();
    PEAK.store(now, Relaxed);
    now
}

/// High-water mark of live bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
