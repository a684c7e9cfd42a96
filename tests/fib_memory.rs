//! Compiled forwarding state stays small: `Sim::compile_fibs` interns
//! every switch's table into one shared block pool, so a fat tree's whole
//! fleet costs kilobytes, not one entry per (switch, address).
//!
//! A counting global allocator tracks the calling thread's live heap bytes
//! around `compile_fibs`; what it has added once the call returns is what
//! the compiled tables keep. One entry per (switch, address) kept 4.28 MiB
//! on k = 8 and 159 MiB on k = 16.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xmp_suite::prelude::*;

/// Tracks live bytes allocated by the calling thread, so tests running
/// concurrently in this binary never see each other's.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    // `try_with`: the slot is gone during thread teardown; those
    // allocations are not the simulator's.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: forwards every call unchanged to `System`; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Heap bytes `compile_fibs` leaves live on a paper-configured k-ary fat
/// tree, and the number of distinct blocks it interned.
fn retained_by_compile(k: usize) -> (i64, usize) {
    let mut sim: Sim<Segment, HostStack> = Sim::new(1);
    let cfg = FatTreeConfig {
        k,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    FatTree::build(&mut sim, &cfg, |_| HostStack::new(StackConfig::default()));
    let before = live();
    sim.compile_fibs();
    let kept = live() - before;
    let blocks = sim.fib_tables().expect("compiled").block_count();
    (kept, blocks)
}

#[test]
fn k8_compiled_tables_stay_under_256_kib() {
    let (kept, blocks) = retained_by_compile(8);
    assert!(kept < 256 << 10, "k=8 compile_fibs kept {kept} bytes");
    assert!(blocks <= 16, "k=8 interned {blocks} distinct blocks");
}

/// Runs in release from `scripts/check.sh` (`--ignored`); a k = 16 tree
/// takes a few seconds to compile in a debug build.
#[test]
#[ignore]
fn k16_compiled_tables_stay_under_1_mib() {
    let (kept, blocks) = retained_by_compile(16);
    assert!(kept < 1 << 20, "k=16 compile_fibs kept {kept} bytes");
    assert!(blocks <= 32, "k=16 interned {blocks} distinct blocks");
}
