//! Zero-allocation steady state: once handshakes, slow start and the
//! first retransmission-timer cycles have grown every scratch buffer,
//! pool and qdisc ring to its high-water mark, forwarding a packet hop
//! allocates nothing. Qdisc rings start unallocated and grow on demand,
//! so the eager leg's window also proves no port queue outgrows its
//! warm-up depth.
//!
//! A counting global allocator feeds the engine's alloc probe
//! (`xmp_netsim::set_alloc_probe`), and a k = 4 fat tree carrying
//! effectively unbounded XMP-2 permutation flows (probes off) is measured
//! over a post-warm-up window under both link pipelines.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xmp_suite::netsim::SimProfile;
use xmp_suite::prelude::*;

/// Counts allocations and reallocations made by the calling thread, so
/// tests running concurrently in this binary never see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone during thread teardown; those
    // allocations are not the simulator's.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards every call unchanged to `System`; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Engine profile of a k = 4 fat tree, one effectively unbounded XMP-2
/// flow per host to its permutation partner, over `[warmup, warmup +
/// window]` only: `allocs` and `deliver` are the window's deltas. Also
/// returns the allocations the probe saw during the warm-up.
fn steady_state(lazy_links: bool, warmup: SimDuration, window: SimDuration) -> (u64, SimProfile) {
    xmp_suite::netsim::set_alloc_probe(thread_allocs);
    let mut sim: Sim<Segment, HostStack> = Sim::new(1);
    sim.set_tuning(SimTuning {
        lazy_links,
        ..SimTuning::default()
    });
    let cfg = FatTreeConfig {
        k: 4,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    let ft = FatTree::build(&mut sim, &cfg, |_| HostStack::new(StackConfig::default()));
    let mut driver = Driver::new();
    let n = ft.hosts.len();
    for i in 0..n {
        let dst = (i + n / 2) % n;
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(i),
            subflows: (0..2)
                .map(|t| SubflowSpec {
                    local_port: PortId(0),
                    src: ft.host_addr(i, t),
                    dst: ft.host_addr(dst, t),
                })
                .collect(),
            size: 1 << 42, // ~4 TB: never completes inside the window
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO,
            category: Some(ft.category(i, dst)),
            tag: i as u64,
        });
    }
    driver.run(&mut sim, SimTime::ZERO + warmup, |_, _, _| {});
    let p0 = *sim.profile();
    driver.run(&mut sim, SimTime::ZERO + warmup + window, |_, _, _| {});
    let p1 = *sim.profile();
    let window_profile = SimProfile {
        allocs: p1.allocs - p0.allocs,
        deliver: p1.deliver - p0.deliver,
        ..p1
    };
    (p0.allocs, window_profile)
}

#[test]
fn packet_hops_allocate_nothing_in_steady_state() {
    for lazy_links in [false, true] {
        // The warm-up spans a full minimum-RTO period (200 ms), so the
        // event queue and every pool have seen their high-water population
        // before the window opens.
        let (setup_allocs, p) = steady_state(
            lazy_links,
            SimDuration::from_millis(200),
            SimDuration::from_millis(50),
        );
        assert!(
            setup_allocs > 0,
            "lazy_links = {lazy_links}: alloc probe saw nothing during warm-up"
        );
        assert!(
            p.deliver > 100_000,
            "lazy_links = {lazy_links}: window delivered only {} hops",
            p.deliver
        );
        assert_eq!(
            p.allocs, 0,
            "lazy_links = {lazy_links}: steady state allocated {} times over {} hops",
            p.allocs, p.deliver
        );
    }
}
