//! Golden digests: the observable outcome of a faulted, probed k = 4 fat
//! tree and of one quick suite cell, pinned as constants. Any change to
//! the event loop, the forwarding path, the link pipelines or the
//! partitioned engine that moves a single bit of the clock, the per-flow
//! records, the conservation audit or the probe JSONL fails here.
//!
//! The scenario runs serial under both link pipelines (eager and lazy)
//! and sharded across 2, 3 and 4 worker threads (3 does not divide k),
//! again under both pipelines; every variant must reproduce the same
//! pinned digests.

use xmp_suite::experiments::suite::{run_suite, Pattern, SuiteConfig};
use xmp_suite::netsim::{PartitionedSim, ProbeConfig};
use xmp_suite::prelude::*;
use xmp_suite::workloads::FlowSim;

/// FNV-1a over a string rendering (f64 Debug formatting round-trips
/// exactly, so equal digests mean bit-equal numbers).
fn digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// (final clock ns, flow-record digest, audit digest, probe JSONL digest)
/// of [`faulted_probed_fat_tree`].
const FAT_TREE_GOLDEN: (u64, u64, u64, u64) = (
    50_000_000,
    0xd2c52b861278adeb,
    0x981735a0a5952d92,
    0x3dd995ac278091e6,
);

/// Digest of the `Debug` rendering of the quick XMP-2 permutation cell.
const QUICK_SUITE_GOLDEN: u64 = 0xf00896bc168802b;

/// One faulted, probed k = 4 fat-tree scenario: cross-pod XMP-2 and DCTCP
/// flows from every host, a core link flapping down/up mid-run, marked
/// probes watching both directions of the cut. Returns (final clock, flow
/// digest, audit digest, probe JSONL digest).
fn faulted_probed_fat_tree(lazy_links: bool, workers: usize) -> (u64, u64, u64, u64) {
    let mut sim: Sim<Segment, HostStack> = Sim::new(9);
    sim.set_tuning(SimTuning {
        lazy_links,
        ..SimTuning::default()
    });
    let ft_cfg = FatTreeConfig {
        k: 4,
        ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
    };
    let stack_cfg = StackConfig::default().with_rto_min(SimDuration::from_millis(200));
    let ft = FatTree::build(&mut sim, &ft_cfg, |_| HostStack::new(stack_cfg.clone()));
    let end = SimTime::from_millis(50);

    // Fault and probes live on a core link — under partitioning, the cut.
    let watched = ft.core_link(0, 0, 0);
    sim.install_fault_plan(
        &FaultPlan::new()
            .link_down(SimTime::from_millis(15), watched)
            .link_up(SimTime::from_millis(25), watched),
    );
    sim.install_probes(
        ProbeConfig::every(SimDuration::from_millis(1))
            .until(end)
            .watch_queue(watched, 0)
            .watch_queue(watched, 1)
            .with_marks(),
    );

    let mut driver = Driver::new();
    let n = ft.hosts.len();
    for i in 0..n {
        let dst = (i + n / 2) % n;
        let scheme = if i % 2 == 0 {
            Scheme::xmp(2)
        } else {
            Scheme::Dctcp
        };
        let tags: Vec<usize> = match scheme.subflow_count() {
            1 => vec![0],
            _ => vec![0, ft.tag_count() - 1],
        };
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(i),
            subflows: tags
                .iter()
                .map(|&t| SubflowSpec {
                    local_port: PortId(0),
                    src: ft.host_addr(i, t),
                    dst: ft.host_addr(dst, t),
                })
                .collect(),
            size: 300_000,
            scheme,
            start: SimTime::ZERO + SimDuration::from_micros(i as u64),
            category: Some(ft.category(i, dst)),
            tag: i as u64,
        });
    }

    fn drive<S: FlowSim>(sim: &mut S, driver: &mut Driver, end: SimTime) {
        let slice = SimDuration::from_millis(5);
        while sim.now() < end {
            let t = (sim.now() + slice).min(end);
            driver.run(sim, t, |_, _, _| {});
        }
        driver.finalize_running(sim);
    }
    let mut sim = if workers > 1 {
        let plan = ft.partition_plan(workers);
        let mut psim = PartitionedSim::new(sim, &plan);
        drive(&mut psim, &mut driver, end);
        psim.finish()
    } else {
        drive(&mut sim, &mut driver, end);
        sim
    };

    let flows: Vec<String> = driver
        .records()
        .map(|r| {
            format!(
                "{}:{:?}:{:.6}:{}",
                r.tag, r.completed, r.goodput_bps, r.rtos
            )
        })
        .collect();
    let audit = sim.audit_conservation();
    let probes = sim.take_probes().expect("probes were installed");
    assert!(!probes.is_empty(), "probe stream empty");
    (
        sim.now().as_nanos(),
        digest(&flows.join(";")),
        digest(&format!("{audit:?}")),
        digest(&probes.export_jsonl()),
    )
}

#[test]
fn fat_tree_serial_matches_golden_under_both_pipelines() {
    for lazy_links in [false, true] {
        assert_eq!(
            faulted_probed_fat_tree(lazy_links, 1),
            FAT_TREE_GOLDEN,
            "serial run (lazy_links = {lazy_links}) moved off the golden digests"
        );
    }
}

#[test]
fn fat_tree_partitioned_matches_golden() {
    for lazy_links in [false, true] {
        for workers in [2usize, 3, 4] {
            assert_eq!(
                faulted_probed_fat_tree(lazy_links, workers),
                FAT_TREE_GOLDEN,
                "{workers}-worker partitioned run (lazy_links = {lazy_links}) \
                 moved off the golden digests"
            );
        }
    }
}

#[test]
fn quick_suite_cell_matches_golden() {
    let result = run_suite(&SuiteConfig::quick(Scheme::xmp(2), Pattern::Permutation));
    assert_eq!(
        digest(&format!("{result:?}")),
        QUICK_SUITE_GOLDEN,
        "quick XMP-2 permutation cell moved off its golden digest"
    );
}
