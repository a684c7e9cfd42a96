//! Backlog-0 edge cases of the eager pipeline's idle-wire cut-through.
//!
//! A packet that reaches an idle wire is classified against a zero backlog
//! and sent straight to the wire. For the paper's K = 10 marker that
//! decision is always "accept unmarked", so the ordinary differential
//! tests never see it matter. Here the bottleneck runs disciplines whose
//! zero-backlog decision does something — mark, advance RED's count and
//! RNG, or sit one packet from overflow — and the eager pipeline must
//! still match the lazy one bit for bit: flow records, every link
//! direction's stats and the probe JSONL.

use xmp_suite::netsim::stats::DirStats;
use xmp_suite::netsim::{ProbeConfig, RedMode};
use xmp_suite::prelude::*;

/// One probed four-flow dumbbell with `queue` on the bottleneck. Returns
/// the flow records, every link direction's stats and the probe JSONL,
/// each rendered with `Debug` (f64 Debug round-trips exactly), plus the
/// bottleneck's forward-direction stats.
fn run(queue: QdiscConfig, lazy_links: bool) -> (String, String, String, DirStats) {
    let mut sim: Sim<Segment, HostStack> = Sim::new(3);
    sim.set_tuning(SimTuning {
        lazy_links,
        ..SimTuning::default()
    });
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        queue,
        |_| HostStack::new(StackConfig::default()),
    );
    sim.install_probes(
        ProbeConfig::every(SimDuration::from_millis(2))
            .until(SimTime::from_secs(2))
            .watch_queue(db.bottleneck, 0)
            .watch_queue(db.bottleneck, 1)
            .with_marks(),
    );
    let mut d = Driver::new();
    let schemes = [Scheme::xmp(1), Scheme::Dctcp, Scheme::Tcp, Scheme::Dctcp];
    for (i, scheme) in schemes.into_iter().enumerate() {
        d.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            }],
            size: 400_000,
            scheme,
            start: SimTime::from_micros(300 * i as u64),
            category: None,
            tag: i as u64,
        });
    }
    d.run(&mut sim, SimTime::from_secs(2), |_, _, _| {});
    d.finalize_running(&mut sim);
    let flows: Vec<String> = d.records().map(|r| format!("{r:?}")).collect();
    let links: Vec<String> = sim
        .links()
        .flat_map(|(id, l)| {
            l.dirs
                .iter()
                .map(move |dir| format!("{id:?}:{:?}", dir.stats))
        })
        .collect();
    sim.audit_conservation();
    let probes = sim.take_probes().expect("probes were installed");
    assert!(!probes.is_empty(), "probe stream empty");
    let bottleneck = sim.link(db.bottleneck).dirs[0].stats.clone();
    (
        flows.join("\n"),
        links.join("\n"),
        probes.export_jsonl(),
        bottleneck,
    )
}

fn red(mode: RedMode) -> QdiscConfig {
    QdiscConfig::Red {
        cap: 100,
        wq: 1.0,
        min_th: 0.0,
        max_th: 8.0,
        max_p: 0.5,
        mode,
        seed: 17,
    }
}

/// Runs `queue` under both pipelines, asserts bit-identity and returns
/// the bottleneck's forward stats for the caller's sanity checks.
fn assert_pipelines_agree(name: &str, queue: QdiscConfig) -> DirStats {
    let (e_flows, e_links, e_probes, stats) = run(queue.clone(), false);
    let (l_flows, l_links, l_probes, _) = run(queue, true);
    assert_eq!(e_flows, l_flows, "{name}: flow records diverged");
    assert_eq!(e_links, l_links, "{name}: link stats diverged");
    assert_eq!(e_probes, l_probes, "{name}: probe JSONL diverged");
    assert!(stats.enqueued > 0, "{name}: bottleneck carried nothing");
    stats
}

#[test]
fn ecn_threshold_k0_marks_on_an_idle_wire_identically() {
    let s = assert_pipelines_agree(
        "EcnThreshold k=0",
        QdiscConfig::EcnThreshold { cap: 100, k: 0 },
    );
    assert!(s.marked > 0, "K = 0 never marked");
}

#[test]
fn red_with_zero_min_threshold_agrees_in_both_modes() {
    let s = assert_pipelines_agree("RED mark min_th=0", red(RedMode::Mark));
    assert!(s.marked > 0, "RED mark mode never marked");
    let s = assert_pipelines_agree("RED drop min_th=0", red(RedMode::Drop));
    assert!(s.dropped > 0, "RED drop mode never dropped");
}

#[test]
fn droptail_cap1_agrees() {
    let s = assert_pipelines_agree("DropTail cap=1", QdiscConfig::DropTail { cap: 1 });
    assert!(s.dropped > 0, "a one-packet buffer never overflowed");
}
