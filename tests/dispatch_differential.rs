//! Extension points, end to end.
//!
//! * Agent storage: inline agents (`Sim<Segment, Host>`, the
//!   devirtualized hot path) must be **bit identical** to agents stored as
//!   `Box<dyn Agent>` (the `Sim` default) — same clock, same per-flow
//!   records, same conservation totals, same probe stream — under both
//!   link pipelines, with faults and probes enabled.
//! * Controllers: an out-of-tree `CongestionControl` type plugs in through
//!   `CcKind::Custom` passed to `HostStack::open`, and its flow completes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmp_suite::core::CcKind;
use xmp_suite::netsim::{Agent, ProbeConfig};
use xmp_suite::prelude::*;
use xmp_suite::transport::{AckInfo, EchoMode, SubflowCc};
use xmp_suite::workloads::{FlowSim, Host};

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

const ALL_TUNINGS: [SimTuning; 2] = [
    SimTuning {
        lazy_links: false,
        drop_unroutable: false,
        hybrid: false,
    },
    SimTuning {
        lazy_links: true,
        drop_unroutable: false,
        hybrid: false,
    },
];

/// One faulted, probed dumbbell scenario, generic over agent storage.
/// Returns (final clock, flow digest, audit digest, probe JSONL digest).
fn faulted_probed_run<A: Agent<Segment>>(
    seed: u64,
    tuning: SimTuning,
    mut make_host: impl FnMut() -> A,
) -> (u64, u64, u64, u64) {
    let mut sim: Sim<Segment, A> = Sim::new(seed);
    sim.set_tuning(tuning);
    let db = Dumbbell::build(
        &mut sim,
        4,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| make_host(),
    );
    sim.install_fault_plan(
        &FaultPlan::new()
            .drop_rate(db.bottleneck, 0.02)
            .corrupt_rate(db.bottleneck, 0.01)
            .link_down(SimTime::from_millis(50), db.bottleneck)
            .link_up(SimTime::from_millis(120), db.bottleneck),
    );
    sim.install_probes(
        ProbeConfig::every(SimDuration::from_millis(5))
            .until(SimTime::from_secs(10))
            .watch_queue(db.bottleneck, 0)
            .watch_queue(db.bottleneck, 1)
            .with_marks(),
    );
    let mut d = Driver::new();
    for i in 0..4 {
        d.submit(FlowSpecBuilder {
            src_node: db.sources[i],
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: Dumbbell::src_addr(i),
                dst: Dumbbell::dst_addr(i),
            }],
            size: 2_000_000,
            scheme: if i % 2 == 0 {
                Scheme::xmp(1)
            } else {
                Scheme::Dctcp
            },
            start: SimTime::from_millis(i as u64),
            category: None,
            tag: i as u64,
        });
    }
    d.run(&mut sim, SimTime::from_secs(10), |_, _, _| {});
    let flows: Vec<String> = d
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
fn enum_and_boxed_dumbbell_runs_are_bit_identical_under_every_tuning() {
    for tuning in ALL_TUNINGS {
        let inline =
            faulted_probed_run::<Host>(5, tuning, || HostStack::new(StackConfig::default()));
        let boxed = faulted_probed_run::<Box<dyn Agent<Segment>>>(5, tuning, || {
            Box::new(HostStack::new(StackConfig::default()))
        });
        assert_eq!(
            inline, boxed,
            "{tuning:?}: inline agents diverged from boxed agents"
        );
    }
}

/// A controller the workspace does not know: slow start, then one packet
/// per RTT, halving on loss. Counts the ACKs it handles.
struct TestCc {
    acks: Arc<AtomicU64>,
}

impl CongestionControl for TestCc {
    fn echo_mode(&self) -> EchoMode {
        EchoMode::None
    }

    fn on_ack(&mut self, r: usize, info: &AckInfo, view: &mut [SubflowCc]) {
        if info.newly_acked == 0 {
            return;
        }
        self.acks.fetch_add(1, Ordering::Relaxed);
        let s = &mut view[r];
        s.cwnd += if s.cwnd < s.ssthresh {
            1.0
        } else {
            1.0 / s.cwnd
        };
    }

    fn ssthresh_on_loss(&mut self, r: usize, view: &[SubflowCc]) -> f64 {
        (view[r].cwnd / 2.0).max(2.0)
    }

    fn name(&self) -> &'static str {
        "test-cc"
    }
}

#[test]
fn out_of_tree_controller_plugs_in_through_cc_kind_custom() {
    const SIZE: u64 = 3_000_000;
    const CONN: u64 = 7;
    let mut sim: Sim<Segment, Host> = Sim::new(11);
    let db = Dumbbell::build(
        &mut sim,
        1,
        Bandwidth::from_gbps(1),
        SimDuration::from_micros(400),
        QdiscConfig::EcnThreshold { cap: 100, k: 10 },
        |_| HostStack::new(StackConfig::default()),
    );
    let acks = Arc::new(AtomicU64::new(0));
    let cc = CcKind::Custom(Box::new(TestCc { acks: acks.clone() }));
    sim.with_host(db.sources[0], |s, ctx| {
        let subflows = vec![SubflowSpec {
            local_port: PortId(0),
            src: Dumbbell::src_addr(0),
            dst: Dumbbell::dst_addr(0),
        }];
        s.open(ctx, CONN, subflows, SIZE, cc);
    });
    let mut completed = Vec::new();
    sim.run_until(SimTime::from_secs(5), |_, _, conn| completed.push(conn));
    assert_eq!(
        completed,
        vec![CONN],
        "the custom-controlled flow never completed"
    );
    sim.audit_conservation();
    sim.with_host(db.sources[0], |s, _| {
        let sender = s.sender(CONN).expect("sending connection exists");
        assert_eq!(sender.cc().name(), "test-cc");
        assert_eq!(s.conn_stats(CONN).expect("stats").bytes_acked, SIZE);
    });
    sim.with_host(db.sinks[0], |s, _| {
        assert_eq!(s.receiver(CONN).expect("receiver exists").delivered(), SIZE);
    });
    assert!(
        acks.load(Ordering::Relaxed) > 100,
        "TestCc saw too few ACKs to have driven the flow"
    );
}
