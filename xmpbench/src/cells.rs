//! Per-layer micro-cells: host nanoseconds per call of each layer's
//! public entry points, timed from outside on seeded synthetic inputs.
//! Every cell reports the median of [`TRIALS`] timed trials.

use std::hint::black_box;
use std::time::Instant;
use xmp_des::{ByteSize, EventQueue, SimDuration, SimRng, SimTime};
use xmp_netsim::fluid::{window_step, CouplingView, FluidSubflow, PathSignal};
use xmp_netsim::{Addr, Ecn, FlowId, FluidCc, Packet, PortId, Qdisc, QdiscConfig, RedMode, Sim};
use xmp_topo::FatTree;
use xmp_transport::{
    AckInfo, CongestionControl, ConnKey, HostStack, MpReceiver, MpSender, ReplyPath, RxAction,
    SegKind, Segment, StackConfig, SubflowCc, SubflowSpec, TxAction,
};
use xmp_workloads::{Host, Scheme};

/// Timed trials per cell.
const TRIALS: usize = 5;

/// Median host nanoseconds per op of `f`, which runs `ops` ops per call.
fn per_op(ops: u64, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f()); // warm-up
    let mut ns: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[TRIALS / 2]
}

/// Hold-model delta mix: 80% packet-scale (≤ 40 µs), 18% flow-scale
/// (≤ 2 ms), 2% RTO-scale (200 ms) timers past the wheel horizon.
fn hold_deltas(rng: &mut SimRng, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| match rng.index(100) {
            0..=79 => 1 + rng.index(40_000) as u64,
            80..=97 => 1 + rng.index(2_000_000) as u64,
            _ => 200_000_000,
        })
        .collect()
}

/// `EventQueue::pop` + `push_keyed` at a steady `pending` population.
pub fn des_hold_ns(pending: usize) -> f64 {
    const OPS: usize = 400_000;
    let mut rng = SimRng::new(1);
    let prime = hold_deltas(&mut rng, pending);
    let hold = hold_deltas(&mut rng, OPS);
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, &d) in prime.iter().enumerate() {
        q.push_keyed(SimTime::ZERO + SimDuration::from_nanos(d), i as u64, 0);
    }
    per_op(OPS as u64, || {
        let mut sum = 0u64;
        for (i, &d) in hold.iter().enumerate() {
            let ev = q.pop().expect("population keeps the queue non-empty");
            sum = sum.wrapping_add(ev.at.as_nanos());
            q.push_keyed(ev.at + SimDuration::from_nanos(d), i as u64, ev.event);
        }
        sum
    })
}

/// `Sim::route_on` on a built k-ary fat tree over seeded
/// (switch, destination, flow) triples.
pub fn route_ns(k: usize) -> f64 {
    const OPS: usize = 200_000;
    let mut sim: Sim<Segment, Host> = Sim::new(1);
    let ft = FatTree::build(&mut sim, &crate::workloads::tree_config(k), |_| {
        HostStack::new(StackConfig::default())
    });
    sim.compile_fibs();
    let switches: Vec<_> = ft
        .edges
        .iter()
        .chain(&ft.aggs)
        .chain(&ft.cores)
        .copied()
        .collect();
    let mut rng = SimRng::new(2);
    let triples: Vec<_> = (0..OPS)
        .map(|_| {
            let sw = switches[rng.index(switches.len())];
            let dst = ft.host_addr(rng.index(ft.hosts.len()), rng.index(ft.tag_count()));
            (sw, dst, FlowId(rng.next_u64()))
        })
        .collect();
    per_op(OPS as u64, || {
        triples
            .iter()
            .map(|&(sw, dst, flow)| sim.route_on(sw, dst, flow, PortId(0)).0 as u64)
            .sum()
    })
}

fn packet(flow: u64) -> Packet<u32> {
    Packet::new(
        Addr::new(10, 0, 0, 2),
        Addr::new(10, 1, 0, 2),
        FlowId(flow),
        Ecn::Ect,
        ByteSize::from_bytes(1500),
        0,
    )
}

/// `Qdisc::enqueue` + `dequeue` at a standing backlog of 8–12 packets,
/// around the paper's K = 10.
pub fn qdisc_ns(cfg: &QdiscConfig) -> f64 {
    const OPS: u64 = 1_000_000;
    let mut q = cfg.build::<u32>();
    for i in 0..10 {
        q.enqueue(packet(i));
    }
    per_op(OPS, || {
        let mut sum = 0u64;
        for i in 0..OPS {
            q.enqueue(packet(i));
            // Two dequeues every other op keeps the backlog oscillating.
            if i % 4 != 1 {
                if let Some(p) = q.dequeue() {
                    sum = sum.wrapping_add(p.flow.0);
                }
            }
            if i % 4 == 3 {
                q.enqueue(packet(i));
            }
        }
        sum
    })
}

/// RED as a classic early marker (EWMA, 5–15 packet band, 10% peak).
pub const RED: QdiscConfig = QdiscConfig::Red {
    cap: 100,
    wq: 0.002,
    min_th: 5.0,
    max_th: 15.0,
    max_p: 0.1,
    mode: RedMode::Mark,
    seed: 3,
};

/// `Qdisc::classify` (the lazy pipeline's admission decision) at
/// backlogs sweeping 0–19 packets.
pub fn classify_ns(cfg: &QdiscConfig) -> f64 {
    const OPS: u64 = 1_000_000;
    let mut q = cfg.build::<u32>();
    per_op(OPS, || {
        let mut sum = 0u64;
        for i in 0..OPS {
            let mut p = packet(i);
            let out = q.classify((i % 20) as usize, &mut p);
            sum = sum.wrapping_add(out as u64 + p.ecn as u64);
        }
        sum
    })
}

/// `CcKind::on_ack` with synthetic ACKs over a 2-subflow view: one MSS
/// newly acked per ACK, 100 µs RTT samples, every 16th ACK echoing a mark.
pub fn cc_on_ack_ns(scheme: Scheme) -> f64 {
    const OPS: u64 = 1_000_000;
    const MSS: u32 = 1460;
    per_op(OPS, || {
        let mut cc = scheme.make_cc();
        cc.init(2);
        let mut view = vec![SubflowCc::new(10.0), SubflowCc::new(10.0)];
        let mut now = SimTime::ZERO;
        for i in 0..OPS {
            let r = (i % 2) as usize;
            now += SimDuration::from_micros(5);
            let v = &mut view[r];
            v.snd_una += u64::from(MSS);
            v.snd_nxt = v.snd_una + (v.cwnd.max(1.0) as u64) * u64::from(MSS);
            v.srtt = Some(SimDuration::from_micros(100));
            let info = AckInfo {
                ack_seq: v.snd_una,
                newly_acked: u64::from(MSS),
                ce_count: u8::from(i % 16 == 0),
                covered: 1,
                rtt_sample: Some(SimDuration::from_micros(100)),
                now,
                mss: MSS,
            };
            cc.on_ack(r, &info, &mut view);
        }
        (view[0].cwnd + view[1].cwnd) as u64
    })
}

/// `fluid::window_step` per subflow step of a 2-subflow flow, coupling
/// view recomputed per tick as the fluid plane does, 5% mark probability.
pub fn fluid_step_ns(cc: FluidCc) -> f64 {
    const TICKS: u64 = 500_000;
    let sig = PathSignal {
        p_mark: 0.05,
        p_loss: 0.0,
    };
    per_op(2 * TICKS, || {
        let rtt = SimDuration::from_micros(100);
        let mut subs = [FluidSubflow::model(rtt), FluidSubflow::model(rtt)];
        for _ in 0..TICKS {
            let view = CouplingView::of(&subs);
            for s in &mut subs {
                window_step(&cc, s, &view, sig, 1.0);
            }
        }
        (subs[0].cwnd + subs[1].cwnd) as u64
    })
}

/// `MpSender::on_segment` ↔ `MpReceiver::on_data` loopback, XMP-2, no
/// network: host nanoseconds per ACK the sender handles, including the
/// receiver work that produced it. Every 20th data segment arrives
/// CE-marked so the window stays bounded.
pub fn transport_ack_ns() -> f64 {
    const ACKS: u64 = 300_000;
    const CONN: ConnKey = 7;
    per_op(ACKS, || {
        let cfg = StackConfig::default();
        let spec = |t: u8| SubflowSpec {
            local_port: PortId(0),
            src: Addr::new(10, 0, t, 2),
            dst: Addr::new(10, 1, t, 2),
        };
        let mut tx = MpSender::new(
            CONN,
            vec![spec(0), spec(1)],
            u64::MAX,
            Scheme::xmp(2).make_cc(),
            &cfg,
            SimTime::ZERO,
        );
        let reply = ReplyPath {
            port: PortId(0),
            src: Addr::new(10, 1, 0, 2),
            dst: Addr::new(10, 0, 0, 2),
        };
        let mut rx: Option<MpReceiver> = None;
        let (mut tx_out, mut rx_out) = (Vec::new(), Vec::new());
        let (mut to_rx, mut to_tx): (Vec<Segment>, Vec<Segment>) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        let mut data = 0u64;
        let mut acks = 0u64;
        tx.open(now, &mut tx_out);
        while acks < ACKS {
            now += SimDuration::from_micros(10);
            for a in tx_out.drain(..) {
                if let TxAction::Emit(_, seg) = a {
                    to_rx.push(seg);
                }
            }
            let mut delacks = [false; 2];
            for seg in to_rx.drain(..) {
                let rx = rx.get_or_insert_with(|| {
                    MpReceiver::new(CONN, seg.echo_mode, cfg.delack_timeout)
                });
                if seg.kind == SegKind::Syn {
                    rx.on_syn(&seg, reply, now, &mut rx_out);
                } else {
                    data += 1;
                    rx.on_data(&seg, data.is_multiple_of(20), now, &mut rx_out);
                }
                for a in rx_out.drain(..) {
                    match a {
                        RxAction::Emit(_, ack, _) => to_tx.push(ack),
                        RxAction::ArmDelack(r, _) => delacks[r as usize] = true,
                        RxAction::CancelDelack(r) => delacks[r as usize] = false,
                    }
                }
            }
            // Fire pending delayed ACKs at the end of each exchange.
            for (r, armed) in delacks.into_iter().enumerate() {
                if armed {
                    if let Some(rx) = rx.as_mut() {
                        rx.on_delack(r, &mut rx_out);
                    }
                    for a in rx_out.drain(..) {
                        if let RxAction::Emit(_, ack, _) = a {
                            to_tx.push(ack);
                        }
                    }
                }
            }
            for seg in to_tx.drain(..) {
                acks += 1;
                tx.on_segment(&seg, now, &mut tx_out);
            }
        }
        data
    })
}
