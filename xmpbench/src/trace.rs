//! The traced run's instruments, all outside the simulator: a timing
//! wrapper around the host agent and in-memory spans written out at exit.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use xmp_netsim::{Agent, Ctx, Packet, PortId};
use xmp_transport::{SegKind, Segment};
use xmp_workloads::Host;

/// One host's agent counters. The owning [`Timed`] wrapper keeps the
/// running totals in plain fields and publishes them here with relaxed
/// stores, so the wrapper stays `Send` (it runs on partition workers)
/// and the harness can read every host's totals between slices. The
/// values are statistics; the harness reads them after `run_until`
/// returns, when partition workers have reached their end-of-window
/// barrier.
#[derive(Default)]
#[repr(align(64))]
pub struct AgentCounters {
    ns: AtomicU64,
    acks: AtomicU64,
    data: AtomicU64,
    timers: AtomicU64,
}

/// Sum of [`AgentCounters`] over hosts.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentTotals {
    /// Host nanoseconds inside `on_packet`/`on_timer`.
    pub ns: u64,
    /// Sender-side packets (SYN-ACKs and ACKs).
    pub acks: u64,
    /// Receiver-side packets (SYNs and data).
    pub data: u64,
    /// Timer callbacks.
    pub timers: u64,
}

impl AgentTotals {
    /// Every agent call.
    pub fn calls(&self) -> u64 {
        self.acks + self.data + self.timers
    }

    /// Totals over a set of hosts.
    pub fn sum(cells: &[Arc<AgentCounters>]) -> AgentTotals {
        let mut t = AgentTotals::default();
        for c in cells {
            t.ns += c.ns.load(Relaxed);
            t.acks += c.acks.load(Relaxed);
            t.data += c.data.load(Relaxed);
            t.timers += c.timers.load(Relaxed);
        }
        t
    }
}

/// Timing wrapper around the driver's [`Host`]. `as_any_mut` delegates to
/// the inner stack, so the driver's downcasts to `Host` keep working.
pub struct Timed {
    inner: Host,
    totals: AgentTotals,
    out: Arc<AgentCounters>,
}

impl Timed {
    /// Wrap `inner`, publishing into `out`.
    pub fn new(inner: Host, out: Arc<AgentCounters>) -> Self {
        Timed {
            inner,
            totals: AgentTotals::default(),
            out,
        }
    }

    fn publish(&mut self, start: Instant) {
        self.totals.ns += start.elapsed().as_nanos() as u64;
        self.out.ns.store(self.totals.ns, Relaxed);
        self.out.acks.store(self.totals.acks, Relaxed);
        self.out.data.store(self.totals.data, Relaxed);
        self.out.timers.store(self.totals.timers, Relaxed);
    }
}

impl Agent<Segment> for Timed {
    fn on_packet(&mut self, pkt: Packet<Segment>, port: PortId, ctx: &mut Ctx<'_, Segment>) {
        match pkt.payload.kind {
            SegKind::SynAck | SegKind::Ack => self.totals.acks += 1,
            SegKind::Syn | SegKind::Data => self.totals.data += 1,
        }
        let start = Instant::now();
        self.inner.on_packet(pkt, port, ctx);
        self.publish(start);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Segment>) {
        self.totals.timers += 1;
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        self.publish(start);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// One recorded span: each driver slice, then the workload's root span
/// covering them all.
#[derive(Clone, Debug)]
pub struct Span {
    /// The workload's name for the root span, `slice` for its children.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Simulated time at the end of the span (nanoseconds).
    pub sim_end_ns: u64,
    /// Host nanoseconds the simulator's run loop reported for the span.
    pub run_loop_ns: u64,
    /// Host nanoseconds spent inside agents during the span.
    pub agent_ns: u64,
    /// Agent calls during the span.
    pub agent_calls: u64,
    /// Events pending in the simulator's queue at the end of the span
    /// (serial runs only; 0 under partitioning).
    pub pending: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Spans in completion order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Render every span as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"sim_end_ns\":{},\
                 \"run_loop_ns\":{},\"agent_ns\":{},\"agent_calls\":{},\"pending\":{}}}",
                sp.name,
                sp.start_ns,
                sp.dur_ns,
                sp.sim_end_ns,
                sp.run_loop_ns,
                sp.agent_ns,
                sp.agent_calls,
                sp.pending
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}
