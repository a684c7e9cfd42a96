//! Full-duplex links with store-and-forward serialization.
//!
//! A link is two independent **directions**. Each direction has its own
//! queue discipline, serialization state and statistics. A packet offered to
//! a direction is (a) possibly dropped by fault injection, (b) offered to
//! the qdisc (which may mark or drop), then (c) serialized onto the wire for
//! `size / rate` and delivered `prop_delay` later.

use crate::node::{NodeId, PortId};
use crate::packet::Packet;
use crate::queue::{Qdisc, QdiscConfig, QdiscKind};
use crate::stats::DirStats;
use std::collections::VecDeque;
use std::fmt;
use xmp_des::{Bandwidth, ByteSize, SimDuration, SimRng, SimTime};

/// Index of a link in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Random fault injection on a link direction (smoltcp-style `--drop-chance`
/// and `--corrupt-chance`).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Probability that an arriving packet is silently dropped.
    pub drop_prob: f64,
    /// Probability that a packet is corrupted in transit and discarded by
    /// the receiving end (after spending its full serialization and
    /// propagation time on the wire).
    pub corrupt_prob: f64,
}

/// Parameters for creating a link. Both directions share them.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Serialization rate.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue discipline for each direction.
    pub queue: QdiscConfig,
    /// Optional fault injection.
    pub fault: FaultConfig,
}

impl LinkParams {
    /// A link with the given rate/delay and a queue config, no faults.
    pub fn new(bandwidth: Bandwidth, delay: SimDuration, queue: QdiscConfig) -> Self {
        LinkParams {
            bandwidth,
            delay,
            queue,
            fault: FaultConfig::default(),
        }
    }

    /// Add random drops with the given probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.fault.drop_prob = p;
        self
    }
}

/// One direction of a link.
pub struct Direction<P> {
    /// Node the direction delivers to.
    pub to_node: NodeId,
    /// Port on `to_node` the packet arrives on.
    pub to_port: PortId,
    /// Queue of packets waiting behind the one being serialized.
    /// Statically dispatched for the in-tree disciplines; see
    /// [`QdiscKind`].
    pub queue: QdiscKind<P>,
    /// Packet currently on the wire (being serialized), if any.
    pub in_flight: Option<Packet<P>>,
    /// Per-direction counters.
    pub stats: DirStats,
    pub(crate) fault: FaultConfig,
    pub(crate) fault_rng: SimRng,
    /// Separate stream for corruption draws so enabling one fault kind
    /// never perturbs the other's sequence.
    pub(crate) corrupt_rng: SimRng,
    /// The direction is failed: everything offered is blackholed.
    pub(crate) down: bool,
    /// Bumped on every `LinkDown`; `TxDone`/`Deliver` events carry the
    /// generation they were scheduled under, so events belonging to packets
    /// purged by a failure are recognized as stale.
    pub(crate) fail_gen: u32,
    /// Conservation audit: packets accepted by this direction whose
    /// `Deliver` has not yet been processed (negative would mean a packet
    /// was double-counted — asserted by `Sim::audit_conservation`).
    pub(crate) in_network: i64,
    /// Lazy pipeline: when the port frees up. Serialization is FIFO and
    /// non-preemptive, so a packet accepted at `now` starts transmitting at
    /// `busy_until.max(now)` — its departure is fully determined at enqueue.
    pub(crate) busy_until: SimTime,
    /// Lazy pipeline: `(start, depart)` per accepted, undelivered-from-port
    /// packet, in departure order. The front entry with `start <= now` is
    /// the one "on the wire"; later entries are the waiting backlog.
    pub(crate) pending: VecDeque<(SimTime, SimTime)>,
    /// Hybrid mode: aggregate registered fluid inflow (bytes/s). Updated by
    /// [`crate::fluid::FluidState`] ticks; always 0.0 when hybrid is off.
    pub(crate) fluid_rate: f64,
    /// Hybrid mode: analytic fluid backlog (bytes) as of [`Self::fluid_asof`].
    pub(crate) fluid_backlog: f64,
    /// Hybrid mode: cumulative fluid bytes served by this direction.
    pub(crate) fluid_bytes_out: f64,
    /// Hybrid mode: instant `fluid_backlog`/`fluid_bytes_out` are valid at.
    pub(crate) fluid_asof: SimTime,
}

impl<P: Send> Direction<P> {
    /// Instantaneous backlog (waiting packets, excluding the one on the wire).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Whether the direction is currently failed (see
    /// [`FaultPlan`](crate::FaultPlan)).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Record a queue-length sample for time-weighted averaging.
    pub(crate) fn sample_backlog(&mut self, now: SimTime) {
        let depth = self.queue.len() + usize::from(self.in_flight.is_some());
        self.stats.observe_backlog(now, depth);
    }

    /// Lazy pipeline: retire entries that departed strictly before `now`,
    /// replaying the backlog sample the eager path would have taken at each
    /// `TxDone`. Strict, because the eager path processes a same-timestamp
    /// arrival *before* the `TxDone` scheduled for the same instant
    /// (propagation exceeds serialization on every in-tree link, so the
    /// arrival was scheduled first).
    pub(crate) fn lazy_advance(&mut self, now: SimTime) {
        while let Some(&(_, depart)) = self.pending.front() {
            if depart >= now {
                break;
            }
            self.pending.pop_front();
            self.stats.observe_backlog(depart, self.pending.len());
        }
    }

    /// Lazy pipeline: retire entries with `depart <= t` — used when a run
    /// window closes, mirroring the eager engine processing every `TxDone`
    /// up to and including the deadline.
    pub(crate) fn lazy_flush(&mut self, t: SimTime) {
        while let Some(&(_, depart)) = self.pending.front() {
            if depart > t {
                break;
            }
            self.pending.pop_front();
            self.stats.observe_backlog(depart, self.pending.len());
        }
    }

    /// Lazy pipeline: waiting backlog at `now` (excluding the packet on the
    /// wire), after [`Self::lazy_advance`]. The front entry has started
    /// whenever `start <= now`.
    pub(crate) fn lazy_waiting(&self, now: SimTime) -> usize {
        match self.pending.front() {
            Some(&(start, _)) if start <= now => {
                // A link teardown clears `pending` wholesale; a stale
                // started-entry here would make the backlog go negative
                // (and silently skew ECN marking decisions).
                debug_assert!(!self.down, "lazy backlog consulted on a downed direction");
                self.pending
                    .len()
                    .checked_sub(1)
                    .expect("lazy_waiting underflow: started entry on empty pending ring")
            }
            _ => self.pending.len(),
        }
    }

    /// Hybrid mode: integrate the fluid backlog forward to `now` under the
    /// registered inflow rate against service capacity `cap_bytes_per_sec`,
    /// clamping at `max_backlog_bytes` (the qdisc buffer expressed in
    /// bytes — fluid overflow is "lost" analytically, exactly like a
    /// packet-mode tail drop). Served bytes accumulate in
    /// `fluid_bytes_out`. A downed direction blackholes fluid traffic: the
    /// backlog is zeroed and nothing is served.
    ///
    /// Piecewise-constant rates make this exact (not an approximation):
    /// rates only change at fluid tick events, and every tick advances the
    /// hops it touches first.
    pub(crate) fn fluid_advance(
        &mut self,
        now: SimTime,
        cap_bytes_per_sec: f64,
        max_backlog_bytes: f64,
    ) {
        let dt = now.duration_since(self.fluid_asof).as_secs_f64();
        self.fluid_asof = now;
        if dt <= 0.0 {
            return;
        }
        if self.down {
            self.fluid_backlog = 0.0;
            return;
        }
        let inflow = self.fluid_rate * dt;
        // Service: the direction works off backlog + inflow at `cap`, but
        // can never serve more than arrived (idle when the backlog is dry
        // and inflow is below capacity).
        let servable = self.fluid_backlog + inflow;
        let served = servable.min(cap_bytes_per_sec * dt);
        self.fluid_bytes_out += served;
        self.fluid_backlog = (servable - served).min(max_backlog_bytes);
    }
}

impl<P: Send> fmt::Debug for Direction<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Direction")
            .field("to_node", &self.to_node)
            .field("backlog", &self.queue.len())
            .field("busy", &self.in_flight.is_some())
            .finish()
    }
}

/// A serialization rate with its per-byte cost precomputed. When a byte
/// takes a whole number of picoseconds (`8e12 % bps == 0`: 1, 10, 40 and
/// 100 Gbps, the torus's 0.8 Gbps, 1 and 100 Mbps),
/// [`TxRate::transmission_time`] is a multiply and a division by the
/// constant 1000; other rates, and products past `u64`, take the u128
/// division of [`Bandwidth::transmission_time`]. Both give the same
/// truncated nanoseconds: `bytes · ps / 1000 = bytes · 8e9 / bps` exactly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxRate {
    bandwidth: Bandwidth,
    ps_per_byte: Option<u64>,
}

impl TxRate {
    pub(crate) fn new(bandwidth: Bandwidth) -> Self {
        const PS_PER_BIT_SECOND: u64 = 8_000_000_000_000; // 8 bits × 1e12 ps
        let bps = bandwidth.as_bps();
        let ps_per_byte =
            (bps > 0 && PS_PER_BIT_SECOND.is_multiple_of(bps)).then(|| PS_PER_BIT_SECOND / bps);
        TxRate {
            bandwidth,
            ps_per_byte,
        }
    }

    /// Time to serialize `size`, bit-identical to
    /// [`Bandwidth::transmission_time`].
    #[inline]
    pub(crate) fn transmission_time(self, size: ByteSize) -> SimDuration {
        match self
            .ps_per_byte
            .and_then(|ps| size.as_bytes().checked_mul(ps))
        {
            Some(ps) => SimDuration::from_nanos(ps / 1000),
            None => self.bandwidth.transmission_time(size),
        }
    }
}

/// A full-duplex link: `dirs[0]` carries a→b, `dirs[1]` carries b→a.
pub struct Link<P> {
    /// Serialization rate (both directions).
    pub bandwidth: Bandwidth,
    /// `bandwidth` with its per-byte cost precomputed.
    pub(crate) rate: TxRate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// The two directions.
    pub dirs: [Direction<P>; 2],
    /// Optional label from the topology builder (e.g. `"L3"`).
    pub label: String,
    /// The queue configuration both directions were built from, kept so a
    /// partitioned run can replicate pristine direction state per shard.
    pub(crate) qcfg: QdiscConfig,
}

impl<P> Link<P> {
    pub(crate) fn new(
        params: &LinkParams,
        a: (NodeId, PortId),
        b: (NodeId, PortId),
        rng: &SimRng,
        link_index: u32,
        label: String,
    ) -> Self
    where
        P: Send + 'static,
    {
        let mk_dir = |to: (NodeId, PortId), salt: u64| Direction {
            to_node: to.0,
            to_port: to.1,
            queue: params.queue.build(),
            in_flight: None,
            stats: DirStats::default(),
            fault: params.fault,
            fault_rng: rng.derive((link_index as u64) << 1 | salt),
            corrupt_rng: rng.derive((1 << 32) | (link_index as u64) << 1 | salt),
            down: false,
            fail_gen: 0,
            in_network: 0,
            busy_until: SimTime::ZERO,
            pending: VecDeque::new(),
            fluid_rate: 0.0,
            fluid_backlog: 0.0,
            fluid_bytes_out: 0.0,
            fluid_asof: SimTime::ZERO,
        };
        Link {
            bandwidth: params.bandwidth,
            rate: TxRate::new(params.bandwidth),
            delay: params.delay,
            dirs: [mk_dir(b, 0), mk_dir(a, 1)],
            label,
            qcfg: params.queue.clone(),
        }
    }

    /// Clone this link with **pristine** dynamic state: a fresh queue built
    /// from the stored config, no packet in flight, an empty lazy pipeline,
    /// and copies of the stats/RNG/fault state. Only valid before any
    /// traffic has run (asserted), so a partitioned run can hand every
    /// shard an identical replica of the full link table.
    pub(crate) fn replicate(&self) -> Self
    where
        P: Send + 'static,
    {
        let rep_dir = |d: &Direction<P>| {
            assert!(
                d.in_flight.is_none() && d.queue.len() == 0 && d.pending.is_empty(),
                "link replication requires a pristine link (no traffic yet)"
            );
            Direction {
                to_node: d.to_node,
                to_port: d.to_port,
                queue: self.qcfg.build(),
                in_flight: None,
                stats: d.stats.clone(),
                fault: d.fault,
                fault_rng: d.fault_rng.clone(),
                corrupt_rng: d.corrupt_rng.clone(),
                down: d.down,
                fail_gen: d.fail_gen,
                in_network: d.in_network,
                busy_until: d.busy_until,
                pending: VecDeque::new(),
                fluid_rate: 0.0,
                fluid_backlog: 0.0,
                fluid_bytes_out: 0.0,
                fluid_asof: SimTime::ZERO,
            }
        };
        Link {
            bandwidth: self.bandwidth,
            rate: self.rate,
            delay: self.delay,
            dirs: [rep_dir(&self.dirs[0]), rep_dir(&self.dirs[1])],
            label: self.label.clone(),
            qcfg: self.qcfg.clone(),
        }
    }

    /// Convenience accessor.
    pub fn dir(&self, d: u8) -> &Direction<P> {
        &self.dirs[d as usize]
    }

    /// Mutable accessor.
    pub fn dir_mut(&mut self, d: u8) -> &mut Direction<P> {
        &mut self.dirs[d as usize]
    }
}

impl<P> fmt::Debug for Link<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Link")
            .field("bandwidth", &self.bandwidth)
            .field("delay", &self.delay)
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_rate_matches_bandwidth_transmission_time() {
        for (gbps, exact) in [(1, true), (10, true), (40, true), (3, false)] {
            let bw = Bandwidth::from_gbps(gbps);
            let rate = TxRate::new(bw);
            assert_eq!(rate.ps_per_byte.is_some(), exact, "{gbps} Gbps");
            for bytes in 0..=9000 {
                let size = ByteSize::from_bytes(bytes);
                assert_eq!(
                    rate.transmission_time(size),
                    bw.transmission_time(size),
                    "{gbps} Gbps, {bytes} B"
                );
            }
        }
        // 300 Mbps: 26 666.7 ps per byte, fallback path.
        let bw = Bandwidth::from_mbps(300);
        assert!(TxRate::new(bw).ps_per_byte.is_none());
        // A product past u64 (2^42 B × 8e6 ps) takes the u128 division too.
        let slow = Bandwidth::from_mbps(1);
        let huge = ByteSize::from_bytes(1 << 42);
        assert_eq!(
            TxRate::new(slow).transmission_time(huge),
            slow.transmission_time(huge)
        );
    }
}
