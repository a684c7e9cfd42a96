//! Closed enum over every in-tree congestion controller.
//!
//! [`CcKind`] is the static-dispatch counterpart to
//! `Box<dyn CongestionControl>`: the workload driver builds one per flow
//! (see `Scheme::make_cc` in `xmp-workloads`) and the generic
//! `MpSender<CcKind>` / `HostStack<CcKind>` monomorphize the per-ACK hot
//! path into direct calls — no vtable, no per-flow controller allocation.
//! External or experimental algorithms plug in through [`CcKind::Custom`]:
//! `HostStack::open` takes any `CcKind`, so an out-of-tree
//! `CongestionControl` type needs no change here.

use crate::bos::Bos;
use crate::xmp::Xmp;
use xmp_transport::{
    AckInfo, CcSnapshot, CongestionControl, Dctcp, EchoMode, Lia, Olia, Reno, SubflowCc,
};

/// One in-tree congestion controller, statically dispatched.
pub enum CcKind {
    /// Standard NewReno (uncoupled).
    Reno(Reno),
    /// DCTCP's α-based proportional backoff (uncoupled).
    Dctcp(Dctcp),
    /// Buffer Occupancy Suppression — the paper's single-path building
    /// block (also XMP's uncoupled ablation arm when built per-subflow).
    Bos(Bos),
    /// The full XMP scheme: BOS + TraSh window coupling.
    Xmp(Xmp),
    /// MPTCP's Linked Increases Algorithm (RFC 6356).
    Lia(Lia),
    /// The Opportunistic LIA variant.
    Olia(Olia),
    /// Escape hatch for out-of-tree controllers: one virtual call, exactly
    /// the historical `Box<dyn CongestionControl>` behaviour.
    Custom(Box<dyn CongestionControl>),
}

/// Match-delegating implementation: every arm is a direct (inlinable) call
/// into the concrete controller; only [`CcKind::Custom`] goes through a
/// vtable.
macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            CcKind::Reno($inner) => $body,
            CcKind::Dctcp($inner) => $body,
            CcKind::Bos($inner) => $body,
            CcKind::Xmp($inner) => $body,
            CcKind::Lia($inner) => $body,
            CcKind::Olia($inner) => $body,
            CcKind::Custom($inner) => $body,
        }
    };
}

impl CongestionControl for CcKind {
    fn init(&mut self, n: usize) {
        delegate!(self, c => c.init(n))
    }

    fn on_subflow_added(&mut self) {
        delegate!(self, c => c.on_subflow_added())
    }

    fn echo_mode(&self) -> EchoMode {
        delegate!(self, c => c.echo_mode())
    }

    fn on_ack(&mut self, r: usize, info: &AckInfo, view: &mut [SubflowCc]) {
        delegate!(self, c => c.on_ack(r, info, view))
    }

    fn ssthresh_on_loss(&mut self, r: usize, view: &[SubflowCc]) -> f64 {
        delegate!(self, c => c.ssthresh_on_loss(r, view))
    }

    fn on_rto(&mut self, r: usize, view: &mut [SubflowCc]) {
        delegate!(self, c => c.on_rto(r, view))
    }

    fn name(&self) -> &'static str {
        delegate!(self, c => c.name())
    }

    fn observed_round_p(&self, r: usize) -> Option<f64> {
        delegate!(self, c => c.observed_round_p(r))
    }

    fn probe(&self, r: usize) -> Option<CcSnapshot> {
        delegate!(self, c => c.probe(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmp_des::SimTime;

    fn ack_info(newly_acked: u64, ce: u8, covered: u8) -> AckInfo {
        AckInfo {
            ack_seq: 0,
            newly_acked,
            ce_count: ce,
            covered,
            rtt_sample: None,
            now: SimTime::ZERO,
            mss: 1460,
        }
    }

    #[test]
    fn enum_and_custom_dispatch_agree() {
        for mk in [
            || CcKind::Reno(Reno::new()),
            || CcKind::Dctcp(Dctcp::new()),
            || CcKind::Bos(Bos::new(4)),
            || CcKind::Xmp(Xmp::new(4)),
            || CcKind::Lia(Lia::new()),
            || CcKind::Olia(Olia::new()),
        ] {
            let mut plain = mk();
            let mut boxed = CcKind::Custom(Box::new(mk()));
            assert_eq!(plain.name(), boxed.name());
            assert_eq!(plain.echo_mode(), boxed.echo_mode());
            // One subflow: standalone BOS rejects multipath init.
            plain.init(1);
            boxed.init(1);
            let mut va = vec![SubflowCc::new(10.0)];
            let mut vb = va.clone();
            let info = ack_info(1460, 1, 1);
            for _ in 0..50 {
                plain.on_ack(0, &info, &mut va);
                boxed.on_ack(0, &info, &mut vb);
            }
            assert_eq!(va[0].cwnd.to_bits(), vb[0].cwnd.to_bits());
            assert_eq!(
                plain.ssthresh_on_loss(0, &va).to_bits(),
                boxed.ssthresh_on_loss(0, &vb).to_bits()
            );
        }
    }
}
