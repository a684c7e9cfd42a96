//! Shared compiled blocks survive a link failure at one of their sharers.
//!
//! The two aggregation switches of a fat-tree pod forward identically, so
//! `compile_fibs` points both rows at the same interned blocks. Taking one
//! of them's core uplink down must demote that switch alone: the other
//! keeps every compiled answer, the failed endpoint's affected entries
//! fall back to the dynamic router, and repair restores compiled answers
//! (and the sharing) on both.

use xmp_suite::netsim::{FlowId, LinkId};
use xmp_suite::prelude::*;
use xmp_suite::topo::RoutingMode;

/// The compiled answer of `node` for every (destination, flow) pair, `None`
/// where forwarding takes the dynamic fallback.
fn compiled_answers(
    sim: &Sim<Segment, HostStack>,
    node: NodeId,
    dsts: &[Addr],
    flows: &[u64],
) -> Vec<Option<PortId>> {
    let fib = sim.fib_tables().expect("tables are current");
    dsts.iter()
        .flat_map(|&d| flows.iter().map(move |&f| fib.lookup(node, d, FlowId(f))))
        .collect()
}

fn shares_every_block(sim: &Sim<Segment, HostStack>, a: NodeId, b: NodeId, dsts: &[Addr]) -> bool {
    let fib = sim.fib_tables().expect("tables are current");
    dsts.iter().all(|&d| {
        let block = fib.block_of(a, d);
        block.is_some() && block == fib.block_of(b, d)
    })
}

#[test]
fn link_down_demotes_only_the_failed_endpoint_of_a_shared_block() {
    let flows: Vec<u64> = (0..8)
        .chain([0xDEAD_BEEF_u64 << 16, u64::MAX - 3])
        .collect();
    for routing in [RoutingMode::TwoLevel, RoutingMode::EcmpPerFlow] {
        let mut sim: Sim<Segment, HostStack> = Sim::new(1);
        let cfg = FatTreeConfig {
            k: 4,
            routing,
            ..FatTreeConfig::paper(QdiscConfig::EcnThreshold { cap: 100, k: 10 })
        };
        let ft = FatTree::build(&mut sim, &cfg, |_| HostStack::new(StackConfig::default()));
        sim.compile_fibs();
        let dsts: Vec<Addr> = sim.addresses().map(|(a, _)| a).collect();
        let (hit, peer) = (ft.aggs[0], ft.aggs[1]);
        assert!(
            shares_every_block(&sim, hit, peer, &dsts),
            "{routing:?}: same-pod aggregation switches should share blocks"
        );
        let hit_before = compiled_answers(&sim, hit, &dsts, &flows);
        let peer_before = compiled_answers(&sim, peer, &dsts, &flows);
        assert!(hit_before.iter().chain(&peer_before).all(Option::is_some));

        // A core uplink of `hit`, and the port it leaves `hit` by.
        let (uplink, dead_port): (LinkId, PortId) = ft
            .core_links
            .iter()
            .find_map(|&l| {
                let dirs = &sim.link(l).dirs;
                (0..2).find_map(|i| (dirs[i].to_node == hit).then_some((l, dirs[i].to_port)))
            })
            .expect("aggregation switch has a core uplink");
        sim.take_link_down(uplink);

        assert_eq!(
            compiled_answers(&sim, peer, &dsts, &flows),
            peer_before,
            "{routing:?}: demotion leaked into the switch sharing the block"
        );
        let hit_after = compiled_answers(&sim, hit, &dsts, &flows);
        let mut demoted = 0;
        for (i, (&before, &after)) in hit_before.iter().zip(&hit_after).enumerate() {
            let (d, f) = (dsts[i / flows.len()], flows[i % flows.len()]);
            match after {
                Some(p) => {
                    assert_eq!(Some(p), before, "{routing:?}: {d} flow {f} changed port");
                    assert_ne!(
                        p, dead_port,
                        "{routing:?}: {d} flow {f} still on the dead port"
                    );
                }
                None => {
                    demoted += 1;
                    assert_eq!(
                        sim.route_on(hit, d, FlowId(f), PortId(0)),
                        sim.route_dynamic(hit, d, FlowId(f), PortId(0)),
                        "{routing:?}: demoted {d} flow {f} must take the dynamic router"
                    );
                }
            }
        }
        assert!(demoted > 0, "{routing:?}: the failure demoted nothing");
        assert!(!shares_every_block(&sim, hit, peer, &dsts));

        sim.bring_link_up(uplink);
        assert_eq!(compiled_answers(&sim, hit, &dsts, &flows), hit_before);
        assert_eq!(compiled_answers(&sim, peer, &dsts, &flows), peer_before);
        assert!(
            shares_every_block(&sim, hit, peer, &dsts),
            "{routing:?}: repair should re-share the original blocks"
        );
    }
}
