//! Re-derive the pinned `hybrid-k8` packet-mode reference from a
//! packet-only run of the same population (about 15 s optimized).

use xmpbench::workloads::{hybrid_packet_reference, PINNED_SEED};
use xmpbench::{HYBRID_REF_FCT_P99_S, HYBRID_REF_GOODPUT_BPS};

#[test]
fn hybrid_packet_reference_matches_pinned_constants() {
    let (goodput, fct_p99, all_done) = hybrid_packet_reference(PINNED_SEED);
    assert!(all_done, "packet-mode reference left flows unfinished");
    assert_eq!(
        (goodput, fct_p99),
        (HYBRID_REF_GOODPUT_BPS, HYBRID_REF_FCT_P99_S),
        "re-derived (goodput bit/s, FCT p99 s) differs from the pinned constants"
    );
}
