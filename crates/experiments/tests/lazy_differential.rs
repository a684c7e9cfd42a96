//! Differential equivalence of the link pipelines at the experiment level:
//! the lazy one-event-per-hop pipeline must reproduce the eager `TxDone`
//! pipeline **bit-identically** on the paper's workloads.
//!
//! The comparison digest is the full `Debug` rendering of each result
//! structure — f64 Debug formatting round-trips exactly, so equal strings
//! mean bit-equal rates, Jain indices, goodputs and queue statistics.

use xmp_des::SimDuration;
use xmp_experiments::fig1::{self, Fig1Config};
use xmp_experiments::suite::{run_suite, Pattern, SuiteConfig};
use xmp_netsim::SimTuning;
use xmp_workloads::Scheme;

const EAGER: SimTuning = SimTuning {
    lazy_links: false,
    drop_unroutable: false,
    hybrid: false,
};
const LAZY: SimTuning = SimTuning {
    lazy_links: true,
    drop_unroutable: false,
    hybrid: false,
};

fn fig1_digest(seed: u64, tuning: SimTuning) -> String {
    let cfg = Fig1Config {
        interval: SimDuration::from_millis(60),
        bin: SimDuration::from_millis(20),
        seed,
        tuning,
    };
    format!("{:?}", fig1::run(&cfg))
}

#[test]
fn fig1_fast_paths_match_baseline_multi_seed() {
    for seed in [3, 7, 11] {
        assert_eq!(
            fig1_digest(seed, EAGER),
            fig1_digest(seed, LAZY),
            "seed {seed}: lazy links diverged on fig1"
        );
    }
}

fn table1_digest(seed: u64, scheme: Scheme, tuning: SimTuning) -> String {
    let cfg = SuiteConfig {
        target_flows: 6,
        max_sim: SimDuration::from_secs(2),
        seed,
        tuning,
        ..SuiteConfig::quick(scheme, Pattern::Permutation)
    };
    format!("{:?}", run_suite(&cfg))
}

#[test]
fn table1_cell_fast_paths_match_baseline() {
    // The fat-tree cell exercises ECMP hashing on every hop, ECN marking
    // at the paper's K, retransmission timers and multi-subflow transport —
    // the full event soup the equivalence argument has to survive.
    for (seed, scheme) in [(1, Scheme::xmp(2)), (2, Scheme::Dctcp)] {
        assert_eq!(
            table1_digest(seed, scheme, EAGER),
            table1_digest(seed, scheme, LAZY),
            "seed {seed}: lazy links diverged on table1 cell"
        );
    }
}
