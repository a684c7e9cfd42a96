//! Library half of the repository benchmark: the workloads, the per-layer
//! micro-cells and the traced run's instruments. The `xmpbench` binary
//! drives them; `tests/` re-derives the pinned references.

pub mod alloc;
pub mod cells;
pub mod trace;
pub mod workloads;

/// `hybrid-k8` packet-mode reference on seed 42: mean elephant goodput
/// (bit/s). Re-derived from the packet-only run by `tests/reference.rs`.
pub const HYBRID_REF_GOODPUT_BPS: f64 = 106943770.74723515;
/// `hybrid-k8` packet-mode reference on seed 42: mice FCT p99 (seconds).
pub const HYBRID_REF_FCT_P99_S: f64 = 0.002084506;
