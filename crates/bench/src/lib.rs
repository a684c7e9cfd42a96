//! # xmp-bench — in-tree benchmark harness (std-only)
//!
//! Replaces the former Criterion dependency so the workspace builds and
//! benches **offline with zero external crates**. The harness is
//! deliberately tiny: wall-clock trials via [`std::time::Instant`] with a
//! warmup pass, reporting median/min/mean.
//!
//! Every `benches/*.rs` target is a plain `fn main()` (`harness = false`)
//! that first renders its paper artifact once (stderr, so `cargo bench`
//! output still contains the regenerated rows) and then measures the run
//! through [`bench_main`]. The repository benchmark with end-to-end and
//! per-layer cells is `xmpbench/`.

use std::fmt;
use std::time::Instant;

/// Trial-count configuration. A single iteration here is a whole
/// simulation, so counts stay small (Criterion's `sample_size(10)`
/// equivalent).
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Untimed iterations to warm caches and the allocator.
    pub warmup: usize,
    /// Timed iterations.
    pub trials: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: 1,
            trials: 5,
        }
    }
}

/// Wall-clock statistics over the timed trials, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Median trial.
    pub median_ns: u64,
    /// Fastest trial.
    pub min_ns: u64,
    /// Slowest trial.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Number of timed trials.
    pub trials: usize,
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:.3} ms, min {:.3} ms, mean {:.3} ms over {} trials",
            self.median_ns as f64 / 1e6,
            self.min_ns as f64 / 1e6,
            self.mean_ns as f64 / 1e6,
            self.trials
        )
    }
}

/// Time `f` for `cfg.trials` iterations after `cfg.warmup` untimed ones.
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the compiler cannot elide the work.
pub fn measure<R>(cfg: BenchConfig, mut f: impl FnMut() -> R) -> Sample {
    for _ in 0..cfg.warmup {
        std::hint::black_box(f());
    }
    let mut times: Vec<u64> = Vec::with_capacity(cfg.trials);
    for _ in 0..cfg.trials.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    times.sort_unstable();
    let n = times.len();
    Sample {
        median_ns: times[n / 2],
        min_ns: times[0],
        max_ns: times[n - 1],
        mean_ns: (times.iter().map(|&t| t as u128).sum::<u128>() / n as u128) as u64,
        trials: n,
    }
}

/// Convenience wrapper used by the `benches/*.rs` targets: measure with the
/// default config and print one Criterion-style summary line to stdout.
pub fn bench_main<R>(name: &str, f: impl FnMut() -> R) -> Sample {
    let s = measure(BenchConfig::default(), f);
    println!("{name:<32} {s}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_stats() {
        let mut i = 0u64;
        let s = measure(
            BenchConfig {
                warmup: 0,
                trials: 5,
            },
            || {
                i += 1;
                std::thread::sleep(std::time::Duration::from_micros(50 * (i % 3)));
            },
        );
        assert_eq!(s.trials, 5);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }
}
