#!/usr/bin/env bash
# Tier-1 gate: the release build plus the full test suite, fully offline.
# This is the command CI and the roadmap treat as the health check.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test -q --workspace --offline
# Memory gate: a k=16 fat tree's compiled forwarding tables stay under
# 1 MiB (ignored in the default suite; it compiles 320 switches).
cargo test --release --offline --test fib_memory -- --ignored
# Conformance gate: every spec clause in specs/ parses, every MUST cites
# a test, and every cited test exists in the workspace. Exits nonzero on
# a dangling citation (also enforced in-suite by tests/conformance.rs).
cargo run --release --offline -p xmp-conformance -- check
# Lint gate: clippy clean across every target (tests, benches, binaries).
cargo clippy --workspace --all-targets --offline -- -D warnings
# Rustdoc gate: every pub item documented, no broken intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
# Smoke: the failover experiment must survive a mid-run link failure
# (and its packet-conservation audit) end to end.
cargo run --release --offline -p xmp-experiments -- failover --quick
# Smoke: the partitioned simulation must stay bit-identical to serial on
# a k=8 fat-tree wave with faults and probes live (the scale command
# digest-checks the sharded run against the serial one and exits nonzero
# on a mismatch).
cargo run --release --offline -p xmp-experiments -- scale --quick --workers 4
# Smoke: the hybrid fluid/packet mode must stay inside its documented
# per-class tolerance bands against the packet baseline on the identical
# workload (the hybrid command exits nonzero when out of tolerance).
cargo run --release --offline -p xmp-experiments -- hybrid --quick
# Chaos gate: 50 seeded fuzz scenarios, each run under every applicable
# differential oracle (serial vs partitioned across 2-4 workers)
# with runtime invariant audits. Exits nonzero and writes a minimized
# replay file under results/simcheck/ on any divergence.
cargo run --release --offline -p xmp-simcheck -- run --budget quick --out results/simcheck
# Benchmark digests: xmpbench runs each workload at least 3 times and
# exits 1 unless every run reproduces its pinned digest, passes the
# conservation audit and completes every flow (hybrid-k8 also checks its
# accuracy bands against the packet reference).
cargo run --release --offline --quiet --manifest-path xmpbench/Cargo.toml -- --workload perm-k8 --seconds 0
cargo run --release --offline --quiet --manifest-path xmpbench/Cargo.toml -- --workload hybrid-k8 --seconds 0
# wave-k16-2w is the one pinned workload that runs the link pipeline
# inside partition shards; it carries the north-star digest.
cargo run --release --offline --quiet --manifest-path xmpbench/Cargo.toml -- --workload wave-k16-2w --seconds 0
# Smoke: dynamics must export parseable JSONL traces, and `trace report`
# (the std-only checker) must round-trip them. results/ stays untracked.
cargo run --release --offline -p xmp-experiments -- dynamics --quick
cargo run --release --offline -p xmp-experiments -- trace report \
  results/dynamics_xmp-2.jsonl results/dynamics_dctcp.jsonl
if git check-ignore -q results/dynamics_xmp-2.jsonl; then
  : # exported artifacts are ignored, as intended
else
  echo "check.sh: results/ must be gitignored" >&2
  exit 1
fi
echo "check.sh: all green"
