//! Repository benchmark for the XMP simulator.
//!
//! ```text
//! xmpbench --workload <perm-k8|hybrid-k8|wave-k16-2w> [--seed N]
//!          [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload repeatedly for `S` host seconds (at least
//! three times) and reports end-to-end medians: `wall_s`, `setup_s` and
//! `peak_heap_mib`. `--trace 1` runs the per-layer micro-cells and the
//! partition cell (one `wave-k16-2w` run), then alternates the workload
//! untraced and traced (host agents wrapped in a timing agent,
//! spans per driver slice) and reports per-layer counts and times, an
//! attribution table, and the tracing overhead. Spans are written to
//! `.bench_out/`. Every run checks the simulated outcome (digest pinned on
//! seed 42, conservation audit, every flow completed); the last line of
//! standard output is one JSON object, and a failed check exits 1.

use std::fmt::Write as _;
use std::time::Instant;
use xmp_netsim::QdiscConfig;
use xmp_workloads::Scheme;
use xmpbench::workloads::{self, Outcome, Plain, Traced, Workload, PINNED_SEED};
use xmpbench::{alloc, cells, HYBRID_REF_FCT_P99_S, HYBRID_REF_GOODPUT_BPS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end runs repeat the workload at least this often.
const MIN_RUNS: usize = 3;
/// `setup_s` is the median of at least `MIN_SETUPS` set-ups, and of up to
/// `MAX_SETUPS` while set-up-only repeats stay within `SETUP_EXTRA_S`.
const MIN_SETUPS: usize = 9;
const MAX_SETUPS: usize = 101;
const SETUP_EXTRA_S: f64 = 1.0;
/// The per-layer mode alternates untraced and traced runs for `--seconds`,
/// at least this many pairs.
const MIN_TRACE_PAIRS: usize = 2;

/// Accepted hybrid-vs-packet relative errors on seed 42.
const GOODPUT_TOL: f64 = 0.25;
const FCT_TOL: f64 = 0.50;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PermK8,
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&val).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {val} (expected one of {})",
                        names.join(", ")
                    )
                })?;
                named = true;
            }
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least ten samples above it, as
/// `" pNN <value>"`; empty below 20 samples.
fn high_percentile(xs: &[f64]) -> String {
    let n = xs.len() as f64;
    if n < 20.0 {
        return String::new();
    }
    let p = (100.0 * (1.0 - 10.0 / n)).floor();
    format!(" p{p} {:.4}", quantile(xs, p / 100.0))
}

/// Correctness checks collected over a run.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Audit, completion and digest checks on one outcome; `first` is the
    /// digest every run of this process must reproduce.
    fn outcome(&mut self, w: Workload, seed: u64, o: &Outcome, first: u64) {
        self.attempted += o.attempted;
        self.failed += o.attempted - o.completed;
        self.require(o.audit_ok, || "packet-conservation audit failed".into());
        self.require(o.completed == o.attempted, || {
            format!(
                "{} of {} flows missed the deadline",
                o.attempted - o.completed,
                o.attempted
            )
        });
        self.require(o.digest == first, || {
            format!(
                "digest {:016x} differs from this process's first run {first:016x}",
                o.digest
            )
        });
        if seed == PINNED_SEED {
            self.require(o.digest == w.pinned_digest(), || {
                format!(
                    "digest {:016x} != pinned {:016x}",
                    o.digest,
                    w.pinned_digest()
                )
            });
        }
    }
}

/// `hybrid-k8` relative errors against the packet-mode reference: the
/// pinned constants on seed 42, a packet-only run on any other seed.
fn hybrid_errors(seed: u64, o: &Outcome) -> (f64, f64) {
    let (g, p99) = if seed == PINNED_SEED {
        (HYBRID_REF_GOODPUT_BPS, HYBRID_REF_FCT_P99_S)
    } else {
        let (g, p99, _) = workloads::hybrid_packet_reference(seed);
        (g, p99)
    };
    (
        workloads::rel_err(o.elephant_goodput_bps, g),
        workloads::rel_err(o.mice_fct_p99_s, p99),
    )
}

/// Host metadata line: core count, compiler, source revision.
fn host_meta() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string());
    format!("host: nproc={nproc} rustc=\"{rustc}\" rev={}", git_rev())
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head.to_string(),
    }
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(a: &Args, checks: &mut Checks) -> Metrics {
    let w = a.workload;
    let start = Instant::now();
    let mut runs: Vec<Outcome> = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < a.seconds {
        let o = workloads::run(w, a.seed, &mut Plain);
        let first = runs.first().map_or(o.digest, |f| f.digest);
        checks.outcome(w, a.seed, &o, first);
        runs.push(o);
    }
    let mut setups: Vec<f64> = runs.iter().map(|o| o.setup_s).collect();
    // Cheap set-ups repeat for up to a second more, so the median holds
    // even on trees that build in milliseconds.
    let extra = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && extra.elapsed().as_secs_f64() < SETUP_EXTRA_S)
    {
        setups.push(workloads::setup_only(w, a.seed).setup_s);
    }
    if w == Workload::HybridK8 && a.seed == PINNED_SEED {
        let (ge, fe) = hybrid_errors(a.seed, &runs[0]);
        checks.require(ge <= GOODPUT_TOL, || {
            format!("goodput_err {ge:.3} > {GOODPUT_TOL}")
        });
        checks.require(fe <= FCT_TOL, || format!("fct_p99_err {fe:.3} > {FCT_TOL}"));
        println!("hybrid vs packet reference: goodput_err {ge:.4} fct_p99_err {fe:.4}");
    }
    let walls: Vec<f64> = runs.iter().map(|o| o.wall_s).collect();
    let heaps: Vec<f64> = runs
        .iter()
        .map(|o| o.peak_heap as f64 / (1 << 20) as f64)
        .collect();
    println!(
        "{}: {} runs | wall_s median {:.4}{} | setup_s median {:.4} over {} set-ups \
         | peak heap {:.1} MiB | events {} | digest {:016x}",
        w.name(),
        runs.len(),
        median(&walls),
        high_percentile(&walls),
        median(&setups),
        setups.len(),
        median(&heaps),
        runs[0].profile.events_handled(),
        runs[0].digest
    );
    let samples: Vec<String> = walls.iter().map(|s| format!("{s:.3}")).collect();
    println!("wall_s samples: {}", samples.join(" "));
    println!(
        "fail_frac {} ({} of {} flows missed the simulated deadline)",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    vec![
        ("wall_s", median(&walls), "s"),
        ("setup_s", median(&setups), "s"),
        ("peak_heap_mib", median(&heaps), "MiB"),
    ]
}

/// Micro-cell results, ns per op.
struct Cells {
    hold: [f64; 3],
    route_k8: f64,
    route_k16: f64,
    qdisc_ecn: f64,
    qdisc_droptail: f64,
    qdisc_red: f64,
    classify_ecn: f64,
    ack: f64,
    cc: [f64; 4],
    fluid_xmp: f64,
    fluid_dctcp: f64,
}

/// Pending-event populations of the `des.hold_ns` cells.
const HOLD_POPULATIONS: [usize; 3] = [1 << 10, 1 << 16, 1 << 20];

fn run_cells() -> Cells {
    let t = Instant::now();
    let c = Cells {
        hold: HOLD_POPULATIONS.map(cells::des_hold_ns),
        route_k8: cells::route_ns(8),
        route_k16: cells::route_ns(16),
        qdisc_ecn: cells::qdisc_ns(&workloads::PAPER_QUEUE),
        qdisc_droptail: cells::qdisc_ns(&QdiscConfig::DropTail { cap: 100 }),
        qdisc_red: cells::qdisc_ns(&cells::RED),
        classify_ecn: cells::classify_ns(&workloads::PAPER_QUEUE),
        ack: cells::transport_ack_ns(),
        cc: [Scheme::xmp(2), Scheme::Dctcp, Scheme::lia(2), Scheme::Tcp].map(cells::cc_on_ack_ns),
        fluid_xmp: cells::fluid_step_ns(Scheme::xmp(2).fluid_cc()),
        fluid_dctcp: cells::fluid_step_ns(Scheme::Dctcp.fluid_cc()),
    };
    println!("micro-cells: {:.2} s", t.elapsed().as_secs_f64());
    c
}

impl Cells {
    /// Hold cost at `pending` events, log-interpolated between cells.
    fn hold_at(&self, pending: f64) -> f64 {
        let x = pending.max(1.0).log2();
        let xs = HOLD_POPULATIONS.map(|p| (p as f64).log2());
        if x <= xs[0] {
            return self.hold[0];
        }
        for i in 1..3 {
            if x <= xs[i] {
                let f = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
                return self.hold[i - 1] + f * (self.hold[i] - self.hold[i - 1]);
            }
        }
        self.hold[2]
    }
}

/// Attribution of one traced run: per layer, work counts × micro-cell
/// ns/op against the time the traced run measured. Returns the predicted
/// netsim (engine + forwarding) and transport self seconds.
fn attribution(w: Workload, c: &Cells, o: &Outcome) -> (f64, f64) {
    let p = &o.profile;
    let events = p.events_handled() as f64;
    // Serial runs sample the pending set; the partitioned run falls back to
    // the 64k cell.
    let pending = if o.mean_pending > 0.0 {
        o.mean_pending
    } else {
        65536.0
    };
    let hold = c.hold_at(pending);
    let route = if w.k() == 16 { c.route_k16 } else { c.route_k8 };
    // The eager pipeline enqueues and dequeues every hop; the lazy one
    // (forced by hybrid mode) only classifies.
    let queue = if p.tx_done > 0 {
        c.qdisc_ecn
    } else {
        c.classify_ecn
    };
    let des_s = events * hold / 1e9;
    let fwd_s = p.deliver as f64 * (route + queue) / 1e9;
    let fluid_s = p.fluid_ticks as f64 * 2.0 * c.fluid_xmp / 1e9;
    let netsim_pred = des_s + fwd_s + fluid_s;
    let netsim_meas = o.run_loop_s - o.agents.ns as f64 / 1e9;
    let cc_ns = if w == Workload::HybridK8 {
        c.cc[1]
    } else {
        c.cc[0]
    };
    let transport_pred = o.agents.acks as f64 * c.ack / 1e9;
    let cc_pred = o.agents.acks as f64 * cc_ns / 1e9;
    let transport_meas = o.agents.ns as f64 / 1e9;
    println!(
        "attribution ({}): predicted = counts x micro-cell ns/op",
        w.name()
    );
    println!(
        "  {:<26} {:>14} {:>10} {:>12} {:>12} {:>10}",
        "layer", "count", "ns/op", "predicted s", "traced s", "gap s"
    );
    let row = |name: &str, count: f64, ns: f64, pred: f64, meas: Option<f64>| {
        let (m, g) = match meas {
            Some(m) => (format!("{m:.4}"), format!("{:+.4}", m - pred)),
            None => ("-".into(), "-".into()),
        };
        println!("  {name:<26} {count:>14.0} {ns:>10.1} {pred:>12.4} {m:>12} {g:>10}");
    };
    row("des (events x hold)", events, hold, des_s, None);
    row(
        "netsim fwd (hops x route+q)",
        p.deliver as f64,
        route + queue,
        fwd_s,
        None,
    );
    row(
        "fluid (ticks x 2 steps)",
        p.fluid_ticks as f64,
        2.0 * c.fluid_xmp,
        fluid_s,
        None,
    );
    row(
        "= netsim+des self",
        events,
        0.0,
        netsim_pred,
        Some(netsim_meas),
    );
    row(
        "transport (acks x ack_ns)",
        o.agents.acks as f64,
        c.ack,
        transport_pred,
        Some(transport_meas),
    );
    row(
        "  of which cc (acks x on_ack)",
        o.agents.acks as f64,
        cc_ns,
        cc_pred,
        None,
    );
    (netsim_pred, transport_pred)
}

/// The partition layer's cell: one untraced `wave-k16-2w` run (k = 16,
/// 2 workers), the only configuration whose sync rounds and handoffs do
/// work. Its wall time swings too much on a shared 2-core host to serve
/// as an end-to-end workload, so every traced run reports its counts.
fn partition_cell(a: &Args, checks: &mut Checks) -> Outcome {
    let t = Instant::now();
    let o = workloads::run(Workload::WaveK16, a.seed, &mut Plain);
    checks.outcome(Workload::WaveK16, a.seed, &o, o.digest);
    println!(
        "partition cell (wave-k16-2w): {:.2} s | {} rounds | {} handoffs | digest {:016x}",
        t.elapsed().as_secs_f64(),
        o.profile.sync_rounds,
        o.profile.handoffs,
        o.digest
    );
    o
}

fn per_layer(a: &Args, checks: &mut Checks) -> Metrics {
    let w = a.workload;
    let c = run_cells();
    let part = partition_cell(a, checks);
    let start = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced: Vec<(Outcome, Traced)> = Vec::new();
    let mut first = None;
    while traced.len() < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < a.seconds {
        let u = workloads::run(w, a.seed, &mut Plain);
        let f = *first.get_or_insert(u.digest);
        checks.outcome(w, a.seed, &u, f);
        plain_walls.push(u.wall_s);
        let mut instr = Traced::default();
        let t = workloads::run(w, a.seed, &mut instr);
        checks.require(t.digest == f, || {
            format!("traced digest {:016x} != untraced {f:016x}", t.digest)
        });
        checks.outcome(w, a.seed, &t, f);
        traced.push((t, instr));
    }
    let traced_walls: Vec<f64> = traced.iter().map(|(t, _)| t.wall_s).collect();
    // Per-layer times come from the traced run with the median wall time.
    traced.sort_by(|x, y| x.0.wall_s.total_cmp(&y.0.wall_s));
    let (o, instr) = traced.swap_remove((traced.len() - 1) / 2);
    let (goodput_err, fct_p99_err) = if w == Workload::HybridK8 {
        hybrid_errors(a.seed, &o)
    } else {
        (0.0, 0.0)
    };

    let (netsim_pred, transport_pred) = attribution(w, &c, &o);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", w.name(), a.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, instr.tracer.to_json(w.name(), a.seed)))
    {
        Ok(()) => println!(
            "spans: {} written to {}",
            instr.tracer.spans.len(),
            path.display()
        ),
        Err(e) => checks
            .failures
            .push(format!("writing {}: {e}", path.display())),
    }

    let p = &o.profile;
    let hops = p.deliver.max(1) as f64;
    let calls = o.agents.calls();
    let agent_s = o.agents.ns as f64 / 1e9;
    let netsim_self = o.run_loop_s - agent_s;
    let wall_plain = median(&plain_walls);
    let wall_traced = median(&traced_walls);
    println!(
        "trace overhead over {} pairs: traced wall_s {wall_traced:.4} - untraced {wall_plain:.4} \
         = {:+.4} s ({:+.1}%)",
        plain_walls.len(),
        wall_traced - wall_plain,
        100.0 * (wall_traced / wall_plain - 1.0)
    );
    vec![
        ("des.hold_ns.p1k", c.hold[0], "ns"),
        ("des.hold_ns.p64k", c.hold[1], "ns"),
        ("des.hold_ns.p1m", c.hold[2], "ns"),
        ("des.events", p.events_handled() as f64, "count"),
        ("des.deliver", p.deliver as f64, "count"),
        ("des.tx_done", p.tx_done as f64, "count"),
        ("des.timer", p.timer as f64, "count"),
        ("netsim.route_ns.k8", c.route_k8, "ns"),
        ("netsim.route_ns.k16", c.route_k16, "ns"),
        ("netsim.qdisc_ns.ecn", c.qdisc_ecn, "ns"),
        ("netsim.qdisc_ns.droptail", c.qdisc_droptail, "ns"),
        ("netsim.qdisc_ns.red", c.qdisc_red, "ns"),
        ("netsim.classify_ns.ecn", c.classify_ecn, "ns"),
        ("netsim.self_s", netsim_self, "s"),
        ("netsim.hop_ns", netsim_self * 1e9 / hops, "ns"),
        ("netsim.predicted_s", netsim_pred, "s"),
        ("netsim.marked", o.marked as f64, "count"),
        ("netsim.dropped", o.dropped as f64, "count"),
        (
            "netsim.allocs_per_hop",
            p.allocs as f64 / hops,
            "allocs/hop",
        ),
        ("netsim.fib_compile_s", o.fib_s, "s"),
        ("transport.self_s", agent_s, "s"),
        ("transport.calls", calls as f64, "count"),
        (
            "transport.call_ns",
            o.agents.ns as f64 / calls.max(1) as f64,
            "ns",
        ),
        ("transport.ack_ns", c.ack, "ns"),
        ("transport.predicted_s", transport_pred, "s"),
        ("cc.on_ack_ns.xmp", c.cc[0], "ns"),
        ("cc.on_ack_ns.dctcp", c.cc[1], "ns"),
        ("cc.on_ack_ns.lia", c.cc[2], "ns"),
        ("cc.on_ack_ns.reno", c.cc[3], "ns"),
        ("fluid.step_ns.xmp", c.fluid_xmp, "ns"),
        ("fluid.step_ns.dctcp", c.fluid_dctcp, "ns"),
        ("fluid.ticks", p.fluid_ticks as f64, "count"),
        ("fluid.goodput_err", goodput_err, "ratio"),
        ("fluid.fct_p99_err", fct_p99_err, "ratio"),
        ("partition.rounds", part.profile.sync_rounds as f64, "count"),
        ("partition.handoffs", part.profile.handoffs as f64, "count"),
        (
            "partition.round_us",
            part.run_loop_s * 1e6 / part.profile.sync_rounds.max(1) as f64,
            "us",
        ),
        ("topo.build_s", o.build_s, "s"),
        ("workloads.driver_s", o.driver_s, "s"),
        ("trace.wall_s", wall_traced, "s"),
        ("trace.overhead_s", wall_traced - wall_plain, "s"),
    ]
}

fn json_result(checks: &Checks, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        // A non-finite value fails the run (see `main`); keep the line JSON.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xmpbench: {e}");
            std::process::exit(2);
        }
    };
    xmp_netsim::set_alloc_probe(alloc::count);
    println!("{}", host_meta());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        per_layer(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        checks.failures.push(format!("metric {name} is not finite"));
    }
    for f in &checks.failures {
        eprintln!("xmpbench: CHECK FAILED: {f}");
    }
    println!("{}", json_result(&checks, &metrics));
    if !checks.failures.is_empty() {
        std::process::exit(1);
    }
}
