//! The three benchmark workloads, built from the public `topo`,
//! `workloads`, `netsim` and `transport` API only. No `SimTuning` field
//! other than `hybrid` is set, so a change to the defaults shows here.

use crate::alloc;
use crate::trace::{AgentCounters, AgentTotals, Span, Timed, Tracer};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;
use xmp_des::{SimDuration, SimRng, SimTime};
use xmp_netsim::{
    Agent, FaultPlan, PartitionedSim, PortId, ProbeConfig, QdiscConfig, Sim, SimProfile, SimTuning,
};
use xmp_topo::{FatTree, FatTreeConfig};
use xmp_transport::{ConnKey, HostStack, Segment, StackConfig, SubflowSpec};
use xmp_workloads::{
    Cdf, Driver, FlowSim, FlowSpecBuilder, Host, PatternConfig, PermutationPattern, Scheme,
};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper Table 1 cell: k = 8, XMP-2 permutation waves chained on
    /// completion, run until a fixed number of flows completed.
    PermK8,
    /// Fluid XMP-2 elephants plus DCTCP packet mice on a k = 8 tree.
    HybridK8,
    /// One k = 16 XMP-2 permutation wave over 2 partition workers, with a
    /// core-link flap watched by probes. Runs as the traced mode's
    /// partition cell; its wall time is too unsteady on a shared 2-core
    /// host for an end-to-end workload, but it stays runnable by name.
    WaveK16,
}

/// Seed whose outcomes are pinned below.
pub const PINNED_SEED: u64 = 42;

impl Workload {
    /// Every workload: the two `BENCHMARK.json` lists, then the wave.
    pub const ALL: [Workload; 3] = [Workload::PermK8, Workload::HybridK8, Workload::WaveK16];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PermK8 => "perm-k8",
            Workload::HybridK8 => "hybrid-k8",
            Workload::WaveK16 => "wave-k16-2w",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fat-tree port count.
    pub fn k(self) -> usize {
        match self {
            Workload::WaveK16 => 16,
            _ => 8,
        }
    }

    /// Outcome digest on [`PINNED_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::PermK8 => 0x79361f70b9bebaa7,
            Workload::HybridK8 => 0xfbca47cef3929b3e,
            Workload::WaveK16 => 0x767289e5f59d31c5,
        }
    }
}

/// `perm-k8`: flows that must complete (two permutation waves' worth; the
/// pattern stops starting flows after this many).
const PERM_FLOWS: usize = 256;
/// `perm-k8`: the paper's flow-size divisor (64–512 MB → 0.5–4 MB).
const PERM_SCALE: u64 = 128;

/// `hybrid-k8` shape.
const HYB_ELEPHANTS: usize = 256;
const HYB_ELEPHANT_BYTES: u64 = 32 << 20;
const HYB_MICE: usize = 256;
const HYB_MICE_BYTES: u64 = 16 << 10;
const HYB_MICE_AFTER: SimDuration = SimDuration::from_secs(1);
const HYB_STAGGER: SimDuration = SimDuration::from_millis(100);
const HYB_TICK_FLOOR: SimDuration = SimDuration::from_millis(2);
const HYB_FLUID_THRESHOLD: u64 = 1 << 20;

/// `wave-k16-2w` shape.
const WAVE_FLOW_BYTES: u64 = 2 << 20;
const WAVE_WORKERS: usize = 2;
const WAVE_PROBE_EVERY: SimDuration = SimDuration::from_micros(500);

/// Host-side instrumentation: plain hosts, or [`Timed`] wrappers plus a
/// span recorder.
pub trait Instr {
    /// The agent type the simulation stores.
    type A: Agent<Segment> + Send;
    /// Wrap (or not) one host stack.
    fn host(&mut self, h: Host) -> Self::A;
    /// Agent totals so far (zero when untraced).
    fn agents(&self) -> AgentTotals;
    /// Record a span (no-op when untraced).
    fn span(&mut self, span: Span);
    /// Nanoseconds since the tracer started (0 when untraced).
    fn now_ns(&self) -> u64;
}

/// Untraced run.
pub struct Plain;

impl Instr for Plain {
    type A = Host;
    fn host(&mut self, h: Host) -> Host {
        h
    }
    fn agents(&self) -> AgentTotals {
        AgentTotals::default()
    }
    fn span(&mut self, _: Span) {}
    fn now_ns(&self) -> u64 {
        0
    }
}

/// Traced run: per-host timing wrappers and spans.
#[derive(Default)]
pub struct Traced {
    cells: Vec<Arc<AgentCounters>>,
    /// Recorded spans.
    pub tracer: Tracer,
}

impl Instr for Traced {
    type A = Timed;
    fn host(&mut self, h: Host) -> Timed {
        let cell = Arc::new(AgentCounters::default());
        self.cells.push(cell.clone());
        Timed::new(h, cell)
    }
    fn agents(&self) -> AgentTotals {
        AgentTotals::sum(&self.cells)
    }
    fn span(&mut self, span: Span) {
        self.tracer.spans.push(span);
    }
    fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }
}

/// Everything one run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Digest of the simulated outcome.
    pub digest: u64,
    /// Flows that had to complete.
    pub attempted: usize,
    /// Of those, flows that completed before the simulated deadline.
    pub completed: usize,
    /// The conservation audit passed.
    pub audit_ok: bool,
    /// Set-up host seconds: tree build, FIB compile, flow submission.
    pub setup_s: f64,
    /// `FatTree::build` host seconds.
    pub build_s: f64,
    /// `Sim::compile_fibs` host seconds.
    pub fib_s: f64,
    /// Host seconds from the first `run_until` to the end.
    pub wall_s: f64,
    /// Host seconds the simulator reported inside its run loop.
    pub run_loop_s: f64,
    /// Host seconds inside `Driver::run` outside the run loop.
    pub driver_s: f64,
    /// High-water mark of live heap bytes over set-up and run.
    pub peak_heap: u64,
    /// Engine profile after the run.
    pub profile: SimProfile,
    /// CE marks over every link direction.
    pub marked: u64,
    /// Queue drops over every link direction.
    pub dropped: u64,
    /// Agent totals (traced runs only).
    pub agents: AgentTotals,
    /// Mean events pending at slice ends (serial runs only).
    pub mean_pending: f64,
    /// `hybrid-k8`: mean elephant goodput (bit/s).
    pub elephant_goodput_bps: f64,
    /// `hybrid-k8`: mice FCT p99 (simulated seconds).
    pub mice_fct_p99_s: f64,
}

/// The paper's switch queue: capacity 100 packets, marking threshold K = 10.
pub const PAPER_QUEUE: QdiscConfig = QdiscConfig::EcnThreshold { cap: 100, k: 10 };

/// The paper's fat tree at port count `k`.
pub fn tree_config(k: usize) -> FatTreeConfig {
    FatTreeConfig {
        k,
        ..FatTreeConfig::paper(PAPER_QUEUE)
    }
}

fn stack_config() -> StackConfig {
    StackConfig::default().with_rto_min(SimDuration::from_millis(200))
}

/// Per-slice bookkeeping shared by the serial and partitioned loops.
struct Slices {
    driver_ns: u64,
    pending_sum: f64,
    count: u64,
}

/// Run `driver` in 10 ms simulated slices until `done` or `deadline`,
/// timing each slice from outside. `loop_ns` reads the backend's run-loop
/// host time and `pending` its pending-event count.
#[allow(clippy::too_many_arguments)]
fn drive<S: FlowSim, I: Instr>(
    sim: &mut S,
    driver: &mut Driver,
    deadline: SimTime,
    instr: &mut I,
    loop_ns: impl Fn(&S) -> u64,
    pending: impl Fn(&S) -> u64,
    mut done: impl FnMut(&Driver) -> bool,
    mut on_complete: impl FnMut(&mut S, &mut Driver, ConnKey),
) -> Slices {
    let slice = SimDuration::from_millis(10);
    let mut acc = Slices {
        driver_ns: 0,
        pending_sum: 0.0,
        count: 0,
    };
    while sim.now() < deadline && !done(driver) {
        let t = (sim.now() + slice).min(deadline);
        let loop0 = loop_ns(sim);
        let agents0 = instr.agents();
        let start_ns = instr.now_ns();
        let wall = Instant::now();
        driver.run(sim, t, &mut on_complete);
        let dur = wall.elapsed().as_nanos() as u64;
        let run_loop_ns = loop_ns(sim) - loop0;
        acc.driver_ns += dur.saturating_sub(run_loop_ns);
        let p = pending(sim);
        acc.pending_sum += p as f64;
        acc.count += 1;
        let agents1 = instr.agents();
        instr.span(Span {
            name: "slice",
            start_ns,
            dur_ns: dur,
            sim_end_ns: sim.now().as_nanos(),
            run_loop_ns,
            agent_ns: agents1.ns - agents0.ns,
            agent_calls: agents1.calls() - agents0.calls(),
            pending: p,
        });
    }
    let wall = Instant::now();
    driver.finalize_running(sim);
    acc.driver_ns += wall.elapsed().as_nanos() as u64;
    acc
}

fn serial_pending<A: Agent<Segment>>(s: &Sim<Segment, A>) -> u64 {
    s.events_scheduled().saturating_sub(s.events_processed())
}

/// Submit the `hybrid-k8` population: XMP-2 elephants from every host to
/// the host half a tree away (twice round), evenly staggered, then DCTCP
/// mice on seeded random pairs arriving uniformly in [1 s, 4 s].
fn submit_hybrid(driver: &mut Driver, ft: &FatTree, seed: u64, max_sim: SimDuration) {
    let n = ft.hosts.len();
    let tags = [0, ft.tag_count() - 1];
    let step_ns = HYB_STAGGER.as_nanos() / HYB_ELEPHANTS as u64;
    for i in 0..HYB_ELEPHANTS {
        let src = i % n;
        let dst = (src + n / 2) % n;
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: tags
                .iter()
                .map(|&t| SubflowSpec {
                    local_port: PortId(0),
                    src: ft.host_addr(src, t),
                    dst: ft.host_addr(dst, t),
                })
                .collect(),
            size: HYB_ELEPHANT_BYTES,
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO + SimDuration::from_nanos(i as u64 * step_ns + i as u64),
            category: Some(ft.category(src, dst)),
            tag: 0,
        });
    }
    let mut rng = SimRng::new(seed);
    let base_us = HYB_MICE_AFTER.as_nanos() / 1_000;
    let window_us = (max_sim.as_nanos() / 2_000).max(base_us + 1);
    for _ in 0..HYB_MICE {
        let src = rng.index(n);
        let mut dst = rng.index(n);
        while dst == src {
            dst = rng.index(n);
        }
        let t = rng.index(ft.tag_count());
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(src),
            subflows: vec![SubflowSpec {
                local_port: PortId(0),
                src: ft.host_addr(src, t),
                dst: ft.host_addr(dst, t),
            }],
            size: HYB_MICE_BYTES,
            scheme: Scheme::Dctcp,
            start: SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(base_us, window_us)),
            category: Some(ft.category(src, dst)),
            tag: 1,
        });
    }
}

/// Submit the `wave-k16-2w` wave: host `i` sends one flow to host
/// `i + n/2` on path tags 0 and `tag_count - 1`, starts 1 µs apart.
fn submit_wave(driver: &mut Driver, ft: &FatTree) {
    let n = ft.hosts.len();
    for i in 0..n {
        let dst = (i + n / 2) % n;
        driver.submit(FlowSpecBuilder {
            src_node: ft.host(i),
            subflows: [0, ft.tag_count() - 1]
                .iter()
                .map(|&t| SubflowSpec {
                    local_port: PortId(0),
                    src: ft.host_addr(i, t),
                    dst: ft.host_addr(dst, t),
                })
                .collect(),
            size: WAVE_FLOW_BYTES,
            scheme: Scheme::xmp(2),
            start: SimTime::ZERO + SimDuration::from_micros(i as u64),
            category: Some(ft.category(i, dst)),
            tag: i as u64,
        });
    }
}

/// Run `w` once on `seed` under `instr`.
pub fn run<I: Instr>(w: Workload, seed: u64, instr: &mut I) -> Outcome {
    run_inner(w, seed, instr, true)
}

/// Set `w` up on `seed` and stop before the first event: the set-up
/// timings only.
pub fn setup_only(w: Workload, seed: u64) -> Outcome {
    run_inner(w, seed, &mut Plain, false)
}

fn run_inner<I: Instr>(w: Workload, seed: u64, instr: &mut I, full: bool) -> Outcome {
    let root_start = instr.now_ns();
    let heap_base = alloc::reset_peak();
    let t_setup = Instant::now();
    let mut sim: Sim<Segment, I::A> = Sim::new(seed);
    if w == Workload::HybridK8 {
        sim.set_tuning(SimTuning {
            hybrid: true,
            ..SimTuning::default()
        });
        sim.set_fluid_tick_floor(HYB_TICK_FLOOR);
    }
    let stack = stack_config();
    let t_build = Instant::now();
    let ft = FatTree::build(&mut sim, &tree_config(w.k()), |_| {
        instr.host(HostStack::new(stack.clone()))
    });
    let build_s = t_build.elapsed().as_secs_f64();

    let max_sim = match w {
        Workload::PermK8 => SimDuration::from_secs(10),
        Workload::HybridK8 => SimDuration::from_secs(8),
        Workload::WaveK16 => SimDuration::from_secs(2),
    };
    let deadline = SimTime::ZERO + max_sim;
    let mut driver = Driver::new();
    let mut perm = None;
    match w {
        Workload::PermK8 => {
            let cfg = PatternConfig::new(Scheme::xmp(2), seed, PERM_SCALE, PERM_FLOWS);
            let mut p = PermutationPattern::new(cfg);
            p.start(&mut sim, &mut driver, &ft);
            perm = Some(p);
        }
        Workload::HybridK8 => {
            driver.set_fluid_threshold(Some(HYB_FLUID_THRESHOLD));
            submit_hybrid(&mut driver, &ft, seed, max_sim);
        }
        Workload::WaveK16 => {
            let watched = ft.core_link(0, 0, 0);
            sim.install_probes(
                ProbeConfig::every(WAVE_PROBE_EVERY)
                    .until(deadline)
                    .watch_queue(watched, 0)
                    .watch_queue(watched, 1),
            );
            let plan = FaultPlan::new()
                .link_down(SimTime::ZERO + SimDuration::from_millis(20), watched)
                .link_up(SimTime::ZERO + SimDuration::from_millis(40), watched);
            sim.install_fault_plan(&plan);
            submit_wave(&mut driver, &ft);
        }
    }
    let attempted = match w {
        Workload::PermK8 => PERM_FLOWS,
        Workload::HybridK8 => HYB_ELEPHANTS + HYB_MICE,
        Workload::WaveK16 => ft.hosts.len(),
    };
    let t_fib = Instant::now();
    sim.compile_fibs();
    let fib_s = t_fib.elapsed().as_secs_f64();
    let partition = (w == Workload::WaveK16).then(|| ft.partition_plan(WAVE_WORKERS));
    let setup_s = t_setup.elapsed().as_secs_f64();
    if !full {
        return Outcome {
            setup_s,
            build_s,
            fib_s,
            ..Outcome::default()
        };
    }

    let done = |d: &Driver| d.completed_count() as usize >= attempted;
    let t_run = Instant::now();
    let (mut sim, slices, run_loop_ns) = match partition {
        Some(plan) => {
            let mut psim = PartitionedSim::new(sim, &plan);
            let sl = drive(
                &mut psim,
                &mut driver,
                deadline,
                instr,
                |p| p.wall_ns(),
                |_| 0,
                done,
                |_, _, _| {},
            );
            let loop_ns = psim.wall_ns();
            (psim.finish(), sl, loop_ns)
        }
        None => {
            let sl = drive(
                &mut sim,
                &mut driver,
                deadline,
                instr,
                |s| s.profile().run_wall_ns,
                serial_pending,
                done,
                |s, d, conn| {
                    if let Some(p) = perm.as_mut() {
                        p.on_complete(s, d, &ft, conn);
                    }
                },
            );
            let loop_ns = sim.profile().run_wall_ns;
            (sim, sl, loop_ns)
        }
    };
    let wall_s = t_run.elapsed().as_secs_f64();
    let peak_heap = alloc::peak().saturating_sub(heap_base);

    let audit = sim.try_audit_conservation();
    let probes = sim.take_probes();
    let profile = *sim.profile();
    let mut h = DefaultHasher::new();
    format!("{:?}", sim.now()).hash(&mut h);
    for r in driver.records() {
        format!("{r:?}").hash(&mut h);
    }
    match &audit {
        Ok(a) => format!("{a:?}").hash(&mut h),
        Err(e) => e.hash(&mut h),
    }
    if let Some(p) = &probes {
        for r in p.records() {
            format!("{r:?}").hash(&mut h);
        }
    }
    profile.deliver.hash(&mut h);
    profile.tx_done.hash(&mut h);
    profile.timer.hash(&mut h);

    let (mut marked, mut dropped) = (0, 0);
    for (_, link) in sim.links() {
        for d in 0..2 {
            let s = &link.dir(d).stats;
            marked += s.marked;
            dropped += s.dropped;
        }
    }
    let completed = match w {
        // The closed loop keeps starting flows until `PERM_FLOWS` started;
        // every one of those must complete.
        Workload::PermK8 => driver.completed_count() as usize,
        _ => driver.records().filter(|r| r.completed.is_some()).count(),
    };
    let (elephant_goodput_bps, mice_fct_p99_s) = if w == Workload::HybridK8 {
        class_outcome(&driver)
    } else {
        (0.0, 0.0)
    };
    let agents = instr.agents();
    instr.span(Span {
        name: w.name(),
        start_ns: root_start,
        dur_ns: instr.now_ns().saturating_sub(root_start),
        sim_end_ns: sim.now().as_nanos(),
        run_loop_ns,
        agent_ns: agents.ns,
        agent_calls: agents.calls(),
        pending: 0,
    });
    Outcome {
        digest: h.finish(),
        attempted,
        completed: completed.min(attempted),
        audit_ok: audit.is_ok(),
        setup_s,
        build_s,
        fib_s,
        wall_s,
        run_loop_s: run_loop_ns as f64 / 1e9,
        driver_s: slices.driver_ns as f64 / 1e9,
        peak_heap,
        profile,
        marked,
        dropped,
        agents,
        mean_pending: slices.pending_sum / slices.count.max(1) as f64,
        elephant_goodput_bps,
        mice_fct_p99_s,
    }
}

/// `hybrid-k8` per-class outcome: mean elephant goodput (bit/s) over
/// every elephant with nonzero goodput, and mice FCT p99 (seconds).
fn class_outcome(driver: &Driver) -> (f64, f64) {
    let mut goodputs = Vec::new();
    let mut fcts = Vec::new();
    for r in driver.records() {
        if r.tag == 0 {
            if r.goodput_bps > 0.0 {
                goodputs.push(r.goodput_bps);
            }
        } else if let Some(done) = r.completed {
            fcts.push(done.duration_since(r.start).as_secs_f64());
        }
    }
    (Cdf::new(goodputs).mean(), Cdf::new(fcts).percentile(99.0))
}

/// The `hybrid-k8` population run packet-only (no fluid plane): the
/// reference the hybrid run's per-class errors are measured against.
/// Returns (mean elephant goodput bit/s, mice FCT p99 s, all completed).
pub fn hybrid_packet_reference(seed: u64) -> (f64, f64, bool) {
    let mut sim: Sim<Segment, Host> = Sim::new(seed);
    let stack = stack_config();
    let ft = FatTree::build(&mut sim, &tree_config(8), |_| HostStack::new(stack.clone()));
    let max_sim = SimDuration::from_secs(8);
    let mut driver = Driver::new();
    driver.set_fluid_threshold(Some(HYB_FLUID_THRESHOLD));
    submit_hybrid(&mut driver, &ft, seed, max_sim);
    let target = HYB_ELEPHANTS + HYB_MICE;
    drive(
        &mut sim,
        &mut driver,
        SimTime::ZERO + max_sim,
        &mut Plain,
        |s| s.profile().run_wall_ns,
        |_| 0,
        |d| d.completed_count() as usize >= target,
        |_, _, _| {},
    );
    let all = driver.records().filter(|r| r.completed.is_some()).count() == target;
    let (g, p99) = class_outcome(&driver);
    (g, p99, all)
}

/// Relative error of `got` against `want`.
pub fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want
}
