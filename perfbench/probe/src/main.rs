//! Per-layer probe of the sweep benchmark.
//!
//! Runs the points of one benchmark workload — the same points the
//! `repro_all`, `messaging` or `contend` bin simulates — through the
//! layers' public functions, and prints one JSON line of per-layer
//! metrics. Every timed span is the probe's own, placed around a call
//! into one layer; nothing inside the simulator is instrumented, so a
//! change to a layer's API breaks only this file.
//!
//! Usage: `csb-perfprobe --workload figures|messaging|contend --seed N
//! --seconds S`
//!
//! The seed shuffles the point order, rotates which execution mode runs
//! first on each point, and draws the address streams of the standalone
//! layer timings. The simulated results never depend on it: every point
//! is checked against the same point run another way (fast-forward off,
//! observability on, restored from a mid-run snapshot), and any
//! difference is reported as a parity failure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use csb_bus::{SystemBus, Transaction};
use csb_core::experiments::contend::arrival_schedule;
use csb_core::experiments::fig5::LockResidency;
use csb_core::experiments::runner::{PointSpec, PointWork};
use csb_core::experiments::{faults, fig3, fig4, fig5, messaging, Scheme};
use csb_core::multiproc::{MultiSim, SwitchPolicy};
use csb_core::workloads::{self, MessagingSpec, RetryPolicy, StorePath};
use csb_core::{
    FaultConfig, FaultStats, RunSummary, SimConfig, SimError, Simulator, COMBINING_BASE, LOCK_ADDR,
    UNCACHED_BASE,
};
use csb_cpu::{Cpu, CpuContext, SimpleMemPort};
use csb_isa::{Addr, Program};
use csb_mem::{AccessKind, MemoryHierarchy};
use csb_nic::{encode_header, Nic, NicConfig};
use csb_uncached::{ConditionalStoreBuffer, CsbConfig};

// Sweep constants the experiment modules keep private. The probe checks
// its total simulated cycles against the bin's, so a drift here shows up
// as a failed run rather than as silently different points.
const FIGURE_LIMIT: u64 = 50_000_000;
const MSG_LIMIT: u64 = 2_000_000;
const MSG_SLOTS: usize = 4;
const MSG_SENDER: u16 = 1;
const CONTEND_ITERATIONS: usize = 8;
const CONTEND_DWORDS: usize = 8;
const CONTEND_SPAN: u64 = 4_000;
const CONTEND_SLICE: u64 = 60;
const CONTEND_LIMIT: u64 = 50_000_000;

/// Shortest total a standalone layer timing accumulates, so its per-call
/// figure is not dominated by timer resolution.
const MIN_LAYER_TIME: Duration = Duration::from_millis(20);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Lock,
    Csb,
    CsbDouble,
}

impl Path {
    fn config(self) -> SimConfig {
        match self {
            Path::Lock | Path::Csb => SimConfig::default(),
            Path::CsbDouble => SimConfig::default().csb_double_buffered(),
        }
    }
}

/// One simulation point of a workload.
enum Work {
    Figure(Box<PointSpec>),
    Message {
        path: Path,
        size: usize,
        policy: RetryPolicy,
        rate: f64,
        seed: u64,
    },
    Contend {
        path: Path,
        cores: usize,
        seed: u64,
    },
}

/// How observability is wired for one run of a point.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Obs {
    /// Tracing and metrics both off.
    Off,
    /// What the bin does: metrics on for messaging and contend (their
    /// results are histogram quantiles), everything off for the figures.
    Production,
    /// Tracing and metrics both on.
    Full,
}

/// The machine a point runs on.
enum Machine<'a> {
    One(&'a mut Simulator),
    Many(Box<MultiSim>),
}

impl Machine<'_> {
    fn sim(&self) -> &Simulator {
        match self {
            Machine::One(s) => s,
            Machine::Many(m) => m.simulator(),
        }
    }
}

/// Everything simulated a run of a point produces. Two runs of one point
/// must agree on all of it whatever the execution mode.
#[derive(Clone, PartialEq)]
struct Outcome {
    summary: RunSummary,
    /// Switches, flush failures, flush successes and per-process
    /// completion cycles (contend only).
    sched: Option<(u64, u64, u64, Vec<u64>)>,
    nic_messages: u64,
    faults: FaultStats,
    livelock: bool,
}

/// Specialized machine configuration and per-process programs of a point
/// (the isa/workloads layer).
fn build(work: &Work) -> Result<(SimConfig, Vec<Program>), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match work {
        Work::Figure(spec) => {
            let mut cfg = spec.cfg.clone();
            let scheme = match spec.work {
                PointWork::Bandwidth { scheme, .. } | PointWork::Latency { scheme, .. } => scheme,
            };
            let path = match scheme {
                Scheme::Uncached { block } => {
                    cfg = cfg.combining_block(block);
                    StorePath::Uncached
                }
                Scheme::R10k => {
                    cfg.uncached = csb_uncached::UncachedConfig::r10000(cfg.line());
                    StorePath::Uncached
                }
                Scheme::Ppc620 => {
                    cfg.uncached = csb_uncached::UncachedConfig::ppc620();
                    StorePath::Uncached
                }
                Scheme::Csb => StorePath::Csb,
                Scheme::CsbOutlined => StorePath::CsbOutlined,
            };
            let program = match spec.work {
                PointWork::Bandwidth {
                    transfer, order, ..
                } => workloads::store_bandwidth_ordered(transfer, &cfg, path, order),
                PointWork::Latency { dwords, .. } if path == StorePath::Uncached => {
                    workloads::lock_sequence(dwords)
                }
                PointWork::Latency { dwords, .. } => workloads::csb_sequence(dwords, &cfg),
            }
            .map_err(|e| err(&e))?;
            (cfg, vec![program])
        }
        Work::Message {
            path,
            size,
            policy,
            seed,
            ..
        } => {
            let cfg = path.config();
            let spec = MessagingSpec {
                count: messaging::MESSAGES,
                payload_dwords: *size,
                sender: MSG_SENDER,
                slots: MSG_SLOTS,
            };
            let policy = match *policy {
                RetryPolicy::Backoff {
                    attempts,
                    base,
                    max,
                    ..
                } => RetryPolicy::Backoff {
                    attempts,
                    base,
                    max,
                    seed: *seed,
                },
                other => other,
            };
            let program = match path {
                Path::Lock => workloads::lock_messages(spec, policy, &cfg),
                Path::Csb | Path::CsbDouble => workloads::csb_messages(spec, policy, &cfg),
            }
            .map_err(|e| err(&e))?;
            (cfg, vec![program])
        }
        Work::Contend { path, cores, .. } => {
            let cfg = path.config();
            let programs = (0..*cores)
                .map(|i| match path {
                    Path::Lock => workloads::lock_worker(CONTEND_ITERATIONS, CONTEND_DWORDS),
                    Path::Csb | Path::CsbDouble => {
                        workloads::csb_worker(CONTEND_ITERATIONS, CONTEND_DWORDS, i, &cfg)
                    }
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| err(&e))?;
            (cfg, programs)
        }
    })
}

/// Readies the machine for a point (the csb-core set-up layer): warm-resets
/// the reusable simulator in `slot` as the sweep engine does, or builds a
/// time-sliced machine for a contend point.
fn install<'a>(
    slot: &'a mut Option<Simulator>,
    work: &Work,
    cfg: SimConfig,
    mut programs: Vec<Program>,
    ff: bool,
    obs: Obs,
) -> Result<Machine<'a>, String> {
    let err = |e: SimError| e.to_string();
    let metrics = obs == Obs::Full || (obs == Obs::Production && !matches!(work, Work::Figure(_)));
    if let Work::Contend { cores, seed, .. } = work {
        let mut ms =
            MultiSim::new(cfg, programs, SwitchPolicy::Fixed(CONTEND_SLICE)).map_err(err)?;
        ms.set_arrivals(&arrival_schedule(*cores, CONTEND_SPAN, *seed));
        ms.set_fast_forward(ff);
        if metrics {
            ms.enable_metrics();
        }
        if obs == Obs::Full {
            ms.enable_tracing();
        }
        return Ok(Machine::Many(Box::new(ms)));
    }
    let program = programs
        .pop()
        .expect("single-process point has one program");
    let line = cfg.line();
    match slot {
        Some(sim) => sim.reset_with(cfg, program).map_err(err)?,
        None => *slot = Some(Simulator::new(cfg, program).map_err(err)?),
    }
    let sim = slot.as_mut().expect("slot was just filled");
    match work {
        Work::Figure(spec) => match spec.work {
            PointWork::Latency {
                residency: LockResidency::Hit,
                ..
            } => sim.warm_line(Addr::new(LOCK_ADDR)),
            PointWork::Latency {
                residency: LockResidency::Miss,
                ..
            } => sim.evict_line(Addr::new(LOCK_ADDR)),
            PointWork::Bandwidth { .. } => {}
        },
        Work::Message {
            path, rate, seed, ..
        } => {
            let nic = NicConfig {
                slot_size: line,
                slots: MSG_SLOTS,
                ..NicConfig::default()
            };
            let base = if *path == Path::Lock {
                UNCACHED_BASE
            } else {
                COMBINING_BASE
            };
            sim.attach_nic(nic, Addr::new(base)).map_err(err)?;
            if *rate > 0.0 {
                sim.set_faults(Some(
                    FaultConfig::new(*seed)
                        .flush_disturb_rate(*rate)
                        .bus_error_rate(rate * 0.25)
                        .device_nack_rate(rate * 0.25),
                ));
            }
        }
        Work::Contend { .. } => {}
    }
    sim.set_fast_forward(ff);
    if obs == Obs::Full {
        sim.enable_tracing();
    }
    if metrics {
        sim.enable_metrics();
    }
    Ok(Machine::One(sim))
}

fn limit(work: &Work) -> u64 {
    match work {
        Work::Figure(_) => FIGURE_LIMIT,
        Work::Message { .. } => MSG_LIMIT,
        Work::Contend { .. } => CONTEND_LIMIT,
    }
}

/// Runs an installed point to completion (or `until`, for snapshots).
/// A livelock is a result on the messaging sweep, an error elsewhere.
fn run(m: &mut Machine<'_>, work: &Work) -> Result<Outcome, String> {
    let lim = limit(work);
    let mut sched = None;
    let livelock = match m {
        Machine::One(sim) => match sim.run(lim) {
            Ok(_) => false,
            Err(SimError::Livelock(_)) if matches!(work, Work::Message { .. }) => true,
            Err(e) => return Err(e.to_string()),
        },
        Machine::Many(ms) => {
            let s = ms.run(lim).map_err(|e| e.to_string())?;
            sched = Some((
                s.switches,
                s.flush_failures,
                s.flush_successes,
                s.completions,
            ));
            false
        }
    };
    let sim = m.sim();
    Ok(Outcome {
        summary: sim.summary(),
        sched,
        nic_messages: sim.nic().map_or(0, |n| n.stats().messages),
        faults: sim.fault_stats(),
        livelock,
    })
}

/// The points of a workload, in the bin's enumeration order.
fn points(workload: &str) -> Option<Vec<Work>> {
    Some(match workload {
        "figures" => fig3::panel_specs()
            .iter()
            .chain(&fig4::panel_specs())
            .flat_map(|p| p.enumerate())
            .chain(fig5::panel_specs().iter().flat_map(|p| p.enumerate()))
            .map(|spec| Work::Figure(Box::new(spec)))
            .collect(),
        "messaging" => {
            let mut v = Vec::new();
            let paths = [Path::Lock, Path::Csb, Path::CsbDouble];
            for (pa, &path) in paths.iter().enumerate() {
                for (si, &size) in messaging::SIZES.iter().enumerate() {
                    for &rate in &messaging::RATES {
                        for (pi, &policy) in faults::policies().iter().enumerate() {
                            for s in 0..messaging::SEEDS_PER_CELL {
                                let seed = 0x0e2e_0000
                                    + (pa as u64) * 100_000
                                    + (si as u64) * 10_000
                                    + (pi as u64) * 1_000
                                    + s;
                                v.push(Work::Message {
                                    path,
                                    size,
                                    policy,
                                    rate,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
            v
        }
        "contend" => {
            let mut v = Vec::new();
            let paths = [Path::Lock, Path::Csb, Path::CsbDouble];
            for (ci, &cores) in csb_core::experiments::contend::CORES.iter().enumerate() {
                for (si, &path) in paths.iter().enumerate() {
                    for s in 0..csb_core::experiments::contend::SEEDS_PER_CELL {
                        let seed = 0xc0de_0000 + (ci as u64) * 1_000 + (si as u64) * 100 + s;
                        v.push(Work::Contend { path, cores, seed });
                    }
                }
            }
            v
        }
        _ => return None,
    })
}

/// SplitMix64: the probe's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Host time accumulated per span name.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, Duration>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += t0.elapsed();
        out
    }

    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |d| d.as_nanos() as f64)
    }
}

/// Ratio that reads 0 when the denominator is 0 (a layer the workload
/// does not use).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `body` over fresh state from `setup` (untimed), repeating until
/// the timed part adds up to [`MIN_LAYER_TIME`]; returns host ns per pass.
fn per_pass<S>(mut setup: impl FnMut() -> S, mut body: impl FnMut(&mut S)) -> f64 {
    let mut spent = Duration::ZERO;
    let mut passes = 0u32;
    while passes == 0 || spent < MIN_LAYER_TIME {
        let mut state = setup();
        let t0 = Instant::now();
        body(&mut state);
        spent += t0.elapsed();
        passes += 1;
    }
    spent.as_nanos() as f64 / f64::from(passes)
}

/// Simulated totals over a workload's points.
#[derive(Default)]
struct Totals {
    cycles: u64,
    ticks: u64,
    retired: u64,
    stall_cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    ubuf_stores: u64,
    ubuf_coalesced: u64,
    ubuf_full_stalls: u64,
    csb_stores: u64,
    flush_ok: u64,
    flush_fail: u64,
    cross_pid_resets: u64,
    bus_txns: u64,
    bus_busy: u64,
    bus_window: u64,
    switches: u64,
    nic_messages: u64,
    fault_checks: u64,
    fault_injected: u64,
}

impl Totals {
    fn add(&mut self, o: &Outcome, ticks: u64) {
        let s = &o.summary;
        self.cycles += s.cycles;
        self.ticks += ticks;
        self.retired += s.cpu.retired;
        self.stall_cycles += s.cpu.uncached_stall_cycles + s.cpu.membar_stall_cycles;
        self.l1_hits += s.mem.l1.hits;
        self.l1_misses += s.mem.l1.misses;
        self.ubuf_stores += s.uncached.stores;
        self.ubuf_coalesced += s.uncached.coalesced;
        self.ubuf_full_stalls += s.uncached.full_stalls;
        self.csb_stores += s.csb.stores;
        self.flush_ok += s.csb.flush_successes;
        self.flush_fail += s.csb.flush_failures;
        self.cross_pid_resets += s.csb.cross_pid_resets;
        self.bus_txns += s.bus.transactions;
        self.bus_busy += s.bus.busy_cycles;
        self.bus_window += s.bus.window_cycles();
        self.switches += o.sched.as_ref().map_or(0, |s| s.0);
        self.nic_messages += o.nic_messages;
        self.fault_checks += o.faults.checks.iter().sum::<u64>();
        self.fault_injected += o.faults.total_injected();
    }
}

/// A point after its first production run: what the standalone layer
/// timings replay.
struct Done {
    cfg: SimConfig,
    programs: Vec<Program>,
    outcome: Outcome,
}

#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    ff_mismatch: u64,
    obs_mismatch: u64,
    snap_mismatch: u64,
}

fn probe(workload: &str, seed: u64, seconds: f64) -> Result<(Report, Totals, usize), String> {
    let works = points(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let mut rng = Rng(seed);
    let mut order: Vec<usize> = (0..works.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut rep = Report::default();
    let mut spans = Spans::default();
    let mut slot = None;
    let mut done: Vec<Option<Done>> = (0..works.len()).map(|_| None).collect();
    let mut totals = Totals::default();

    // Interleaved passes: each point runs with fast-forward on and off and
    // with observability off, as shipped, and fully on, in a rotating
    // order, until half the time budget is spent.
    const MODES: [(bool, Obs, &str); 4] = [
        (true, Obs::Production, "run.ff"),
        (false, Obs::Production, "run.naive"),
        (true, Obs::Off, "run.obs_off"),
        (true, Obs::Full, "run.obs_on"),
    ];
    let start = Instant::now();
    let mut rounds = 0u64;
    let mut export_points = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds * 0.5 {
        for (k, &i) in order.iter().enumerate() {
            let work = &works[i];
            let (cfg, programs) = spans.time("isa.build", || build(work))?;
            let first = (seed as usize + k + rounds as usize) % MODES.len();
            let mut outs: [Option<Outcome>; 4] = Default::default();
            for j in 0..MODES.len() {
                let (ff, obs, span) = MODES[(first + j) % MODES.len()];
                let mut m = spans.time("core.setup", || {
                    install(&mut slot, work, cfg.clone(), programs.clone(), ff, obs)
                })?;
                let out = spans.time(span, || run(&mut m, work))?;
                if obs == Obs::Full {
                    spans.time("obs.export", || {
                        black_box(m.sim().chrome_trace().len());
                        black_box(m.sim().metrics_report());
                    });
                    export_points += 1;
                }
                if ff && obs == Obs::Production && rounds == 0 {
                    totals.add(&out, m.sim().ticks());
                }
                outs[(first + j) % MODES.len()] = Some(out);
            }
            let [prod, naive, off, full] = outs.map(|o| o.expect("every mode ran"));
            rep.ff_mismatch += u64::from(prod != naive);
            rep.obs_mismatch += u64::from(prod != off) + u64::from(prod != full);
            if rounds == 0 {
                done[i] = Some(Done {
                    cfg,
                    programs,
                    outcome: prod,
                });
            }
        }
        rounds += 1;
    }
    let done: Vec<Done> = done.into_iter().map(|d| d.expect("round 0 ran")).collect();
    let n = works.len() as f64;
    let production_runs = rounds as f64 * n;

    // Mid-run snapshot and restore of every point: both halves must
    // finish with the same outcome as the uninterrupted run.
    let mut frame_bytes = 0u64;
    let mut restore_slot: Option<Simulator> = None;
    for (work, d) in works.iter().zip(&done) {
        let half = d.outcome.summary.cycles / 2;
        let mut m = install(
            &mut slot,
            work,
            d.cfg.clone(),
            d.programs.clone(),
            true,
            Obs::Production,
        )?;
        let resumed = match &mut m {
            Machine::One(sim) => {
                sim.run_to(half).map_err(|e| e.to_string())?;
                let frame = spans.time("snap.save", || sim.snapshot());
                frame_bytes += frame.len() as u64;
                let program = d.programs[0].clone();
                let restored = match &mut restore_slot {
                    Some(s) => {
                        s.reset_with(d.cfg.clone(), program)
                            .map_err(|e| e.to_string())?;
                        s
                    }
                    None => restore_slot
                        .insert(Simulator::new(d.cfg.clone(), program).map_err(|e| e.to_string())?),
                };
                spans
                    .time("snap.restore", || restored.restore_from(&frame))
                    .map_err(|e| e.to_string())?;
                let mut r = Machine::One(restored);
                run(&mut r, work)?
            }
            Machine::Many(ms) => {
                match ms.run(half.max(1)) {
                    Err(SimError::CycleLimit { .. }) => {}
                    Err(e) => return Err(e.to_string()),
                    Ok(_) => return Err("contend point finished before its midpoint".into()),
                }
                let frame = spans.time("snap.save", || ms.snapshot());
                frame_bytes += frame.len() as u64;
                let restored = spans
                    .time("snap.restore", || {
                        MultiSim::restore(
                            d.cfg.clone(),
                            d.programs.clone(),
                            SwitchPolicy::Fixed(CONTEND_SLICE),
                            &frame,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let mut r = Machine::Many(Box::new(restored));
                run(&mut r, work)?
            }
        };
        rep.snap_mismatch += u64::from(resumed != d.outcome);
    }

    let t = &totals;
    let base = done[0].cfg.clone();
    let m = &mut rep.metrics;

    // csb-core.
    m.insert(
        "core.setup_us_per_point",
        spans.ns("core.setup") / 1e3 / (4.0 * production_runs),
    );
    m.insert(
        "core.run_ns_per_cycle",
        ratio(spans.ns("run.ff"), rounds as f64 * t.cycles as f64),
    );
    m.insert(
        "core.ticks_per_kcycle",
        ratio(1e3 * t.ticks as f64, t.cycles as f64),
    );
    m.insert(
        "core.ff_speedup",
        ratio(spans.ns("run.naive"), spans.ns("run.ff")),
    );

    // csb-isa / workloads.
    m.insert(
        "isa.build_us_per_point",
        spans.ns("isa.build") / 1e3 / production_runs,
    );

    // csb-core multiproc: the switch itself, replayed on a bare core as
    // many times as the workload switched.
    m.insert(
        "sched.switches_per_kcycle",
        ratio(1e3 * t.switches as f64, t.cycles as f64),
    );
    let switching: Vec<(&Done, u64)> = done
        .iter()
        .filter_map(|d| d.outcome.sched.as_ref().map(|s| (d, s.0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let switch_ns = if switching.is_empty() {
        0.0
    } else {
        per_pass(
            || {
                switching
                    .iter()
                    .map(|(d, _)| Cpu::new(d.cfg.cpu, d.programs[0].clone()))
                    .collect::<Vec<_>>()
            },
            |cpus| {
                for (cpu, &(d, n)) in cpus.iter_mut().zip(&switching) {
                    for k in 0..n {
                        let p = (k as usize) % d.programs.len();
                        let ctx = CpuContext::new(p as u32);
                        black_box(cpu.switch_context(ctx, Some(d.programs[p].clone())));
                    }
                }
            },
        )
    };
    m.insert("sched.ns_per_switch", ratio(switch_ns, t.switches as f64));

    // csb-cpu: the core alone on a functional memory port.
    let mut cpu_retired = 0u64;
    let cpu_ns = per_pass(
        || {
            done.iter()
                .flat_map(|d| {
                    d.programs.iter().map(|p| {
                        let port = SimpleMemPort::with_map(d.cfg.map.clone(), 0);
                        (Cpu::new(d.cfg.cpu, p.clone()), port)
                    })
                })
                .collect::<Vec<_>>()
        },
        |runs| {
            cpu_retired = runs
                .iter_mut()
                .map(|(cpu, port)| cpu.run(port, FIGURE_LIMIT).map_or(0, |s| s.retired))
                .sum();
        },
    );
    m.insert("cpu.ns_per_retired", ratio(cpu_ns, cpu_retired as f64));
    m.insert(
        "cpu.retired_per_kcycle",
        ratio(1e3 * t.retired as f64, t.cycles as f64),
    );
    m.insert(
        "cpu.stall_frac",
        ratio(t.stall_cycles as f64, t.cycles as f64),
    );

    // csb-mem: as many cache accesses as the workload made, over a seeded
    // stream of lines around the lock variable.
    let accesses = t.l1_hits + t.l1_misses;
    let stream: Vec<(Addr, AccessKind)> = (0..accesses)
        .map(|_| {
            let line = rng.below(64) as u64;
            let kind = match rng.below(3) {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Atomic,
            };
            (Addr::new(LOCK_ADDR + line * base.line() as u64), kind)
        })
        .collect();
    let mem_ns = if stream.is_empty() {
        0.0
    } else {
        per_pass(
            || MemoryHierarchy::new(base.mem).expect("the sweep's memory config is valid"),
            |mem| {
                for (k, &(a, kind)) in stream.iter().enumerate() {
                    black_box(mem.access(a, kind, k as u64));
                }
            },
        )
    };
    m.insert("mem.ns_per_access", ratio(mem_ns, accesses as f64));
    m.insert("mem.l1_hit_rate", ratio(t.l1_hits as f64, accesses as f64));

    // csb-uncached.
    m.insert(
        "ubuf.coalesce_frac",
        ratio(t.ubuf_coalesced as f64, t.ubuf_stores as f64),
    );
    m.insert(
        "ubuf.full_stalls_per_kcycle",
        ratio(1e3 * t.ubuf_full_stalls as f64, t.cycles as f64),
    );
    let flushes = t.flush_ok + t.flush_fail;
    m.insert(
        "csb.flush_success_frac",
        ratio(t.flush_ok as f64, flushes as f64),
    );
    m.insert("csb.cross_pid_resets", t.cross_pid_resets as f64);
    // Store groups of the workload's mean size, each closed by a flush.
    let line = base.line();
    let csb_ns = if let Some(group) = t.csb_stores.checked_div(flushes) {
        let group = group.clamp(1, (line / 8) as u64);
        let cfg = CsbConfig::new(line);
        per_pass(
            || ConditionalStoreBuffer::new(cfg).expect("the sweep's CSB config is valid"),
            |csb| {
                for f in 0..flushes {
                    let pid = (f % 4) as u32;
                    let at = Addr::new(COMBINING_BASE + (f % 64) * line as u64);
                    for w in 0..group {
                        black_box(
                            csb.store(pid, at.offset(8 * w as i64), &w.to_le_bytes())
                                .ok(),
                        );
                    }
                    black_box(csb.conditional_flush(pid, at, group));
                    while csb.peek_transaction().is_some() {
                        black_box(csb.transaction_accepted());
                    }
                }
            },
        )
    } else {
        0.0
    };
    m.insert(
        "csb.ns_per_op",
        ratio(csb_ns, (t.csb_stores + flushes) as f64),
    );

    // csb-bus: each point's own transaction sizes on its own bus.
    m.insert(
        "bus.utilization",
        ratio(t.bus_busy as f64, t.bus_window as f64),
    );
    m.insert(
        "bus.txns_per_kcycle",
        ratio(1e3 * t.bus_txns as f64, t.cycles as f64),
    );
    let bus_work: Vec<(&Done, Vec<usize>)> = done
        .iter()
        .map(|d| {
            let hist = &d.outcome.summary.bus.size_histogram;
            let sizes = hist
                .iter()
                .flat_map(|(size, n)| std::iter::repeat_n(size, n as usize))
                .collect();
            (d, sizes)
        })
        .collect();
    let bus_ns = per_pass(
        || {
            let buses: Vec<SystemBus> = bus_work
                .iter()
                .map(|(d, _)| SystemBus::new(d.cfg.bus))
                .collect();
            buses
        },
        |buses| {
            for (bus, (_, sizes)) in buses.iter_mut().zip(&bus_work) {
                let mut now = 0;
                for (k, &size) in sizes.iter().enumerate() {
                    now = bus.earliest_start(now);
                    let at = Addr::new(COMBINING_BASE + (k * size) as u64);
                    black_box(bus.try_issue(now, Transaction::write(at, size)).ok());
                }
            }
        },
    );
    m.insert("bus.ns_per_txn", ratio(bus_ns, t.bus_txns as f64));

    // csb-nic: each delivered message re-ingested in the shape its send
    // path gives it (one burst, or a header beat plus payload beats).
    let mut frames: Vec<(bool, u64, Vec<u8>)> = Vec::new();
    for (work, d) in works.iter().zip(&done) {
        let Work::Message { path, size, .. } = work else {
            continue;
        };
        for seq in 0..d.outcome.nic_messages {
            let mut bytes = encode_header((size * 8) as u16, seq as u16, MSG_SENDER)
                .to_le_bytes()
                .to_vec();
            let pat = MessagingSpec::payload_pattern(seq as u16).to_le_bytes();
            for _ in 0..*size {
                bytes.extend_from_slice(&pat);
            }
            let offset = (seq % MSG_SLOTS as u64) * line as u64;
            frames.push((*path == Path::Lock, offset, bytes));
        }
    }
    let nic_calls: usize = frames
        .iter()
        .map(|(beats, _, b)| if *beats { b.len() / 8 } else { 1 })
        .sum();
    let nic_ns = if frames.is_empty() {
        0.0
    } else {
        let cfg = NicConfig {
            slot_size: line,
            slots: MSG_SLOTS,
            ..NicConfig::default()
        };
        per_pass(
            || Nic::new(cfg).expect("the sweep's NI config is valid"),
            |nic| {
                for (cycle, (beats, offset, bytes)) in frames.iter().enumerate() {
                    let cycle = cycle as u64;
                    if *beats {
                        // Payload beats first and the header last, as the
                        // lock sender orders them under its membars.
                        for (k, beat) in bytes.chunks(8).enumerate().skip(1) {
                            nic.ingest_bytes(offset + 8 * k as u64, beat, cycle);
                        }
                        nic.ingest_bytes(*offset, &bytes[..8], cycle);
                    } else {
                        nic.ingest_bytes(*offset, bytes, cycle);
                    }
                }
                black_box(nic.stats());
            },
        )
    };
    m.insert("nic.ns_per_ingest", ratio(nic_ns, nic_calls as f64));
    m.insert(
        "faults.injected_frac",
        ratio(t.fault_injected as f64, t.fault_checks as f64),
    );

    // csb-obs.
    m.insert(
        "obs.overhead_frac",
        ratio(spans.ns("run.obs_on"), spans.ns("run.obs_off")) - 1.0,
    );
    m.insert(
        "obs.export_us_per_point",
        ratio(spans.ns("obs.export") / 1e3, export_points as f64),
    );

    // csb-snap.
    m.insert("snap.save_us", spans.ns("snap.save") / 1e3 / n);
    m.insert("snap.restore_us", spans.ns("snap.restore") / 1e3 / n);
    m.insert("snap.frame_kb", frame_bytes as f64 / 1024.0 / n);

    Ok((rep, totals, works.len()))
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload").unwrap_or_default();
    let seed = arg(&args, "--seed").and_then(|s| s.parse().ok());
    let seconds = arg(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        eprintln!("usage: csb-perfprobe --workload figures|messaging|contend --seed N --seconds S");
        return ExitCode::from(2);
    };
    match probe(&workload, seed, seconds) {
        Ok((rep, totals, points)) => {
            let metrics: Vec<String> = rep
                .metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
                .collect();
            println!(
                "{{\"points\": {points}, \"sim_cycles\": {}, \"ff_mismatch\": {}, \
                 \"obs_mismatch\": {}, \"snap_mismatch\": {}, \"metrics\": {{{}}}}}",
                totals.cycles,
                rep.ff_mismatch,
                rep.obs_mismatch,
                rep.snap_mismatch,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("probe failed: {e}");
            ExitCode::FAILURE
        }
    }
}
