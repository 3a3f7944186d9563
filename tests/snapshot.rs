//! Differential tests for snapshot/resume and the sweep-point cache.
//!
//! A snapshot taken at an arbitrary cycle — mid-flush, mid-bus-
//! transaction, under an active fault schedule, mid-slice in a
//! multi-process run — must restore to a machine that continues
//! **byte-identically** to one that never stopped, on both the naive and
//! fast-forward loops. The cache tests check the content-addressing
//! contract: a warm sweep is all hits with identical values, a corrupted
//! entry is detected and transparently re-simulated, and changing one
//! point's configuration invalidates exactly that point.

use std::sync::Arc;

use csb_core::experiments::runner::{run_sweep, ObsConfig, PointSpec, PointWork, RunCtx};
use csb_core::experiments::{faults, Scheme};
use csb_core::multiproc::{MultiSim, SwitchPolicy};
use csb_core::workloads::{self, RetryPolicy, StoreOrder};
use csb_core::{cache, FaultConfig, RestoreError, SimConfig, SimError, Simulator, WatchdogConfig};
use csb_isa::Program;
use proptest::prelude::*;

const LIMIT: u64 = 2_000_000;

/// Runs `(cfg, program)` uninterrupted, and again with a snapshot/restore
/// boundary at cycle `snap_at`; asserts the resumed machine's summary,
/// CSB stats, device log, and fault counters are byte-identical, and that
/// the donor simulator (the one snapshotted) also finishes identically.
fn assert_snapshot_differential(
    cfg: &SimConfig,
    program: &Program,
    snap_at: u64,
    fast_forward: bool,
    faults: Option<FaultConfig>,
) {
    let mut whole = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    whole.set_fast_forward(fast_forward);
    whole.set_faults(faults);
    let expected = whole.run(LIMIT).expect("uninterrupted run completes");

    let mut donor = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    donor.set_fast_forward(fast_forward);
    donor.set_faults(faults);
    donor.run_to(snap_at).expect("run to snapshot cycle");
    let bytes = donor.snapshot();

    let mut resumed =
        Simulator::restore(cfg.clone(), program.clone(), &bytes).expect("snapshot restores");
    let got = resumed.run(LIMIT).expect("resumed run completes");

    let ctx = format!("snap_at={snap_at} ff={fast_forward}");
    assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "{ctx}: resumed summary must be byte-identical"
    );
    assert_eq!(
        resumed.csb_stats(),
        whole.csb_stats(),
        "{ctx}: CSB stats must match"
    );
    assert_eq!(
        serde_json::to_string(resumed.device()).unwrap(),
        serde_json::to_string(whole.device()).unwrap(),
        "{ctx}: device log must be byte-identical"
    );
    assert_eq!(
        format!("{:?}", resumed.fault_stats()),
        format!("{:?}", whole.fault_stats()),
        "{ctx}: fault counters must match"
    );

    // Snapshotting is non-destructive: the donor finishes identically too.
    let donor_summary = donor.run(LIMIT).expect("donor continues");
    assert_eq!(
        serde_json::to_string(&donor_summary).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "{ctx}: donor must be unaffected by taking a snapshot"
    );
}

#[test]
fn snapshot_restore_on_figure_workloads() {
    let cfg = SimConfig::default();
    let csb = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();
    let uncached = workloads::store_bandwidth(128, &cfg, workloads::StorePath::Uncached).unwrap();
    // Snapshot cycles chosen to land mid-run: combining stores in flight,
    // bursts mid-drain on the bus, flushes pending.
    for &snap_at in &[1, 17, 100, 250, 1_000] {
        for ff in [false, true] {
            assert_snapshot_differential(&cfg, &csb, snap_at, ff, None);
            assert_snapshot_differential(&cfg, &uncached, snap_at, ff, None);
        }
    }
}

#[test]
fn snapshot_restore_under_active_fault_schedule() {
    let cfg = SimConfig::default();
    let program = workloads::csb_sequence_with_policy(
        8,
        RetryPolicy::Backoff {
            attempts: 12,
            base: 32,
            max: 1024,
            seed: 11,
        },
        &cfg,
    )
    .unwrap();
    let faults = FaultConfig::new(0x5eed)
        .flush_disturb_rate(0.5)
        .bus_error_rate(0.125)
        .device_nack_rate(0.125);
    // Mid-retry snapshots: the fault ordinal streams must reposition
    // exactly, or the schedule replays differently after restore.
    for &snap_at in &[1, 40, 150, 700] {
        for ff in [false, true] {
            assert_snapshot_differential(&cfg, &program, snap_at, ff, Some(faults));
        }
    }
}

#[test]
fn snapshot_preserves_trace_stream_as_concatenation() {
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();

    let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
    whole.enable_tracing();
    whole.run(LIMIT).unwrap();
    let uninterrupted = whole.trace_events();

    let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
    donor.enable_tracing();
    donor.run_to(120).unwrap();
    let pre = donor.trace_events();
    let bytes = donor.snapshot();
    let mut resumed = Simulator::restore(cfg, program, &bytes).unwrap();
    resumed.run(LIMIT).unwrap();
    let post = resumed.trace_events();

    let mut concat = pre;
    concat.extend(post);
    assert_eq!(
        concat, uninterrupted,
        "pre-snapshot + post-restore events must equal the uninterrupted stream"
    );
}

#[test]
fn snapshot_restore_mid_slice_in_multisim() {
    let cfg = SimConfig::default();
    let programs = vec![
        workloads::csb_worker(4, 8, 0, &cfg).unwrap(),
        workloads::csb_worker(4, 8, 1, &cfg).unwrap(),
    ];
    for policy in [
        SwitchPolicy::Fixed(60),
        SwitchPolicy::Backoff { base: 6, max: 4096 },
    ] {
        let mut whole = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
        let expected = whole.run(10_000_000).unwrap();

        // Drive the donor into the middle of the run (CycleLimit is the
        // documented bounded-run return), snapshot mid-slice, restore.
        let mut donor = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
        match donor.run(150) {
            Err(SimError::CycleLimit { .. }) => {}
            other => panic!("expected mid-run CycleLimit, got {other:?}"),
        }
        let bytes = donor.snapshot();
        let mut resumed = MultiSim::restore(cfg.clone(), programs.clone(), policy, &bytes).unwrap();
        let got = resumed.run(10_000_000).unwrap();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "{policy:?}: resumed multi-process run must be byte-identical"
        );
        assert_eq!(
            serde_json::to_string(resumed.simulator().device()).unwrap(),
            serde_json::to_string(whole.simulator().device()).unwrap(),
            "{policy:?}: device log must be byte-identical"
        );
    }
}

#[test]
fn restore_rejects_mismatch_and_corruption() {
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(64, &cfg, workloads::StorePath::Csb).unwrap();
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    sim.run_to(50).unwrap();
    let bytes = sim.snapshot();

    // Different program.
    let other = workloads::store_bandwidth(128, &cfg, workloads::StorePath::Csb).unwrap();
    assert!(matches!(
        Simulator::restore(cfg.clone(), other, &bytes),
        Err(RestoreError::ProgramMismatch)
    ));

    // Different configuration.
    let other_cfg = SimConfig::default().line_size(32);
    assert!(matches!(
        Simulator::restore(other_cfg, program.clone(), &bytes),
        Err(RestoreError::ConfigMismatch)
    ));

    // Flipped byte fails the checksum.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(matches!(
        Simulator::restore(cfg.clone(), program.clone(), &corrupt),
        Err(RestoreError::Snapshot(_))
    ));

    // Truncation fails too.
    assert!(matches!(
        Simulator::restore(cfg, program, &bytes[..bytes.len() / 2]),
        Err(RestoreError::Snapshot(_))
    ));
}

#[test]
fn rebuilt_program_fingerprints_equal_and_restores() {
    let cfg = SimConfig::default();
    // The backoff retry loop binds several labels, so a fingerprint that
    // depended on a hash map's per-instance iteration order would differ
    // between independent builds.
    let build = || {
        workloads::csb_sequence_with_policy(
            8,
            RetryPolicy::Backoff {
                attempts: 12,
                base: 32,
                max: 1024,
                seed: 11,
            },
            &cfg,
        )
        .unwrap()
    };
    let first = csb_core::snapshot::program_fingerprint(&build());
    for _ in 0..6 {
        assert_eq!(csb_core::snapshot::program_fingerprint(&build()), first);
    }

    let mut whole = Simulator::new(cfg.clone(), build()).unwrap();
    let expected = whole.run(LIMIT).unwrap();
    let mut donor = Simulator::new(cfg.clone(), build()).unwrap();
    donor.run_to(150).unwrap();
    let bytes = donor.snapshot();
    let mut resumed = Simulator::restore(cfg.clone(), build(), &bytes)
        .expect("a frame restores against an independently rebuilt program");
    assert_eq!(
        serde_json::to_string(&resumed.run(LIMIT).unwrap()).unwrap(),
        serde_json::to_string(&expected).unwrap()
    );
}

#[test]
fn snapshot_respects_watchdog_state() {
    // A snapshot taken shortly before a livelock fires must, after
    // restore, still fire at the identical cycle with the identical
    // report.
    let cfg = SimConfig::default();
    let program = workloads::csb_sequence_with_policy(8, RetryPolicy::NaiveSpin, &cfg).unwrap();
    let faults = FaultConfig::new(3).flush_disturb_rate(1.0);

    let run_whole = |ff: bool| {
        let mut s = Simulator::new(cfg.clone(), program.clone()).unwrap();
        s.set_fast_forward(ff);
        s.set_faults(Some(faults));
        s.set_watchdog(WatchdogConfig::default());
        match s.run(LIMIT) {
            Err(SimError::Livelock(r)) => format!("{r:?}"),
            other => panic!("expected livelock, got {other:?}"),
        }
    };
    for ff in [false, true] {
        let expected = run_whole(ff);
        let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
        donor.set_fast_forward(ff);
        donor.set_faults(Some(faults));
        donor.set_watchdog(WatchdogConfig::default());
        donor.run_to(200).unwrap();
        let bytes = donor.snapshot();
        let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).unwrap();
        let got = match resumed.run(LIMIT) {
            Err(SimError::Livelock(r)) => format!("{r:?}"),
            other => panic!("expected livelock after restore, got {other:?}"),
        };
        assert_eq!(got, expected, "ff={ff}: livelock report must be identical");
    }
}

/// Sixteen uncached stores (still draining while the loop spins), a
/// `trips`-iteration delay loop, and a store of the loop counter.
fn delay_loop_program(trips: i64) -> Program {
    use csb_isa::{AluOp, Assembler, Reg};
    let mut a = Assembler::new();
    a.movi(Reg::O1, csb_core::UNCACHED_BASE as i64);
    for i in 0..16 {
        a.std(Reg::O1, Reg::O1, 8 * i);
    }
    let spin = a.new_label();
    a.movi(Reg::L0, trips);
    a.bind(spin).unwrap();
    a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
    a.cmpi(Reg::L0, 0);
    a.bnz(spin);
    a.std(Reg::L0, Reg::O1, 0x100);
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn snapshot_restore_inside_skipped_loop_span() {
    // Snapshot cycles inside a steady delay loop, which the fast-forward
    // path jumps over whole periods at a time (the snapshot caps the jump
    // and ticks up to the cycle), with bus errors and NACKs on the drain.
    let cfg = SimConfig::default();
    let program = delay_loop_program(4_000);
    let faults = Some(
        FaultConfig::new(9)
            .device_nack_rate(0.3)
            .bus_error_rate(0.1),
    );
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    sim.set_fast_forward(true);
    sim.set_faults(faults);
    let cycles = sim.run(LIMIT).unwrap().cycles;
    assert!(
        sim.ticks() * 10 < cycles,
        "the loop is skipped ({} ticks of {cycles})",
        sim.ticks()
    );
    for &snap_at in &[150, 2_000, 3_001, 5_555] {
        for ff in [false, true] {
            assert_snapshot_differential(&cfg, &program, snap_at, ff, faults);
        }
    }
}

#[test]
fn snapshot_restore_with_attached_nic() {
    // The NIC attachment — window base, configuration, per-slot in-flight
    // assembly, and the delivered-message log — rides the snapshot frame:
    // restore reconstructs it without the caller re-attaching, and the
    // resumed machine's NI state is byte-identical to the uninterrupted
    // run's. Snapshot cycles are chosen to land mid-message on the lock
    // path (frames half-assembled from single beats).
    let cfg = SimConfig::default();
    let spec = workloads::MessagingSpec {
        count: 8,
        payload_dwords: 7,
        sender: 3,
        slots: 2,
    };
    let nic_cfg = csb_nic::NicConfig {
        slot_size: cfg.line(),
        slots: 2,
        ..csb_nic::NicConfig::default()
    };
    let cases = [
        (
            workloads::lock_messages(spec, RetryPolicy::NaiveSpin, &cfg).unwrap(),
            csb_core::UNCACHED_BASE,
            None,
        ),
        (
            workloads::csb_messages(
                spec,
                RetryPolicy::Backoff {
                    attempts: 12,
                    base: 32,
                    max: 1024,
                    seed: 5,
                },
                &cfg,
            )
            .unwrap(),
            csb_core::COMBINING_BASE,
            Some(
                FaultConfig::new(0x11c)
                    .flush_disturb_rate(0.4)
                    .bus_error_rate(0.1)
                    .device_nack_rate(0.1),
            ),
        ),
    ];
    for (program, base, faults) in cases {
        for &snap_at in &[1, 60, 400, 900] {
            for ff in [false, true] {
                let attach = |s: &mut Simulator| {
                    s.attach_nic(nic_cfg, csb_isa::Addr::new(base)).unwrap();
                    s.set_fast_forward(ff);
                    s.set_faults(faults);
                };
                let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
                attach(&mut whole);
                let expected = whole.run(LIMIT).expect("uninterrupted run completes");

                let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
                attach(&mut donor);
                donor.run_to(snap_at).unwrap();
                let bytes = donor.snapshot();
                let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).unwrap();
                let got = resumed.run(LIMIT).expect("resumed run completes");

                let ctx = format!("base={base:#x} snap_at={snap_at} ff={ff}");
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&expected).unwrap(),
                    "{ctx}: summaries must match"
                );
                let nic = resumed.nic().expect("attachment restored from frame");
                let nic_whole = whole.nic().unwrap();
                assert_eq!(
                    nic.stats(),
                    nic_whole.stats(),
                    "{ctx}: NI counters must match"
                );
                assert_eq!(
                    serde_json::to_string(&nic.messages().to_vec()).unwrap(),
                    serde_json::to_string(&nic_whole.messages().to_vec()).unwrap(),
                    "{ctx}: delivered-message logs must be byte-identical"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random snapshot cycles on random workload shapes, both loops:
    /// including cycles that land mid-flush and mid-bus-transaction.
    #[test]
    fn snapshot_round_trips_at_random_cycles(
        snap_at in 1u64..2_500,
        transfer_idx in 0usize..3,
        csb_path in proptest::bool::ANY,
        ff in proptest::bool::ANY,
        shuffled in proptest::bool::ANY,
    ) {
        let cfg = SimConfig::default();
        let transfer = [64usize, 256, 512][transfer_idx];
        let path = if csb_path {
            workloads::StorePath::Csb
        } else {
            workloads::StorePath::Uncached
        };
        let order = if shuffled { StoreOrder::Shuffled } else { StoreOrder::Ascending };
        let program = workloads::store_bandwidth_ordered(transfer, &cfg, path, order).unwrap();
        assert_snapshot_differential(&cfg, &program, snap_at, ff, None);
    }

    /// Random snapshot cycles under a seeded fault schedule.
    #[test]
    fn snapshot_round_trips_under_faults(
        snap_at in 1u64..1_500,
        seed in 0u64..64,
        ff in proptest::bool::ANY,
    ) {
        let cfg = SimConfig::default();
        let program = workloads::csb_sequence_with_policy(
            8,
            RetryPolicy::Bounded { attempts: 8 },
            &cfg,
        ).unwrap();
        let faults = FaultConfig::new(seed)
            .flush_disturb_rate(0.4)
            .bus_error_rate(0.1)
            .device_nack_rate(0.1);
        let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
        whole.set_fast_forward(ff);
        whole.set_faults(Some(faults));
        let expected = match whole.run(LIMIT) {
            Ok(s) => serde_json::to_string(&s).unwrap(),
            Err(e) => format!("{e:?}"),
        };
        let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
        donor.set_fast_forward(ff);
        donor.set_faults(Some(faults));
        donor.run_to(snap_at).unwrap();
        let bytes = donor.snapshot();
        let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).unwrap();
        let got = match resumed.run(LIMIT) {
            Ok(s) => serde_json::to_string(&s).unwrap(),
            Err(e) => format!("{e:?}"),
        };
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Point-cache contract. Each test hands its own store to the sweeps it runs
// through a `RunCtx`, so the tests share nothing and run in parallel.
// ---------------------------------------------------------------------------

fn with_cache<T>(name: &str, f: impl FnOnce(&RunCtx, &cache::PointCache) -> T) -> T {
    let dir = std::env::temp_dir().join(format!("csb-snapshot-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(cache::PointCache::open(&dir).expect("cache dir"));
    let ctx = RunCtx {
        cache: Some(store.clone()),
        ..RunCtx::default()
    };
    let out = f(&ctx, &store);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// `ctx` on `jobs` workers.
fn on(ctx: &RunCtx, jobs: usize) -> RunCtx {
    RunCtx {
        jobs,
        ..ctx.clone()
    }
}

/// Flips one byte in the middle of one entry of the store.
fn corrupt_one_entry(store: &cache::PointCache) {
    let entry = std::fs::read_dir(store.dir())
        .unwrap()
        .next()
        .expect("at least one entry")
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&entry, &bytes).unwrap();
}

fn small_specs() -> Vec<PointSpec> {
    let cfg = SimConfig::default();
    [64usize, 128, 256]
        .iter()
        .map(|&transfer| PointSpec {
            label: format!("cache-test/{transfer}B"),
            cfg: cfg.clone(),
            work: PointWork::Bandwidth {
                transfer,
                scheme: Scheme::Csb,
                order: StoreOrder::Ascending,
            },
        })
        .collect()
}

#[test]
fn warm_sweep_is_all_hits_with_identical_values() {
    with_cache("warm", |ctx, _| {
        let specs = small_specs();
        let cold_run = run_sweep(&specs, &on(ctx, 1)).unwrap();
        let cold = cold_run.report.cache.expect("cache stats recorded");
        assert_eq!(cold.misses, specs.len() as u64);
        assert_eq!(cold.hits, 0);
        assert!(cold.bytes_written > 0);

        let warm_run = run_sweep(&specs, &on(ctx, 2)).unwrap();
        let warm = warm_run.report.cache.expect("cache stats recorded");
        assert_eq!(
            warm.hits,
            specs.len() as u64,
            "second sweep must be all hits"
        );
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.invalidations, 0);
        assert_eq!(
            warm_run.result, cold_run.result,
            "cached values must be identical"
        );

        // The report surfaces the pair as metrics counters too.
        assert!(warm_run.report.render().contains("cache"));
        let m = warm_run.report.metrics.expect("cache counters in metrics");
        assert_eq!(m.counters["cache.hit"], specs.len() as u64);
        assert_eq!(m.counters["cache.miss"], 0);
    });
}

#[test]
fn corrupted_entry_is_detected_and_resimulated() {
    with_cache("corrupt", |ctx, store| {
        let specs = small_specs();
        let cold = run_sweep(&specs, ctx).unwrap().result;
        corrupt_one_entry(store);

        let warm = run_sweep(&specs, ctx).unwrap();
        let stats = warm.report.cache.expect("cache stats recorded");
        assert_eq!(stats.invalidations, 1, "corruption must be detected");
        assert_eq!(stats.misses, 1, "the corrupted point re-simulates");
        assert_eq!(stats.hits, specs.len() as u64 - 1);
        assert_eq!(warm.result, cold, "values must survive corruption");

        // The re-simulated entry was rewritten: a third sweep is all hits.
        let report = run_sweep(&specs, ctx).unwrap().report;
        assert_eq!(report.cache.unwrap().hits, specs.len() as u64);
    });
}

#[test]
fn config_change_invalidates_only_that_point() {
    with_cache("invalidate", |ctx, _| {
        let mut specs = small_specs();
        let cold = run_sweep(&specs, ctx).unwrap().report;
        assert_eq!(cold.cache.unwrap().misses, specs.len() as u64);

        // Change ONE point's machine configuration.
        specs[1].cfg = SimConfig::default().line_size(32);
        let report = run_sweep(&specs, ctx).unwrap().report;
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(
            stats.hits,
            specs.len() as u64 - 1,
            "unchanged points must stay warm"
        );
        assert_eq!(stats.misses, 1, "exactly the edited point re-simulates");
    });
}

#[test]
fn observed_points_bypass_the_cache() {
    with_cache("observed", |ctx, store| {
        let specs = small_specs();
        let ctx = RunCtx {
            obs: ObsConfig {
                trace: false,
                metrics: true,
            },
            ..ctx.clone()
        };
        let out = run_sweep(&specs, &ctx).unwrap();
        assert!(
            out.report.cache.is_none(),
            "artifact-capturing sweeps must not touch the cache"
        );
        assert_eq!(store.stats(), cache::CacheStats::default());
        assert!(out.artifacts.iter().all(|a| a.artifacts.metrics.is_some()));
    });
}

#[test]
fn seeded_sweep_cache_contract() {
    // The same contract on a seeded sweep whose points carry histograms:
    // cold is all misses, warm is all hits with the identical `--json`
    // dump, and one corrupted entry costs exactly one invalidation.
    with_cache("faults", |ctx, store| {
        let ctx = on(ctx, 2);
        let json = |out: &csb_core::experiments::runner::SweepOutput<faults::FaultSweep>| {
            serde_json::to_string_pretty(&out.result).unwrap()
        };
        let cold = faults::run(&ctx).unwrap();
        let stats = cold.report.cache.expect("cache stats recorded");
        assert_eq!((stats.hits, stats.misses), (0, cold.report.points as u64));

        let warm = faults::run(&ctx).unwrap();
        let stats = warm.report.cache.expect("cache stats recorded");
        assert_eq!((stats.hits, stats.misses), (warm.report.points as u64, 0));
        assert_eq!(stats.invalidations, 0);
        assert_eq!(json(&warm), json(&cold));

        corrupt_one_entry(store);
        let healed = faults::run(&ctx).unwrap();
        let stats = healed.report.cache.expect("cache stats recorded");
        assert_eq!((stats.invalidations, stats.misses), (1, 1));
        assert_eq!(json(&healed), json(&cold));
    });
}
