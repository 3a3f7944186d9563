//! Engine throughput benchmarks: one Figure 3 panel through the sweep
//! engine at 1, 2 and 4 workers, plus the naive-loop vs. fast-forward
//! simulated-cycles-per-second sweep.
//!
//! Run with `cargo bench -p csb-bench --bench runner_bench`. The panel
//! legs print the best-of-N sweep wall time per worker count to stderr;
//! the fast-forward sweep is written to `BENCH_sim_throughput.json` in the
//! workspace root (the checked-in copy at the repo root is regenerated
//! this way; CI's perf-smoke job gates on the Figure 5(b) and
//! long-CSB-point tick ratios, `sim_cycles / ff_ticks`, and on the
//! scheduler point's speedup in it).
//!
//! `-- --samples N` overrides the wall-clock samples taken per leg and
//! `-- --reps N` the executions batched inside each timed sample of the
//! fast-forward sweep; both default to the values the checked-in JSON was
//! generated with.

use std::time::{Duration, Instant};

use csb_core::experiments::runner::{run_panels, RunCtx};
use csb_core::experiments::{fig3, throughput};

/// Times panel 3e — the default machine (64-byte line, ratio 6), 7
/// transfer sizes × 5 schemes = 35 independent points — through the sweep
/// engine at each worker count and prints the best wall time of
/// `samples` sweeps (after one warmup). `jobs1` is the serial baseline;
/// the speedup of the other legs tracks the host's core count (on a
/// single-core host they only measure pool overhead).
fn bench_runner(samples: usize) {
    let panel = [fig3::PANELS[4].spec()];
    for jobs in [1usize, 2, 4] {
        let ctx = RunCtx {
            jobs,
            ..RunCtx::default()
        };
        let sweep = || {
            let t0 = Instant::now();
            run_panels(&panel, &ctx).expect("panel simulates");
            t0.elapsed()
        };
        sweep();
        let best = (0..samples)
            .map(|_| sweep())
            .min()
            .unwrap_or(Duration::ZERO);
        eprintln!(
            "runner/fig3e/jobs{jobs}: best {:.3} ms of {samples} sweep(s)",
            best.as_secs_f64() * 1e3
        );
    }
}

/// Wall-clock samples per leg of the fast-forward sweep; the best is
/// reported, so a handful suffices. Overridable with `--samples N`.
const THROUGHPUT_SAMPLES: usize = 5;

/// Executions batched inside each timed sample — the figure points are
/// short programs, so a single run is below timer resolution.
/// Overridable with `--reps N`.
const THROUGHPUT_REPS: usize = 64;

/// The harness's value flags. `--bench`/`--test` below are accepted bare
/// because cargo appends them when dispatching bench targets.
const VALUE_FLAGS: &[&str] = &["--reps", "--samples"];

/// Bare flags cargo itself passes to bench executables.
const BARE_FLAGS: &[&str] = &["--bench", "--test"];

const USAGE: &str = "cargo bench -p csb-bench --bench runner_bench [-- --samples N] [-- --reps N]";

fn main() {
    csb_bench::validate_args(USAGE, VALUE_FLAGS, BARE_FLAGS, 0);
    let samples = csb_bench::count_from_args("--samples", THROUGHPUT_SAMPLES);
    let reps = csb_bench::count_from_args("--reps", THROUGHPUT_REPS);

    bench_runner(samples);

    let report = throughput::measure(samples, reps).expect("throughput points simulate");
    eprint!("{}", report.render());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Anchor to the workspace root: cargo-bench's CWD is the package dir.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_throughput.json"
    );
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}
