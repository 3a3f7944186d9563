//! Many-core contention sweep: throughput and flush-latency tails at
//! 16/32/64 time-sliced processors, comparing the global-lock baseline
//! against per-process CSB lines (single- and double-buffered).
//!
//! Usage: `cargo run -p csb-bench --bin contend [--jobs N] [--json out.json]
//! [--trace-out trace.json] [--metrics-out metrics.json]
//! [--ledger ledger.jsonl] [--no-fast-forward] [--cache-dir DIR]`
//!
//! Every cell merges a batch of seeded open-loop arrival schedules; the
//! same seeds produce the same table on every run and worker count, and
//! `--cache-dir` reuses finished points across invocations (cached cells
//! carry their raw histogram buckets, so the merged quantiles are
//! identical either way). The observability flags capture one artifact per
//! seeded point (labels like `contend/c64/csb`), exactly as the figure
//! harnesses do.

use std::io::{BufWriter, Write};

use csb_core::experiments::contend;

const USAGE: &str = "contend [--jobs N] [--json out.json] [--trace-out trace.json] \
[--metrics-out metrics.json] [--ledger ledger.jsonl] [--no-fast-forward] \
[--cache-dir DIR] [--no-cache]";

/// The standard value flags minus `--snapshot-every`: a time-sliced
/// point runs its machine through `MultiSim`, which takes no periodic
/// snapshots, so the flag would silently write nothing.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--json",
    "--trace-out",
    "--metrics-out",
    "--ledger",
    "--cache-dir",
];

fn main() {
    csb_bench::validate_args(USAGE, VALUE_FLAGS, csb_bench::STANDARD_BARE_FLAGS, 0);
    let jobs = csb_bench::jobs_from_args();
    let max_cores = contend::CORES.iter().copied().max().unwrap_or(1);
    csb_bench::warn_if_oversubscribed(jobs, max_cores);
    let bo = csb_bench::obs_from_args();
    let ctx = csb_bench::ctx_from_args(jobs, bo.obs);
    let out = contend::run(&ctx).expect("contention sweep simulates");
    let sweep = &out.result;
    let mut stdout = BufWriter::new(std::io::stdout().lock());
    writeln!(stdout, "{}", sweep.to_table()).expect("stdout writable");
    stdout.flush().expect("stdout flushes");
    eprintln!("{}", out.report.render());
    bo.emit("contend", &out.artifacts);
    if let Some(path) = csb_bench::json_path_from_args() {
        csb_bench::dump_json(&path, sweep);
    }
}
