#!/usr/bin/env python3
"""Sweep benchmark of the CSB simulator.

Runs one workload's shipped bench bin (`repro_all`, `messaging` or
`contend`) as a subprocess, pass after pass, for a fixed time, checks every
pass against the reference outputs stored in perfbench/reference/, and
prints the end-to-end metrics as the last line of stdout. With `--trace 1`
it runs the per-layer probe (perfbench/probe) and a cached pass pair
instead, and prints the per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload contend --write-reference

See perfbench/README.md for what each metric means and why.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# Workload name -> bench bin that runs it.
WORKLOADS = {"figures": "repro_all", "messaging": "messaging", "contend": "contend"}
# One process, one worker, no point cache: every pass simulates every point.
BIN_ARGS = ["--jobs", "1", "--no-cache"]
# Kill a child that runs this long; a pass takes seconds at most.
CHILD_TIMEOUT_S = 150.0
# Untimed passes before the timed ones, so page cache and CPU frequency
# settle before timing starts.
WARMUP_PASSES = 1
# Timed passes a run makes even if they overrun --seconds.
MIN_PASSES = 5
# Warm cached passes the traced run times.
WARM_PASSES = 3
# Ledger fields that are wall time or an implementation hash, not results.
LEDGER_UNCHECKED = ("wall_us", "config_hash")

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_POINTS = re.compile(r"runner: (\d+) point\(s\) on \d+ worker\(s\) in ([0-9.]+)s")
REPORT_CYCLES = re.compile(r"runner: (\d+) simulated cycles")
REPORT_CACHE = re.compile(r"runner: cache (\d+) hit\(s\), (\d+) miss\(es\)")


class BenchError(Exception):
    """A failure that stops the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def say(msg):
    print(msg, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def work_dir():
    d = os.path.join(target_dir(), "perfbench-work")
    os.makedirs(d, exist_ok=True)
    return d


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False)
    if done.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")


def build(bin_name, probe):
    if not os.path.isfile(os.path.join("crates", "bench", "Cargo.toml")):
        raise BenchError("run from the root of a csb-sim checkout (crates/bench is missing)")
    cargo_build(["-p", "csb-bench", "--bin", bin_name])
    if probe:
        cargo_build(["--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")])
    return os.path.join(target_dir(), "release", bin_name)


def spawn(argv, tag):
    """Runs argv to completion with stdout/stderr in files.

    Returns (wall seconds, exit code, peak RSS in KiB, stdout bytes,
    stderr text)."""
    out_path = os.path.join(work_dir(), tag + ".out")
    err_path = os.path.join(work_dir(), tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, stdout, stderr


def parse_report(stderr):
    """(points, engine wall s, simulated cycles) from the RunReport lines."""
    p = REPORT_POINTS.search(stderr)
    c = REPORT_CYCLES.search(stderr)
    if not p or not c:
        return None
    return int(p.group(1)), float(p.group(2)), int(c.group(1))


def ledger_points(path):
    """Per-point ledger records keyed by bench::label#seed, minus the
    fields that are not simulated results, and each point's wall in s."""
    points, walls = {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = f"{rec['bench']}::{rec['label']}#{rec['seed']}"
            points[key] = {k: v for k, v in sorted(rec.items()) if k not in LEDGER_UNCHECKED}
            walls[key] = rec["wall_us"] / 1e6
    return points, walls


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8") as f:
        return json.load(f)


def ledger_pass(binary, workload):
    """One pass of the bin with --ledger: its wall, exit code, peak RSS,
    stdout digest, RunReport and per-point records and walls."""
    ledger = os.path.join(work_dir(), workload + ".ledger.jsonl")
    if os.path.exists(ledger):
        os.remove(ledger)
    wall, code, maxrss, stdout, stderr = spawn([binary] + BIN_ARGS + ["--ledger", ledger], "pass")
    points, walls = ({}, {})
    if code == 0 and os.path.exists(ledger):
        points, walls = ledger_points(ledger)
    return {
        "wall": wall,
        "exit": code,
        "rss_kib": maxrss,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "report": parse_report(stderr),
        "points": points,
        "walls": walls,
    }


def write_reference(workload):
    binary = build(WORKLOADS[workload], probe=False)
    got = ledger_pass(binary, workload)
    if got["exit"] != 0 or got["report"] is None or not got["points"]:
        raise BenchError(f"{workload}: reference pass failed with exit {got['exit']}")
    ref = {
        "bin": WORKLOADS[workload],
        "args": BIN_ARGS,
        "stdout_sha256": got["stdout_sha256"],
        "sim_cycles": got["report"][2],
        "points": got["points"],
    }
    with open(reference_path(workload), "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"{workload}: wrote {len(ref['points'])} reference points, sim_cycles {ref['sim_cycles']}")


def pass_failures(ref, got):
    """Points of one pass that fail: all of them if the exit code, stdout
    digest, point count or cycle count differs, else those whose ledger
    record is missing or differs, plus unexpected ones."""
    report = got["report"]
    if (
        got["exit"] != 0
        or report is None
        or report[0] != len(ref["points"])
        or report[2] != ref["sim_cycles"]
        or got["stdout_sha256"] != ref["stdout_sha256"]
    ):
        return len(ref["points"])
    bad = sum(1 for k, v in ref["points"].items() if got["points"].get(k) != v)
    return bad + sum(1 for k in got["points"] if k not in ref["points"])


def quantile(values, q):
    """The q-th percentile (1..99) of values, inside their range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds):
    ref = load_reference(workload)
    binary = build(WORKLOADS[workload], probe=False)
    n_points = len(ref["points"])

    # Whole passes until the time is up, each checked point by point. A
    # pass is timed even when its output is wrong: the failure shows in
    # pass_frac and "correct".
    attempted = failed = passes = 0
    walls, setups, rss, cycles = [], [], [], []
    fastest = {}  # point key -> its fastest wall over the timed passes
    start = None
    while True:
        got = ledger_pass(binary, workload)
        passes += 1
        bad = pass_failures(ref, got)
        attempted += n_points
        failed += bad
        if bad:
            log(f"{workload}: {bad} point(s) of pass {passes} differ (exit {got['exit']})")
        if passes <= WARMUP_PASSES:
            start = time.perf_counter()
            continue
        if got["report"] is not None:
            walls.append(got["wall"])
            setups.append(got["wall"] - got["report"][1])
            rss.append(got["rss_kib"])
            cycles.append(got["report"][2])
            for k, w in got["walls"].items():
                fastest[k] = min(w, fastest.get(k, w))
        if passes - WARMUP_PASSES >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    if not fastest:
        raise BenchError(f"{workload}: no pass ran to its RunReport")

    # Each point at its fastest: the host slows down for seconds to minutes
    # at a time, and only a short unit of work timed many times finds its
    # uncontended speed in every run (see README.md).
    sweep = sum(fastest.values())
    sim_cycles = statistics.median_low(cycles)
    fail_frac = failed / attempted
    say(
        f"{workload}: {len(walls)} timed passes; pass wall s: fastest {min(walls):.5f}, "
        f"p10 {quantile(walls, 10):.5f}, median {statistics.median(walls):.5f}, "
        f"p90 {quantile(walls, 90):.5f}; points at their fastest {sweep:.5f}"
    )
    say(
        f"{workload}: fail_frac {fail_frac:g} ({failed} of {attempted} point checks), "
        f"sim_cycles {sim_cycles} (reference {ref['sim_cycles']})"
    )
    return {
        "correct": failed == 0 and sim_cycles == ref["sim_cycles"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "sweep_s": metric(sweep, "s"),
            "sim_mcps": metric(sim_cycles / sweep / 1e6, "Mcycles/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(rss) / 1024.0, "MiB"),
            "sim_cycles": metric(sim_cycles, "cycles"),
            "pass_frac": metric(1.0 - fail_frac, "ratio"),
        },
    }


# Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "core.setup_us_per_point": "us",
    "core.run_ns_per_cycle": "ns/cycle",
    "core.ticks_per_kcycle": "1/kcycle",
    "core.ff_speedup": "x",
    "sched.switches_per_kcycle": "1/kcycle",
    "sched.ns_per_switch": "ns",
    "isa.build_us_per_point": "us",
    "cpu.ns_per_retired": "ns",
    "cpu.retired_per_kcycle": "1/kcycle",
    "cpu.stall_frac": "ratio",
    "mem.ns_per_access": "ns",
    "mem.l1_hit_rate": "ratio",
    "ubuf.coalesce_frac": "ratio",
    "ubuf.full_stalls_per_kcycle": "1/kcycle",
    "csb.flush_success_frac": "ratio",
    "csb.cross_pid_resets": "count",
    "csb.ns_per_op": "ns",
    "bus.utilization": "ratio",
    "bus.txns_per_kcycle": "1/kcycle",
    "bus.ns_per_txn": "ns",
    "nic.ns_per_ingest": "ns",
    "faults.injected_frac": "ratio",
    "obs.overhead_frac": "ratio",
    "obs.export_us_per_point": "us",
    "snap.save_us": "us",
    "snap.restore_us": "us",
    "snap.frame_kb": "KiB",
    "cache.warm_pass_s": "s",
    "cache.hit_frac": "ratio",
}


def per_layer(workload, seed, seconds):
    ref = load_reference(workload)
    binary = build(WORKLOADS[workload], probe=True)
    probe_bin = os.path.join(target_dir(), "release", "csb-perfprobe")

    # The probe: every layer timed through its public functions.
    argv = [probe_bin, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    _, code, _, stdout, stderr = spawn(argv, "probe")
    if code != 0:
        raise BenchError(f"probe failed (exit {code}): {stderr.strip()}")
    probe = json.loads(stdout.decode().strip().splitlines()[-1])
    metrics = dict(probe["metrics"])
    attempted = probe["points"] * 4
    failed = probe["ff_mismatch"] + probe["obs_mismatch"] + probe["snap_mismatch"]
    if probe["sim_cycles"] != ref["sim_cycles"] or probe["points"] != len(ref["points"]):
        log(f"{workload}: probe ran {probe['points']} points / {probe['sim_cycles']} cycles")
        failed += probe["points"]

    # The point cache: a cold pass fills a fresh cache dir, warm passes
    # replay it.
    cache_dir = os.path.join(work_dir(), "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    cached = [binary, "--jobs", "1", "--cache-dir", cache_dir]
    warm, hits, lookups = [], 0, 0
    for i in range(1 + WARM_PASSES):
        wall, code, _, stdout, stderr = spawn(cached, "cache")
        attempted += 1
        m = REPORT_CACHE.search(stderr)
        if code != 0 or not m or hashlib.sha256(stdout).hexdigest() != ref["stdout_sha256"]:
            failed += 1
            continue
        if i > 0:
            warm.append(wall)
            hits += int(m.group(1))
            lookups += int(m.group(1)) + int(m.group(2))
    shutil.rmtree(cache_dir, ignore_errors=True)
    metrics["cache.warm_pass_s"] = statistics.median(warm) if warm else 0.0
    metrics["cache.hit_frac"] = hits / lookups if lookups else 0.0

    say(
        f"{workload}: probe parity mismatches ff {probe['ff_mismatch']}, "
        f"obs {probe['obs_mismatch']}, snapshot {probe['snap_mismatch']}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metric(metrics[k], u) for k, u in PER_LAYER_UNITS.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help="store this checkout's outputs as the workload's reference and exit",
    )
    args = ap.parse_args()
    try:
        if args.write_reference:
            write_reference(args.workload)
            return 0
        if args.trace:
            result = per_layer(args.workload, args.seed, args.seconds)
        else:
            result = end_to_end(args.workload, args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
