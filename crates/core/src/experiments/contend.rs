//! Many-core contention sweep: throughput and flush-latency tails of a
//! server-class I/O mix as the processor count grows.
//!
//! Each point time-slices one [`crate::multiproc::MultiSim`] core between
//! 16/32/64 processes with seeded open-loop arrivals (SplitMix64 offsets
//! over a fixed span; process 0 is resident at reset) and compares three
//! schemes:
//!
//! * `lock` — the conventional §4.2 baseline: every process takes the one
//!   global spin lock around its uncached stores, so accesses convoy.
//! * `csb` — per-process CSB lines ([`workloads::csb_worker`] gives each
//!   process its own combining line): non-blocking, but a context switch
//!   mid-sequence still resets the buffer (the §3.2 interference counted
//!   by [`CsbStats::cross_pid_resets`]).
//! * `csb2x` — the same sharded workload on the paper's optional
//!   double-buffered CSB (§3.3's second line buffer), the ablation knob
//!   for how much buffering the sharded scheme needs.
//!
//! The metric pair matches the paper's framing: delivered device payload
//! bytes per CPU kilocycle (throughput) and the
//! `csb_flush_retry_latency` histogram's p50/p95/p99/p99.9 tail (latency),
//! merged across the seeds of each (cores, scheme) cell. Cached cells
//! persist their raw bucket counts so a cache hit merges exactly like a
//! live run.
//!
//! [`CsbStats::cross_pid_resets`]: csb_uncached::CsbStats::cross_pid_resets

use std::time::Duration;

use serde::{Deserialize, Serialize};

use super::runner::{LabeledArtifacts, ObsConfig, PointArtifacts, PointValue, RunReport};
use super::{format_table, ExpError};
use crate::config::SimConfig;
use crate::multiproc::{MultiSim, SwitchPolicy};
use crate::workloads;
use csb_obs::{BucketCount, HistogramSummary};

/// Processor counts swept.
pub const CORES: [usize; 3] = [16, 32, 64];

/// Independent arrival seeds per (cores, scheme) cell.
pub const SEEDS_PER_CELL: u64 = 2;

/// CSB sequences (or locked accesses) per process.
const ITERATIONS: usize = 8;

/// Doublewords per access (one full line on the default machine).
const DWORDS: usize = 8;

/// Cycle span the open-loop arrivals are scattered over — short enough
/// that the later processors pile onto an already-busy core (the point of
/// the sweep is the contention regime, not isolated runs).
const ARRIVAL_SPAN: u64 = 4_000;

/// Fixed scheduler slice in CPU cycles: a few sequences long, so slice
/// boundaries regularly land mid-sequence (the §3.2 interference window).
const SLICE: u64 = 60;

/// Cycle budget per point (the lock convoy at 64 cores stays far under).
const POINT_LIMIT: u64 = 50_000_000;

/// The flush-latency histogram the quantile columns read.
const FLUSH_HISTOGRAM: &str = "csb_flush_retry_latency";

/// One contention scheme (column group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContendScheme {
    /// Global spin lock around uncached stores (conventional baseline).
    Lock,
    /// Per-process CSB lines, single-buffered.
    Csb,
    /// Per-process CSB lines on the double-buffered CSB (§3.3 ablation).
    CsbDouble,
}

/// The scheme ladder the sweep compares, in column order.
pub fn schemes() -> Vec<ContendScheme> {
    vec![
        ContendScheme::Lock,
        ContendScheme::Csb,
        ContendScheme::CsbDouble,
    ]
}

impl ContendScheme {
    /// Short label for tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            ContendScheme::Lock => "lock",
            ContendScheme::Csb => "csb",
            ContendScheme::CsbDouble => "csb2x",
        }
    }

    /// Machine configuration for this scheme.
    fn config(self) -> SimConfig {
        match self {
            ContendScheme::Lock | ContendScheme::Csb => SimConfig::default(),
            ContendScheme::CsbDouble => SimConfig::default().csb_double_buffered(),
        }
    }
}

/// Seeded open-loop arrival schedule: process 0 is resident at reset,
/// every later process arrives at a SplitMix64 offset in `[0, span)`.
/// Shared with the engine-throughput contention point so both harnesses
/// measure the same workload.
pub fn arrival_schedule(n: usize, span: u64, seed: u64) -> Vec<u64> {
    let mut arrivals = vec![0u64; n];
    let mut z = seed;
    for a in arrivals.iter_mut().skip(1) {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        *a = if span == 0 { 0 } else { x % span };
    }
    arrivals
}

/// Aggregated outcomes of one (cores, scheme) cell across its seeds.
#[derive(Debug, Clone, Serialize)]
pub struct ContendCell {
    /// Scheme label (column group).
    pub scheme: String,
    /// Mean delivered device payload bytes per CPU cycle across seeds.
    pub throughput: f64,
    /// Mean run length in CPU cycles across seeds.
    pub mean_cycles: f64,
    /// Total context switches across seeds.
    pub switches: u64,
    /// Total conditional-flush failures across seeds.
    pub flush_failures: u64,
    /// Total CSB resets caused by a *different* process's store (§3.2
    /// interference; 0 for the lock scheme).
    pub cross_pid_resets: u64,
    /// Flush retry latency merged across seeds (absent for the lock
    /// scheme, which never touches the CSB).
    pub flush: Option<HistogramSummary>,
}

/// One processor count's cells across the scheme ladder.
#[derive(Debug, Clone, Serialize)]
pub struct ContendRow {
    /// Simulated processor count.
    pub cores: usize,
    /// One cell per scheme, in [`schemes`] order.
    pub cells: Vec<ContendCell>,
}

/// The whole sweep: cores × scheme, aggregated over arrival seeds.
#[derive(Debug, Clone, Serialize)]
pub struct ContendSweep {
    /// Sweep id (`"contend"`).
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Scheme labels, in column-group order.
    pub schemes: Vec<String>,
    /// One row per processor count.
    pub rows: Vec<ContendRow>,
}

impl ContendSweep {
    /// Renders the sweep as a fixed-width text table: one line per
    /// (cores, scheme) cell with throughput in payload bytes per
    /// kilocycle and the flush-latency quantile ladder.
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = [
            "cores", "scheme", "B/kc", "switch", "x-pid", "p50", "p95", "p99", "p99.9", "max",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                let mut line = vec![
                    row.cores.to_string(),
                    c.scheme.clone(),
                    format!("{:.2}", c.throughput * 1000.0),
                    c.switches.to_string(),
                    c.cross_pid_resets.to_string(),
                ];
                match &c.flush {
                    Some(h) => {
                        for v in [h.p50, h.p95, h.p99, h.p999, h.max] {
                            line.push(v.to_string());
                        }
                    }
                    None => line.extend(std::iter::repeat_n("-".to_string(), 5)),
                }
                rows.push(line);
            }
        }
        format!(
            "Many-core contention — {}\n{}",
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// Raw outcome of a single seeded run.
#[derive(Debug, Clone)]
struct PointResult {
    payload_bytes: u64,
    cycles: u64,
    switches: u64,
    flush_failures: u64,
    cross_pid_resets: u64,
    flush: Option<HistogramSummary>,
    sim_cycles: u64,
    wall: Duration,
    artifacts: PointArtifacts,
}

impl PointResult {
    fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.cycles as f64
        }
    }
}

/// A summary with re-derived quantiles from raw bucket counts: merging
/// into an empty summary runs the exact ranked-walk estimator, so a
/// decoded cache payload is indistinguishable from a live capture.
fn summary_from_buckets(
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<BucketCount>,
) -> HistogramSummary {
    let mut s = HistogramSummary {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
        p50: 0,
        p95: 0,
        p99: 0,
        p999: 0,
        buckets: Vec::new(),
    };
    s.merge(&HistogramSummary {
        count,
        sum,
        min,
        max,
        p50: 0,
        p95: 0,
        p99: 0,
        p999: 0,
        buckets,
    });
    s
}

/// Content-address of one seeded contention point: machine configuration,
/// workload shape, scheduling, arrival span, and seed.
fn contend_point_key(scheme: ContendScheme, cores: usize, seed: u64) -> u64 {
    let cfg = format!("{:?}", scheme.config());
    let work = format!(
        "contend {} c{cores} {ITERATIONS}it {DWORDS}dw slice{SLICE} span{ARRIVAL_SPAN}",
        scheme.label()
    );
    crate::cache::PointCache::key(&[cfg.as_bytes(), work.as_bytes(), &seed.to_le_bytes()])
}

fn encode_contend_payload(r: &PointResult) -> Vec<u8> {
    let mut w = csb_snap::SnapshotWriter::new();
    w.put_tag("cnt");
    w.put_u64(r.payload_bytes);
    w.put_u64(r.cycles);
    w.put_u64(r.switches);
    w.put_u64(r.flush_failures);
    w.put_u64(r.cross_pid_resets);
    w.put_u64(r.sim_cycles);
    // Raw histogram bucket counts, so a cached cell merges across seeds
    // exactly like a live one (quantiles are re-derived on decode).
    match &r.flush {
        Some(h) => {
            w.put_bool(true);
            w.put_u64(h.count);
            w.put_u64(h.sum);
            w.put_u64(h.min);
            w.put_u64(h.max);
            w.put_usize(h.buckets.len());
            for b in &h.buckets {
                w.put_u64(b.le);
                w.put_u64(b.n);
            }
        }
        None => w.put_bool(false),
    }
    w.finish()
}

fn decode_contend_payload(bytes: &[u8]) -> Option<PointResult> {
    let mut r = csb_snap::SnapshotReader::new(bytes);
    r.take_tag("cnt").ok()?;
    let payload_bytes = r.take_u64().ok()?;
    let cycles = r.take_u64().ok()?;
    let switches = r.take_u64().ok()?;
    let flush_failures = r.take_u64().ok()?;
    let cross_pid_resets = r.take_u64().ok()?;
    let sim_cycles = r.take_u64().ok()?;
    let flush = if r.take_bool().ok()? {
        let count = r.take_u64().ok()?;
        let sum = r.take_u64().ok()?;
        let min = r.take_u64().ok()?;
        let max = r.take_u64().ok()?;
        let len = r.take_usize().ok()?;
        // Each bucket takes 16 bytes: a length the rest cannot hold is
        // corrupt, and must not size an allocation.
        if len > r.remaining() / 8 {
            return None;
        }
        let mut buckets = Vec::with_capacity(len);
        for _ in 0..len {
            let le = r.take_u64().ok()?;
            let n = r.take_u64().ok()?;
            buckets.push(BucketCount { le, n });
        }
        Some(summary_from_buckets(count, sum, min, max, buckets))
    } else {
        None
    };
    let _checksum = r.take_u64().ok()?;
    r.expect_end("cached contention point payload").ok()?;
    Some(PointResult {
        payload_bytes,
        cycles,
        switches,
        flush_failures,
        cross_pid_resets,
        flush,
        sim_cycles,
        wall: Duration::ZERO,
        artifacts: PointArtifacts::default(),
    })
}

/// Per-process programs for one point.
fn programs(
    scheme: ContendScheme,
    cores: usize,
    cfg: &SimConfig,
) -> Result<Vec<csb_isa::Program>, ExpError> {
    (0..cores)
        .map(|i| match scheme {
            ContendScheme::Lock => Ok(workloads::lock_worker(ITERATIONS, DWORDS)?),
            ContendScheme::Csb | ContendScheme::CsbDouble => {
                Ok(workloads::csb_worker(ITERATIONS, DWORDS, i, cfg)?)
            }
        })
        .collect()
}

/// Runs one (scheme, cores, seed) point.
fn run_point(
    scheme: ContendScheme,
    cores: usize,
    seed: u64,
    obs: ObsConfig,
) -> Result<PointResult, ExpError> {
    let t0 = std::time::Instant::now();
    // Artifact-capturing points bypass the cache (see the runner module).
    let cache = if obs.any() {
        None
    } else {
        crate::cache::active()
    };
    let key = contend_point_key(scheme, cores, seed);
    if let Some(cache) = &cache {
        if let Some(payload) = cache.load(key) {
            if let Some(mut cached) = decode_contend_payload(&payload) {
                cache.note_hit();
                cached.wall = t0.elapsed();
                return Ok(cached);
            }
            cache.invalidate(key);
        }
    }
    let cfg = scheme.config();
    let programs = programs(scheme, cores, &cfg)?;
    let mut ms = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(SLICE))?;
    ms.set_arrivals(&arrival_schedule(cores, ARRIVAL_SPAN, seed));
    // The latency quantiles *are* the result, so metrics always record.
    ms.enable_metrics();
    if obs.trace {
        ms.enable_tracing();
    }
    let summary = ms.run(POINT_LIMIT)?;
    let report = ms.simulator().metrics_report();
    let result = PointResult {
        payload_bytes: ms.simulator().device().payload_bytes(),
        cycles: summary.cycles,
        switches: summary.switches,
        flush_failures: summary.flush_failures,
        cross_pid_resets: report.csb.cross_pid_resets,
        flush: report.metrics.histograms.get(FLUSH_HISTOGRAM).cloned(),
        sim_cycles: summary.cycles,
        wall: t0.elapsed(),
        artifacts: PointArtifacts {
            trace_json: obs.trace.then(|| ms.simulator().chrome_trace()),
            metrics: obs.metrics.then_some(report),
        },
    };
    if let Some(cache) = &cache {
        cache.note_miss();
        cache.store(key, &encode_contend_payload(&result));
    }
    Ok(result)
}

/// Runs the full sweep serially.
///
/// # Errors
///
/// Propagates the first failing point (livelock here is an error — the
/// swept schemes are all progress-safe by construction).
pub fn run() -> Result<ContendSweep, ExpError> {
    Ok(run_jobs(1)?.0)
}

/// Runs the full sweep on `jobs` workers (`0` = all cores), with the
/// engine's [`RunReport`].
///
/// # Errors
///
/// As for [`run`]; the lowest-indexed failing point wins.
pub fn run_jobs(jobs: usize) -> Result<(ContendSweep, RunReport), ExpError> {
    let (sweep, _, report) = run_jobs_observed(jobs, ObsConfig::default())?;
    Ok((sweep, report))
}

/// [`run_jobs`] with artifact capture: every seeded point runs with
/// tracing and/or metrics per `obs` and returns one [`LabeledArtifacts`]
/// per point (label `contend/c<cores>/<scheme>`, distinguished per seed
/// by [`LabeledArtifacts::seed`]), in sweep-enumeration order.
///
/// # Errors
///
/// As for [`run_jobs`]; the lowest-indexed failing point wins.
pub fn run_jobs_observed(
    jobs: usize,
    obs: ObsConfig,
) -> Result<(ContendSweep, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let schemes = schemes();
    let mut points = Vec::new();
    for (ci, &cores) in CORES.iter().enumerate() {
        for (si, &scheme) in schemes.iter().enumerate() {
            for seed in 0..SEEDS_PER_CELL {
                // Seeds differ per cell so no two cells share arrivals.
                let seed = 0xc0de_0000 + (ci as u64) * 1_000 + (si as u64) * 100 + seed;
                points.push((ci, si, scheme, cores, seed));
            }
        }
    }
    let cache_before = crate::cache::active_stats();
    let t0 = std::time::Instant::now();
    let results = super::runner::parallel_map_with(
        &points,
        jobs,
        || (),
        |_, &(_, _, scheme, cores, seed)| run_point(scheme, cores, seed, obs),
    );
    let wall = t0.elapsed();

    let mut cells: Vec<Vec<Vec<PointResult>>> = vec![vec![Vec::new(); schemes.len()]; CORES.len()];
    let mut report = RunReport {
        jobs: if jobs == 0 {
            super::runner::default_jobs()
        } else {
            jobs
        },
        points: points.len(),
        wall,
        capacity: wall * jobs.max(1) as u32,
        ..RunReport::default()
    };
    let mut artifacts = Vec::with_capacity(points.len());
    for (&(ci, si, scheme, cores, seed), result) in points.iter().zip(results) {
        let r = result?;
        report.busy += r.wall;
        report.sim_cycles += r.sim_cycles;
        if let Some(point_metrics) = &r.artifacts.metrics {
            report
                .metrics
                .get_or_insert_with(Default::default)
                .merge(&point_metrics.metrics);
        }
        artifacts.push(LabeledArtifacts {
            label: format!("contend/c{cores}/{}", scheme.label()),
            value: PointValue::Bandwidth(r.throughput()),
            sim_cycles: r.sim_cycles,
            wall: r.wall,
            seed,
            config_hash: csb_obs::hash_config(&format!(
                "{:?} contend {} c{cores}",
                scheme.config(),
                scheme.label()
            )),
            artifacts: r.artifacts.clone(),
        });
        cells[ci][si].push(r);
    }
    if let (Some(before), Some(after)) = (cache_before, crate::cache::active_stats()) {
        let delta = after.delta(&before);
        if delta.any() {
            report.cache = Some(delta);
            let m = report.metrics.get_or_insert_with(Default::default);
            m.counters.insert("cache.hit".to_string(), delta.hits);
            m.counters.insert("cache.miss".to_string(), delta.misses);
        }
    }

    let rows = CORES
        .iter()
        .enumerate()
        .map(|(ci, &cores)| ContendRow {
            cores,
            cells: schemes
                .iter()
                .enumerate()
                .map(|(si, &scheme)| {
                    let rs = &cells[ci][si];
                    let runs = rs.len().max(1) as f64;
                    let flush = rs.iter().filter_map(|r| r.flush.as_ref()).fold(
                        None::<HistogramSummary>,
                        |acc, h| match acc {
                            Some(mut s) => {
                                s.merge(h);
                                Some(s)
                            }
                            None => Some(h.clone()),
                        },
                    );
                    ContendCell {
                        scheme: scheme.label().to_string(),
                        throughput: rs.iter().map(|r| r.throughput()).sum::<f64>() / runs,
                        mean_cycles: rs.iter().map(|r| r.cycles).sum::<u64>() as f64 / runs,
                        switches: rs.iter().map(|r| r.switches).sum(),
                        flush_failures: rs.iter().map(|r| r.flush_failures).sum(),
                        cross_pid_resets: rs.iter().map(|r| r.cross_pid_resets).sum(),
                        flush,
                    }
                })
                .collect(),
        })
        .collect();

    Ok((
        ContendSweep {
            id: "contend".to_string(),
            title: format!(
                "{ITERATIONS} accesses × {DWORDS} dwords per process, \
                 {SLICE}-cycle slices, arrivals over {ARRIVAL_SPAN} cycles, \
                 {SEEDS_PER_CELL} seeds/cell"
            ),
            schemes: schemes.iter().map(|&s| s.label().to_string()).collect(),
            rows,
        },
        artifacts,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedules_are_seeded_and_bounded() {
        let a = arrival_schedule(64, ARRIVAL_SPAN, 7);
        let b = arrival_schedule(64, ARRIVAL_SPAN, 7);
        let c = arrival_schedule(64, ARRIVAL_SPAN, 8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a[0], 0, "process 0 is resident at reset");
        assert!(a.iter().all(|&at| at < ARRIVAL_SPAN));
    }

    #[test]
    fn csb_point_delivers_full_payload_and_tracks_interference() {
        let r = run_point(ContendScheme::Csb, 4, 0xc0de_0000, ObsConfig::default()).unwrap();
        assert_eq!(
            r.payload_bytes,
            (4 * ITERATIONS * DWORDS * 8) as u64,
            "every process's every access must reach the device"
        );
        let h = r.flush.expect("CSB scheme records flush latency");
        // One observation per successful flush; every access ends in one.
        assert_eq!(h.count, (4 * ITERATIONS) as u64);
        assert!(h.p999 >= h.p99 && h.p99 >= h.p50);
    }

    #[test]
    fn lock_point_delivers_without_touching_the_csb() {
        let r = run_point(ContendScheme::Lock, 4, 0xc0de_0000, ObsConfig::default()).unwrap();
        assert_eq!(r.payload_bytes, (4 * ITERATIONS * DWORDS * 8) as u64);
        assert!(r.flush.is_none(), "lock path never flushes the CSB");
        assert_eq!(r.cross_pid_resets, 0);
    }

    #[test]
    fn payload_with_oversized_bucket_count_is_rejected() {
        let mut w = csb_snap::SnapshotWriter::new();
        w.put_tag("cnt");
        for v in [512, 4_000, 3, 0, 0, 5_000] {
            w.put_u64(v);
        }
        w.put_bool(true);
        for v in [1, 100, 100, 100] {
            w.put_u64(v);
        }
        w.put_usize(1 << 60);
        assert!(decode_contend_payload(&w.finish()).is_none());
    }

    #[test]
    fn cached_point_round_trips_histogram_buckets() {
        let live = run_point(ContendScheme::Csb, 4, 0xc0de_0001, ObsConfig::default()).unwrap();
        let decoded =
            decode_contend_payload(&encode_contend_payload(&live)).expect("payload decodes");
        assert_eq!(decoded.payload_bytes, live.payload_bytes);
        assert_eq!(decoded.cycles, live.cycles);
        assert_eq!(
            decoded.flush, live.flush,
            "quantiles re-derived from buckets must match the live summary"
        );
    }
}
