//! Reliable NIC messaging sweep: exactly-once delivery under fault
//! injection (the robustness study for the paper's §2/§5 NI scenario).
//!
//! Each point runs one of the messaging senders
//! ([`workloads::csb_messages`] / [`workloads::lock_messages`]) against a
//! [`csb_nic::Nic`] attached to the machine's I/O window, so every bus
//! write the sender produces is assembled into sequence-numbered frames by
//! the device itself. The receive-side seq accounting then classifies the
//! outcome per message: **delivered** (first copy of a seq with an intact
//! payload), **duplicate** (a seq seen again), **torn** (a header landed
//! on an incomplete frame — counted by the NI), and **dropped** (a seq
//! that never completed, because the sender's retry budget ran dry or the
//! livelock watchdog stopped a hard-stalled run).
//!
//! The sweep crosses send path (global lock over single uncached beats,
//! CSB line bursts, double-buffered CSB) × message size × fault rate
//! (conditional-flush disturbances, with bus errors and device NACKs at a
//! quarter of the rate) × retry policy, and reports per-cell delivery
//! counts plus the `nic_e2e_latency` histogram's p50/p95/p99/p99.9 tail —
//! end-to-end from the first header store on the bus to wire arrival
//! through [`csb_nic::WireModel`].
//!
//! Two invariants are checked rather than plotted:
//!
//! * **exactly-once at rate 0** ([`MessagingSweep::exactly_once_at_zero`]):
//!   with no faults, every path delivers every message exactly once — zero
//!   torn, duplicate, and dropped counts — by construction (the uncached
//!   path is FIFO and strongly ordered; the CSB delivers a line only on a
//!   successful atomic flush).
//! * **per-seed monotone degradation**
//!   ([`MessagingSweep::per_seed_monotone`]): seeds are shared across the
//!   rate axis, and the injector compares an ordinal hash against a
//!   rate-proportional threshold, so raising the rate only adds fault
//!   ordinals to the same schedule — per seed, the delivered count can
//!   only fall as the rate rises.

use std::time::Duration;

use serde::Serialize;

use super::runner::{LabeledArtifacts, ObsConfig, PointArtifacts, PointValue, RunReport};
use super::{format_table, ExpError};
use crate::config::{SimConfig, COMBINING_BASE, UNCACHED_BASE};
use crate::sim::{SimError, Simulator};
use crate::workloads::{self, MessagingSpec, RetryPolicy};
use csb_faults::FaultConfig;
use csb_isa::Addr;
use csb_obs::{BucketCount, HistogramSummary};

/// Fault rates swept (flush-disturb fraction; bus errors and device NACKs
/// run at a quarter of it). Seeds are shared across this axis so each
/// seed's degradation curve is monotone by construction.
pub const RATES: [f64; 4] = [0.0, 0.25, 0.5, 0.9];

/// Payload sizes swept, in doublewords (8 and 56 payload bytes: a
/// doorbell-sized message and a near-full line).
pub const SIZES: [usize; 2] = [1, 7];

/// Independent fault-schedule seeds per (path, size, policy) group.
pub const SEEDS_PER_CELL: u64 = 4;

/// Messages per point (sequence numbers `0..MESSAGES`).
pub const MESSAGES: usize = 16;

/// NI window slots the sender cycles through.
const SLOTS: usize = 4;

/// Sender id stamped into every header.
const SENDER: u16 = 1;

/// Cycle budget per point (the watchdog fires far earlier on livelock).
pub(crate) const POINT_LIMIT: u64 = 2_000_000;

/// The end-to-end latency histogram the quantile columns read.
const E2E_HISTOGRAM: &str = "nic_e2e_latency";

/// One send path (row group): how header and payload stores reach the NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SendPath {
    /// Global spin lock around single uncached beats (conventional
    /// baseline: the NI assembles each frame from a dribble of writes).
    Lock,
    /// CSB line bursts: each message arrives as one atomic flush.
    Csb,
    /// The same sender on the double-buffered CSB (§3.3 ablation).
    CsbDouble,
}

/// The send-path ladder the sweep compares, in row-group order.
pub fn paths() -> Vec<SendPath> {
    vec![SendPath::Lock, SendPath::Csb, SendPath::CsbDouble]
}

impl SendPath {
    /// Short label for tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SendPath::Lock => "lock",
            SendPath::Csb => "csb",
            SendPath::CsbDouble => "csb2x",
        }
    }

    /// Machine configuration for this path.
    fn config(self) -> SimConfig {
        match self {
            SendPath::Lock | SendPath::Csb => SimConfig::default(),
            SendPath::CsbDouble => SimConfig::default().csb_double_buffered(),
        }
    }

    /// Bus address the NI window is mapped at for this path.
    fn window_base(self) -> u64 {
        match self {
            SendPath::Lock => UNCACHED_BASE,
            SendPath::Csb | SendPath::CsbDouble => COMBINING_BASE,
        }
    }
}

/// Column label for one policy, including its budget (mirrors the fault
/// sweep's labels).
fn policy_label(p: RetryPolicy) -> String {
    match p {
        RetryPolicy::NaiveSpin => "naive-spin".to_string(),
        RetryPolicy::Bounded { attempts } => format!("bounded-{attempts}"),
        RetryPolicy::Backoff { attempts, .. } => format!("backoff-{attempts}"),
    }
}

/// Aggregated outcomes of one (path, size, rate, policy) cell across its
/// seeds.
#[derive(Debug, Clone, Serialize)]
pub struct MessagingCell {
    /// Policy label (column group).
    pub policy: String,
    /// Messages delivered exactly once with an intact payload.
    pub delivered: u64,
    /// Frames torn by a header overwriting an incomplete message.
    pub torn: u64,
    /// Extra copies of an already-delivered sequence number.
    pub duplicates: u64,
    /// Sequence numbers that never completed.
    pub dropped: u64,
    /// Delivered messages whose payload bytes were wrong.
    pub corrupt: u64,
    /// Runs stopped by the livelock watchdog.
    pub livelocks: u64,
    /// Total runs (== [`SEEDS_PER_CELL`]).
    pub runs: u64,
    /// End-to-end latency (first header store to wire arrival, CPU
    /// cycles) merged across seeds; absent when nothing was delivered.
    pub e2e: Option<HistogramSummary>,
}

impl MessagingCell {
    /// Delivered fraction of the cell's expected message count.
    pub fn delivered_fraction(&self) -> f64 {
        let expected = self.runs * MESSAGES as u64;
        if expected == 0 {
            0.0
        } else {
            self.delivered as f64 / expected as f64
        }
    }

    /// The hard reliability invariant: every expected message delivered,
    /// nothing torn, duplicated, dropped, or corrupted.
    pub fn exactly_once(&self) -> bool {
        self.delivered == self.runs * MESSAGES as u64
            && self.torn == 0
            && self.duplicates == 0
            && self.dropped == 0
            && self.corrupt == 0
    }
}

/// One (path, size, rate) row across the policy ladder.
#[derive(Debug, Clone, Serialize)]
pub struct MessagingRow {
    /// Send-path label.
    pub path: String,
    /// Payload bytes per message.
    pub bytes: usize,
    /// Flush-disturb injection rate.
    pub rate: f64,
    /// One cell per policy, in [`super::faults::policies`] order.
    pub cells: Vec<MessagingCell>,
}

/// The whole sweep: path × size × rate × policy, aggregated over seeds.
#[derive(Debug, Clone, Serialize)]
pub struct MessagingSweep {
    /// Sweep id (`"messaging"`).
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Policy labels, in column order.
    pub policies: Vec<String>,
    /// One row per (path, size, rate), rates innermost.
    pub rows: Vec<MessagingRow>,
    /// Whether every seed's delivered count was monotone non-increasing
    /// along the rate axis, for every (path, size, policy) group.
    pub per_seed_monotone: bool,
}

impl MessagingSweep {
    /// The hard exactly-once invariant at fault rate 0: every cell of
    /// every zero-rate row passed [`MessagingCell::exactly_once`].
    pub fn exactly_once_at_zero(&self) -> bool {
        self.rows
            .iter()
            .filter(|r| r.rate == 0.0)
            .all(|r| r.cells.iter().all(MessagingCell::exactly_once))
    }

    /// Renders the sweep as a fixed-width text table: one line per
    /// (path, size, rate, policy) cell with delivery accounting and the
    /// end-to-end latency quantile ladder.
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = [
            "path", "bytes", "rate", "policy", "ok%", "torn", "dup", "drop", "ll", "p50", "p95",
            "p99", "p99.9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut rows = Vec::new();
        for row in &self.rows {
            for c in &row.cells {
                let mut line = vec![
                    row.path.clone(),
                    row.bytes.to_string(),
                    format!("{:.2}", row.rate),
                    c.policy.clone(),
                    format!("{:.0}", 100.0 * c.delivered_fraction()),
                    c.torn.to_string(),
                    c.duplicates.to_string(),
                    c.dropped.to_string(),
                    c.livelocks.to_string(),
                ];
                match &c.e2e {
                    Some(h) => {
                        for v in [h.p50, h.p95, h.p99, h.p999] {
                            line.push(v.to_string());
                        }
                    }
                    None => line.extend(std::iter::repeat_n("-".to_string(), 4)),
                }
                rows.push(line);
            }
        }
        format!(
            "Reliable messaging — {}\n{}",
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// Raw outcome of a single seeded run.
#[derive(Debug, Clone)]
struct PointResult {
    delivered: u64,
    torn: u64,
    duplicates: u64,
    dropped: u64,
    corrupt: u64,
    livelock: bool,
    e2e: Option<HistogramSummary>,
    sim_cycles: u64,
    wall: Duration,
    artifacts: PointArtifacts,
}

/// A summary with re-derived quantiles from raw bucket counts (see the
/// contention sweep: merging into an empty summary runs the estimator).
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

/// The backoff policy carries the point seed so jitter differs per seed.
fn policy_for_seed(policy: RetryPolicy, seed: u64) -> RetryPolicy {
    match policy {
        RetryPolicy::Backoff {
            attempts,
            base,
            max,
            ..
        } => RetryPolicy::Backoff {
            attempts,
            base,
            max,
            seed,
        },
        other => other,
    }
}

/// The message stream every point sends.
fn spec(size: usize) -> MessagingSpec {
    MessagingSpec {
        count: MESSAGES,
        payload_dwords: size,
        sender: SENDER,
        slots: SLOTS,
    }
}

/// Content-address of one seeded messaging point: machine configuration,
/// send path, message shape, per-seed policy, fault rate, and seed.
fn messaging_point_key(
    path: SendPath,
    size: usize,
    policy: RetryPolicy,
    rate: f64,
    seed: u64,
) -> u64 {
    let cfg = format!("{:?}", path.config());
    let work = format!(
        "messaging {} {MESSAGES}x{size}dw s{SLOTS} {:?} rate {:016x}",
        path.label(),
        policy_for_seed(policy, seed),
        rate.to_bits()
    );
    crate::cache::PointCache::key(&[cfg.as_bytes(), work.as_bytes(), &seed.to_le_bytes()])
}

fn encode_messaging_payload(r: &PointResult) -> Vec<u8> {
    let mut w = csb_snap::SnapshotWriter::new();
    w.put_tag("msg");
    w.put_u64(r.delivered);
    w.put_u64(r.torn);
    w.put_u64(r.duplicates);
    w.put_u64(r.dropped);
    w.put_u64(r.corrupt);
    w.put_bool(r.livelock);
    w.put_u64(r.sim_cycles);
    // Raw histogram bucket counts, so a cached cell merges across seeds
    // exactly like a live one (quantiles are re-derived on decode).
    match &r.e2e {
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

fn decode_messaging_payload(bytes: &[u8]) -> Option<PointResult> {
    let mut r = csb_snap::SnapshotReader::new(bytes);
    r.take_tag("msg").ok()?;
    let delivered = r.take_u64().ok()?;
    let torn = r.take_u64().ok()?;
    let duplicates = r.take_u64().ok()?;
    let dropped = r.take_u64().ok()?;
    let corrupt = r.take_u64().ok()?;
    let livelock = r.take_bool().ok()?;
    let sim_cycles = r.take_u64().ok()?;
    let e2e = if r.take_bool().ok()? {
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
    r.expect_end("cached messaging point payload").ok()?;
    Some(PointResult {
        delivered,
        torn,
        duplicates,
        dropped,
        corrupt,
        livelock,
        e2e,
        sim_cycles,
        wall: Duration::ZERO,
        artifacts: PointArtifacts::default(),
    })
}

/// Readies one (path, size, policy, rate, seed) point in a reusable
/// simulator slot: the sender program, the attached NI, the fault
/// schedule, and metrics (the end-to-end quantiles *are* the result, so
/// they always record).
pub(crate) fn prepare_point(
    slot: &mut Option<Simulator>,
    path: SendPath,
    size: usize,
    policy: RetryPolicy,
    rate: f64,
    seed: u64,
) -> Result<&mut Simulator, ExpError> {
    let cfg = path.config();
    let seeded = policy_for_seed(policy, seed);
    let program = match path {
        SendPath::Lock => workloads::lock_messages(spec(size), seeded, &cfg)?,
        SendPath::Csb | SendPath::CsbDouble => workloads::csb_messages(spec(size), seeded, &cfg)?,
    };
    let nic_cfg = csb_nic::NicConfig {
        slot_size: cfg.line(),
        slots: SLOTS,
        ..csb_nic::NicConfig::default()
    };
    let base = path.window_base();
    let sim = super::install_sim(slot, cfg, program)?;
    sim.attach_nic(nic_cfg, Addr::new(base))?;
    if rate > 0.0 {
        sim.set_faults(Some(
            FaultConfig::new(seed)
                .flush_disturb_rate(rate)
                .bus_error_rate(rate * 0.25)
                .device_nack_rate(rate * 0.25),
        ));
    }
    sim.enable_metrics();
    Ok(sim)
}

/// Runs one (path, size, policy, rate, seed) point through a reusable
/// simulator slot.
fn run_point(
    slot: &mut Option<Simulator>,
    path: SendPath,
    size: usize,
    policy: RetryPolicy,
    rate: f64,
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
    let key = messaging_point_key(path, size, policy, rate, seed);
    if let Some(cache) = &cache {
        if let Some(payload) = cache.load(key) {
            if let Some(mut cached) = decode_messaging_payload(&payload) {
                cache.note_hit();
                cached.wall = t0.elapsed();
                return Ok(cached);
            }
            cache.invalidate(key);
        }
    }
    let sim = prepare_point(slot, path, size, policy, rate, seed)?;
    if obs.trace {
        sim.enable_tracing();
    }
    let livelock = match sim.run(POINT_LIMIT) {
        Ok(_) => false,
        Err(SimError::Livelock(_)) => true,
        Err(e) => return Err(e.into()),
    };
    let sim_cycles = sim.summary().cycles;
    let report = sim.metrics_report();
    let nic = sim.nic().expect("NIC attached above");
    // Receive-side seq accounting: first intact copy of each expected seq
    // is a delivery, repeats are duplicates, the rest of the expected
    // window is dropped.
    let mut seen = [false; MESSAGES];
    let mut delivered = 0u64;
    let mut duplicates = 0u64;
    let mut corrupt = 0u64;
    for m in nic.messages() {
        let sq = m.seq as usize;
        if m.sender != SENDER || sq >= MESSAGES {
            corrupt += 1;
            continue;
        }
        if seen[sq] {
            duplicates += 1;
            continue;
        }
        seen[sq] = true;
        let pat = MessagingSpec::payload_pattern(m.seq).to_le_bytes();
        let intact =
            m.payload.len() == size * 8 && m.payload.chunks(8).all(|c| c == &pat[..c.len()]);
        if intact {
            delivered += 1;
        } else {
            corrupt += 1;
        }
    }
    let distinct = seen.iter().filter(|&&s| s).count() as u64;
    let result = PointResult {
        delivered,
        torn: nic.stats().torn_frames,
        duplicates,
        dropped: MESSAGES as u64 - distinct,
        corrupt,
        livelock,
        e2e: report.metrics.histograms.get(E2E_HISTOGRAM).cloned(),
        sim_cycles,
        wall: t0.elapsed(),
        artifacts: PointArtifacts {
            trace_json: obs.trace.then(|| sim.chrome_trace()),
            metrics: obs.metrics.then_some(report),
        },
    };
    if let Some(cache) = &cache {
        cache.note_miss();
        cache.store(key, &encode_messaging_payload(&result));
    }
    Ok(result)
}

/// Runs the full sweep serially.
///
/// # Errors
///
/// Propagates the first point that fails for a reason other than the
/// expected fault outcomes (livelock and give-up are *results*, not
/// errors).
pub fn run() -> Result<MessagingSweep, ExpError> {
    Ok(run_jobs(1)?.0)
}

/// Runs the full sweep on `jobs` workers (`0` = all cores), with the
/// engine's [`RunReport`].
///
/// # Errors
///
/// As for [`run`]; the lowest-indexed failing point wins.
pub fn run_jobs(jobs: usize) -> Result<(MessagingSweep, RunReport), ExpError> {
    let (sweep, _, report) = run_jobs_observed(jobs, ObsConfig::default())?;
    Ok((sweep, report))
}

/// [`run_jobs`] with artifact capture: every seeded point runs with
/// tracing and/or metrics per `obs` and returns one [`LabeledArtifacts`]
/// per point (label `messaging/<path>/<bytes>B/r<rate%>/<policy>`,
/// distinguished per seed by [`LabeledArtifacts::seed`]), in
/// sweep-enumeration order.
///
/// # Errors
///
/// As for [`run_jobs`]; the lowest-indexed failing point wins.
pub fn run_jobs_observed(
    jobs: usize,
    obs: ObsConfig,
) -> Result<(MessagingSweep, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let paths = paths();
    let policies = super::faults::policies();
    let mut points = Vec::new();
    for (pa, &path) in paths.iter().enumerate() {
        for (si, &size) in SIZES.iter().enumerate() {
            for (ri, &rate) in RATES.iter().enumerate() {
                for (pi, &policy) in policies.iter().enumerate() {
                    for s in 0..SEEDS_PER_CELL {
                        // Seeds differ per (path, size, policy) group but
                        // are *shared across rates*, so each seed's
                        // degradation curve rides one fault schedule (the
                        // monotonicity argument in the module docs).
                        let seed = 0x0e2e_0000
                            + (pa as u64) * 100_000
                            + (si as u64) * 10_000
                            + (pi as u64) * 1_000
                            + s;
                        points.push((pa, si, ri, pi, path, size, policy, rate, seed));
                    }
                }
            }
        }
    }
    let cache_before = crate::cache::active_stats();
    let t0 = std::time::Instant::now();
    let results = super::runner::parallel_map_with(
        &points,
        jobs,
        || None,
        |slot, &(_, _, _, _, path, size, policy, rate, seed)| {
            run_point(slot, path, size, policy, rate, seed, obs)
        },
    );
    let wall = t0.elapsed();

    // cells[path][size][rate][policy]; per_seed[path][size][policy][seed]
    // keeps each seed's delivered counts along the rate axis.
    let mut cells: Vec<Vec<Vec<Vec<Vec<PointResult>>>>> =
        vec![vec![vec![vec![Vec::new(); policies.len()]; RATES.len()]; SIZES.len()]; paths.len()];
    let mut per_seed: Vec<Vec<Vec<Vec<Vec<u64>>>>> =
        vec![
            vec![vec![vec![Vec::new(); SEEDS_PER_CELL as usize]; policies.len()]; SIZES.len()];
            paths.len()
        ];
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
    for (&(pa, si, ri, pi, path, size, policy, rate, seed), result) in points.iter().zip(results) {
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
            label: format!(
                "messaging/{}/{}B/r{:02}/{}",
                path.label(),
                size * 8,
                (rate * 100.0).round() as u32,
                policy_label(policy)
            ),
            value: PointValue::Bandwidth(r.delivered as f64 / MESSAGES as f64),
            sim_cycles: r.sim_cycles,
            wall: r.wall,
            seed,
            config_hash: csb_obs::hash_config(&format!(
                "{:?} messaging {} {}B {policy:?} rate {rate}",
                path.config(),
                path.label(),
                size * 8
            )),
            artifacts: r.artifacts.clone(),
        });
        per_seed[pa][si][pi][(seed - 0x0e2e_0000) as usize % 1_000].push(r.delivered);
        cells[pa][si][ri][pi].push(r);
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

    // Points enumerate rates in ascending order, so each per-seed vector
    // is the seed's delivered curve along the rate axis.
    let per_seed_monotone = per_seed
        .iter()
        .flatten()
        .flatten()
        .flatten()
        .all(|curve| curve.windows(2).all(|w| w[1] <= w[0]));

    let mut rows = Vec::new();
    for (pa, &path) in paths.iter().enumerate() {
        for (si, &size) in SIZES.iter().enumerate() {
            for (ri, &rate) in RATES.iter().enumerate() {
                rows.push(MessagingRow {
                    path: path.label().to_string(),
                    bytes: size * 8,
                    rate,
                    cells: policies
                        .iter()
                        .enumerate()
                        .map(|(pi, &policy)| {
                            let rs = &cells[pa][si][ri][pi];
                            let e2e = rs.iter().filter_map(|r| r.e2e.as_ref()).fold(
                                None::<HistogramSummary>,
                                |acc, h| match acc {
                                    Some(mut s) => {
                                        s.merge(h);
                                        Some(s)
                                    }
                                    None => Some(h.clone()),
                                },
                            );
                            MessagingCell {
                                policy: policy_label(policy),
                                delivered: rs.iter().map(|r| r.delivered).sum(),
                                torn: rs.iter().map(|r| r.torn).sum(),
                                duplicates: rs.iter().map(|r| r.duplicates).sum(),
                                dropped: rs.iter().map(|r| r.dropped).sum(),
                                corrupt: rs.iter().map(|r| r.corrupt).sum(),
                                livelocks: rs.iter().filter(|r| r.livelock).count() as u64,
                                runs: rs.len() as u64,
                                e2e,
                            }
                        })
                        .collect(),
                });
            }
        }
    }

    Ok((
        MessagingSweep {
            id: "messaging".to_string(),
            title: format!(
                "{MESSAGES} messages over {SLOTS} NI slots, \
                 {SEEDS_PER_CELL} seeds/cell shared across rates, \
                 disturb rate swept (bus errors and NACKs at rate/4)"
            ),
            policies: policies.iter().map(|&p| policy_label(p)).collect(),
            rows,
            per_seed_monotone,
        },
        artifacts,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_exactly_once_on_every_path() {
        let mut slot = None;
        for &path in &paths() {
            for &policy in &super::super::faults::policies() {
                let r =
                    run_point(&mut slot, path, 1, policy, 0.0, 42, ObsConfig::default()).unwrap();
                let label = format!("{}/{}", path.label(), policy_label(policy));
                assert_eq!(r.delivered, MESSAGES as u64, "{label}: all delivered");
                assert_eq!(r.torn, 0, "{label}: no torn frames");
                assert_eq!(r.duplicates, 0, "{label}: no duplicates");
                assert_eq!(r.dropped, 0, "{label}: no drops");
                assert_eq!(r.corrupt, 0, "{label}: payloads intact");
                assert!(!r.livelock, "{label}: no livelock");
                let h = r.e2e.expect("every message records e2e latency");
                assert_eq!(h.count, MESSAGES as u64);
                assert!(h.p999 >= h.p50);
            }
        }
    }

    #[test]
    fn csb_bursts_beat_locked_beats_on_e2e_latency() {
        // The paper's qualitative claim, end to end: a message that
        // arrives as one atomic line burst finishes assembly in one bus
        // transaction, while the locked path dribbles it a beat at a time.
        let mut slot = None;
        let lock = run_point(
            &mut slot,
            SendPath::Lock,
            7,
            RetryPolicy::NaiveSpin,
            0.0,
            1,
            ObsConfig::default(),
        )
        .unwrap();
        let csb = run_point(
            &mut slot,
            SendPath::Csb,
            7,
            RetryPolicy::NaiveSpin,
            0.0,
            1,
            ObsConfig::default(),
        )
        .unwrap();
        let (l, c) = (lock.e2e.unwrap(), csb.e2e.unwrap());
        assert!(
            c.p50 < l.p50,
            "CSB p50 {} must beat lock p50 {}",
            c.p50,
            l.p50
        );
    }

    #[test]
    fn per_seed_delivery_is_monotone_on_a_slice() {
        // The shared-seed monotonicity argument, checked end to end on a
        // small slice: for every path and seed, the delivered count can
        // only fall as the rate rises.
        let mut slot = None;
        for &path in &paths() {
            for seed in [0x0e2e_0007, 0x0e2e_0008] {
                let mut prev = u64::MAX;
                for &rate in &[0.0, 0.5, 0.9] {
                    let r = run_point(
                        &mut slot,
                        path,
                        1,
                        RetryPolicy::Bounded { attempts: 4 },
                        rate,
                        seed,
                        ObsConfig::default(),
                    )
                    .unwrap();
                    assert!(
                        r.delivered <= prev,
                        "{} seed {seed:#x}: delivered rose from {prev} to {} at rate {rate}",
                        path.label(),
                        r.delivered
                    );
                    prev = r.delivered;
                }
            }
        }
    }

    #[test]
    fn cached_point_round_trips_histogram_buckets() {
        let mut slot = None;
        let live = run_point(
            &mut slot,
            SendPath::Csb,
            7,
            RetryPolicy::NaiveSpin,
            0.25,
            0x0e2e_0100,
            ObsConfig::default(),
        )
        .unwrap();
        let decoded =
            decode_messaging_payload(&encode_messaging_payload(&live)).expect("payload decodes");
        assert_eq!(decoded.delivered, live.delivered);
        assert_eq!(decoded.dropped, live.dropped);
        assert_eq!(decoded.torn, live.torn);
        assert_eq!(decoded.livelock, live.livelock);
        assert_eq!(
            decoded.e2e, live.e2e,
            "quantiles re-derived from buckets must match the live summary"
        );
    }

    #[test]
    fn payload_with_oversized_bucket_count_is_rejected() {
        let mut w = csb_snap::SnapshotWriter::new();
        w.put_tag("msg");
        for v in [16, 0, 0, 0, 0] {
            w.put_u64(v);
        }
        w.put_bool(false);
        w.put_u64(1_000);
        w.put_bool(true);
        for v in [1, 100, 100, 100] {
            w.put_u64(v);
        }
        w.put_usize(1 << 60);
        assert!(decode_messaging_payload(&w.finish()).is_none());
    }
}
