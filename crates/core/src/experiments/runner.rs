//! The sweep engine: every experiment is a list of independent simulation
//! points run through one pipeline.
//!
//! Every figure in the paper's evaluation is a grid of *independent*
//! execution-driven simulation points — (panel × transfer × scheme) for the
//! bandwidth figures, (panel × doublewords × scheme) for Figure 5, plus the
//! ablation, fault, contention and messaging sweeps. Each sweep module
//! keeps only what is its own:
//!
//! 1. **Enumeration** — a pure step producing a list of points, each a
//!    [`SweepPoint`] (a [`PointSpec`] for the figures and ablations, one
//!    point struct each for the seeded sweeps);
//! 2. **Aggregation** — folding the per-point outputs, which come back in
//!    enumeration order, into its table rows.
//!
//! [`run_sweep`] owns everything in between, once for every sweep: the
//! scoped worker pool ([`parallel_map_with`]) with one warm-reset simulator
//! slot per worker, the point cache, per-point wall time, the
//! [`RunReport`], the per-point [`LabeledArtifacts`], and the rule that
//! the lowest-indexed failing point's error wins. All run settings arrive
//! in an explicit [`RunCtx`]; nothing is read from process globals.
//! Results are keyed by point index, so the tables built from them are
//! byte-identical no matter how many workers ran (`jobs = 1` takes the
//! exact serial path: same closure, same order, current thread).
//!
//! The pool is a hand-rolled `std::thread::scope` + atomic-cursor design
//! rather than rayon: this build environment has no registry access (see
//! `vendor/README.md`), and work-stealing buys nothing here — points are
//! coarse, so a shared take-a-ticket counter already load-balances them.
//!
//! The bench binaries print the [`RunReport`] to **stderr**, keeping
//! stdout (the tables) byte-identical across `--jobs` settings.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csb_isa::{Addr, Program};
use csb_obs::{BucketCount, HistogramSummary, MetricsSnapshot};
use csb_snap::{SnapshotReader, SnapshotWriter};

use super::fig5::{self, LockResidency};
use super::{
    BandwidthPanel, BandwidthRow, ExpError, LatencyPanel, LatencyRow, Scheme, DWORD_BYTES,
    POINT_LIMIT, TRANSFERS,
};
use crate::cache::{CacheStats, PointCache};
use crate::config::{SimConfig, LOCK_ADDR};
use crate::sim::{MetricsReport, RunSummary, Simulator};
use crate::snapshot::AutosnapConfig;
use crate::workloads::{StoreOrder, MARK_END, MARK_START};

/// Which observability artifacts to capture for every executed point.
///
/// The default captures nothing — points run exactly as before, and the
/// figure tables stay byte-identical. Turning either switch on makes each
/// simulation record into a per-point [`PointArtifacts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Capture a Chrome trace-event JSON document per point.
    pub trace: bool,
    /// Capture a [`MetricsReport`] (counters + latency histograms) per
    /// point.
    pub metrics: bool,
}

impl ObsConfig {
    /// Whether any artifact capture is enabled.
    pub fn any(self) -> bool {
        self.trace || self.metrics
    }

    /// Turns on the recording this configuration asks for.
    pub fn enable(self, sim: &mut Simulator) {
        if self.trace {
            sim.enable_tracing();
        }
        if self.metrics {
            sim.enable_metrics();
        }
    }

    /// Collects the requested artifacts from a finished run.
    pub fn capture(self, sim: &Simulator) -> PointArtifacts {
        PointArtifacts {
            trace_json: self.trace.then(|| sim.chrome_trace()),
            metrics: self.metrics.then(|| sim.metrics_report()),
        }
    }
}

/// Observability artifacts captured for one executed point.
#[derive(Debug, Clone, Default)]
pub struct PointArtifacts {
    /// Chrome trace-event JSON (present when [`ObsConfig::trace`] was set).
    pub trace_json: Option<String>,
    /// Per-point metrics report (present when [`ObsConfig::metrics`] was
    /// set).
    pub metrics: Option<MetricsReport>,
}

impl PointArtifacts {
    /// Whether this point captured anything.
    pub fn is_empty(&self) -> bool {
        self.trace_json.is_none() && self.metrics.is_none()
    }
}

/// One point's artifacts tagged with the label that produced them — what
/// the bench binaries key artifact filenames on. Also carries the point's
/// ledger value, simulated cycle count, and wall time so ledger records
/// can be assembled from this struct alone.
#[derive(Debug, Clone)]
pub struct LabeledArtifacts {
    /// The point's display label, e.g. `"3e/256B/CSB"`.
    pub label: String,
    /// The point's measured value.
    pub value: PointValue,
    /// CPU cycles the point's simulation ran for.
    pub sim_cycles: u64,
    /// Wall-clock time the point took on its worker.
    pub wall: Duration,
    /// Fault-schedule seed (0 for deterministic points).
    pub seed: u64,
    /// FNV-1a hash of the point's configuration text.
    pub config_hash: u64,
    /// The captured artifacts.
    pub artifacts: PointArtifacts,
}

/// Run settings for a sweep, built once by the caller and passed to every
/// sweep explicitly — the bench binaries build one from the command line.
/// The [`Default`] is a serial run with fast-forward on and no cache,
/// capture or snapshots.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Worker threads: `0` means all cores, `1` the serial path on the
    /// calling thread.
    pub jobs: usize,
    /// Artifact capture for every point.
    pub obs: ObsConfig,
    /// Content-addressed point store. [`run_sweep`] consults it only when
    /// `obs` captures nothing: artifacts are not stored, so a cached
    /// result could not carry them.
    pub cache: Option<Arc<PointCache>>,
    /// Event-driven fast-forward in every simulator a point installs
    /// (`false` forces the naive cycle-by-cycle loop; results are
    /// identical either way).
    pub fast_forward: bool,
    /// Periodic restorable snapshots during every installed simulator's
    /// run (see [`Simulator::set_autosnap`]).
    pub autosnap: Option<AutosnapConfig>,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            jobs: 1,
            obs: ObsConfig::default(),
            cache: None,
            fast_forward: true,
            autosnap: None,
        }
    }
}

impl RunCtx {
    /// The worker count after resolving `jobs = 0` to [`default_jobs`].
    pub fn workers(&self) -> usize {
        if self.jobs == 0 {
            default_jobs()
        } else {
            self.jobs
        }
    }

    /// Readies `slot` to simulate `(cfg, program)` under these settings:
    /// warm-resets the simulator already in the slot, or cold-constructs
    /// one into an empty slot (both yield identical results; the warm
    /// path skips the allocations construction would repeat), then applies
    /// [`RunCtx::fast_forward`] and [`RunCtx::autosnap`].
    ///
    /// # Errors
    ///
    /// [`ExpError::Sim`] if the machine configuration is rejected.
    pub fn install<'a>(
        &self,
        slot: &'a mut Option<Simulator>,
        cfg: SimConfig,
        program: Program,
    ) -> Result<&'a mut Simulator, ExpError> {
        match slot {
            Some(sim) => sim.reset_with(cfg, program)?,
            None => *slot = Some(Simulator::new(cfg, program)?),
        }
        let sim = slot.as_mut().expect("slot was just filled");
        sim.set_fast_forward(self.fast_forward);
        sim.set_autosnap(self.autosnap.clone());
        Ok(sim)
    }
}

/// One point of a sweep: everything the engine needs to run, cache, label
/// and ledger it. The sweep modules implement this for their point types;
/// [`run_sweep`] does the rest.
pub trait SweepPoint: Sync {
    /// What one run measures — the part of the result a cache entry
    /// stores and the sweep aggregates.
    type Output: Send;

    /// Tag opening this point kind's cache payload.
    const TAG: &'static str;

    /// Display label, e.g. `"3e/256B/CSB"` (artifact file names, the
    /// ledger key, the report's slowest point).
    fn label(&self) -> String;

    /// Fault-schedule or arrival seed (0 for deterministic points).
    fn seed(&self) -> u64 {
        0
    }

    /// The text whose FNV-1a hash is the ledger's `config_hash`.
    fn config_text(&self) -> String;

    /// Content address of the point's result: machine configuration,
    /// workload and seed, through [`PointCache::key_debug`]. The label is
    /// excluded, so the same point reached from two sweeps shares one
    /// entry.
    fn cache_key(&self) -> u64;

    /// Writes `out` into a cache payload.
    fn encode(&self, out: &Self::Output, w: &mut SnapshotWriter);

    /// Reads an output back from a cache payload; `None` on anything
    /// malformed or not what this point would measure (which also guards
    /// key collisions — the engine invalidates and re-simulates).
    fn decode(&self, r: &mut SnapshotReader<'_>) -> Option<Self::Output>;

    /// The value recorded in the point's ledger record.
    fn value(&self, out: &Self::Output) -> PointValue;

    /// Simulates the point. Single-machine points ready `slot` through
    /// [`RunCtx::install`], so a worker's whole queue reuses one warm
    /// simulator.
    ///
    /// # Errors
    ///
    /// [`ExpError`] if the workload is invalid or the simulation fails.
    fn run(
        &self,
        slot: &mut Option<Simulator>,
        ctx: &RunCtx,
    ) -> Result<Measured<Self::Output>, ExpError>;
}

/// What [`SweepPoint::run`] returns.
#[derive(Debug, Clone)]
pub struct Measured<O> {
    /// The point's output.
    pub out: O,
    /// CPU cycles the simulation ran for.
    pub sim_cycles: u64,
    /// Artifacts captured per [`RunCtx::obs`].
    pub artifacts: PointArtifacts,
}

/// A sweep's aggregated result plus its per-point artifacts (in
/// enumeration order) and the engine's [`RunReport`].
#[derive(Debug, Clone)]
pub struct SweepOutput<T> {
    /// The sweep's result (its table rows, or the raw per-point outputs).
    pub result: T,
    /// One entry per point, in enumeration order.
    pub artifacts: Vec<LabeledArtifacts>,
    /// Engine instrumentation for the sweep.
    pub report: RunReport,
}

impl<T> SweepOutput<T> {
    /// Replaces the result, keeping the artifacts and report.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SweepOutput<U> {
        SweepOutput {
            result: f(self.result),
            artifacts: self.artifacts,
            report: self.report,
        }
    }
}

/// How a point's cache lookup went.
enum Lookup {
    /// No cache consulted.
    Off,
    Hit,
    Miss,
}

/// Runs one point through the cache, when one is attached, on the
/// calling worker.
fn run_point<P: SweepPoint>(
    point: &P,
    slot: &mut Option<Simulator>,
    ctx: &RunCtx,
    cache: Option<&PointCache>,
) -> Result<(Measured<P::Output>, Lookup), ExpError> {
    let Some(cache) = cache else {
        return Ok((point.run(slot, ctx)?, Lookup::Off));
    };
    let key = point.cache_key();
    if let Some(payload) = cache.load(key) {
        if let Some((out, sim_cycles)) = decode_payload(point, &payload) {
            let artifacts = PointArtifacts::default();
            return Ok((
                Measured {
                    out,
                    sim_cycles,
                    artifacts,
                },
                Lookup::Hit,
            ));
        }
        cache.invalidate(key);
    }
    let measured = point.run(slot, ctx)?;
    cache.store(
        key,
        &encode_payload(point, &measured.out, measured.sim_cycles),
    );
    Ok((measured, Lookup::Miss))
}

/// A point's cache payload: its tag, the simulated cycles, and the
/// point's own encoding of its output.
pub(crate) fn encode_payload<P: SweepPoint>(
    point: &P,
    out: &P::Output,
    sim_cycles: u64,
) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_tag(P::TAG);
    w.put_u64(sim_cycles);
    point.encode(out, &mut w);
    w.finish()
}

/// Decodes an [`encode_payload`] payload; `None` if anything is off.
pub(crate) fn decode_payload<P: SweepPoint>(point: &P, bytes: &[u8]) -> Option<(P::Output, u64)> {
    let mut r = SnapshotReader::new(bytes);
    r.take_tag(P::TAG).ok()?;
    let sim_cycles = r.take_u64().ok()?;
    let out = point.decode(&mut r)?;
    // `SnapshotWriter::finish` appends a checksum; the framed cache entry
    // already verified integrity, so just consume it.
    let _checksum = r.take_u64().ok()?;
    r.expect_end("cached point payload").ok()?;
    Some((out, sim_cycles))
}

/// Writes an optional histogram as its raw bucket counts, so a cached
/// point merges across seeds exactly like a live one.
pub(crate) fn put_histogram(w: &mut SnapshotWriter, h: Option<&HistogramSummary>) {
    let Some(h) = h else {
        w.put_bool(false);
        return;
    };
    w.put_bool(true);
    for v in [h.count, h.sum, h.min, h.max] {
        w.put_u64(v);
    }
    w.put_usize(h.buckets.len());
    for b in &h.buckets {
        w.put_u64(b.le);
        w.put_u64(b.n);
    }
}

/// Reads a [`put_histogram`] record (outer `None` = malformed). The
/// quantiles are re-derived from the buckets by merging into an empty
/// summary, so a decoded histogram is indistinguishable from a live one.
pub(crate) fn take_histogram(r: &mut SnapshotReader<'_>) -> Option<Option<HistogramSummary>> {
    if !r.take_bool().ok()? {
        return Some(None);
    }
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
    let mut summary = HistogramSummary::default();
    summary.merge(&HistogramSummary {
        count,
        sum,
        min,
        max,
        buckets,
        ..HistogramSummary::default()
    });
    Some(Some(summary))
}

/// Merges histograms across the seeds of one cell (`None` if none).
pub(crate) fn merge_histograms<'a>(
    hs: impl IntoIterator<Item = &'a HistogramSummary>,
) -> Option<HistogramSummary> {
    hs.into_iter().fold(None, |acc, h| match acc {
        Some(mut s) => {
            s.merge(h);
            Some(s)
        }
        None => Some(h.clone()),
    })
}

/// Runs every point on `ctx.jobs` workers and returns their outputs in
/// point order, with one [`LabeledArtifacts`] per point and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// The error of the *lowest-indexed* failing point — exactly what a
/// serial `?`-loop would report, whatever the worker count.
pub fn run_sweep<P: SweepPoint>(
    points: &[P],
    ctx: &RunCtx,
) -> Result<SweepOutput<Vec<P::Output>>, ExpError> {
    let cache = ctx.cache.as_deref().filter(|_| !ctx.obs.any());
    let io_before = cache.map(PointCache::stats);
    let t0 = Instant::now();
    // Each worker threads one simulator slot through its whole queue, so
    // every point after a worker's first runs on a warm-reset simulator.
    // A point's wall time spans its lookup, simulation and store; labels
    // and config hashes are formatted outside it.
    let results = parallel_map_with(
        points,
        ctx.jobs,
        || None,
        |slot, point| {
            let t0 = Instant::now();
            run_point(point, slot, ctx, cache).map(|(m, lookup)| (m, lookup, t0.elapsed()))
        },
    );
    let wall = t0.elapsed();
    let workers = ctx.workers().min(points.len()).max(1);
    let mut report = RunReport {
        jobs: workers,
        points: points.len(),
        wall,
        capacity: wall * workers as u32,
        ..RunReport::default()
    };
    let mut outputs = Vec::with_capacity(points.len());
    let mut artifacts = Vec::with_capacity(points.len());
    let mut lookups = CacheStats::default();
    for (point, result) in points.iter().zip(results) {
        let (measured, lookup, wall) = result?;
        report.busy += wall;
        report.sim_cycles += measured.sim_cycles;
        let label = point.label();
        if report.slowest.as_ref().is_none_or(|(_, d)| wall > *d) {
            report.slowest = Some((label.clone(), wall));
        }
        if let Some(m) = &measured.artifacts.metrics {
            report
                .metrics
                .get_or_insert_with(MetricsSnapshot::default)
                .merge(&m.metrics);
        }
        match lookup {
            Lookup::Off => {}
            Lookup::Hit => lookups.hits += 1,
            Lookup::Miss => lookups.misses += 1,
        }
        artifacts.push(LabeledArtifacts {
            label,
            value: point.value(&measured.out),
            sim_cycles: measured.sim_cycles,
            wall,
            seed: point.seed(),
            config_hash: csb_obs::hash_config(&point.config_text()),
            artifacts: measured.artifacts,
        });
        outputs.push(measured.out);
    }
    if let (Some(cache), Some(before)) = (cache, io_before) {
        let stats = CacheStats {
            hits: lookups.hits,
            misses: lookups.misses,
            ..cache.stats().delta(&before)
        };
        if stats.any() {
            report.cache = Some(stats);
            // Surface the pair in the metrics aggregate too, so a metrics
            // consumer sees cache effectiveness alongside the counters.
            let m = report.metrics.get_or_insert_with(MetricsSnapshot::default);
            m.counters.insert("cache.hit".to_string(), stats.hits);
            m.counters.insert("cache.miss".to_string(), stats.misses);
        }
    }
    Ok(SweepOutput {
        result: outputs,
        artifacts,
        report,
    })
}

/// The workload half of a simulation point: what to measure on the
/// machine a [`PointSpec`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointWork {
    /// Uncached store bandwidth (Figures 3/4 and the bandwidth ablations):
    /// payload bytes per bus cycle.
    Bandwidth {
        /// Transfer size in bytes.
        transfer: usize,
        /// Store-handling scheme under test.
        scheme: Scheme,
        /// Per-line store issue order.
        order: StoreOrder,
    },
    /// Lock-sequence latency (Figure 5 and the latency ablations): CPU
    /// cycles between the timing marks.
    Latency {
        /// Uncached doubleword stores in the sequence.
        dwords: usize,
        /// Store-handling scheme under test.
        scheme: Scheme,
        /// Whether the lock variable hits in the L1.
        residency: LockResidency,
    },
}

/// One fully-described figure point: a machine plus the measurement to
/// take on it. Specs are pure data — enumerating them runs no simulation.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Display label, e.g. `"3e/256B/CSB"`.
    pub label: String,
    /// Machine configuration (already specialized for the panel; the
    /// scheme in [`PointSpec::work`] applies its own overrides on top).
    pub cfg: SimConfig,
    /// The measurement to take.
    pub work: PointWork,
}

/// The measured value of one executed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointValue {
    /// Payload bytes per bus cycle.
    Bandwidth(f64),
    /// CPU cycles per sequence.
    Latency(u64),
}

impl PointValue {
    /// The bandwidth reading, if this was a bandwidth point.
    pub fn bandwidth(self) -> Option<f64> {
        match self {
            PointValue::Bandwidth(b) => Some(b),
            PointValue::Latency(_) => None,
        }
    }

    /// The latency reading, if this was a latency point.
    pub fn latency(self) -> Option<u64> {
        match self {
            PointValue::Latency(c) => Some(c),
            PointValue::Bandwidth(_) => None,
        }
    }
}

impl PointSpec {
    /// Readies `slot` for this point: the scheme-specialized machine and
    /// generated workload installed through [`RunCtx::install`], and for
    /// latency points the lock line warmed or evicted per its residency
    /// (after the install, exactly as after a cold construction). Not yet
    /// run.
    ///
    /// # Errors
    ///
    /// [`ExpError`] if the workload or machine is invalid.
    pub(crate) fn install<'a>(
        &self,
        slot: &'a mut Option<Simulator>,
        ctx: &RunCtx,
    ) -> Result<&'a mut Simulator, ExpError> {
        match self.work {
            PointWork::Bandwidth {
                transfer,
                scheme,
                order,
            } => {
                let (cfg, program) = super::bandwidth_parts(&self.cfg, transfer, scheme, order)?;
                ctx.install(slot, cfg, program)
            }
            PointWork::Latency {
                dwords,
                scheme,
                residency,
            } => {
                let (cfg, program) = fig5::latency_parts(&self.cfg, dwords, scheme)?;
                let sim = ctx.install(slot, cfg, program)?;
                match residency {
                    LockResidency::Hit => sim.warm_line(Addr::new(LOCK_ADDR)),
                    LockResidency::Miss => sim.evict_line(Addr::new(LOCK_ADDR)),
                }
                Ok(sim)
            }
        }
    }

    /// The figure value a completed run measured.
    ///
    /// # Errors
    ///
    /// [`ExpError::MissingMark`] if a latency run lacks its timing marks.
    pub(crate) fn measure(&self, summary: &RunSummary) -> Result<PointValue, ExpError> {
        match self.work {
            PointWork::Bandwidth { .. } => {
                Ok(PointValue::Bandwidth(summary.bus.effective_bandwidth()))
            }
            PointWork::Latency { .. } => summary
                .cpu
                .mark_interval(MARK_START, MARK_END)
                .map(PointValue::Latency)
                .ok_or(ExpError::MissingMark),
        }
    }
}

impl SweepPoint for PointSpec {
    type Output = PointValue;
    const TAG: &'static str = "pt";

    fn label(&self) -> String {
        self.label.clone()
    }

    fn config_text(&self) -> String {
        format!("{:?} {:?}", self.cfg, self.work)
    }

    fn cache_key(&self) -> u64 {
        PointCache::key_debug(&[&self.cfg, &self.work], 0)
    }

    fn encode(&self, out: &PointValue, w: &mut SnapshotWriter) {
        match *out {
            PointValue::Bandwidth(b) => {
                w.put_u8(0);
                w.put_f64(b);
            }
            PointValue::Latency(c) => {
                w.put_u8(1);
                w.put_u64(c);
            }
        }
    }

    fn decode(&self, r: &mut SnapshotReader<'_>) -> Option<PointValue> {
        match (r.take_u8().ok()?, self.work) {
            (0, PointWork::Bandwidth { .. }) => Some(PointValue::Bandwidth(r.take_f64().ok()?)),
            (1, PointWork::Latency { .. }) => Some(PointValue::Latency(r.take_u64().ok()?)),
            _ => None,
        }
    }

    fn value(&self, out: &PointValue) -> PointValue {
        *out
    }

    fn run(
        &self,
        slot: &mut Option<Simulator>,
        ctx: &RunCtx,
    ) -> Result<Measured<PointValue>, ExpError> {
        let sim = self.install(slot, ctx)?;
        ctx.obs.enable(sim);
        let summary = sim.run(POINT_LIMIT)?;
        Ok(Measured {
            out: self.measure(&summary)?,
            sim_cycles: summary.cycles,
            artifacts: ctx.obs.capture(sim),
        })
    }
}

/// A figure panel: a machine swept over one size axis × its scheme
/// ladder, run as [`PointSpec`]s and assembled into a table.
pub trait Panel {
    /// The assembled panel.
    type Table;

    /// The panel's points, in row-major (size, scheme) order.
    fn points(&self) -> Vec<PointSpec>;

    /// Builds the table from the panel's point values, in [`Panel::points`]
    /// order.
    fn assemble(&self, values: &mut dyn Iterator<Item = PointValue>) -> Self::Table;
}

/// Runs a set of panels as one sweep and assembles each panel's table.
///
/// # Errors
///
/// The first (in enumeration order) point failure.
pub fn run_panels<S: Panel>(
    panels: &[S],
    ctx: &RunCtx,
) -> Result<SweepOutput<Vec<S::Table>>, ExpError> {
    let specs: Vec<PointSpec> = panels.iter().flat_map(Panel::points).collect();
    Ok(run_sweep(&specs, ctx)?.map(|values| {
        let mut values = values.into_iter();
        panels.iter().map(|p| p.assemble(&mut values)).collect()
    }))
}

/// Declarative description of one bandwidth panel: the engine expands it
/// to [`TRANSFERS`] × the machine's scheme ladder.
#[derive(Debug, Clone)]
pub struct BandwidthPanelSpec {
    /// Panel id, e.g. `"3a"`.
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// The panel's machine.
    pub cfg: SimConfig,
}

impl BandwidthPanelSpec {
    /// Builds a spec.
    pub fn new(id: impl Into<String>, title: impl Into<String>, cfg: SimConfig) -> Self {
        BandwidthPanelSpec {
            id: id.into(),
            title: title.into(),
            cfg,
        }
    }

    /// The points this panel expands to, in row-major (transfer, scheme)
    /// order.
    pub fn enumerate(&self) -> Vec<PointSpec> {
        let schemes = Scheme::ladder(self.cfg.line());
        let mut points = Vec::with_capacity(TRANSFERS.len() * schemes.len());
        for &transfer in &TRANSFERS {
            for &scheme in &schemes {
                points.push(PointSpec {
                    label: format!("{}/{}B/{}", self.id, transfer, scheme),
                    cfg: self.cfg.clone(),
                    work: PointWork::Bandwidth {
                        transfer,
                        scheme,
                        order: StoreOrder::Ascending,
                    },
                });
            }
        }
        points
    }
}

impl Panel for BandwidthPanelSpec {
    type Table = BandwidthPanel;

    fn points(&self) -> Vec<PointSpec> {
        self.enumerate()
    }

    fn assemble(&self, values: &mut dyn Iterator<Item = PointValue>) -> BandwidthPanel {
        let schemes = Scheme::ladder(self.cfg.line());
        let rows = TRANSFERS
            .iter()
            .map(|&transfer| BandwidthRow {
                transfer,
                values: schemes
                    .iter()
                    .map(|_| {
                        values
                            .next()
                            .and_then(PointValue::bandwidth)
                            .expect("one bandwidth value per enumerated point")
                    })
                    .collect(),
            })
            .collect();
        BandwidthPanel {
            id: self.id.clone(),
            title: self.title.clone(),
            schemes: schemes.iter().map(Scheme::to_string).collect(),
            rows,
        }
    }
}

/// Declarative description of one latency panel (Figure 5): expands to
/// [`fig5::DWORDS`] × the machine's scheme ladder.
#[derive(Debug, Clone)]
pub struct LatencyPanelSpec {
    /// Panel id, e.g. `"5a"`.
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// The panel's machine.
    pub cfg: SimConfig,
    /// Whether the lock variable hits in the L1.
    pub residency: LockResidency,
}

impl LatencyPanelSpec {
    /// Builds a spec.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        cfg: SimConfig,
        residency: LockResidency,
    ) -> Self {
        LatencyPanelSpec {
            id: id.into(),
            title: title.into(),
            cfg,
            residency,
        }
    }

    /// The points this panel expands to, in row-major (dwords, scheme)
    /// order.
    pub fn enumerate(&self) -> Vec<PointSpec> {
        let schemes = Scheme::ladder(self.cfg.line());
        let mut points = Vec::with_capacity(fig5::DWORDS.len() * schemes.len());
        for &dwords in &fig5::DWORDS {
            for &scheme in &schemes {
                points.push(PointSpec {
                    label: format!("{}/{}dw/{}", self.id, dwords, scheme),
                    cfg: self.cfg.clone(),
                    work: PointWork::Latency {
                        dwords,
                        scheme,
                        residency: self.residency,
                    },
                });
            }
        }
        points
    }
}

impl Panel for LatencyPanelSpec {
    type Table = LatencyPanel;

    fn points(&self) -> Vec<PointSpec> {
        self.enumerate()
    }

    fn assemble(&self, values: &mut dyn Iterator<Item = PointValue>) -> LatencyPanel {
        let schemes = Scheme::ladder(self.cfg.line());
        let rows = fig5::DWORDS
            .iter()
            .map(|&dwords| LatencyRow {
                transfer: dwords * DWORD_BYTES,
                cycles: schemes
                    .iter()
                    .map(|_| {
                        values
                            .next()
                            .and_then(PointValue::latency)
                            .expect("one latency value per enumerated point")
                    })
                    .collect(),
            })
            .collect();
        LatencyPanel {
            id: self.id.clone(),
            title: self.title.clone(),
            schemes: schemes.iter().map(Scheme::to_string).collect(),
            rows,
        }
    }
}

/// The number of workers `jobs = 0` ("all cores") resolves to.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item and returns the outputs *in item order*.
///
/// With `jobs <= 1` (after resolving `0` to [`default_jobs`]) this is a
/// plain serial loop on the calling thread. Otherwise `min(jobs, len)`
/// scoped workers pull indices from a shared atomic cursor and write into
/// an index-addressed slot table, so the output order never depends on
/// scheduling.
pub fn parallel_map<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    parallel_map_with(items, jobs, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: `init` builds one state value
/// per worker (one total on the serial path), and `f` receives that
/// worker's state alongside each item it pulls. The experiment engine uses
/// this to hand every worker a reusable simulator slot for its whole point
/// queue. The state never migrates between threads, so the output is still
/// a pure function of the items whenever `f`'s *result* is — state may
/// only carry reusable storage, not values that leak into outputs.
pub fn parallel_map_with<S, I, T, N, F>(items: &[I], jobs: usize, init: N, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    N: Fn() -> S + Sync,
    F: Fn(&mut S, &I) -> T + Sync,
{
    let jobs = if jobs == 0 { default_jobs() } else { jobs };
    let workers = jobs.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(&mut state, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index below the cursor was filled")
        })
        .collect()
}

/// Instrumentation for one sweep through the engine.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Points executed.
    pub points: usize,
    /// Wall-clock for the whole sweep (enumeration to reassembly).
    pub wall: Duration,
    /// Sum of per-point wall-clock across all workers.
    pub busy: Duration,
    /// Total simulated CPU cycles across all points.
    pub sim_cycles: u64,
    /// Label and wall-clock of the slowest point.
    pub slowest: Option<(String, Duration)>,
    /// Pool capacity actually offered: Σ per-sweep `wall × jobs`. Kept
    /// separately from `wall` so merging sweeps that ran with *different*
    /// worker counts cannot inflate the [`RunReport::utilization`]
    /// denominator (`max(jobs) × Σwall` overstates capacity whenever any
    /// sweep ran narrower than the widest one).
    pub capacity: Duration,
    /// Aggregate metrics across every observed point (present only when a
    /// sweep ran with [`ObsConfig::metrics`]).
    pub metrics: Option<MetricsSnapshot>,
    /// Point-cache effectiveness over this sweep (present only when the
    /// sweep consulted a cache — see [`RunCtx::cache`]).
    pub cache: Option<CacheStats>,
}

impl RunReport {
    /// The pool's wall-clock capacity: the tracked [`RunReport::capacity`]
    /// when one was recorded, else `wall × jobs` (a report built by hand or
    /// by an older producer).
    pub fn pool_capacity(&self) -> Duration {
        if self.capacity > Duration::ZERO {
            self.capacity
        } else {
            self.wall * self.jobs.max(1) as u32
        }
    }

    /// Fraction of the pool's wall-clock capacity spent simulating:
    /// `busy / capacity`. 1.0 means every worker was saturated.
    pub fn utilization(&self) -> f64 {
        let capacity = self.pool_capacity().as_secs_f64();
        if capacity > 0.0 {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Folds another sweep's report into this one. Wall-clock adds (sweeps
    /// run back to back), as do point counts, cycle totals, and pool
    /// capacities; the worker count keeps the maximum seen. Capacities are
    /// normalized through [`RunReport::pool_capacity`] *before* the merge so
    /// each sweep contributes `its own wall × its own jobs` — not the
    /// merged maximum.
    pub fn merge(&mut self, other: &RunReport) {
        self.capacity = self.pool_capacity() + other.pool_capacity();
        self.jobs = self.jobs.max(other.jobs);
        self.points += other.points;
        self.wall += other.wall;
        self.busy += other.busy;
        self.sim_cycles += other.sim_cycles;
        self.slowest = match (&self.slowest, &other.slowest) {
            (Some(x), Some(y)) => Some(if x.1 >= y.1 { x.clone() } else { y.clone() }),
            (Some(x), None) => Some(x.clone()),
            (None, y) => y.clone(),
        };
        self.metrics = match (self.metrics.take(), &other.metrics) {
            (Some(mut m), Some(o)) => {
                m.merge(o);
                Some(m)
            }
            (Some(m), None) => Some(m),
            (None, o) => o.clone(),
        };
        self.cache = match (self.cache.take(), &other.cache) {
            (Some(mut c), Some(o)) => {
                c.add(o);
                Some(c)
            }
            (Some(c), None) => Some(c),
            (None, o) => *o,
        };
    }

    /// Renders the report as the multi-line block the bench binaries print
    /// to stderr.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "runner: {} point(s) on {} worker(s) in {:.3}s",
            self.points,
            self.jobs.max(1),
            self.wall.as_secs_f64()
        ));
        out.push('\n');
        let wall = self.wall.as_secs_f64();
        let per_point = if self.points > 0 {
            self.busy.as_secs_f64() / self.points as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "runner: {} simulated cycles ({:.1}M cycles/s), {:.1}ms avg/point, utilization {:.0}%",
            self.sim_cycles,
            if wall > 0.0 {
                self.sim_cycles as f64 / wall / 1e6
            } else {
                0.0
            },
            per_point * 1e3,
            self.utilization() * 100.0
        ));
        if let Some((label, d)) = &self.slowest {
            out.push_str(&format!(
                "\nrunner: slowest point {} at {:.1}ms",
                label,
                d.as_secs_f64() * 1e3
            ));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "\nrunner: cache {} hit(s), {} miss(es), {} invalidation(s), {:.1} KiB read, {:.1} KiB written",
                c.hits,
                c.misses,
                c.invalidations,
                c.bytes_read as f64 / 1024.0,
                c.bytes_written as f64 / 1024.0
            ));
        }
        if let Some(metrics) = &self.metrics {
            if let Some(h) = metrics.histograms.get("csb_flush_retry_latency") {
                out.push_str(&format!(
                    "\nrunner: flush retry latency p50 {} p95 {} p99 {} p99.9 {} max {} cycles over {} flush(es)",
                    h.p50, h.p95, h.p99, h.p999, h.max, h.count
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(jobs: usize) -> RunCtx {
        RunCtx {
            jobs,
            ..RunCtx::default()
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..67).collect();
        let doubled = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        assert_eq!(parallel_map(&items, 1, f), parallel_map(&items, 8, f));
    }

    #[test]
    fn warm_reset_reuse_matches_cold_construction() {
        let small = SimConfig::default().line_size(32).bus(
            csb_bus::BusConfig::multiplexed(8)
                .max_burst(32)
                .build()
                .expect("static test bus config is valid"),
        );
        let default = SimConfig::default();
        let spec = |cfg: &SimConfig, work| PointSpec {
            label: String::new(),
            cfg: cfg.clone(),
            work,
        };
        let bw = |transfer, scheme, order| PointWork::Bandwidth {
            transfer,
            scheme,
            order,
        };
        let lat = |dwords, scheme, residency| PointWork::Latency {
            dwords,
            scheme,
            residency,
        };

        // Bandwidth and latency points deliberately alternating machine
        // shapes, schemes, and workloads, all through ONE simulator slot —
        // every warm reset crosses a configuration change.
        let queue = [
            spec(&default, bw(256, Scheme::Csb, StoreOrder::Ascending)),
            spec(
                &default,
                lat(8, Scheme::Uncached { block: 8 }, LockResidency::Miss),
            ),
            spec(
                &small,
                bw(64, Scheme::Uncached { block: 32 }, StoreOrder::Shuffled),
            ),
            spec(&default, lat(4, Scheme::Csb, LockResidency::Hit)),
            spec(&default, bw(128, Scheme::R10k, StoreOrder::Ascending)),
            spec(&small, bw(512, Scheme::Ppc620, StoreOrder::Ascending)),
        ];

        let ctx = RunCtx::default();
        let mut slot: Option<Simulator> = None;
        for (i, p) in queue.iter().enumerate() {
            let warm = p.install(&mut slot, &ctx).expect("warm install");
            let warm_summary = warm.run(POINT_LIMIT).expect("warm run completes");
            let mut fresh = None;
            let cold = p.install(&mut fresh, &ctx).expect("cold install");
            let cold_summary = cold.run(POINT_LIMIT).expect("cold run completes");
            assert_eq!(
                serde_json::to_string(&warm_summary).unwrap(),
                serde_json::to_string(&cold_summary).unwrap(),
                "point {i}: warm-reset summary must be byte-identical to cold"
            );
            let warm = slot.as_ref().expect("slot filled");
            assert_eq!(
                serde_json::to_string(warm.device()).unwrap(),
                serde_json::to_string(cold.device()).unwrap(),
                "point {i}: warm-reset device log must be byte-identical to cold"
            );
        }
    }

    #[test]
    fn run_points_first_error_wins() {
        // Two invalid transfers among valid points: the sweep must report
        // the lowest-indexed failure regardless of worker count.
        let cfg = SimConfig::default();
        let point = |transfer: usize| PointSpec {
            label: format!("t/{transfer}"),
            cfg: cfg.clone(),
            work: PointWork::Bandwidth {
                transfer,
                scheme: Scheme::Uncached { block: 8 },
                order: StoreOrder::Ascending,
            },
        };
        // transfer=7 is not a multiple of 8 → workload error.
        let specs = vec![point(16), point(7), point(32), point(3)];
        for jobs in [1, 4] {
            let err = run_sweep(&specs, &ctx(jobs)).unwrap_err();
            match err {
                ExpError::Workload(crate::workloads::WorkloadError::BadTransfer { bytes }) => {
                    assert_eq!(bytes, 7, "jobs={jobs} must surface the first failure");
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn bandwidth_panel_parallel_matches_serial() {
        // One panel both ways: same row order, same values, and the same
        // serialized bytes (what the golden files and --json dumps see).
        let cfg = SimConfig::default().line_size(32).bus(
            csb_bus::BusConfig::multiplexed(8)
                .max_burst(32)
                .build()
                .expect("static test bus config is valid"),
        );
        let spec = BandwidthPanelSpec::new("t", "serial/parallel equivalence", cfg);
        let serial = run_panels(std::slice::from_ref(&spec), &ctx(1)).unwrap();
        let parallel = run_panels(std::slice::from_ref(&spec), &ctx(4)).unwrap();
        assert_eq!(
            serde_json::to_string(&serial.result).unwrap(),
            serde_json::to_string(&parallel.result).unwrap()
        );
        assert_eq!(serial.result[0].to_table(), parallel.result[0].to_table());
        let (r1, r4) = (serial.report, parallel.report);
        assert_eq!(r1.points, r4.points);
        assert_eq!(r1.sim_cycles, r4.sim_cycles, "same points were simulated");
        assert_eq!(r1.jobs, 1);
        assert_eq!(r4.jobs, 4);
    }

    #[test]
    fn latency_panel_parallel_matches_serial() {
        let spec = fig5::panel_spec(&SimConfig::default(), LockResidency::Hit);
        let serial = run_panels(std::slice::from_ref(&spec), &ctx(1)).unwrap();
        let parallel = run_panels(std::slice::from_ref(&spec), &ctx(3)).unwrap();
        assert_eq!(
            serde_json::to_string(&serial.result).unwrap(),
            serde_json::to_string(&parallel.result).unwrap()
        );
        assert_eq!(serial.result[0].to_table(), parallel.result[0].to_table());
    }

    #[test]
    fn every_sweep_reports_pool_shape_and_slowest_point() {
        // The report is assembled once, in the engine, so every sweep
        // agrees on it: the worker count is the resolved `jobs` capped at
        // the point count, capacity is wall × workers, and a slowest point
        // is named. `jobs = 0` resolves to all cores.
        use super::super::{contend, faults, fig3, messaging};
        for jobs in [0, 2] {
            let ctx = ctx(jobs);
            let reports = [
                ("faults", faults::run(&ctx).unwrap().report),
                (
                    "contend",
                    run_sweep(&contend::points()[..2], &ctx).unwrap().report,
                ),
                ("messaging", messaging::run(&ctx).unwrap().report),
                (
                    "fig3e",
                    run_panels(&[fig3::PANELS[4].spec()], &ctx).unwrap().report,
                ),
            ];
            for (name, report) in reports {
                assert_eq!(
                    report.jobs,
                    ctx.workers().min(report.points),
                    "{name} jobs={jobs}"
                );
                assert_eq!(
                    report.pool_capacity(),
                    report.wall * report.jobs as u32,
                    "{name} jobs={jobs}"
                );
                assert!(report.slowest.is_some(), "{name} jobs={jobs}");
            }
        }
    }

    #[test]
    fn report_merge_and_utilization() {
        let mut a = RunReport {
            jobs: 2,
            points: 4,
            wall: Duration::from_secs(2),
            busy: Duration::from_secs(3),
            sim_cycles: 100,
            slowest: Some(("a".into(), Duration::from_millis(900))),
            ..RunReport::default()
        };
        let b = RunReport {
            jobs: 1,
            points: 1,
            wall: Duration::from_secs(1),
            busy: Duration::from_secs(1),
            sim_cycles: 50,
            slowest: Some(("b".into(), Duration::from_millis(1000))),
            ..RunReport::default()
        };
        a.merge(&b);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.points, 5);
        assert_eq!(a.sim_cycles, 150);
        assert_eq!(a.slowest.as_ref().unwrap().0, "b");
        // Capacity is per-sweep wall × jobs: 2s × 2 + 1s × 1 = 5s — NOT
        // max(jobs) × Σwall = 6s, which would dilute utilization of the
        // narrower sweep. busy 4s over 5s capacity = 4/5.
        assert_eq!(a.pool_capacity(), Duration::from_secs(5));
        assert!((a.utilization() - 4.0 / 5.0).abs() < 1e-9);
        assert!(a.render().contains("5 point(s)"));
    }

    #[test]
    fn merge_normalizes_untracked_capacity() {
        // A report built without an explicit capacity (hand-rolled) falls
        // back to wall × jobs on both sides of a merge.
        let mut a = RunReport {
            jobs: 4,
            wall: Duration::from_secs(1),
            busy: Duration::from_secs(4),
            ..RunReport::default()
        };
        assert!((a.utilization() - 1.0).abs() < 1e-9);
        let b = RunReport {
            jobs: 1,
            wall: Duration::from_secs(4),
            busy: Duration::from_secs(2),
            ..RunReport::default()
        };
        a.merge(&b);
        // a offered 1s × 4 workers, b offered 4s × 1 worker → 8s total.
        assert_eq!(a.pool_capacity(), Duration::from_secs(8));
        assert!((a.utilization() - 6.0 / 8.0).abs() < 1e-9);
    }

    const FULL_OBS: ObsConfig = ObsConfig {
        trace: true,
        metrics: true,
    };

    #[test]
    fn observed_run_captures_artifacts_and_merged_metrics() {
        let cfg = SimConfig::default();
        let specs = vec![
            PointSpec {
                label: "obs/64B/CSB".into(),
                cfg: cfg.clone(),
                work: PointWork::Bandwidth {
                    transfer: 64,
                    scheme: Scheme::Csb,
                    order: StoreOrder::Ascending,
                },
            },
            PointSpec {
                label: "obs/2dw/CSB".into(),
                cfg,
                work: PointWork::Latency {
                    dwords: 2,
                    scheme: Scheme::Csb,
                    residency: LockResidency::Hit,
                },
            },
        ];
        let ctx = RunCtx {
            jobs: 2,
            obs: FULL_OBS,
            ..RunCtx::default()
        };
        let out = run_sweep(&specs, &ctx).unwrap();
        assert_eq!(out.result.len(), 2);
        assert_eq!(out.artifacts.len(), 2);
        let mut flushes = 0;
        for la in &out.artifacts {
            let trace = la.artifacts.trace_json.as_deref().expect("trace captured");
            assert!(serde_json::parse_value(trace).is_ok(), "{}", la.label);
            let m = la.artifacts.metrics.as_ref().expect("metrics captured");
            assert_eq!(
                m.metrics.histograms["csb_flush_retry_latency"].count, m.csb.flush_successes,
                "{}",
                la.label
            );
            flushes += m.csb.flush_successes;
        }
        // The report's aggregate is the sum of the per-point snapshots.
        let agg = out.report.metrics.as_ref().expect("aggregate metrics");
        assert_eq!(agg.histograms["csb_flush_retry_latency"].count, flushes);
        let rendered = out.report.render();
        assert!(rendered.contains("flush retry latency"));
        assert!(rendered.contains(" p99 "), "{rendered}");
        assert!(rendered.contains(" p99.9 "), "{rendered}");
    }

    #[test]
    fn unobserved_run_captures_nothing() {
        let specs = vec![PointSpec {
            label: "plain/16B".into(),
            cfg: SimConfig::default(),
            work: PointWork::Bandwidth {
                transfer: 16,
                scheme: Scheme::Uncached { block: 8 },
                order: StoreOrder::Ascending,
            },
        }];
        let out = run_sweep(&specs, &RunCtx::default()).unwrap();
        assert!(out.artifacts[0].artifacts.is_empty());
        assert!(out.report.metrics.is_none());
    }

    #[test]
    fn observed_artifacts_identical_across_jobs() {
        // The per-point artifacts are produced by single-threaded
        // simulations and reassembled by index, so worker count must not
        // leak into them.
        let spec = fig5::panel_spec(&SimConfig::default(), LockResidency::Hit);
        let short: Vec<PointSpec> = spec.enumerate().into_iter().take(6).collect();
        let run = |jobs| {
            let ctx = RunCtx {
                jobs,
                obs: FULL_OBS,
                ..RunCtx::default()
            };
            run_sweep(&short, &ctx).unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.result, four.result);
        for (x, y) in one.artifacts.iter().zip(&four.artifacts) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.artifacts.trace_json, y.artifacts.trace_json);
            assert_eq!(
                serde_json::to_string(x.artifacts.metrics.as_ref().unwrap()).unwrap(),
                serde_json::to_string(y.artifacts.metrics.as_ref().unwrap()).unwrap()
            );
        }
    }
}
