//! Fault sweeps: success rate and latency degradation of software retry
//! policies under a seeded, deterministic fault schedule.
//!
//! Each point runs the CSB atomic-access kernel
//! ([`workloads::csb_sequence_with_policy`]) on the paper's default
//! machine with a [`FaultConfig`] injecting forced conditional-flush
//! disturbances at the swept rate, plus bus errors and device NACKs at a
//! quarter of it (the hardware-retry paths — transparent to software but
//! visible as latency). A run *succeeds* when the device received the
//! full payload and the end timing mark retired; a run that gives up
//! (bounded budget exhausted) or is stopped by the livelock watchdog
//! counts as a failure.
//!
//! Per seed, raising the rate can only add fault ordinals (the injector
//! compares a hash against a rate-proportional threshold), so each
//! policy's success curve is monotone non-increasing in the rate by
//! construction — the sweep's acceptance check, not a statistical
//! accident.

use serde::{Deserialize, Serialize};

use super::runner::{run_sweep, Measured, PointValue, RunCtx, SweepOutput, SweepPoint};
use super::{format_table, ExpError, DWORD_BYTES};
use crate::cache::PointCache;
use crate::config::SimConfig;
use crate::sim::{SimError, Simulator};
use crate::workloads::{self, RetryPolicy, MARK_END, MARK_START};
use csb_faults::FaultConfig;
use csb_snap::{SnapshotReader, SnapshotWriter};

/// Fault rates swept (fraction of decisions that inject).
pub const RATES: [f64; 6] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9];

/// Independent seeds per (rate, policy) cell.
pub const SEEDS_PER_CELL: u64 = 16;

/// Doublewords per access (one full line on the default machine).
const DWORDS: usize = 8;

/// Cycle budget per point (the watchdog fires far earlier on livelock).
const POINT_LIMIT: u64 = 2_000_000;

/// The retry-policy ladder the sweep compares.
pub fn policies() -> Vec<RetryPolicy> {
    vec![
        RetryPolicy::NaiveSpin,
        RetryPolicy::Bounded { attempts: 4 },
        RetryPolicy::Backoff {
            attempts: 12,
            base: 32,
            max: 1024,
            seed: 0, // replaced per point so actors de-synchronize
        },
    ]
}

/// Aggregated outcomes of one (rate, policy) cell across its seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultCell {
    /// Policy label (column header).
    pub policy: String,
    /// Runs whose full payload reached the device.
    pub successes: u64,
    /// Runs stopped by the livelock watchdog.
    pub livelocks: u64,
    /// Total runs (== [`SEEDS_PER_CELL`]).
    pub runs: u64,
    /// Mean conditional-flush attempts per run.
    pub mean_attempts: f64,
    /// Mean access latency of *successful* runs in CPU cycles (0 when
    /// none succeeded).
    pub mean_latency: f64,
}

impl FaultCell {
    /// Success fraction in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.successes as f64 / self.runs as f64
        }
    }
}

/// One fault rate's cells across the policy ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRow {
    /// Injection rate for flush disturbances (bus errors and NACKs run at
    /// a quarter of it).
    pub rate: f64,
    /// One cell per policy, in [`policies`] order.
    pub cells: Vec<FaultCell>,
}

/// The whole sweep: rate × policy, aggregated over seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweep {
    /// Sweep id (`"faults"`).
    pub id: String,
    /// Human-readable parameter description.
    pub title: String,
    /// Policy labels, in column order.
    pub policies: Vec<String>,
    /// One row per rate.
    pub rows: Vec<FaultRow>,
}

impl FaultSweep {
    /// Renders the sweep as a fixed-width text table: per policy, the
    /// success percentage and the mean successful-run latency (with the
    /// latency-degradation factor relative to the zero-fault row).
    pub fn to_table(&self) -> String {
        let mut headers = vec!["rate".to_string()];
        for p in &self.policies {
            headers.push(format!("{p} ok%"));
            headers.push(format!("{p} lat"));
        }
        let base: Vec<f64> = self
            .rows
            .first()
            .map(|r| r.cells.iter().map(|c| c.mean_latency).collect())
            .unwrap_or_default();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![format!("{:.2}", r.rate)];
                for (i, c) in r.cells.iter().enumerate() {
                    row.push(format!("{:.0}", 100.0 * c.success_rate()));
                    if c.successes == 0 {
                        row.push("-".to_string());
                    } else {
                        let degr = match base.get(i) {
                            Some(&b) if b > 0.0 => {
                                format!(" ({:.2}x)", c.mean_latency / b)
                            }
                            _ => String::new(),
                        };
                        row.push(format!("{:.0}{degr}", c.mean_latency));
                    }
                }
                row
            })
            .collect();
        format!(
            "Fault sweep — {}\n{}",
            self.title,
            format_table(&headers, &rows)
        )
    }
}

/// The fault schedule every sweep point with a nonzero `rate` runs under:
/// flush disturbances at `rate`, bus errors and device NACKs at a quarter
/// of it. Shared with the messaging sweep.
pub(crate) fn fault_schedule(rate: f64, seed: u64) -> Option<FaultConfig> {
    (rate > 0.0).then(|| {
        FaultConfig::new(seed)
            .flush_disturb_rate(rate)
            .bus_error_rate(rate * 0.25)
            .device_nack_rate(rate * 0.25)
    })
}

/// One seeded (policy, rate) point of the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultPoint {
    /// The policy as [`policies`] lists it; its backoff seed is replaced
    /// by `seed` when the program is built.
    policy: RetryPolicy,
    rate: f64,
    seed: u64,
}

/// Raw outcome of a single seeded run.
#[derive(Debug, Clone)]
pub(crate) struct FaultOutcome {
    success: bool,
    livelock: bool,
    attempts: u64,
    latency: u64,
}

impl SweepPoint for FaultPoint {
    type Output = FaultOutcome;
    const TAG: &'static str = "fpt";

    fn label(&self) -> String {
        format!(
            "faults/r{:02}/{}",
            (self.rate * 100.0).round() as u32,
            self.policy.label()
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn config_text(&self) -> String {
        format!(
            "{:?} {:?} rate {}",
            SimConfig::default(),
            self.policy,
            self.rate
        )
    }

    fn cache_key(&self) -> u64 {
        let work = (
            "faults",
            DWORDS,
            self.policy.with_seed(self.seed),
            self.rate.to_bits(),
        );
        PointCache::key_debug(&[&SimConfig::default(), &work], self.seed)
    }

    fn encode(&self, out: &FaultOutcome, w: &mut SnapshotWriter) {
        w.put_bool(out.success);
        w.put_bool(out.livelock);
        w.put_u64(out.attempts);
        w.put_u64(out.latency);
    }

    fn decode(&self, r: &mut SnapshotReader<'_>) -> Option<FaultOutcome> {
        Some(FaultOutcome {
            success: r.take_bool().ok()?,
            livelock: r.take_bool().ok()?,
            attempts: r.take_u64().ok()?,
            latency: r.take_u64().ok()?,
        })
    }

    fn value(&self, out: &FaultOutcome) -> PointValue {
        PointValue::Latency(out.latency)
    }

    fn run(
        &self,
        slot: &mut Option<Simulator>,
        ctx: &RunCtx,
    ) -> Result<Measured<FaultOutcome>, ExpError> {
        let cfg = SimConfig::default();
        let program =
            workloads::csb_sequence_with_policy(DWORDS, self.policy.with_seed(self.seed), &cfg)?;
        let sim = ctx.install(slot, cfg, program)?;
        if let Some(faults) = fault_schedule(self.rate, self.seed) {
            sim.set_faults(Some(faults));
        }
        ctx.obs.enable(sim);
        let (summary, livelock) = match sim.run(POINT_LIMIT) {
            Ok(summary) => (summary, false),
            Err(SimError::Livelock(_)) => (sim.summary(), true),
            Err(e) => return Err(e.into()),
        };
        let delivered = sim.device().payload_bytes() == (DWORDS * DWORD_BYTES) as u64;
        let latency = summary.cpu.mark_interval(MARK_START, MARK_END);
        Ok(Measured {
            out: FaultOutcome {
                success: !livelock && delivered && latency.is_some(),
                livelock,
                attempts: summary.csb.flush_successes + summary.csb.flush_failures,
                latency: latency.unwrap_or(0),
            },
            sim_cycles: summary.cycles,
            artifacts: ctx.obs.capture(sim),
        })
    }
}

/// The sweep's points, rate-major, then policy, then seed.
fn points() -> Vec<FaultPoint> {
    let mut points = Vec::new();
    for (ri, &rate) in RATES.iter().enumerate() {
        for (pi, &policy) in policies().iter().enumerate() {
            for seed in 0..SEEDS_PER_CELL {
                // Seeds differ per cell so no two cells share a schedule.
                let seed = 0x5eed_0000 + (ri as u64) * 1_000 + (pi as u64) * 100 + seed;
                points.push(FaultPoint { policy, rate, seed });
            }
        }
    }
    points
}

/// Runs the full sweep: every seeded point runs through the engine
/// (labels `faults/r<rate%>/<policy>`, distinguished per seed by
/// [`LabeledArtifacts::seed`](super::runner::LabeledArtifacts::seed)),
/// then each (rate, policy) cell aggregates its seeds.
///
/// # Errors
///
/// Propagates the lowest-indexed point that fails for a reason other than
/// the expected fault outcomes (livelock and give-up are *results*, not
/// errors).
pub fn run(ctx: &RunCtx) -> Result<SweepOutput<FaultSweep>, ExpError> {
    let policies = policies();
    Ok(run_sweep(&points(), ctx)?.map(|outcomes| {
        let mut cells = outcomes.chunks(SEEDS_PER_CELL as usize);
        let rows = RATES
            .iter()
            .map(|&rate| FaultRow {
                rate,
                cells: policies
                    .iter()
                    .map(|&policy| {
                        let rs = cells.next().expect("one cell per (rate, policy)");
                        let successes = rs.iter().filter(|r| r.success).count() as u64;
                        let latencies: Vec<u64> =
                            rs.iter().filter(|r| r.success).map(|r| r.latency).collect();
                        FaultCell {
                            policy: policy.label(),
                            successes,
                            livelocks: rs.iter().filter(|r| r.livelock).count() as u64,
                            runs: rs.len() as u64,
                            mean_attempts: rs.iter().map(|r| r.attempts).sum::<u64>() as f64
                                / rs.len().max(1) as f64,
                            mean_latency: if latencies.is_empty() {
                                0.0
                            } else {
                                latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
                            },
                        }
                    })
                    .collect(),
            })
            .collect();
        FaultSweep {
            id: "faults".to_string(),
            title: format!(
                "retry policies under seeded faults; {DWORDS} dwords, \
                 {SEEDS_PER_CELL} seeds/cell, disturb rate swept \
                 (bus errors and NACKs at rate/4)"
            ),
            policies: policies.iter().map(|&p| p.label()).collect(),
            rows,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_point(
        slot: &mut Option<Simulator>,
        policy: RetryPolicy,
        rate: f64,
        seed: u64,
    ) -> FaultOutcome {
        FaultPoint { policy, rate, seed }
            .run(slot, &RunCtx::default())
            .unwrap()
            .out
    }

    #[test]
    fn zero_rate_always_succeeds() {
        let mut slot = None;
        for (i, &policy) in policies().iter().enumerate() {
            let r = run_point(&mut slot, policy, 0.0, 7 + i as u64);
            assert!(r.success, "{}: zero-fault run must succeed", i);
            assert!(!r.livelock);
            assert_eq!(r.attempts, 1, "no retries without faults");
        }
    }

    #[test]
    fn bounded_policy_gives_up_under_total_disturbance() {
        let mut slot = None;
        let r = run_point(&mut slot, RetryPolicy::Bounded { attempts: 4 }, 0.9, 3);
        // Seed 3 at rate 0.9: not guaranteed to fault 4 times in a row,
        // so assert only the structural invariant — a failed bounded run
        // halts cleanly instead of livelocking.
        if !r.success {
            assert!(!r.livelock, "bounded budget must give up, not livelock");
            assert_eq!(r.attempts, 4);
        }
    }

    #[test]
    fn success_rate_is_monotone_per_policy() {
        // The per-seed monotonicity argument, checked end to end on a
        // small slice of the sweep: for every policy and seed, success at
        // a higher rate implies success at every lower rate.
        let mut slot = None;
        for &policy in &policies() {
            let mut prev_successes = u64::MAX;
            for &rate in &[0.0, 0.5, 0.9] {
                let mut successes = 0;
                for seed in 0..8 {
                    if run_point(&mut slot, policy, rate, 100 + seed).success {
                        successes += 1;
                    }
                }
                assert!(
                    successes <= prev_successes,
                    "{}: successes rose from {prev_successes} to {successes}",
                    policy.label()
                );
                prev_successes = successes;
            }
        }
    }
}
