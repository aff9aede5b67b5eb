//! Theta-like base-trace synthesis.
//!
//! The paper's base trace is five months of 2018 production jobs from
//! Theta at ALCF (4392 Intel KNL nodes). That log is proprietary, so this
//! module generates a statistically similar trace instead. The
//! substitution keeps the trace's shape — the properties below — and not
//! its individual jobs:
//!
//! * **Node counts** — Theta's scheduling policy allocates in large
//!   blocks; production logs show strong mass on powers of two between
//!   128 and the full machine. The synthesizer draws from a weighted
//!   power-of-two ladder spanning the configured machine, including rare
//!   full-machine jobs.
//! * **Runtimes** — log-normal, clipped to [2 min, 36 h]; the resulting
//!   range spans seconds-scale to day-scale, the property the paper's
//!   vector state encoding exists to handle.
//! * **Estimates** — runtime multiplied by a uniform over-estimation
//!   factor, rounded up to 15-minute buckets (users request walltime in
//!   coarse increments).
//! * **Arrivals** — a Poisson process whose rate is modulated by a
//!   diurnal pattern (daytime submission peaks), matching the "hourly and
//!   daily job arrivals" the paper's synthetic job sets mimic.

use crate::dist;
use mrsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Completion status of a trace job, following the SWF convention
/// (column 11: 1 = completed, 0 = failed, 5 = cancelled). Synthetic
/// traces generate [`SwfStatus::Completed`]; SWF ingestion maps the real
/// codes through so disruption replay can re-issue the trace's
/// cancellations (see `crate::disruption::swf_cancel_events`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwfStatus {
    /// Ran to completion (SWF code 1, and anything unrecognized).
    #[default]
    Completed,
    /// Failed or killed — commonly a walltime kill when the recorded
    /// runtime reaches the request (SWF code 0).
    Failed,
    /// Cancelled by its user (SWF code 5).
    Cancelled,
}

impl SwfStatus {
    /// Decode an SWF status column value.
    pub fn from_code(code: i64) -> Self {
        match code {
            0 => SwfStatus::Failed,
            5 => SwfStatus::Cancelled,
            _ => SwfStatus::Completed,
        }
    }

    /// Encode back to the SWF status column.
    pub fn code(self) -> i64 {
        match self {
            SwfStatus::Completed => 1,
            SwfStatus::Failed => 0,
            SwfStatus::Cancelled => 5,
        }
    }
}

/// One job of a base trace: everything but the extended resources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceJob {
    /// Submission time (seconds from trace start).
    pub submit: SimTime,
    /// Actual runtime in seconds.
    pub runtime: SimTime,
    /// User walltime estimate in seconds (`>= runtime`).
    pub estimate: SimTime,
    /// Requested compute nodes.
    pub nodes: u64,
    /// Recorded completion status (always `Completed` for synthetic jobs).
    pub status: SwfStatus,
}

/// Synthesizer parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThetaConfig {
    /// Machine size in nodes (4392 for real Theta; smaller for scaled
    /// experiments).
    pub machine_nodes: u64,
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Mean inter-arrival time in seconds (before diurnal modulation).
    pub mean_interarrival: f64,
    /// Log-normal runtime parameters (of ln seconds).
    pub runtime_mu: f64,
    /// Log-normal runtime sigma.
    pub runtime_sigma: f64,
    /// Minimum runtime in seconds.
    pub min_runtime: SimTime,
    /// Maximum runtime in seconds.
    pub max_runtime: SimTime,
    /// Strength of the diurnal arrival modulation in `[0, 1)`; 0 disables
    /// it (pure Poisson).
    pub diurnal_amplitude: f64,
}

impl ThetaConfig {
    /// Full-scale Theta-like configuration.
    pub fn theta(num_jobs: usize) -> Self {
        Self {
            machine_nodes: 4392,
            num_jobs,
            // Theta saw ~70k jobs over 5 months => ~190 s mean spacing,
            // but only a fraction are sizable; 600 s keeps contention
            // realistic at full machine scale.
            mean_interarrival: 600.0,
            runtime_mu: 8.1,    // exp(8.1) ~ 54 min median
            runtime_sigma: 1.4, // wide spread: minutes to a day+
            min_runtime: 120,
            max_runtime: 36 * 3600,
            diurnal_amplitude: 0.5,
        }
    }

    /// Scaled configuration matched to [`mrsim::SystemConfig::scaled`]
    /// (256 nodes): shorter jobs and tighter arrivals so full
    /// train/evaluate pipelines run quickly while preserving contention.
    pub fn scaled(num_jobs: usize) -> Self {
        Self {
            machine_nodes: 256,
            num_jobs,
            mean_interarrival: 150.0,
            runtime_mu: 7.3, // exp(7.3) ~ 25 min median
            runtime_sigma: 1.2,
            min_runtime: 60,
            max_runtime: 8 * 3600,
            diurnal_amplitude: 0.5,
        }
    }

    /// Generate the base trace deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Vec<TraceJob> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ladder = node_ladder(self.machine_nodes);
        let weights = ladder_weights(&ladder, self.machine_nodes);
        let mut jobs = Vec::with_capacity(self.num_jobs);
        let mut clock = 0.0f64;
        for _ in 0..self.num_jobs {
            clock += self.next_interarrival(&mut rng, clock);
            let submit = clock.round() as SimTime;
            let runtime = dist::log_normal_clamped(
                &mut rng,
                self.runtime_mu,
                self.runtime_sigma,
                self.min_runtime as f64,
                self.max_runtime as f64,
            )
            .round() as SimTime;
            let estimate = round_up_to(
                (runtime as f64 * rng.gen_range(1.0..3.0)).round() as SimTime,
                900,
            );
            let nodes = ladder[dist::weighted_index(&mut rng, &weights)];
            jobs.push(TraceJob { submit, runtime, estimate, nodes, status: SwfStatus::Completed });
        }
        jobs
    }

    /// Inter-arrival draw with diurnal rate modulation: the instantaneous
    /// mean is `mean / (1 + A sin(2π t / day))` clamped positive, so
    /// daytime (positive sine) arrivals are denser.
    fn next_interarrival(&self, rng: &mut StdRng, clock: f64) -> f64 {
        let base = dist::exponential(rng, self.mean_interarrival);
        if self.diurnal_amplitude == 0.0 {
            return base.max(1.0);
        }
        let phase = (clock / 86_400.0) * std::f64::consts::TAU;
        let rate_scale = 1.0 + self.diurnal_amplitude * phase.sin();
        (base / rate_scale.max(0.1)).max(1.0)
    }
}

/// Power-of-two node-count ladder from a machine-dependent minimum up to
/// the full machine (always included).
fn node_ladder(machine: u64) -> Vec<u64> {
    // Theta's minimum allocation is 128 nodes (~1/34 of the machine), but
    // most jobs request a small fraction of the system. Starting the
    // ladder at machine/64 keeps per-job node fractions small enough that
    // many jobs run concurrently — the regime in which the burst buffer
    // (whose per-job request fractions follow Table III) can become the
    // binding resource, as in the paper's S3–S5 workloads.
    let min = (machine / 64).max(1);
    let mut ladder = Vec::new();
    let mut v = min.next_power_of_two().max(1);
    while v < machine {
        ladder.push(v);
        v *= 2;
    }
    ladder.push(machine);
    ladder
}

/// Weights for the ladder: mid-sized requests dominate, full-machine jobs
/// are rare but present (they are exactly the starvation-prone jobs §III-C
/// protects).
fn ladder_weights(ladder: &[u64], machine: u64) -> Vec<f64> {
    ladder
        .iter()
        .map(|&n| {
            let frac = n as f64 / machine as f64;
            if frac >= 1.0 {
                0.03
            } else if frac >= 0.5 {
                0.07
            } else if frac >= 0.25 {
                0.15
            } else {
                1.0
            }
        })
        .collect()
}

/// Round `v` up to a multiple of `step`.
fn round_up_to(v: SimTime, step: SimTime) -> SimTime {
    v.div_ceil(step) * step
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_sorted_by_submit() {
        let cfg = ThetaConfig::scaled(500);
        let jobs = cfg.generate(1);
        assert_eq!(jobs.len(), 500);
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    }

    #[test]
    fn runtimes_within_bounds_and_estimates_dominate() {
        let cfg = ThetaConfig::scaled(1000);
        for j in cfg.generate(2) {
            assert!(j.runtime >= cfg.min_runtime && j.runtime <= cfg.max_runtime);
            assert!(j.estimate >= j.runtime, "estimate must cover runtime");
            assert_eq!(j.estimate % 900, 0, "estimates are 15-min buckets");
        }
    }

    #[test]
    fn node_counts_are_ladder_values_within_machine() {
        let cfg = ThetaConfig::scaled(1000);
        let ladder = node_ladder(cfg.machine_nodes);
        for j in cfg.generate(3) {
            assert!(j.nodes <= cfg.machine_nodes);
            assert!(ladder.contains(&j.nodes), "nodes {} not in ladder", j.nodes);
        }
    }

    #[test]
    fn full_machine_jobs_occur_but_rarely() {
        let cfg = ThetaConfig::scaled(5000);
        let jobs = cfg.generate(4);
        let full = jobs.iter().filter(|j| j.nodes == cfg.machine_nodes).count();
        assert!(full > 0, "full-machine jobs must exist (starvation stressor)");
        assert!((full as f64) < 0.10 * jobs.len() as f64, "but stay rare: {full}");
    }

    #[test]
    fn wide_runtime_spread() {
        let cfg = ThetaConfig::scaled(5000);
        let jobs = cfg.generate(5);
        let min = jobs.iter().map(|j| j.runtime).min().unwrap();
        let max = jobs.iter().map(|j| j.runtime).max().unwrap();
        assert!(max as f64 / min as f64 > 20.0, "runtime spread {min}..{max}");
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let cfg = ThetaConfig::scaled(100);
        assert_eq!(cfg.generate(7), cfg.generate(7));
        assert_ne!(cfg.generate(7), cfg.generate(8));
    }

    #[test]
    fn diurnal_modulation_changes_arrival_pattern() {
        let mut flat = ThetaConfig::scaled(2000);
        flat.diurnal_amplitude = 0.0;
        let mut wavy = flat;
        wavy.diurnal_amplitude = 0.9;
        let span = |jobs: &[TraceJob]| jobs.last().unwrap().submit;
        // Same seed, different amplitude => different arrival sequence.
        assert_ne!(span(&flat.generate(9)), span(&wavy.generate(9)));
    }

    #[test]
    fn ladder_for_theta_contains_128_and_full_machine() {
        let ladder = node_ladder(4392);
        assert!(ladder.contains(&256));
        assert_eq!(*ladder.last().unwrap(), 4392);
        assert!(ladder.len() >= 5);
    }

    #[test]
    fn round_up_behaviour() {
        assert_eq!(round_up_to(1, 900), 900);
        assert_eq!(round_up_to(900, 900), 900);
        assert_eq!(round_up_to(901, 900), 1800);
    }
}
