//! Seeded open-arrival load generation.
//!
//! Closed-loop load tests (issue a request, wait, issue the next) hide
//! queueing: the client self-throttles exactly when the server slows
//! down, so tail latency looks flat no matter how overloaded the
//! service is. An **open** arrival process — requests land on a
//! schedule the server cannot push back on — is what exposes the
//! service's real latency distribution.
//!
//! Arrival gaps come from [`mrsch_workload::StressConfig`]'s Poisson
//! process (the same seeded synthesizer the engine benchmarks replay),
//! rescaled from trace seconds to the target QPS. Request payloads are
//! seeded noise shaped to the served network's [`DfpConfig`]: latency
//! does not depend on weight values, so noise measures exactly what a
//! trained policy would.

use crate::protocol::Request;
use mrsch_dfp::DfpConfig;
use mrsch_workload::StressConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Load-test shape: how many requests, how fast, from which seed.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Total requests to issue.
    pub requests: usize,
    /// Mean arrival rate (requests per second).
    pub target_qps: f64,
    /// Seed for both payloads and arrival gaps.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self { requests: 200, target_qps: 500.0, seed: 1 }
    }
}

/// Synthesize `count` seeded requests shaped to `cfg`, with ids
/// `0..count`. Every request has at least one valid action.
pub fn synth_requests(cfg: &DfpConfig, count: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4c4f_4144_4745_4e21); // "LOADGEN!"
    (0..count as u64)
        .map(|id| {
            let vec = |n: usize, rng: &mut StdRng| {
                (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>()
            };
            let state = vec(cfg.state_dim, &mut rng);
            let meas = vec(cfg.measurement_dim, &mut rng);
            let goal = vec(cfg.measurement_dim, &mut rng);
            let mut valid: Vec<bool> =
                (0..cfg.num_actions).map(|_| rng.gen_bool(0.75)).collect();
            if !valid.iter().any(|&v| v) {
                valid[0] = true;
            }
            Request { id, state, meas, goal, valid }
        })
        .collect()
}

/// Poisson arrival offsets (from test start) for `count` requests at
/// `target_qps` mean rate. Pure function of its arguments.
pub fn arrival_offsets(count: usize, target_qps: f64, seed: u64) -> Vec<Duration> {
    assert!(target_qps > 0.0, "target_qps must be positive");
    if count == 0 {
        return Vec::new();
    }
    // Borrow the stress synthesizer's seeded Poisson process: its
    // integer submit times have a mean gap set by the utilization
    // model; rescale that gap to 1/target_qps seconds.
    let jobs = StressConfig::engine(count, vec![512, 64]).generate(seed);
    let span = jobs.last().unwrap().submit.saturating_sub(jobs[0].submit) as f64;
    let first = jobs[0].submit as f64;
    let scale = if span > 0.0 {
        // mean trace gap = span / (count - 1); target gap = 1/qps.
        (1.0 / target_qps) / (span / (count.saturating_sub(1).max(1)) as f64)
    } else {
        0.0
    };
    jobs.iter()
        .map(|j| Duration::from_secs_f64((j.submit as f64 - first) * scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DfpConfig {
        DfpConfig::scaled(12, 2, 4)
    }

    #[test]
    fn requests_are_seeded_and_shaped() {
        let reqs = synth_requests(&cfg(), 16, 7);
        assert_eq!(reqs.len(), 16);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.state.len(), cfg().state_dim);
            assert_eq!(r.meas.len(), 2);
            assert_eq!(r.goal.len(), 2);
            assert_eq!(r.valid.len(), 4);
            assert!(r.valid.iter().any(|&v| v), "at least one valid action");
        }
        assert_eq!(reqs, synth_requests(&cfg(), 16, 7), "same seed, same trace");
        assert_ne!(reqs, synth_requests(&cfg(), 16, 8), "seed matters");
    }

    #[test]
    fn offsets_are_nondecreasing_and_hit_target_rate() {
        let n = 2_000;
        let qps = 1_000.0;
        let offs = arrival_offsets(n, qps, 3);
        assert_eq!(offs.len(), n);
        assert_eq!(offs[0], Duration::ZERO);
        for w in offs.windows(2) {
            assert!(w[1] >= w[0], "nondecreasing arrivals");
        }
        let span = offs.last().unwrap().as_secs_f64();
        let rate = (n - 1) as f64 / span;
        assert!(
            (rate - qps).abs() / qps < 0.05,
            "rate {rate:.1} should approximate target {qps:.1}"
        );
        assert_eq!(offs, arrival_offsets(n, qps, 3), "pure function of (n, qps, seed)");
    }

    #[test]
    fn degenerate_counts_are_handled() {
        assert!(arrival_offsets(0, 100.0, 1).is_empty());
        assert_eq!(arrival_offsets(1, 100.0, 1), vec![Duration::ZERO]);
    }
}
