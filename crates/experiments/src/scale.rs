//! Experiment sizing.
//!
//! The paper runs on the full 4392-node Theta with a five-month trace —
//! far beyond a CI budget. This reproduction commits to proportional
//! scaling instead: machine and traces shrink together, and the
//! *relative* comparisons between policies are the reproduction target,
//! not the paper's absolute numbers. [`ExpScale`] centralizes the sizes
//! so every figure uses consistent systems and traces.

use mrsch_workload::theta::{ThetaConfig, TraceJob};
use mrsim::resources::SystemConfig;
use mrsim::simulator::SimParams;

/// Sizing of one experiment run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpScale {
    /// Compute nodes of the simulated machine.
    pub nodes: u64,
    /// Burst-buffer units of the simulated machine.
    pub burst_buffer: u64,
    /// Scheduling-window size `W`.
    pub window: usize,
    /// Jobs in the base trace (split into train/val/test).
    pub trace_jobs: usize,
    /// Jobs per evaluation run.
    pub eval_jobs: usize,
    /// Job sets per curriculum phase.
    pub sets_per_phase: usize,
    /// Jobs per training job set.
    pub jobs_per_set: usize,
    /// Gradient steps after each training episode.
    pub batches_per_episode: usize,
    /// Extra training passes over the curriculum (epochs).
    pub train_rounds: usize,
}

impl ExpScale {
    /// Small scale for unit tests (seconds).
    ///
    /// Sized for a warm `cargo test -q` under the ROADMAP's ~45 s
    /// budget on a single core: the machine (48×16) keeps the DFP state
    /// vector — and with it every gradient step — small, and the
    /// train/eval job counts are the smallest that keep the figure
    /// tests' qualitative orderings stable.
    pub fn quick() -> Self {
        Self {
            nodes: 48,
            burst_buffer: 16,
            window: 4,
            trace_jobs: 240,
            eval_jobs: 48,
            sets_per_phase: 1,
            jobs_per_set: 30,
            batches_per_episode: 6,
            train_rounds: 1,
        }
    }

    /// Full scale for `mrsch_cli fig` (minutes).
    pub fn full() -> Self {
        Self {
            nodes: 256,
            burst_buffer: 75,
            window: 10,
            trace_jobs: 3000,
            eval_jobs: 400,
            sets_per_phase: 2,
            jobs_per_set: 150,
            batches_per_episode: 64,
            train_rounds: 6,
        }
    }

    /// The two-resource base system at this scale.
    pub fn base_system(&self) -> SystemConfig {
        SystemConfig::two_resource(self.nodes, self.burst_buffer)
    }

    /// Simulator parameters at this scale.
    pub fn sim_params(&self) -> SimParams {
        SimParams::new(self.window, true)
    }

    /// Theta-like trace generator matched to this machine size.
    pub fn trace_config(&self) -> ThetaConfig {
        ThetaConfig {
            machine_nodes: self.nodes,
            num_jobs: self.trace_jobs,
            ..ThetaConfig::scaled(self.trace_jobs)
        }
    }

    /// Generate the base trace for this scale.
    pub fn base_trace(&self, seed: u64) -> Vec<TraceJob> {
        self.trace_config().generate(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = ExpScale::quick();
        let f = ExpScale::full();
        assert!(q.nodes < f.nodes);
        assert!(q.trace_jobs < f.trace_jobs);
        assert!(q.eval_jobs < f.eval_jobs);
    }

    #[test]
    fn derived_objects_consistent() {
        let s = ExpScale::quick();
        assert_eq!(s.base_system().capacities(), vec![48, 16]);
        assert_eq!(s.sim_params().window, 4);
        assert_eq!(s.trace_config().machine_nodes, 48);
        assert_eq!(s.base_trace(1).len(), s.trace_jobs);
    }

    #[test]
    fn trace_is_deterministic() {
        let s = ExpScale::quick();
        assert_eq!(s.base_trace(5), s.base_trace(5));
    }
}
