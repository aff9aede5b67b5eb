//! The S1–S10 workload suite (Table III and §V-E of the paper).
//!
//! The paper extends the CPU-only Theta trace with burst-buffer requests
//! by mining Darshan I/O logs (§IV-A): 40 % of jobs had Darshan records,
//! 17.18 % of all jobs moved more than 1 GB, and the assigned request
//! sizes range from 1 GB to 285 TB against a 1.26 PB shared burst buffer.
//! Each workload is derived from a base trace by re-assigning those
//! requests — a participating fraction of jobs draws a heavy-tailed
//! (log-uniform) size, everything else gets zero — and, for S6–S10,
//! power profiles:
//!
//! | Workload | nodes | BB participation | BB size range |
//! |---|---|---|---|
//! | S1 | as in trace | 50 % | [5 TB, 285 TB] |
//! | S2 | as in trace | 75 % | [5 TB, 285 TB] |
//! | S3 | as in trace | 50 % | [20 TB, 285 TB] |
//! | S4 | as in trace | 75 % | [20 TB, 285 TB] |
//! | S5 | half of trace | 75 % | [20 TB, 285 TB] |
//!
//! S6–S10 add per-node power profiles drawn uniformly in [100, 215] W
//! (KNL 7230 TDP is 215 W) under a 500 kW system budget to S1–S5.
//!
//! Sizes are expressed as *fractions of the burst-buffer capacity*
//! (5/1293, 20/1293 and 285/1293 of Theta's 1293 TB buffer) so the same
//! suite definition applies unchanged to proportionally scaled systems.

use crate::dist;
use crate::theta::TraceJob;
use mrsim::job::Job;
use mrsim::resources::{ResourceSpec, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Theta's burst-buffer capacity in TB units (1.26 PB).
pub const THETA_BB_UNITS: f64 = 1293.0;

/// Power-profile parameters of the §V-E three-resource case study.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerSpec {
    /// Lower bound of the per-node power draw in watts (paper: 100 W).
    pub min_watts: f64,
    /// Upper bound of the per-node power draw in watts (KNL TDP: 215 W).
    pub max_watts: f64,
    /// Idle per-node power in watts (paper: 60 W; reporting only — idle
    /// power is not schedulable).
    pub idle_watts: f64,
    /// System power budget as a fraction of the theoretical maximum draw
    /// (`machine_nodes * max_watts`). The paper restricts Theta
    /// (4392 × 215 W ≈ 944 kW) to 500 kW, i.e. ≈ 0.53.
    pub budget_fraction: f64,
}

impl Default for PowerSpec {
    fn default() -> Self {
        Self { min_watts: 100.0, max_watts: 215.0, idle_watts: 60.0, budget_fraction: 0.53 }
    }
}

impl PowerSpec {
    /// Power-budget pool capacity in kW units for a machine of
    /// `machine_nodes` nodes.
    pub fn budget_kw(&self, machine_nodes: u64) -> u64 {
        ((machine_nodes as f64 * self.max_watts * self.budget_fraction) / 1000.0)
            .ceil()
            .max(1.0) as u64
    }
}

/// One workload definition of the S1–S10 suite.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// "S1" … "S10".
    pub name: String,
    /// Fraction of jobs that request any burst buffer.
    pub bb_participation: f64,
    /// Smallest assigned BB request, as a fraction of BB capacity.
    pub bb_min_frac: f64,
    /// Largest assigned BB request, as a fraction of BB capacity.
    pub bb_max_frac: f64,
    /// Multiplier on the trace's node request (S5/S10 halve it).
    pub node_scale: f64,
    /// Present for the three-resource workloads S6–S10.
    pub power: Option<PowerSpec>,
}

const BB_SMALL_MIN: f64 = 5.0 / THETA_BB_UNITS;
const BB_LARGE_MIN: f64 = 20.0 / THETA_BB_UNITS;
const BB_MAX: f64 = 285.0 / THETA_BB_UNITS;

impl WorkloadSpec {
    fn base(name: &str, participation: f64, min_frac: f64, node_scale: f64) -> Self {
        Self {
            name: name.to_string(),
            bb_participation: participation,
            bb_min_frac: min_frac,
            bb_max_frac: BB_MAX,
            node_scale,
            power: None,
        }
    }

    /// Table III row S1.
    pub fn s1() -> Self {
        Self::base("S1", 0.50, BB_SMALL_MIN, 1.0)
    }
    /// Table III row S2.
    pub fn s2() -> Self {
        Self::base("S2", 0.75, BB_SMALL_MIN, 1.0)
    }
    /// Table III row S3.
    pub fn s3() -> Self {
        Self::base("S3", 0.50, BB_LARGE_MIN, 1.0)
    }
    /// Table III row S4.
    pub fn s4() -> Self {
        Self::base("S4", 0.75, BB_LARGE_MIN, 1.0)
    }
    /// Table III row S5 (S4 with halved node requests).
    pub fn s5() -> Self {
        Self::base("S5", 0.75, BB_LARGE_MIN, 0.5)
    }

    /// §V-E workload S(k+5): S(k) plus a power profile.
    fn with_power(mut self, k: usize) -> Self {
        self.name = format!("S{}", k + 5);
        self.power = Some(PowerSpec::default());
        self
    }

    /// S6–S10 constructors.
    pub fn s6() -> Self {
        Self::s1().with_power(1)
    }
    /// See [`WorkloadSpec::s6`].
    pub fn s7() -> Self {
        Self::s2().with_power(2)
    }
    /// See [`WorkloadSpec::s6`].
    pub fn s8() -> Self {
        Self::s3().with_power(3)
    }
    /// See [`WorkloadSpec::s6`].
    pub fn s9() -> Self {
        Self::s4().with_power(4)
    }
    /// See [`WorkloadSpec::s6`].
    pub fn s10() -> Self {
        Self::s5().with_power(5)
    }

    /// The two-resource suite S1–S5 of Table III.
    pub fn two_resource_suite() -> Vec<Self> {
        vec![Self::s1(), Self::s2(), Self::s3(), Self::s4(), Self::s5()]
    }

    /// The three-resource suite S6–S10 of §V-E.
    pub fn three_resource_suite() -> Vec<Self> {
        vec![Self::s6(), Self::s7(), Self::s8(), Self::s9(), Self::s10()]
    }

    /// The system configuration this workload schedules on, derived from
    /// a two-resource base system (adds the power pool for S6–S10).
    pub fn system_for(&self, base: &SystemConfig) -> SystemConfig {
        assert!(
            base.num_resources() >= 2,
            "workload suite needs a nodes+burst-buffer base system"
        );
        let nodes = base.resources[0].capacity;
        let bb = base.resources[1].capacity;
        match &self.power {
            None => SystemConfig::two_resource(nodes, bb),
            Some(p) => SystemConfig::new(vec![
                ResourceSpec::new("nodes", nodes),
                ResourceSpec::new("burst_buffer_tb", bb),
                ResourceSpec::new("power_kw", p.budget_kw(nodes)),
            ]),
        }
    }

    /// Materialize the workload over a base trace for the given system.
    ///
    /// Node requests scale by `node_scale` (min 1, clamped to capacity);
    /// BB requests are drawn log-uniformly in
    /// `[bb_min_frac, bb_max_frac] × capacity` for participating jobs;
    /// power demands (S6–S10) are `ceil(nodes × U(100, 215) W)` in kW
    /// units, clamped to the budget.
    pub fn build(&self, base: &[TraceJob], system: &SystemConfig, seed: u64) -> Vec<Job> {
        let nres = system.num_resources();
        assert!(
            nres == if self.power.is_some() { 3 } else { 2 },
            "system/resource count mismatch for workload {}",
            self.name
        );
        let node_cap = system.resources[0].capacity;
        let bb_cap = system.resources[1].capacity;
        let mut rng = StdRng::seed_from_u64(seed);
        base.iter()
            .enumerate()
            .map(|(i, t)| {
                let nodes = (((t.nodes as f64) * self.node_scale).round() as u64)
                    .clamp(1, node_cap);
                let bb = if rng.gen::<f64>() < self.bb_participation {
                    let frac =
                        dist::log_uniform(&mut rng, self.bb_min_frac, self.bb_max_frac);
                    ((frac * bb_cap as f64).round() as u64).clamp(1, bb_cap)
                } else {
                    0
                };
                let mut demands = vec![nodes, bb];
                if let Some(p) = &self.power {
                    let watts = rng.gen_range(p.min_watts..p.max_watts);
                    let kw = ((nodes as f64 * watts) / 1000.0).ceil() as u64;
                    demands.push(kw.clamp(1, system.resources[2].capacity));
                }
                Job::new(i, t.submit, t.runtime, t.estimate, demands)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::ThetaConfig;

    fn base_trace() -> Vec<TraceJob> {
        ThetaConfig::scaled(2000).generate(11)
    }

    fn scaled_system() -> SystemConfig {
        SystemConfig::scaled()
    }

    #[test]
    fn table3_parameters_encoded() {
        assert_eq!(WorkloadSpec::s1().bb_participation, 0.50);
        assert_eq!(WorkloadSpec::s2().bb_participation, 0.75);
        assert!((WorkloadSpec::s3().bb_min_frac - 20.0 / 1293.0).abs() < 1e-12);
        assert!((WorkloadSpec::s1().bb_min_frac - 5.0 / 1293.0).abs() < 1e-12);
        assert_eq!(WorkloadSpec::s5().node_scale, 0.5);
        assert_eq!(WorkloadSpec::s4().node_scale, 1.0);
        for s in WorkloadSpec::two_resource_suite() {
            assert!(s.power.is_none());
            assert!((s.bb_max_frac - 285.0 / 1293.0).abs() < 1e-12);
        }
    }

    #[test]
    fn s6_to_s10_carry_power() {
        let suite = WorkloadSpec::three_resource_suite();
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].name, "S6");
        assert_eq!(suite[4].name, "S10");
        assert_eq!(suite[4].node_scale, 0.5, "S10 mirrors S5");
        for s in suite {
            assert!(s.power.is_some());
        }
    }

    #[test]
    fn participation_fraction_approximately_held() {
        let base = base_trace();
        let sys = scaled_system();
        let jobs = WorkloadSpec::s2().build(&base, &sys, 1);
        let frac = jobs.iter().filter(|j| j.demands[1] > 0).count() as f64
            / jobs.len() as f64;
        assert!((frac - 0.75).abs() < 0.04, "S2 participation {frac}");
        let jobs1 = WorkloadSpec::s1().build(&base, &sys, 1);
        let frac1 = jobs1.iter().filter(|j| j.demands[1] > 0).count() as f64
            / jobs1.len() as f64;
        assert!((frac1 - 0.50).abs() < 0.04, "S1 participation {frac1}");
    }

    #[test]
    fn bb_sizes_respect_scaled_ranges() {
        let base = base_trace();
        let sys = scaled_system();
        let bb_cap = sys.resources[1].capacity as f64;
        let jobs = WorkloadSpec::s3().build(&base, &sys, 2);
        for j in jobs.iter().filter(|j| j.demands[1] > 0) {
            let frac = j.demands[1] as f64 / bb_cap;
            // Rounding to whole units allows ±1 unit slack at the edges.
            assert!(
                frac >= 20.0 / 1293.0 - 1.0 / bb_cap && frac <= 285.0 / 1293.0 + 1.0 / bb_cap,
                "S3 BB fraction {frac}"
            );
        }
    }

    #[test]
    fn s4_requests_larger_than_s1_on_average() {
        let base = base_trace();
        let sys = scaled_system();
        let avg = |jobs: &[Job]| {
            let v: Vec<u64> = jobs.iter().map(|j| j.demands[1]).filter(|&b| b > 0).collect();
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        let s1 = avg(&WorkloadSpec::s1().build(&base, &sys, 3));
        let s4 = avg(&WorkloadSpec::s4().build(&base, &sys, 3));
        assert!(s4 > s1, "S4 ({s4}) must stress the BB more than S1 ({s1})");
    }

    #[test]
    fn s5_halves_node_requests() {
        let base = base_trace();
        let sys = scaled_system();
        let s4 = WorkloadSpec::s4().build(&base, &sys, 4);
        let s5 = WorkloadSpec::s5().build(&base, &sys, 4);
        let total4: u64 = s4.iter().map(|j| j.demands[0]).sum();
        let total5: u64 = s5.iter().map(|j| j.demands[0]).sum();
        let ratio = total5 as f64 / total4 as f64;
        assert!((ratio - 0.5).abs() < 0.05, "S5/S4 node ratio {ratio}");
    }

    #[test]
    fn power_demands_valid_for_s6() {
        let base = base_trace();
        let spec = WorkloadSpec::s6();
        let sys = spec.system_for(&scaled_system());
        assert_eq!(sys.num_resources(), 3);
        let budget = sys.resources[2].capacity;
        let jobs = spec.build(&base, &sys, 5);
        for j in &jobs {
            assert_eq!(j.demands.len(), 3);
            assert!(j.demands[2] >= 1 && j.demands[2] <= budget);
            // Power tracks nodes: between 100 and 215 W per node (+ceil).
            let w_per_node = j.demands[2] as f64 * 1000.0 / j.demands[0] as f64;
            assert!(
                w_per_node >= 99.0 && w_per_node <= 216.0 + 1000.0 / j.demands[0] as f64,
                "per-node watts {w_per_node}"
            );
        }
        for j in jobs {
            sys.validate_job(&j).unwrap();
        }
    }

    #[test]
    fn budget_matches_paper_at_theta_scale() {
        let p = PowerSpec::default();
        let kw = p.budget_kw(4392);
        assert!((kw as f64 - 500.0).abs() < 10.0, "Theta budget {kw} kW ≈ 500 kW");
    }

    #[test]
    fn all_built_jobs_validate_against_system() {
        let base = base_trace();
        for spec in WorkloadSpec::two_resource_suite() {
            let sys = spec.system_for(&scaled_system());
            for j in spec.build(&base, &sys, 6) {
                sys.validate_job(&j).unwrap();
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let base = base_trace();
        let sys = scaled_system();
        let a = WorkloadSpec::s4().build(&base, &sys, 9);
        let b = WorkloadSpec::s4().build(&base, &sys, 9);
        assert_eq!(a, b);
    }
}
