//! Schedulable resources and the live allocation state of the system.
//!
//! Every resource is a *pool of interchangeable units* — compute nodes,
//! terabytes of burst buffer, kilowatts of a power budget. A job requests
//! an integer unit count per pool and holds those units for its whole
//! execution. This uniform model is exactly what the paper's state
//! encoding assumes ("The resource unit can be defined by the system
//! administrator, e.g., a node for the CPU resource or a TB burst buffer
//! as the unit for the burst buffer resource", §III-A).

use crate::job::{Job, JobId};
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Static description of one schedulable resource pool.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Human-readable name ("nodes", "burst_buffer_tb", "power_kw").
    pub name: String,
    /// Total number of interchangeable units in the pool.
    pub capacity: u64,
}

impl ResourceSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Self { name: name.into(), capacity }
    }
}

/// Static description of the whole system: an ordered list of pools.
///
/// Job demand vectors are aligned with this order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The schedulable resource pools.
    pub resources: Vec<ResourceSpec>,
}

impl SystemConfig {
    /// A system with arbitrary pools.
    pub fn new(resources: Vec<ResourceSpec>) -> Self {
        assert!(!resources.is_empty(), "SystemConfig: need at least one resource");
        Self { resources }
    }

    /// Two-resource system: compute nodes + burst-buffer units.
    pub fn two_resource(nodes: u64, burst_buffer: u64) -> Self {
        Self::new(vec![
            ResourceSpec::new("nodes", nodes),
            ResourceSpec::new("burst_buffer_tb", burst_buffer),
        ])
    }

    /// Three-resource system of the §V-E case study: nodes, burst buffer,
    /// and a power budget expressed in kW units.
    pub fn three_resource(nodes: u64, burst_buffer: u64, power_kw: u64) -> Self {
        Self::new(vec![
            ResourceSpec::new("nodes", nodes),
            ResourceSpec::new("burst_buffer_tb", burst_buffer),
            ResourceSpec::new("power_kw", power_kw),
        ])
    }

    /// The paper's full Theta configuration: 4392 compute nodes and a
    /// 1.26 PB shared burst buffer in TB units (1293 units), giving the
    /// state-vector size 4W + 2·4392 + 2·1293 = 11410 for W = 10 (§IV-C).
    pub fn theta() -> Self {
        Self::two_resource(4392, 1293)
    }

    /// A proportionally scaled system used by the default experiments so
    /// the full train/evaluate pipeline runs at laptop scale: 256 nodes
    /// and a 75-unit burst buffer (~same node:BB ratio as Theta).
    pub fn scaled() -> Self {
        Self::two_resource(256, 75)
    }

    /// Number of resource pools.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Capacity vector.
    pub fn capacities(&self) -> Vec<u64> {
        self.resources.iter().map(|r| r.capacity).collect()
    }

    /// Validate a job against this system: demand vector length matches
    /// and no demand exceeds pool capacity (otherwise the job could never
    /// start and the simulation would deadlock).
    pub fn validate_job(&self, job: &Job) -> Result<(), String> {
        if job.demands.len() != self.resources.len() {
            return Err(format!(
                "job {} has {} demands but system has {} resources",
                job.id,
                job.demands.len(),
                self.resources.len()
            ));
        }
        for (r, spec) in self.resources.iter().enumerate() {
            if job.demands[r] > spec.capacity {
                return Err(format!(
                    "job {} demands {} {} but capacity is {}",
                    job.id, job.demands[r], spec.name, spec.capacity
                ));
            }
        }
        Ok(())
    }
}

/// One running job's allocation, tracked for release-time estimation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// The running job.
    pub job: JobId,
    /// Units held per resource.
    pub demands: Vec<u64>,
    /// Time the job started.
    pub start: SimTime,
    /// *Estimated* end time (`start + estimate`) — what policies and
    /// backfilling may plan with.
    pub est_end: SimTime,
    /// Actual end time (`start + runtime`) — simulator-internal.
    pub actual_end: SimTime,
}

/// Live allocation state of all pools.
///
/// Capacity is *time-varying*: [`PoolState::adjust_capacity`] applies
/// node drains/returns and power-cap ramps. A shrink larger than the
/// currently free units does not kill anything — the excess is parked in
/// a per-pool *drain debt* and absorbed as running jobs release, exactly
/// like `scontrol update state=drain`. [`PoolState::check_conservation`]
/// (`free + held == capacity`) holds at every instant throughout.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PoolState {
    /// Configured (static) capacity — the denominator of encoder layouts.
    /// Fields are `pub(crate)` for `crate::snapshot`, which persists and
    /// reconstructs this state verbatim (incl. drain debt).
    pub(crate) base_capacities: Vec<u64>,
    /// Current online capacity.
    pub(crate) capacities: Vec<u64>,
    pub(crate) free: Vec<u64>,
    /// Units scheduled for removal that are still held by running jobs.
    pub(crate) draining: Vec<u64>,
    pub(crate) running: Vec<Allocation>,
}

impl PoolState {
    /// Fresh, fully idle state.
    pub fn new(config: &SystemConfig) -> Self {
        let capacities = config.capacities();
        Self {
            base_capacities: capacities.clone(),
            free: capacities.clone(),
            draining: vec![0; capacities.len()],
            capacities,
            running: Vec::new(),
        }
    }

    /// Current online capacity of pool `r`.
    pub fn capacity(&self, r: usize) -> u64 {
        self.capacities[r]
    }

    /// Configured capacity of pool `r` (before any capacity changes).
    pub fn base_capacity(&self, r: usize) -> u64 {
        self.base_capacities[r]
    }

    /// Units of pool `r` pending removal (drain debt held by running jobs).
    pub fn draining(&self, r: usize) -> u64 {
        self.draining[r]
    }

    /// Apply a capacity change of `delta` units to pool `r`.
    ///
    /// Positive deltas first pay down drain debt (a return cancels a
    /// pending drain without any unit movement, because drained-but-held
    /// units never left `capacities`), then bring fresh units online.
    /// Negative deltas take free units immediately and park the excess as
    /// drain debt to be absorbed by future releases. A shrink is clamped
    /// to the units that actually remain after pending debt — otherwise
    /// an over-drain would record *phantom* debt that silently eats
    /// later returns.
    pub fn adjust_capacity(&mut self, r: usize, delta: i64) {
        if delta >= 0 {
            let mut add = delta as u64;
            let undrain = add.min(self.draining[r]);
            self.draining[r] -= undrain;
            add -= undrain;
            self.capacities[r] += add;
            self.free[r] += add;
        } else {
            let cut = delta.unsigned_abs().min(self.capacities[r] - self.draining[r]);
            let immediate = cut.min(self.free[r]);
            self.free[r] -= immediate;
            self.capacities[r] -= immediate;
            self.draining[r] += cut - immediate;
        }
        debug_assert!(self.check_conservation());
    }

    /// Free units of pool `r`.
    pub fn free(&self, r: usize) -> u64 {
        self.free[r]
    }

    /// Used units of pool `r`.
    pub fn used(&self, r: usize) -> u64 {
        self.capacities[r] - self.free[r]
    }

    /// Instantaneous utilization of pool `r` in `[0, 1]`.
    pub fn utilization(&self, r: usize) -> f64 {
        if self.capacities[r] == 0 {
            0.0
        } else {
            self.used(r) as f64 / self.capacities[r] as f64
        }
    }

    /// Utilization vector over all pools — the DFP *measurement*.
    pub fn measurement(&self) -> Vec<f64> {
        (0..self.capacities.len()).map(|r| self.utilization(r)).collect()
    }

    /// Number of pools.
    pub fn num_resources(&self) -> usize {
        self.capacities.len()
    }

    /// Does `demands` fit in the currently free units of every pool?
    pub fn fits(&self, demands: &[u64]) -> bool {
        demands.iter().zip(&self.free).all(|(d, f)| d <= f)
    }

    /// Currently running allocations (unsorted).
    pub fn running(&self) -> &[Allocation] {
        &self.running
    }

    /// Number of running jobs.
    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// Is the given job currently holding an allocation?
    pub fn is_running(&self, job: JobId) -> bool {
        self.running.iter().any(|a| a.job == job)
    }

    /// Allocate for a starting job.
    ///
    /// # Panics
    /// Panics if the job does not fit — callers must check [`fits`] first.
    ///
    /// [`fits`]: PoolState::fits
    pub fn allocate(&mut self, job: &Job, now: SimTime) {
        self.allocate_parts(job.id, &job.demands, now, job.estimate, job.runtime);
    }

    /// [`PoolState::allocate`] from unbundled fields — the simulator's
    /// slab-backed hot path, which has no `&Job` at hand.
    pub fn allocate_parts(
        &mut self,
        job: JobId,
        demands: &[u64],
        now: SimTime,
        estimate: SimTime,
        runtime: SimTime,
    ) {
        assert!(self.fits(demands), "allocate: job {job} does not fit");
        for (f, d) in self.free.iter_mut().zip(demands) {
            *f -= d;
        }
        self.running.push(Allocation {
            job,
            demands: demands.to_vec(),
            start: now,
            est_end: now + estimate,
            actual_end: now + runtime,
        });
    }

    /// Release the allocation of a finishing job, returning it. Freed
    /// units first pay down any pending drain debt before becoming
    /// available again.
    ///
    /// # Panics
    /// Panics if the job is not running.
    pub fn release(&mut self, job: JobId) -> Allocation {
        let idx = self
            .running
            .iter()
            .position(|a| a.job == job)
            .unwrap_or_else(|| panic!("release: job {job} is not running"));
        let alloc = self.running.swap_remove(idx);
        for (f, d) in self.free.iter_mut().zip(&alloc.demands) {
            *f += d;
        }
        for r in 0..self.capacities.len() {
            let absorb = self.draining[r].min(self.free[r]);
            if absorb > 0 {
                self.free[r] -= absorb;
                self.capacities[r] -= absorb;
                self.draining[r] -= absorb;
            }
        }
        debug_assert!(self.check_conservation());
        alloc
    }

    /// Per-unit `(available, estimated seconds until free)` encoding of
    /// pool `r` at time `now` — the state representation of §III-A.
    ///
    /// Free units come first as `(1.0, 0.0)`; occupied units follow in
    /// ascending estimated-release order (ties broken by job id) so the
    /// encoding is deterministic. If a running job has overstayed its
    /// estimate the remaining time clamps to zero.
    ///
    /// This is the reference layout: the state encoder writes the same
    /// pairs straight into its reused buffer and checks itself against
    /// this vector in its tests.
    pub fn unit_vector(&self, r: usize, now: SimTime) -> Vec<(f32, f32)> {
        let mut v = Vec::with_capacity(self.capacities[r] as usize);
        for _ in 0..self.free[r] {
            v.push((1.0, 0.0));
        }
        let mut occupied: Vec<(SimTime, JobId, u64)> = self
            .running
            .iter()
            .filter(|a| a.demands[r] > 0)
            .map(|a| (a.est_end, a.job, a.demands[r]))
            .collect();
        occupied.sort_unstable();
        for (est_end, _, units) in occupied {
            let remaining = est_end.saturating_sub(now) as f32;
            for _ in 0..units {
                v.push((0.0, remaining));
            }
        }
        debug_assert_eq!(v.len() as u64, self.capacities[r]);
        v
    }

    /// Estimated free units of pool `r` at future time `t`, assuming every
    /// running job releases at its *estimated* end and nothing new starts.
    /// Pending drain debt is honored: freed units are absorbed by the
    /// drain before becoming available, exactly as [`PoolState::release`]
    /// will do.
    pub fn projected_free(&self, r: usize, t: SimTime) -> u64 {
        let mut free = self.free[r];
        for a in &self.running {
            if a.est_end <= t {
                free += a.demands[r];
            }
        }
        free.saturating_sub(self.draining[r])
    }

    /// Internal consistency check: free + Σ running demands == capacity
    /// for every pool. Used by tests and debug assertions.
    pub fn check_conservation(&self) -> bool {
        (0..self.capacities.len()).all(|r| {
            let held: u64 = self.running.iter().map(|a| a.demands[r]).sum();
            self.free[r] + held == self.capacities[r]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: JobId, runtime: SimTime, est: SimTime, demands: Vec<u64>) -> Job {
        Job::new(id, 0, runtime, est, demands)
    }

    #[test]
    fn theta_state_vector_size_matches_paper() {
        // §IV-C: [4W + 2*N1 + 2*N2, 1] = [11410, 1] with W = 10.
        let cfg = SystemConfig::theta();
        let w = 10;
        let n1 = cfg.resources[0].capacity as usize;
        let n2 = cfg.resources[1].capacity as usize;
        assert_eq!(4 * w + 2 * n1 + 2 * n2, 11410);
    }

    #[test]
    fn allocate_release_conserves_units() {
        let cfg = SystemConfig::two_resource(10, 5);
        let mut pools = PoolState::new(&cfg);
        let j = job(0, 100, 120, vec![4, 2]);
        assert!(pools.fits(&j.demands));
        pools.allocate(&j, 0);
        assert_eq!(pools.free(0), 6);
        assert_eq!(pools.free(1), 3);
        assert!(pools.check_conservation());
        let alloc = pools.release(0);
        assert_eq!(alloc.est_end, 120);
        assert_eq!(alloc.actual_end, 100);
        assert_eq!(pools.free(0), 10);
        assert!(pools.check_conservation());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn over_allocate_panics() {
        let cfg = SystemConfig::two_resource(2, 2);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 10, 10, vec![3, 0]), 0);
    }

    #[test]
    fn utilization_and_measurement() {
        let cfg = SystemConfig::two_resource(10, 4);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 10, 10, vec![5, 1]), 0);
        assert!((pools.utilization(0) - 0.5).abs() < 1e-12);
        assert!((pools.utilization(1) - 0.25).abs() < 1e-12);
        assert_eq!(pools.measurement(), vec![0.5, 0.25]);
    }

    #[test]
    fn unit_vector_orders_by_release_time() {
        let cfg = SystemConfig::two_resource(4, 2);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 50, 60, vec![1, 0]), 0);
        pools.allocate(&job(1, 20, 30, vec![2, 0]), 0);
        let v = pools.unit_vector(0, 10);
        // 1 free unit, then job1's 2 units (est release 30-10=20), then job0's.
        assert_eq!(v[0], (1.0, 0.0));
        assert_eq!(v[1], (0.0, 20.0));
        assert_eq!(v[2], (0.0, 20.0));
        assert_eq!(v[3], (0.0, 50.0));
    }

    #[test]
    fn unit_vector_clamps_overstayed_estimates() {
        let cfg = SystemConfig::two_resource(1, 1);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 100, 10, vec![1, 1]), 0);
        // estimate = max(10, runtime) = 100 per Job::new; craft manually:
        let v = pools.unit_vector(0, 500);
        assert_eq!(v[0].1, 0.0, "past-estimate remaining time clamps to 0");
    }

    #[test]
    fn projected_free_uses_estimates() {
        let cfg = SystemConfig::two_resource(4, 4);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 100, 100, vec![3, 0]), 0); // est end 100
        assert_eq!(pools.projected_free(0, 50), 1);
        assert_eq!(pools.projected_free(0, 100), 4);
    }

    #[test]
    fn projected_free_honors_pending_drain_debt() {
        let cfg = SystemConfig::two_resource(10, 4);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 100, 100, vec![8, 0]), 0); // free = 2
        pools.adjust_capacity(0, -6); // 2 removed now, 4 parked as debt
        // At the release, the 8 freed units first pay the 4-unit debt:
        // only 4 are actually available.
        assert_eq!(pools.projected_free(0, 100), 4);
        assert_eq!(pools.projected_free(0, 50), 0, "debt exceeds current free");
    }

    #[test]
    fn validate_job_catches_mismatches() {
        let cfg = SystemConfig::two_resource(4, 4);
        assert!(cfg.validate_job(&job(0, 1, 1, vec![1, 1])).is_ok());
        assert!(cfg.validate_job(&job(1, 1, 1, vec![1])).is_err());
        assert!(cfg.validate_job(&job(2, 1, 1, vec![5, 0])).is_err());
    }

    #[test]
    fn named_configs() {
        assert_eq!(SystemConfig::theta().capacities(), vec![4392, 1293]);
        assert_eq!(SystemConfig::three_resource(8, 4, 500).num_resources(), 3);
    }

    #[test]
    fn capacity_shrink_takes_free_units_immediately() {
        let cfg = SystemConfig::two_resource(10, 4);
        let mut pools = PoolState::new(&cfg);
        pools.adjust_capacity(0, -3);
        assert_eq!(pools.capacity(0), 7);
        assert_eq!(pools.free(0), 7);
        assert_eq!(pools.draining(0), 0);
        assert_eq!(pools.base_capacity(0), 10);
        assert!(pools.check_conservation());
    }

    #[test]
    fn capacity_shrink_beyond_free_becomes_drain_debt() {
        let cfg = SystemConfig::two_resource(10, 4);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 100, 100, vec![8, 0]), 0);
        // Only 2 free: a 5-unit drain removes 2 now, parks 3 as debt.
        pools.adjust_capacity(0, -5);
        assert_eq!(pools.capacity(0), 8);
        assert_eq!(pools.free(0), 0);
        assert_eq!(pools.draining(0), 3);
        assert!(pools.check_conservation());
        // The release pays the debt before freeing units.
        pools.release(0);
        assert_eq!(pools.capacity(0), 5);
        assert_eq!(pools.free(0), 5);
        assert_eq!(pools.draining(0), 0);
        assert!(pools.check_conservation());
    }

    #[test]
    fn capacity_return_cancels_drain_debt_first() {
        let cfg = SystemConfig::two_resource(10, 4);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 100, 100, vec![9, 0]), 0);
        pools.adjust_capacity(0, -4); // 1 free removed, 3 parked
        assert_eq!(pools.draining(0), 3);
        // Returning 4 units: 3 cancel the debt (no unit movement), 1 fresh.
        pools.adjust_capacity(0, 4);
        assert_eq!(pools.draining(0), 0);
        assert_eq!(pools.capacity(0), 10);
        assert_eq!(pools.free(0), 1);
        assert!(pools.check_conservation());
        pools.release(0);
        assert_eq!(pools.free(0), 10);
        assert!(pools.check_conservation());
    }

    #[test]
    fn over_drain_clamps_instead_of_recording_phantom_debt() {
        // Idle 10-unit pool: a -20 drain can only remove the 10 units
        // that exist; a +10 return must restore full capacity.
        let cfg = SystemConfig::two_resource(10, 4);
        let mut pools = PoolState::new(&cfg);
        pools.adjust_capacity(0, -20);
        assert_eq!(pools.capacity(0), 0);
        assert_eq!(pools.draining(0), 0, "no phantom debt");
        pools.adjust_capacity(0, 10);
        assert_eq!(pools.capacity(0), 10);
        assert_eq!(pools.free(0), 10);
        // With held units: 8 held, -20 drain = 2 immediate + 8 debt max.
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 10, 10, vec![8, 0]), 0);
        pools.adjust_capacity(0, -20);
        assert_eq!(pools.capacity(0), 8);
        assert_eq!(pools.draining(0), 8, "debt capped at held units");
        pools.release(0);
        assert_eq!(pools.capacity(0), 0);
        pools.adjust_capacity(0, 10);
        assert_eq!(pools.capacity(0), 10);
        assert!(pools.check_conservation());
    }

    #[test]
    fn measurement_normalizes_by_current_capacity() {
        let cfg = SystemConfig::two_resource(8, 4);
        let mut pools = PoolState::new(&cfg);
        pools.allocate(&job(0, 10, 10, vec![4, 0]), 0);
        assert_eq!(pools.measurement()[0], 0.5);
        pools.adjust_capacity(0, -2); // 8 -> 6 online, 4 still used
        assert!((pools.measurement()[0] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn is_running_tracks_allocations() {
        let cfg = SystemConfig::two_resource(4, 4);
        let mut pools = PoolState::new(&cfg);
        assert!(!pools.is_running(0));
        pools.allocate(&job(0, 10, 10, vec![1, 0]), 0);
        assert!(pools.is_running(0));
        pools.release(0);
        assert!(!pools.is_running(0));
    }
}
