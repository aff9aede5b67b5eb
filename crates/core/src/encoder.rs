//! Vector state encoding (§III-A, sized per §IV-C).
//!
//! The state is a fixed-size vector concatenating:
//!
//! 1. **Window jobs** — `W` slots of `R + 2` elements each: the job's
//!    demand for every resource as a fraction of capacity (`P_ij`), its
//!    user-estimated runtime, and its queued time (both normalized by a
//!    time scale). Empty slots are zero.
//! 2. **Resource units** — for every unit of every pool, a pair
//!    `(available?, normalized time-until-free)` in ascending
//!    release-time order.
//!
//! For the paper's Theta configuration (`W = 10`, 4392 nodes, 1293 BB
//! units) this yields `(2+2)·10 + 2·4392 + 2·1293 = 11410`, matching the
//! published input size.

use mrsim::policy::SchedulerView;
use mrsim::resources::SystemConfig;
use serde::{Deserialize, Serialize};

/// Encoder of [`SchedulerView`]s into fixed-size `f32` vectors.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StateEncoder {
    config: SystemConfig,
    window: usize,
    /// Seconds corresponding to 1.0 in encoded time features.
    time_scale: f32,
}

impl StateEncoder {
    /// Build an encoder for a system and window size. Times are
    /// normalized by `time_scale` seconds (1 h is a sensible default for
    /// HPC traces; see [`StateEncoder::with_hour_scale`]).
    pub fn new(config: SystemConfig, window: usize, time_scale: f32) -> Self {
        assert!(window > 0, "StateEncoder: window must be positive");
        assert!(time_scale > 0.0, "StateEncoder: time scale must be positive");
        // `encode_into` carries a job's unit count through an f32.
        assert!(
            config.resources.iter().all(|r| r.capacity <= 1 << 24),
            "StateEncoder: a pool of more than 2^24 units cannot be encoded"
        );
        Self { config, window, time_scale }
    }

    /// Encoder with times in hours.
    pub fn with_hour_scale(config: SystemConfig, window: usize) -> Self {
        Self::new(config, window, 3600.0)
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total encoded dimension:
    /// `W·(R+2) + 2·Σ_r capacity_r`.
    pub fn state_dim(&self) -> usize {
        let r = self.config.num_resources();
        let units: u64 = self.config.capacities().iter().sum();
        self.window * (r + 2) + 2 * units as usize
    }

    /// Encode a scheduler view into a fresh vector of length (and
    /// capacity) [`StateEncoder::state_dim`]. Callers that encode every
    /// decision keep one buffer and use [`StateEncoder::encode_into`].
    pub fn encode(&self, view: &SchedulerView<'_>) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.state_dim());
        self.encode_into(view, &mut out);
        // Over-provisioned units are written before they are truncated,
        // which can grow the buffer; a stored state keeps only its
        // `state_dim` values.
        out.shrink_to_fit();
        out
    }

    /// Encode a scheduler view into `out`, replacing its contents. On
    /// return `out.len()` is [`StateEncoder::state_dim`]; a buffer
    /// reused across decisions stops allocating once it has grown.
    pub fn encode_into(&self, view: &SchedulerView<'_>, out: &mut Vec<f32>) {
        let resources = &self.config.resources;
        out.clear();
        // 1. Window jobs.
        for slot in 0..self.window {
            if let Some(jv) = view.window.get(slot) {
                for (res, spec) in resources.iter().enumerate() {
                    out.push(jv.job.demand_fraction(res, spec.capacity) as f32);
                }
                out.push(jv.job.estimate as f32 / self.time_scale);
                out.push(jv.queued as f32 / self.time_scale);
            } else {
                out.extend(std::iter::repeat_n(0.0, resources.len() + 2));
            }
        }
        // 2. Per-unit resource availability, in three runs per pool: the
        // free units as (1, 0), then each running job's units as
        // (0, time-until-free) in ascending estimated-release order, then
        // drained units as (-1, 0) up to the configured capacity, so the
        // network input size never changes. Units beyond the configured
        // capacity (a temporary over-provision) are truncated. A job that
        // overstayed its estimate has time-until-free 0.
        for (res, spec) in resources.iter().enumerate() {
            let end = out.len() + 2 * spec.capacity as usize;
            push_pairs(out, [1.0, 0.0], view.pools.free(res));
            // One (time-until-free, units) pair per job holding this pool,
            // sorted by time-until-free. It is monotone in the estimated
            // end, so this is the release order; equal times write equal
            // pairs, so ties need no job-id key. A job holds at most the
            // configured capacity, so its unit count is exact in an f32
            // (`new` checks capacities against 2^24).
            let busy = out.len();
            for a in view.pools.running() {
                if a.demands[res] > 0 {
                    let remaining = a.est_end.saturating_sub(view.now) as f32;
                    out.extend([remaining / self.time_scale, a.demands[res] as f32]);
                }
            }
            let jobs = (out.len() - busy) / 2;
            out[busy..].as_chunks_mut::<2>().0.sort_unstable_by(|a, b| a[0].total_cmp(&b[0]));
            // Expand each job into its units in place, back to front: the
            // units of job `i` start at or after unit `i` (every job
            // holds at least one), so no job pair is overwritten before
            // it is read.
            out.resize(busy + 2 * view.pools.used(res) as usize, 0.0);
            let mut w = out.len();
            for i in (0..jobs).rev() {
                let (ttf, units) = (out[busy + 2 * i], out[busy + 2 * i + 1] as usize);
                for _ in 0..units {
                    w -= 2;
                    out[w..w + 2].copy_from_slice(&[0.0, ttf]);
                }
            }
            debug_assert_eq!(w, busy, "held units != used units");
            out.truncate(end);
            push_pairs(out, [-1.0, 0.0], ((end - out.len()) / 2) as u64);
        }
        debug_assert_eq!(out.len(), self.state_dim());
    }

    /// Validity mask over window slots: `true` where a waiting job exists.
    pub fn valid_actions(&self, view: &SchedulerView<'_>) -> Vec<bool> {
        (0..self.window).map(|i| i < view.window.len()).collect()
    }
}

/// Append `count` copies of one `(first, second)` unit pair.
fn push_pairs(out: &mut Vec<f32>, pair: [f32; 2], count: u64) {
    out.extend(std::iter::repeat_n(pair, count as usize).flatten());
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsim::job::Job;
    use mrsim::policy::JobView;
    use mrsim::resources::PoolState;
    use mrsim::simulator::{SimParams, Simulator};

    /// Capture one view via a probe policy and run `f` on it.
    fn with_view<Ret>(
        system: SystemConfig,
        jobs: Vec<Job>,
        f: impl FnOnce(&SchedulerView<'_>) -> Ret + 'static,
    ) -> Ret {
        struct Probe<F, Ret> {
            f: Option<F>,
            out: Option<Ret>,
        }
        impl<F: FnOnce(&SchedulerView<'_>) -> Ret, Ret> mrsim::policy::Policy for Probe<F, Ret> {
            fn select(&mut self, view: &SchedulerView<'_>) -> Option<usize> {
                if let Some(f) = self.f.take() {
                    self.out = Some(f(view));
                }
                // Behave like FCFS afterwards so the run terminates.
                (!view.window.is_empty()).then_some(0)
            }
        }
        let mut probe = Probe { f: Some(f), out: None };
        let mut sim = Simulator::new(system, jobs, SimParams::default()).unwrap();
        sim.run(&mut probe);
        probe.out.expect("probe never invoked")
    }

    #[test]
    fn theta_dimension_matches_paper() {
        let enc = StateEncoder::with_hour_scale(SystemConfig::theta(), 10);
        assert_eq!(enc.state_dim(), 11410);
    }

    #[test]
    fn encoded_length_always_state_dim() {
        let system = SystemConfig::two_resource(8, 4);
        let enc = StateEncoder::with_hour_scale(system.clone(), 5);
        let jobs = vec![
            Job::new(0, 0, 3600, 7200, vec![4, 2]),
            Job::new(1, 0, 1800, 1800, vec![8, 0]),
        ];
        let dim = enc.state_dim();
        let v = with_view(system, jobs, move |view| enc.encode(view));
        assert_eq!(v.len(), dim);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn job_slots_encode_fraction_estimate_queued() {
        let system = SystemConfig::two_resource(8, 4);
        let enc = StateEncoder::with_hour_scale(system.clone(), 3);
        let jobs = vec![Job::new(0, 0, 3600, 7200, vec![4, 1])];
        let v = with_view(system, jobs, move |view| enc.encode(view));
        // Slot 0: P = (0.5, 0.25), estimate 2h, queued 0h.
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert!((v[1] - 0.25).abs() < 1e-6);
        assert!((v[2] - 2.0).abs() < 1e-6);
        assert!((v[3] - 0.0).abs() < 1e-6);
        // Slot 1 is empty.
        assert!(v[4..8].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn idle_units_encode_available() {
        let system = SystemConfig::two_resource(4, 2);
        let enc = StateEncoder::with_hour_scale(system.clone(), 2);
        let jobs = vec![Job::new(0, 0, 60, 60, vec![1, 1])];
        let v = with_view(system, jobs, move |view| enc.encode(view));
        // With an empty system at the first decision, every unit is
        // (1.0, 0.0). Units start after 2 slots * 4 elems = 8.
        let units = &v[8..];
        assert_eq!(units.len(), 2 * (4 + 2));
        for pair in units.chunks(2) {
            assert_eq!(pair[0], 1.0);
            assert_eq!(pair[1], 0.0);
        }
    }

    #[test]
    fn valid_actions_mask_matches_window_fill() {
        let system = SystemConfig::two_resource(4, 4);
        let enc = StateEncoder::with_hour_scale(system.clone(), 4);
        let jobs = vec![
            Job::new(0, 0, 60, 60, vec![4, 0]),
            Job::new(1, 0, 60, 60, vec![4, 0]),
            Job::new(2, 0, 60, 60, vec![4, 0]),
        ];
        // First decision sees all 3 queued jobs in a window of 4.
        let mask = with_view(system, jobs, move |view| enc.valid_actions(view));
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn drained_units_encode_as_markers_with_fixed_dim() {
        let system = SystemConfig::two_resource(4, 2);
        let enc = StateEncoder::with_hour_scale(system.clone(), 2);
        let dim = enc.state_dim();
        let mut pools = PoolState::new(&system);
        pools.adjust_capacity(0, -2); // drain half the nodes
        let jobs: Vec<Job> = vec![];
        let queued: Vec<usize> = vec![];
        let view = SchedulerView {
            now: 0,
            instance: 0,
            decision: 0,
            window: vec![],
            pools: &pools,
            config: &system,
            queued: &queued,
            jobs: &jobs,
        };
        let v = enc.encode(&view);
        assert_eq!(v.len(), dim, "state dimension is capacity-invariant");
        // Units start after 2 slots * 4 elems = 8: two online node units,
        // then two drained markers.
        assert_eq!(&v[8..16], &[1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 0.0]);
    }

    /// The encoder as it was written before `encode_into`: one
    /// `PoolState::unit_vector` per pool, laid over the configured
    /// capacity. `encode_into` must reproduce it bit for bit.
    fn encode_oracle(enc: &StateEncoder, view: &SchedulerView<'_>) -> Vec<f32> {
        let r = enc.config.num_resources();
        let caps = enc.config.capacities();
        let mut out = Vec::with_capacity(enc.state_dim());
        for slot in 0..enc.window {
            if let Some(jv) = view.window.get(slot) {
                for (res, &cap) in caps.iter().enumerate() {
                    out.push(jv.job.demand_fraction(res, cap) as f32);
                }
                out.push(jv.job.estimate as f32 / enc.time_scale);
                out.push(jv.queued as f32 / enc.time_scale);
            } else {
                out.extend(std::iter::repeat_n(0.0, r + 2));
            }
        }
        for (res, &cap) in caps.iter().enumerate() {
            let units = view.pools.unit_vector(res, view.now);
            for slot in 0..cap as usize {
                match units.get(slot) {
                    Some(&(avail, ttf)) => {
                        out.push(avail);
                        out.push(ttf / enc.time_scale);
                    }
                    None => {
                        out.push(-1.0);
                        out.push(0.0);
                    }
                }
            }
        }
        out
    }

    /// A random live pool state: jobs started at random times with
    /// random estimates, some released, capacity drained below and
    /// returned above the configured size. Returns the state, the job
    /// table (for window views) and the latest start time.
    fn random_pools(system: &SystemConfig, seed: u64) -> (PoolState, Vec<Job>, u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pools = PoolState::new(system);
        let mut jobs = Vec::new();
        let mut now = 0u64;
        for _ in 0..rng.gen_range(0..40usize) {
            now += rng.gen_range(0..600u64);
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let demands: Vec<u64> = (0..system.num_resources())
                        .map(|r| rng.gen_range(0..=pools.free(r).min(5)))
                        .collect();
                    let runtime = rng.gen_range(1..5_000u64);
                    let estimate = runtime + rng.gen_range(0..5_000u64);
                    let job = Job::new(jobs.len(), now, runtime, estimate, demands);
                    pools.allocate(&job, now);
                    jobs.push(job);
                }
                2 => {
                    let running = pools.running();
                    if !running.is_empty() {
                        let id = running[rng.gen_range(0..running.len())].job;
                        pools.release(id);
                    }
                }
                _ => {
                    let r = rng.gen_range(0..system.num_resources());
                    pools.adjust_capacity(r, rng.gen_range(-4..=4i64));
                }
            }
        }
        (pools, jobs, now)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// `encode_into` equals the `unit_vector` oracle over random pool
        /// states — drained below and over-provisioned above the
        /// configured capacity, jobs past their estimate (`now` runs up
        /// to 20 000 s beyond the last start), empty and full windows —
        /// with one buffer reused across every view, including a first
        /// use by a larger encoder.
        #[test]
        fn encode_into_matches_unit_vector_oracle(
            nodes in 1u64..24,
            bb in 0u64..8,
            power in 0u64..6,
            window in 1usize..6,
            seed in 0u64..1_000_000,
            overstay in 0u64..20_000,
        ) {
            let system = if power == 0 {
                SystemConfig::two_resource(nodes, bb)
            } else {
                SystemConfig::three_resource(nodes, bb, power)
            };
            let enc = StateEncoder::with_hour_scale(system.clone(), window);
            let (pools, jobs, last_start) = random_pools(&system, seed);
            let now = last_start + overstay;
            let queued: Vec<usize> = (0..jobs.len()).collect();
            let mut buf = Vec::new();
            let big = SystemConfig::two_resource(64, 64);
            StateEncoder::with_hour_scale(big.clone(), 8).encode_into(
                &SchedulerView {
                    now,
                    instance: 0,
                    decision: 0,
                    window: vec![],
                    pools: &PoolState::new(&big),
                    config: &big,
                    queued: &[],
                    jobs: &[],
                },
                &mut buf,
            );
            for depth in [0, 1, window, jobs.len()] {
                let view = SchedulerView {
                    now,
                    instance: 0,
                    decision: depth as u64,
                    window: jobs
                        .iter()
                        .take(depth)
                        .map(|job| JobView { job, queued: now - job.submit })
                        .collect(),
                    pools: &pools,
                    config: &system,
                    queued: &queued,
                    jobs: &jobs,
                };
                let want = encode_oracle(&enc, &view);
                enc.encode_into(&view, &mut buf);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&buf), bits(&want), "depth {}", depth);
                let fresh = enc.encode(&view);
                proptest::prop_assert_eq!(fresh.capacity(), enc.state_dim());
                proptest::prop_assert_eq!(bits(&fresh), bits(&want));
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        StateEncoder::with_hour_scale(SystemConfig::two_resource(2, 2), 0);
    }

    #[test]
    #[should_panic(expected = "more than 2^24 units")]
    fn oversized_pool_rejected() {
        StateEncoder::with_hour_scale(SystemConfig::two_resource((1 << 24) + 1, 2), 2);
    }

    #[test]
    fn three_resource_encoding_has_extra_slot_and_unit_features() {
        let system = SystemConfig::three_resource(4, 2, 3);
        let enc = StateEncoder::with_hour_scale(system.clone(), 2);
        // W*(R+2) + 2*(4+2+3) = 2*5 + 18 = 28.
        assert_eq!(enc.state_dim(), 28);
        let jobs = vec![Job::new(0, 0, 3600, 3600, vec![2, 1, 1])];
        let v = with_view(system, jobs, move |view| enc.encode(view));
        assert_eq!(v.len(), 28);
        // Slot 0 demand fractions: 0.5, 0.5, 1/3.
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert!((v[1] - 0.5).abs() < 1e-6);
        assert!((v[2] - 1.0 / 3.0).abs() < 1e-6);
    }
}
