//! Reservation and EASY backfilling (§II-A, §III-C of the paper).
//!
//! When the selected job cannot start, the scheduler *reserves* it: it
//! computes the earliest future time (the **shadow time**) at which the
//! job will fit, assuming running jobs release their resources at their
//! user-estimated end times. Waiting jobs behind the reservation may then
//! *backfill* onto currently free resources provided they cannot delay the
//! reservation: either they finish (by estimate) before the shadow time,
//! or they only consume units that remain spare even after the reserved
//! job starts.
//!
//! # Cost of one pass
//!
//! A pass (`Simulator::backfill_pass`) starts candidates one at a time,
//! in queue order. It costs O(running · log running) per
//! started candidate for the plan ([`compute_reservation`]: one sort of
//! the estimated releases, then one accumulating walk) plus the queue
//! query of [`crate::queue::WaitQueue::first_match`], which looks only at
//! size classes that could fit the free units — not O(queue) per start.
//! Three facts keep that equal to "recompute everything and rescan from
//! the queue head after every start":
//!
//! * **Within a pass nothing un-rejects.** `now` is fixed. A started
//!   candidate either releases by the shadow time or fits inside
//!   `extra`, so the reserved job still fits at the shadow time and at
//!   no earlier one: the shadow time does not move, and `free` and
//!   `extra` only shrink. A candidate rejected once — does not fit, or
//!   fits but would outlast the shadow on more than `extra`, or would
//!   outlast the scheduled capacity return, which is fixed too — stays
//!   rejected, so the sweep resumes behind the job it just started.
//! * **A saturated pool ends the pass.** When some pool has fewer free
//!   units than the smallest demand any job of the trace places on it,
//!   nothing can start, whatever the plan says.
//! * **No memo across passes.** "Only look at arrivals since the last
//!   pass" is wrong whenever a running job overstays its estimate:
//!   `extra` grows as `now` passes an `est_end`, with no release event
//!   to invalidate the memo on. Every pass starts from the queue head.

use crate::resources::PoolState;
use crate::SimTime;

/// The reservation computed for a job that could not start immediately.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReservationPlan {
    /// Earliest time the reserved job fits, assuming estimated releases.
    pub shadow: SimTime,
    /// Per-resource spare units at the shadow time *after* the reserved
    /// job starts — the "extra" capacity long-running backfill jobs may
    /// consume without delaying the reservation.
    pub extra: Vec<u64>,
}

/// Compute the reservation plan for a job demanding `demands` against
/// the current pool state.
///
/// Candidate shadow times are `now` plus every distinct estimated release
/// time of a running allocation (overdue estimates count as `now`); the
/// earliest candidate where the job's full demand fits is chosen. Pending
/// drain debt is honored: freed units are absorbed by the drain before
/// becoming available, exactly as [`PoolState::release`] will do.
/// Returns `None` when no candidate fits — which can only happen while
/// capacity is drained below the job's demand (static validation
/// guarantees a fit at full capacity). The reservation then waits for a
/// capacity-return event to re-trigger scheduling; see
/// `Simulator::backfill_pass` for how backfilling proceeds without a
/// shadow time.
pub fn compute_reservation(
    pools: &PoolState,
    demands: &[u64],
    now: SimTime,
) -> Option<ReservationPlan> {
    let mut releases: Vec<(SimTime, &[u64])> = pools
        .running()
        .iter()
        .map(|a| (a.est_end.max(now), a.demands.as_slice()))
        .collect();
    releases.sort_unstable_by_key(|&(t, _)| t);
    let nres = pools.num_resources();
    // Units free at the candidate time, before drain debt is paid.
    let mut freed = pools.free.clone();
    let mut releases = releases.into_iter().peekable();
    let mut shadow = now;
    loop {
        while let Some((_, held)) = releases.next_if(|&(t, _)| t == shadow) {
            for (f, h) in freed.iter_mut().zip(held) {
                *f += h;
            }
        }
        let spare = |r: usize| freed[r].saturating_sub(pools.draining(r));
        if (0..nres).all(|r| spare(r) >= demands[r]) {
            let extra = (0..nres).map(|r| spare(r) - demands[r]).collect();
            return Some(ReservationPlan { shadow, extra });
        }
        shadow = releases.peek()?.0;
    }
}

/// May `candidate` backfill right now without delaying the reservation?
///
/// EASY rule, generalized to multiple resources:
/// 1. the candidate must fit in the currently free units of every pool;
/// 2. *and* either it is estimated to finish no later than the shadow
///    time, or its demand fits within the plan's per-resource `extra`
///    units (so the reserved job can still start on time even if the
///    candidate runs long).
pub fn can_backfill(
    plan: &ReservationPlan,
    pools: &PoolState,
    demands: &[u64],
    estimate: SimTime,
    now: SimTime,
) -> bool {
    if !pools.fits(demands) {
        return false;
    }
    if now + estimate <= plan.shadow {
        return true;
    }
    demands.iter().zip(&plan.extra).all(|(d, e)| d <= e)
}

/// The pre-index planner, kept as the oracle the tests compare against:
/// every candidate time re-derives every pool's projected free units
/// from scratch ([`PoolState::projected_free`]), O(running²).
#[cfg(test)]
pub(crate) fn compute_reservation_reference(
    pools: &PoolState,
    demands: &[u64],
    now: SimTime,
) -> Option<ReservationPlan> {
    let nres = pools.num_resources();
    let mut candidates: Vec<SimTime> = vec![now];
    candidates.extend(pools.running().iter().map(|a| a.est_end.max(now)));
    candidates.sort_unstable();
    candidates.dedup();
    for &t in &candidates {
        let fits = (0..nres).all(|r| pools.projected_free(r, t) >= demands[r]);
        if fits {
            let extra = (0..nres)
                .map(|r| pools.projected_free(r, t) - demands[r])
                .collect();
            return Some(ReservationPlan { shadow: t, extra });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::resources::SystemConfig;

    fn setup() -> (SystemConfig, PoolState) {
        let cfg = SystemConfig::two_resource(10, 10);
        let pools = PoolState::new(&cfg);
        (cfg, pools)
    }

    fn job(id: usize, runtime: SimTime, est: SimTime, demands: Vec<u64>) -> Job {
        Job::new(id, 0, runtime, est, demands)
    }

    #[test]
    fn shadow_is_now_when_fits_immediately() {
        let (_, pools) = setup();
        let j = job(0, 10, 10, vec![5, 5]);
        let plan = compute_reservation(&pools, &j.demands, 100).unwrap();
        assert_eq!(plan.shadow, 100);
        assert_eq!(plan.extra, vec![5, 5]);
    }

    #[test]
    fn shadow_waits_for_earliest_sufficient_release() {
        let (_, mut pools) = setup();
        // Two running jobs: one frees 4 nodes at t=50, another 4 at t=80.
        pools.allocate(&job(0, 50, 50, vec![4, 0]), 0);
        pools.allocate(&job(1, 80, 80, vec![4, 0]), 0);
        // Reserved job needs 8 nodes; free now = 2; after t=50 -> 6; after t=80 -> 10.
        let reserved = job(2, 100, 100, vec![8, 0]);
        let plan = compute_reservation(&pools, &reserved.demands, 10).unwrap();
        assert_eq!(plan.shadow, 80);
        assert_eq!(plan.extra, vec![2, 10]);
    }

    #[test]
    fn short_job_backfills_ahead_of_shadow() {
        let (_, mut pools) = setup();
        pools.allocate(&job(0, 100, 100, vec![9, 0]), 0);
        let reserved = job(1, 50, 50, vec![5, 0]);
        let plan = compute_reservation(&pools, &reserved.demands, 0).unwrap();
        assert_eq!(plan.shadow, 100);
        // 1 node free; a 1-node job estimated at 60s finishes before t=100.
        let shortie = job(2, 60, 60, vec![1, 0]);
        assert!(can_backfill(&plan, &pools, &shortie.demands, shortie.estimate, 0));
    }

    #[test]
    fn long_job_blocked_unless_it_fits_in_extra() {
        let (_, mut pools) = setup();
        pools.allocate(&job(0, 100, 100, vec![9, 0]), 0);
        let reserved = job(1, 50, 50, vec![5, 0]);
        let plan = compute_reservation(&pools, &reserved.demands, 0).unwrap();
        // extra = projected_free(100) - 5 = 10 - 5 = 5 nodes.
        assert_eq!(plan.extra[0], 5);
        // 1-node job running past shadow: 1 <= extra, may backfill.
        let long_small = job(2, 500, 500, vec![1, 0]);
        assert!(can_backfill(&plan, &pools, &long_small.demands, long_small.estimate, 0));
        // But it must also fit NOW: only 1 node free, so 2-node job cannot.
        let long_big = job(3, 500, 500, vec![2, 0]);
        assert!(!can_backfill(&plan, &pools, &long_big.demands, long_big.estimate, 0));
    }

    #[test]
    fn backfill_respects_every_resource() {
        let (_, mut pools) = setup();
        // 5 nodes and all 10 BB are held until t=100.
        pools.allocate(&job(0, 100, 100, vec![5, 10]), 0);
        let reserved = job(1, 10, 10, vec![10, 0]);
        let plan = compute_reservation(&pools, &reserved.demands, 0).unwrap();
        assert_eq!(plan.shadow, 100);
        // Candidate fits node-wise but needs BB that is not free.
        let bb_hungry = job(2, 10, 10, vec![1, 1]);
        assert!(!can_backfill(&plan, &pools, &bb_hungry.demands, bb_hungry.estimate, 0));
        // Pure-CPU candidate of estimate 50 <= shadow backfills.
        let cpu_only = job(3, 50, 50, vec![1, 0]);
        assert!(can_backfill(&plan, &pools, &cpu_only.demands, cpu_only.estimate, 0));
    }

    #[test]
    fn delaying_candidate_is_rejected() {
        let (_, mut pools) = setup();
        pools.allocate(&job(0, 40, 40, vec![6, 0]), 0);
        // Reserved needs 8 nodes -> shadow at t=40, extra = 10-8 = 2.
        let reserved = job(1, 10, 10, vec![8, 0]);
        let plan = compute_reservation(&pools, &reserved.demands, 0).unwrap();
        assert_eq!(plan.shadow, 40);
        // 4-node candidate estimated to run 100s: fits now (4 free) but
        // would hold 4 > extra=2 nodes at the shadow time -> rejected.
        let delayer = job(2, 100, 100, vec![4, 0]);
        assert!(!can_backfill(&plan, &pools, &delayer.demands, delayer.estimate, 0));
    }

    #[test]
    fn no_plan_while_drain_debt_pends() {
        let (_, mut pools) = setup();
        pools.allocate(&job(0, 100, 100, vec![8, 0]), 0); // free = 2
        // Drain 6: 2 removed immediately, 4 parked as debt. After the
        // release absorbs the debt only 4 nodes exist — a 6-node job has
        // no shadow time until capacity returns.
        pools.adjust_capacity(0, -6);
        let reserved = job(1, 10, 10, vec![6, 0]);
        assert_eq!(compute_reservation(&pools, &reserved.demands, 0), None);
        // A 4-node job fits at the (post-absorption) release.
        let smaller = job(2, 10, 10, vec![4, 0]);
        let plan = compute_reservation(&pools, &smaller.demands, 0).unwrap();
        assert_eq!(plan.shadow, 100);
        assert_eq!(plan.extra, vec![0, 10]);
    }

    #[test]
    fn no_plan_when_capacity_drained_below_demand() {
        let (_, mut pools) = setup();
        // Drain 6 of 10 nodes: a 8-node job can never fit until they return.
        pools.adjust_capacity(0, -6);
        let reserved = job(0, 10, 10, vec![8, 0]);
        assert_eq!(compute_reservation(&pools, &reserved.demands, 0), None);
        // A job within the shrunken capacity still gets a plan.
        let small = job(1, 10, 10, vec![4, 0]);
        assert!(compute_reservation(&pools, &small.demands, 0).is_some());
    }

    #[test]
    fn shadow_clamps_past_estimates_to_now() {
        let (_, mut pools) = setup();
        pools.allocate(&job(0, 10, 10, vec![10, 0]), 0);
        // Ask at t=50, well past the allocation's est_end=10 (overstayed).
        let reserved = job(1, 10, 10, vec![10, 0]);
        let plan = compute_reservation(&pools, &reserved.demands, 50).unwrap();
        assert_eq!(plan.shadow, 50, "overdue releases count as 'now'");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-sort accumulating planner equals the O(running²)
        /// reference on random pool states: overdue and tied estimates,
        /// zero demands, drains that clip `projected_free` at zero and
        /// demands no release can satisfy.
        #[test]
        fn planner_equals_the_reference_on_random_pools(
            running in proptest::collection::vec(
                (0u64..50, 1u64..40, (0u64..=6, 0u64..=4, 0u64..=5)),
                0..12,
            ),
            drains in proptest::collection::vec((0usize..3, 1i64..14), 0..4),
            demands in (0u64..=20, 0u64..=10, 0u64..=14),
            now in 40u64..100,
        ) {
            let mut pools = PoolState::new(&SystemConfig::three_resource(16, 8, 12));
            for (id, (start, estimate, (a, b, c))) in running.into_iter().enumerate() {
                let j = job(id, estimate, estimate, vec![a, b, c]);
                if pools.fits(&j.demands) {
                    pools.allocate(&j, start);
                }
            }
            for (r, units) in drains {
                pools.adjust_capacity(r, -units);
            }
            let demands = [demands.0, demands.1, demands.2];
            proptest::prop_assert_eq!(
                compute_reservation(&pools, &demands, now),
                compute_reservation_reference(&pools, &demands, now)
            );
        }
    }
}
