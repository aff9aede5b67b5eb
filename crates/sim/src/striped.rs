//! The workspace's one worker pool: stripe `n` independent items over
//! scoped threads and hand the results back in index order.
//!
//! `mrsch-eval`'s `EvalPlan` (grid cells), `mrsch`'s training engine
//! (rollout episodes) and `mrsch-experiments`' `multi_seed` (seeds) all
//! fan out the same way: worker `w` of `k` computes items `w, w + k, w + 2k, ...` with
//! its own reusable state (a simulator, a policy cache), and the merged
//! vector is in item order **regardless of worker count or completion
//! timing**. As long as an item's result does not depend on what its
//! worker's state saw before, worker count is a wall-clock knob and
//! never a semantics knob — the property every caller's
//! worker-count-invariance test pins.

/// Compute `f(state, i)` for every `i in 0..n` on up to `workers`
/// threads and return the results in index order.
///
/// Each worker builds its state once with `init` and reuses it across
/// the items it owns. `workers` is clamped to `1..=n`; one worker runs
/// inline on the calling thread and `n == 0` returns empty without
/// calling `init`. A panic in `init` or `f` propagates to the caller
/// once every worker has been joined.
pub fn striped_map<S, T, I, F>(workers: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (init, f) = (&init, &f);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = init();
                    (w..n)
                        .step_by(workers)
                        .map(|i| f(&mut state, i))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            let stripe = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, item) in (w..n).step_by(workers).zip(stripe) {
                slots[i] = Some(item);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index belongs to one stripe"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let n = 7;
        for workers in [1, 2, n, n + 3] {
            let out = striped_map(workers, n, || (), |_, i| i * i);
            assert_eq!(
                out,
                (0..n).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn zero_items_returns_empty_without_building_state() {
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = striped_map(4, 0, || inits.fetch_add(1, Ordering::SeqCst), |_, i| i);
        assert!(out.is_empty());
        assert_eq!(
            inits.load(Ordering::SeqCst),
            0,
            "no worker may start for an empty range"
        );
    }

    #[test]
    fn state_is_built_once_per_worker_and_reused_across_its_items() {
        let n = 10;
        for workers in [1, 3] {
            let inits = AtomicUsize::new(0);
            // The state counts the items its worker has handled so far;
            // item `i` is that worker's `i / workers`-th.
            let seen_before = striped_map(
                workers,
                n,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |handled, _| {
                    *handled += 1;
                    *handled - 1
                },
            );
            assert_eq!(inits.load(Ordering::SeqCst), workers);
            assert_eq!(seen_before, (0..n).map(|i| i / workers).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_panicking_item_propagates_from_a_worker_thread() {
        striped_map(2, 6, || (), |_, i| assert!(i != 3, "item 3 failed"));
    }
}
