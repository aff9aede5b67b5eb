//! The waiting queue and the scheduling window.
//!
//! Jobs wait in arrival order (the facility prioritization policy of the
//! paper's simulated system is FCFS ordering of the queue itself; the
//! *policy* then chooses within a window at the queue front, §III-A
//! "Action"). The window provides the starvation protection of §III-C:
//! only the `W` oldest waiting jobs are eligible for selection.
//!
//! # Storage
//!
//! Every enqueue draws the next `u32` **sequence number**; queue order
//! *is* sequence order. The queue is one sequence-ordered `Vec` with a
//! head cursor ([`WaitQueue::all`] is one contiguous slice): removing
//! the head — the common case under FCFS selection — advances the
//! cursor, a mid-queue removal finds its slot by binary search on the
//! sequence number, and the cursor compacts away once it dominates the
//! buffer. `seq[id]` doubles as the membership test.
//!
//! # The size-class index
//!
//! A backfill pass asks for *the first queued job, in queue order, that
//! passes a predicate implying "fits the free units"*
//! ([`WaitQueue::first_match`]). At high load almost nothing fits, so a
//! sweep of the whole queue is nearly all rejections. The queue
//! therefore also files each job under a **size class**: per resource,
//! the power-of-two bracket of its demand (`0`, `1`, `2–3`, `4–7`, …,
//! one `leading_zeros` each), the brackets combined into one mixed-radix
//! class id. Each class keeps its own sequence-ordered list and only
//! non-empty classes are visited. A class whose bracket lower bounds do
//! not fit the free units is skipped whole; among the others the answer
//! is the minimum sequence number that passes the predicate — exactly
//! what the linear sweep returns. A query costs O(non-empty classes +
//! members of classes that could fit), not O(queue), and O(depth) on a
//! shallow queue.
//!
//! The key is a size class and not the demand vector itself because
//! the paper's workloads draw burst-buffer demands log-uniformly and
//! power demands uniformly: exact-vector classes degenerate to one
//! class per job there, while brackets stay at `Π (log₂ capacity + 2)`
//! classes whatever the trace.
//!
//! The class lists hold job ids ordered by sequence number — not
//! positions in the main buffer — so cursor compaction cannot
//! invalidate them. The index is derived state: snapshots store only
//! [`WaitQueue::all`], and a restore rebuilds it by re-enqueueing.

use crate::job::JobId;

/// `seq` value of a job that is not queued.
const NOT_QUEUED: u32 = u32::MAX;

/// Cap on the dense class table. Pools are keyed in order while the
/// class count stays within it; a pool beyond that is left out of the
/// key (one bracket), which only makes the filter less selective — a
/// dozen-pool system must not allocate `Π radix` lists.
const MAX_CLASSES: usize = 4096;

/// Power-of-two bracket of a unit count: 0 for 0, else `⌊log₂ n⌋ + 1`.
/// Bracket `c > 0` covers `2^(c-1) ..= 2^c - 1`.
#[inline]
fn size_class(units: u64) -> usize {
    (u64::BITS - units.leading_zeros()) as usize
}

/// A sequence-ordered job list with a head cursor; the live region is
/// `jobs[head..]`.
#[derive(Clone, Debug, Default)]
struct SeqList {
    jobs: Vec<JobId>,
    head: usize,
}

impl SeqList {
    fn live(&self) -> &[JobId] {
        &self.jobs[self.head..]
    }

    /// Remove a listed job, found by its sequence number. The dead
    /// prefix is dropped once it outweighs the live region, keeping the
    /// amortized cost of head pops O(1).
    fn remove(&mut self, job: JobId, seq: &[u32]) {
        if self.jobs[self.head] == job {
            self.head += 1;
        } else {
            let idx = self
                .live()
                .binary_search_by_key(&seq[job], |&j| seq[j])
                .expect("a queued job is in its lists");
            self.jobs.remove(self.head + idx);
        }
        if self.head > 32 && self.head >= self.live().len() {
            self.jobs.drain(..self.head);
            self.head = 0;
        }
    }
}

/// FCFS-ordered waiting queue with window extraction and a size-class
/// index for backfill queries (see the module docs).
#[derive(Clone, Debug)]
pub struct WaitQueue {
    /// Every waiting job, oldest first.
    order: SeqList,
    /// `seq[id]` is job `id`'s enqueue sequence number while it is
    /// queued, [`NOT_QUEUED`] otherwise (grown on demand).
    seq: Vec<u32>,
    next_seq: u32,
    /// Brackets per resource, least-significant digit of the class id
    /// first; 1 for a pool left out of the key.
    radix: Vec<usize>,
    /// The waiting jobs again, filed by class id.
    classes: Vec<SeqList>,
    /// Ids of the non-empty classes, in no particular order.
    active: Vec<usize>,
}

impl WaitQueue {
    /// Empty queue for a system with the given pool capacities (no
    /// job demands more than a pool's capacity, which bounds the
    /// brackets per resource).
    pub fn new(capacities: &[u64]) -> Self {
        let mut classes = 1;
        let radix = capacities
            .iter()
            .map(|&cap| {
                let radix = size_class(cap) + 1;
                if classes * radix <= MAX_CLASSES {
                    classes *= radix;
                    radix
                } else {
                    1
                }
            })
            .collect();
        Self {
            order: SeqList::default(),
            seq: Vec::new(),
            next_seq: 0,
            radix,
            classes: vec![SeqList::default(); classes],
            active: Vec::new(),
        }
    }

    /// Class id of a demand vector. A demand above the bracket range
    /// (or on an unkeyed pool) lands in the top bracket, whose lower
    /// bound still does not exceed it.
    fn class_of(&self, demands: &[u64]) -> usize {
        let mut stride = 1;
        let mut class = 0;
        for (&radix, &d) in self.radix.iter().zip(demands) {
            class += size_class(d).min(radix - 1) * stride;
            stride *= radix;
        }
        class
    }

    /// Could a member of `class` fit `free`? True iff every bracket's
    /// lower bound does.
    fn class_may_fit(&self, mut class: usize, free: &[u64]) -> bool {
        self.radix.iter().zip(free).all(|(&radix, &f)| {
            let bracket = class % radix;
            class /= radix;
            bracket <= size_class(f)
        })
    }

    /// Append a newly submitted job with its demand vector (queues are
    /// arrival-ordered; the simulator submits in event order so no
    /// sorting is needed).
    pub fn enqueue(&mut self, job: JobId, demands: &[u64]) {
        debug_assert!(!self.contains(job), "job {job} double-enqueued");
        if self.seq.len() <= job {
            self.seq.resize(job + 1, NOT_QUEUED);
        }
        assert!(
            self.next_seq != NOT_QUEUED,
            "one run enqueues fewer than 2^32 - 1 jobs"
        );
        self.seq[job] = self.next_seq;
        self.next_seq += 1;
        self.order.jobs.push(job);
        let class = self.class_of(demands);
        if self.classes[class].live().is_empty() {
            self.active.push(class);
        }
        self.classes[class].jobs.push(job);
    }

    /// Remove a job if it is queued — it was started (by selection or
    /// backfill), or cancelled, in which case it may have started or
    /// finished before the cancel fired. `demands` must be the vector
    /// it was enqueued with. Returns whether it was present.
    pub fn remove(&mut self, job: JobId, demands: &[u64]) -> bool {
        if !self.contains(job) {
            return false;
        }
        self.order.remove(job, &self.seq);
        let class = self.class_of(demands);
        self.classes[class].remove(job, &self.seq);
        if self.classes[class].live().is_empty() {
            let at = self
                .active
                .iter()
                .position(|&c| c == class)
                .expect("a non-empty class is active");
            self.active.swap_remove(at);
        }
        self.seq[job] = NOT_QUEUED;
        true
    }

    /// The first waiting job in queue order, among those enqueued at
    /// sequence number `from` or later, for which `pred` holds — with
    /// its sequence number, so a sweep can resume behind it after
    /// removing it. `pred` must imply that the job's demands fit
    /// `free`: classes that cannot fit are never shown to it.
    pub fn first_match(
        &self,
        from: u32,
        free: &[u64],
        mut pred: impl FnMut(JobId) -> bool,
    ) -> Option<(u32, JobId)> {
        let mut best: Option<(u32, JobId)> = None;
        for &class in &self.active {
            if !self.class_may_fit(class, free) {
                continue;
            }
            let list = self.classes[class].live();
            let skip = list.partition_point(|&j| self.seq[j] < from);
            for &job in &list[skip..] {
                let s = self.seq[job];
                if best.is_some_and(|(b, _)| s > b) {
                    break;
                }
                if pred(job) {
                    best = Some((s, job));
                    break;
                }
            }
        }
        best
    }

    /// The first `window` waiting jobs, oldest first.
    pub fn window(&self, window: usize) -> &[JobId] {
        let live = self.order.live();
        &live[..window.min(live.len())]
    }

    /// All waiting jobs, oldest first.
    pub fn all(&self) -> &[JobId] {
        self.order.live()
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.order.live().len()
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.order.live().is_empty()
    }

    /// Is the given job currently queued?
    pub fn contains(&self, job: JobId) -> bool {
        self.seq.get(job).is_some_and(|&s| s != NOT_QUEUED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A 16-node, 8-unit-burst-buffer queue: 6 × 5 = 30 classes.
    fn queue() -> WaitQueue {
        WaitQueue::new(&[16, 8])
    }

    /// The demand vector test job `id` is filed under — spread over
    /// several brackets, zero burst buffer included.
    fn demands(id: JobId) -> [u64; 2] {
        [1 + (id as u64 * 5) % 16, (id as u64 * 3) % 9]
    }

    fn enqueue(q: &mut WaitQueue, id: JobId) {
        q.enqueue(id, &demands(id));
    }

    fn remove(q: &mut WaitQueue, id: JobId) -> bool {
        q.remove(id, &demands(id))
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = queue();
        for id in [3, 1, 4, 1 + 4] {
            enqueue(&mut q, id);
        }
        assert_eq!(q.all(), &[3, 1, 4, 5]);
    }

    #[test]
    fn window_truncates() {
        let mut q = queue();
        for id in 0..5 {
            enqueue(&mut q, id);
        }
        assert_eq!(q.window(3), &[0, 1, 2]);
        assert_eq!(q.window(10).len(), 5);
        assert_eq!(q.window(0).len(), 0);
    }

    #[test]
    fn remove_middle_preserves_order() {
        let mut q = queue();
        for id in 0..4 {
            enqueue(&mut q, id);
        }
        assert!(remove(&mut q, 1));
        assert_eq!(q.all(), &[0, 2, 3]);
        assert!(!q.contains(1));
        assert!(q.contains(2));
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut q = queue();
        assert!(!remove(&mut q, 9));
        assert!(q.is_empty());
    }

    #[test]
    fn try_remove_reports_presence() {
        let mut q = queue();
        enqueue(&mut q, 1);
        enqueue(&mut q, 2);
        assert!(remove(&mut q, 1));
        assert!(!remove(&mut q, 1), "second removal is a no-op");
        assert!(!remove(&mut q, 9));
        assert_eq!(q.all(), &[2]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = queue();
        assert!(q.is_empty());
        enqueue(&mut q, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn head_pops_with_interleaved_enqueues_stay_fifo() {
        // Exercise the head cursor across compaction: pop the head many
        // times while the queue keeps receiving arrivals.
        let mut q = queue();
        let mut expect = std::collections::VecDeque::new();
        for wave in 0..40usize {
            for k in 0..3 {
                let id = wave * 3 + k;
                enqueue(&mut q, id);
                expect.push_back(id);
            }
            let head = *expect.front().unwrap();
            assert_eq!(q.all().first(), Some(&head));
            assert!(remove(&mut q, head));
            expect.pop_front();
            assert_eq!(
                q.all(),
                expect.iter().copied().collect::<Vec<_>>().as_slice()
            );
        }
        while let Some(id) = expect.pop_front() {
            assert!(remove(&mut q, id));
        }
        assert!(q.is_empty());
        assert_eq!(q.all(), &[] as &[JobId]);
    }

    #[test]
    fn reenqueue_after_removal_works() {
        let mut q = queue();
        enqueue(&mut q, 7);
        assert!(remove(&mut q, 7));
        assert!(!q.contains(7));
        enqueue(&mut q, 7);
        assert!(q.contains(7));
        assert_eq!(q.all(), &[7]);
    }

    #[test]
    fn brackets_are_powers_of_two() {
        let expect = [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (u64::MAX, 64),
        ];
        for (units, class) in expect {
            assert_eq!(size_class(units), class, "{units} units");
        }
    }

    #[test]
    fn many_pool_systems_key_only_the_pools_the_table_has_room_for() {
        // 11 brackets per pool: three pools make 1331 classes, a fourth
        // would make 14 641 — it and every later pool go unkeyed.
        let mut q = WaitQueue::new(&[1000; 12]);
        assert_eq!(q.classes.len(), 1331);
        assert_eq!(q.radix[..4], [11, 11, 11, 1]);
        let big = [1000; 12];
        let mut small = [1; 12];
        small[11] = 900;
        q.enqueue(0, &big);
        q.enqueue(1, &small);
        // The unkeyed pool cannot rule job 1's class out; the predicate does.
        let free = [8; 12];
        let fits = |d: &[u64; 12]| d.iter().zip(&free).all(|(d, f)| d <= f);
        let found = q.first_match(0, &free, |j| fits(if j == 0 { &big } else { &small }));
        assert_eq!(found, None);
        small[11] = 8;
        let found = q.first_match(0, &free, |j| fits(if j == 0 { &big } else { &small }));
        assert_eq!(found, Some((1, 1)));
    }

    /// Everything the index promises, checked against `all()`.
    fn check_index(q: &WaitQueue, demands: &[[u64; 2]]) {
        let sorted = |list: &SeqList| list.live().windows(2).all(|w| q.seq[w[0]] < q.seq[w[1]]);
        // A list never carries more dead slots than live ones (+ the
        // compaction threshold).
        let bounded = |list: &SeqList| list.jobs.len() <= 2 * list.live().len() + 33;
        assert!(sorted(&q.order) && bounded(&q.order));
        let mut filed = Vec::new();
        for (class, list) in q.classes.iter().enumerate() {
            assert!(sorted(list) && bounded(list), "class {class}");
            assert_eq!(
                q.active.contains(&class),
                !list.live().is_empty(),
                "class {class}"
            );
            for &job in list.live() {
                assert_eq!(q.class_of(&demands[job]), class, "job {job}");
            }
            filed.extend_from_slice(list.live());
        }
        filed.sort_unstable_by_key(|&job| q.seq[job]);
        assert_eq!(filed, q.all());
        assert_eq!(
            q.active.len(),
            q.classes.iter().filter(|l| !l.live().is_empty()).count()
        );
        for job in 0..demands.len() {
            assert_eq!(q.contains(job), q.all().contains(&job));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary enqueue / head-pop / mid-queue removal / removal of
        /// an absent job / re-enqueue interleavings, deep enough to
        /// cross head-cursor compaction: the index stays exactly
        /// `all()`, and `first_match` is the linear sweep.
        #[test]
        fn index_is_the_queue_and_first_match_is_the_linear_sweep(
            demands in prop::collection::vec((0u64..=16, 0u64..=8), 64),
            ops in prop::collection::vec((0u8..10, 0usize..64, 0u64..=16, 0u64..=8), 1..400),
        ) {
            let demands: Vec<[u64; 2]> = demands.into_iter().map(|(n, b)| [n, b]).collect();
            let mut q = queue();
            for (sel, id, free_nodes, free_bb) in ops {
                match sel {
                    // Enqueue-heavy, so the queue gets deep.
                    0..=4 if !q.contains(id) => q.enqueue(id, &demands[id]),
                    5..=7 => {
                        if let Some(&head) = q.all().first() {
                            prop_assert!(q.remove(head, &demands[head]));
                        }
                    }
                    _ => {
                        let was_queued = q.contains(id);
                        prop_assert_eq!(q.remove(id, &demands[id]), was_queued);
                    }
                }
                check_index(&q, &demands);
                // A predicate that implies "fits" and rejects some
                // fitting jobs too, from the head and from mid-queue.
                let free = [free_nodes, free_bb];
                let pred = |j: JobId| {
                    demands[j].iter().zip(&free).all(|(d, f)| d <= f) && !(j + id).is_multiple_of(3)
                };
                let mid = q.all().get(q.len() / 2).map_or(0, |&j| q.seq[j]);
                for from in [0, mid] {
                    let linear = q
                        .all()
                        .iter()
                        .map(|&j| (q.seq[j], j))
                        .find(|&(s, j)| s >= from && pred(j));
                    prop_assert_eq!(q.first_match(from, &free, pred), linear);
                }
            }
        }
    }
}
