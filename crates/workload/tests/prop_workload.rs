//! Property-based tests of the workload pipeline: every generator, at
//! every scale and seed, produces jobs that are valid for the target
//! system and preserve the suite's declared structure; and the SWF
//! reader, fed hostile text, never panics and admits only jobs the
//! simulator can take.

use mrsch_workload::jobset::{curriculum, sampled_jobset, CurriculumOrder};
use mrsch_workload::split::chronological_split;
use mrsch_workload::suite::WorkloadSpec;
use mrsch_workload::swf::{parse_swf, to_swf};
use mrsch_workload::theta::ThetaConfig;
use mrsim::resources::SystemConfig;
use proptest::prelude::*;

/// Tokens an `f64` parse accepts but no SWF field may carry, tokens
/// that are not numbers, and 2^53 itself (the largest accepted value).
const HOSTILE: [&str; 9] = [
    "nan",
    "-NaN",
    "inf",
    "-infinity",
    "1e300",
    "-1e300",
    "9007199254740994",
    "",
    "9007199254740992",
];

/// One 18-field SWF line with the five fields the reader uses set to
/// `(submit, runtime, processors, requested time, status)`.
fn swf_line(i: usize, fields: (i64, i64, i64, i64, i64)) -> String {
    let (submit, runtime, procs, req_time, status) = fields;
    format!(
        "{i} {submit} -1 {runtime} {procs} -1 -1 {procs} {req_time} -1 {status} \
         -1 -1 -1 -1 -1 -1 -1"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_swf_never_panics_and_admits_only_sane_jobs(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        rows in prop::collection::vec(
            (-1i64..1_000_000, -1i64..100_000, -1i64..5_000, -1i64..200_000, -1i64..7),
            1..8,
        ),
        (kind, row, field, cut, token) in (0usize..3, 0usize..8, 0usize..18, 0usize..1000, 0usize..9),
    ) {
        let mut lines: Vec<String> =
            rows.iter().enumerate().map(|(i, &r)| swf_line(i + 1, r)).collect();
        let row = row % lines.len();
        match kind {
            // Cut the line anywhere (every byte is ASCII).
            0 => {
                let keep = lines[row].len() * cut / 1000;
                lines[row].truncate(keep);
            }
            // Replace one token by a hostile one.
            1 => {
                let mut tokens: Vec<&str> = lines[row].split(' ').collect();
                tokens[field] = HOSTILE[token];
                lines[row] = tokens.join(" ");
            }
            _ => {} // the valid trace itself
        }
        let max = 1u64 << 53;
        for text in [String::from_utf8_lossy(&bytes).into_owned(), lines.join("\n")] {
            let Ok(jobs) = parse_swf(&text) else { continue };
            prop_assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit), "unsorted: {text}");
            for j in &jobs {
                prop_assert!(j.runtime >= 1 && j.estimate >= j.runtime && j.nodes >= 1, "{j:?}");
                prop_assert!(j.submit <= max && j.estimate <= max && j.nodes <= max, "{j:?}");
            }
            prop_assert_eq!(&parse_swf(&to_swf(&jobs)).expect("exported SWF parses"), &jobs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_suite_workload_validates_on_its_system(
        seed in 0u64..10_000,
        nodes in 16u64..256,
        bb in 8u64..64,
        njobs in 20usize..120,
    ) {
        let cfg = ThetaConfig { machine_nodes: nodes, ..ThetaConfig::scaled(njobs) };
        let trace = cfg.generate(seed);
        let base = SystemConfig::two_resource(nodes, bb);
        let mut specs = WorkloadSpec::two_resource_suite();
        specs.extend(WorkloadSpec::three_resource_suite());
        for spec in specs {
            let system = spec.system_for(&base);
            for job in spec.build(&trace, &system, seed ^ 1) {
                prop_assert!(system.validate_job(&job).is_ok(),
                    "{}: job {:?} invalid", spec.name, job);
                prop_assert!(job.demands[0] >= 1, "jobs always need a node");
            }
        }
    }

    #[test]
    fn trace_submit_times_sorted_and_jobs_bounded(
        seed in 0u64..10_000,
        nodes in 16u64..512,
    ) {
        let cfg = ThetaConfig { machine_nodes: nodes, ..ThetaConfig::scaled(80) };
        let trace = cfg.generate(seed);
        prop_assert_eq!(trace.len(), 80);
        prop_assert!(trace.windows(2).all(|w| w[0].submit <= w[1].submit));
        for j in &trace {
            prop_assert!(j.nodes >= 1 && j.nodes <= nodes);
            prop_assert!(j.estimate >= j.runtime);
            prop_assert!(j.runtime >= cfg.min_runtime && j.runtime <= cfg.max_runtime);
        }
    }

    #[test]
    fn split_partitions_and_rebases(
        seed in 0u64..10_000,
        train in 0.2f64..0.7,
        val in 0.05f64..0.2,
    ) {
        let trace = ThetaConfig::scaled(150).generate(seed);
        let s = chronological_split(&trace, train, val);
        prop_assert_eq!(
            s.train.len() + s.validation.len() + s.test.len(),
            trace.len()
        );
        for slice in [&s.train, &s.validation, &s.test] {
            if let Some(first) = slice.first() {
                prop_assert_eq!(first.submit, 0, "rebased");
            }
            prop_assert!(slice.windows(2).all(|w| w[0].submit <= w[1].submit));
        }
    }

    #[test]
    fn sampled_jobsets_only_reshape_arrivals(
        seed in 0u64..10_000,
        n in 10usize..80,
    ) {
        let trace = ThetaConfig::scaled(60).generate(seed);
        let sampled = sampled_jobset(&trace, n, seed ^ 2);
        prop_assert_eq!(sampled.len(), n);
        for j in &sampled {
            prop_assert!(
                trace.iter().any(|o| o.runtime == j.runtime
                    && o.estimate == j.estimate
                    && o.nodes == j.nodes),
                "sampled job shapes must come from the trace"
            );
        }
    }

    #[test]
    fn curriculum_is_deterministic_and_phase_ordered(
        seed in 0u64..10_000,
        order_idx in 0usize..6,
    ) {
        let trace = ThetaConfig::scaled(90).generate(seed);
        let cfg = ThetaConfig::scaled(90);
        let order = CurriculumOrder::all()[order_idx];
        let a = curriculum(order, &trace, &cfg, 2, 30, seed);
        let b = curriculum(order, &trace, &cfg, 2, 30, seed);
        prop_assert_eq!(&a, &b);
        // Phases appear in the order's sequence, 2 sets each.
        let kinds: Vec<_> = a.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(kinds.len(), 6);
        prop_assert_eq!(kinds[0], order.0[0]);
        prop_assert_eq!(kinds[1], order.0[0]);
        prop_assert_eq!(kinds[2], order.0[1]);
        prop_assert_eq!(kinds[4], order.0[2]);
    }
}
