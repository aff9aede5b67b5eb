//! CI perf regression gate for tracked benchmarks.
//!
//! ```text
//! bench_gate <current.json> <baseline.json> [--tolerance 0.20]
//!                                           [--require-thread-scaling [floor]]
//! ```
//!
//! Both files are `mrsch-bench/v2` reports ([`report`]). The gate
//! compares the **in-run ratio** carried by every tracked
//! record (speedup over the legacy blocked loop for GEMM, indexed-queue
//! speedup over the binary heap for the event engine) — host-speed
//! independent, measured in the same process as the candidate — and
//! fails (exit 1) when any tracked record falls more than `tolerance`
//! below the committed baseline, or when the canonical serial GEMM shape
//! drops under the absolute 2.5× acceptance floor (only enforced when
//! the baseline tracks that shape).
//!
//! `--require-thread-scaling` additionally asserts the canonical
//! threads2 GEMM cell recorded a `speedup_vs_serial` extra of at least
//! `floor` (default 1.05) — CI enables it only on multi-core runners.

use mrsch_bench::report::{self, BenchReport};

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"));
    BenchReport::parse(&text)
        .unwrap_or_else(|e| panic!("bench_gate: cannot parse {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut tolerance = 0.20f64;
    let mut thread_scaling: Option<f64> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            let v = it.next().expect("--tolerance needs a value");
            tolerance = v.parse().expect("--tolerance must be a number");
        } else if arg == "--require-thread-scaling" {
            // Optional floor value; defaults to a modest 1.05x.
            let floor = it
                .peek()
                .and_then(|v| v.parse::<f64>().ok())
                .inspect(|_| {
                    it.next();
                })
                .unwrap_or(1.05);
            thread_scaling = Some(floor);
        } else {
            paths.push(arg.clone());
        }
    }
    let [current_path, baseline_path] = paths.as_slice() else {
        eprintln!(
            "usage: bench_gate <current.json> <baseline.json> \
             [--tolerance 0.20] [--require-thread-scaling [floor]]"
        );
        std::process::exit(2);
    };

    let current = load(current_path);
    let baseline = load(baseline_path);
    println!(
        "bench_gate: current host '{}' (quick={}), baseline host '{}', tolerance {:.0}%",
        current.host,
        current.quick,
        baseline.host,
        tolerance * 100.0
    );
    let mut outcome = report::gate(&current, &baseline, tolerance);
    if let Some(floor) = thread_scaling {
        let scaling = report::check_thread_scaling(&current, floor);
        outcome.checked.extend(scaling.checked);
        outcome.failures.extend(scaling.failures);
    }
    for line in &outcome.checked {
        println!("  {line}");
    }
    if outcome.failures.is_empty() {
        println!("bench_gate: PASS");
        return;
    }
    for failure in &outcome.failures {
        eprintln!("bench_gate: FAIL {failure}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use mrsch_bench::report::{gate, BenchRecord, BenchReport, CANONICAL_BENCH};

    /// A GEMM-sweep cell as `substrate_gemm` emits it.
    fn record(bench: &str, speedup: Option<f64>) -> BenchRecord {
        BenchRecord {
            bench: bench.to_string(),
            group: "gemm".to_string(),
            unit: "ns_per_iter".to_string(),
            value: 1_000_000.0,
            ratio: speedup,
            ratio_kind: speedup.map_or(String::new(), |_| "speedup_vs_blocked".to_string()),
            extras: vec![("gflops".to_string(), 67.1), ("m".to_string(), 256.0)],
            tags: vec![("op".to_string(), "a_b".to_string())],
        }
    }

    fn report(cells: Vec<BenchRecord>) -> BenchReport {
        BenchReport { quick: true, host: "test".to_string(), results: cells }
    }

    #[test]
    fn json_roundtrips_bitwise() {
        let original = report(vec![
            record(CANONICAL_BENCH, Some(4.25)),
            record("gemm_infer/1x256x128/serial", None),
        ]);
        let parsed = BenchReport::parse(&original.to_json()).expect("own output must parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn parser_rejects_garbage_and_wrong_schema() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{\"schema\": \"other/v9\", \"results\": []}").is_err());
        assert!(BenchReport::parse("{\"schema\": \"mrsch-bench/v2\"}").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let baseline = report(vec![record(CANONICAL_BENCH, Some(4.0))]);
        // 15% down on a 20% tolerance: fine, and above the 2.5 floor.
        let current = report(vec![record(CANONICAL_BENCH, Some(3.4))]);
        let outcome = gate(&current, &baseline, 0.20);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.checked.iter().any(|c| c.contains("speedup_vs_blocked")));
    }

    #[test]
    fn gate_fails_past_tolerance() {
        let baseline = report(vec![record(CANONICAL_BENCH, Some(4.0))]);
        let current = report(vec![record(CANONICAL_BENCH, Some(3.0))]);
        let outcome = gate(&current, &baseline, 0.20);
        assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
        assert!(outcome.failures[0].contains("fell below"));
    }

    #[test]
    fn gate_enforces_absolute_floor_even_with_weak_baseline() {
        // A baseline that itself sits near the floor cannot ratchet the
        // acceptance bar away: 2.4x fails the absolute 2.5x check.
        let baseline = report(vec![record(CANONICAL_BENCH, Some(2.6))]);
        let current = report(vec![record(CANONICAL_BENCH, Some(2.4))]);
        let outcome = gate(&current, &baseline, 0.20);
        assert!(
            outcome.failures.iter().any(|f| f.contains("absolute")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn gate_fails_on_missing_tracked_shape() {
        let baseline = report(vec![
            record(CANONICAL_BENCH, Some(4.0)),
            record("gemm/256x512x256/auto", Some(4.0)),
        ]);
        let current = report(vec![record(CANONICAL_BENCH, Some(4.0))]);
        let outcome = gate(&current, &baseline, 0.20);
        assert!(
            outcome.failures.iter().any(|f| f.contains("missing")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn untracked_records_are_ignored_by_the_gate() {
        let baseline = report(vec![
            record(CANONICAL_BENCH, Some(4.0)),
            record("gemm_infer/1x256x128/serial", None),
        ]);
        // The untracked inference record may vanish freely.
        let current = report(vec![record(CANONICAL_BENCH, Some(4.0))]);
        let outcome = gate(&current, &baseline, 0.20);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    }
}
