//! The metric registry: every name the benchmark may report, with its unit
//! and which direction is better. `/BENCHMARK.json` lists exactly these
//! (a test keeps the two in step).
//!
//! End-to-end metrics are measured with tracing off and every workload
//! reports all of them. Per-layer metrics come from the traced run; one a
//! workload does not exercise reads 0 there.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of each pipeline sees. `throughput` and `response_ms` mean,
/// per workload, what the README's workload table says they mean.
pub const END_TO_END: &[MetricDef] = &[
    hi("throughput", "1/s"),
    lo("response_ms", "ms"),
    lo("peak_rss_mb", "MiB"),
    lo("setup_s", "s"),
];

/// Regression bound of each end-to-end metric, as a share of the parent's
/// median (`compare` and `/BENCHMARK.json` use the same numbers).
pub fn bound(name: &str) -> f64 {
    match name {
        // Memory repeats to a few percent. Wall-clock on a shared 2-core
        // host does not: identical runs minutes apart differ by 10-20 %,
        // so the timing metrics take the widest bound the contract allows.
        "peak_rss_mb" => 0.10,
        _ => 0.25,
    }
}

pub const PER_LAYER: &[MetricDef] = &[
    // How the traced run relates to the untraced one.
    lo("trace.overhead_pct", "%"),
    lo("trace.unattributed_s", "s/rep"),
    hi("trace.coverage", "ratio"),
    // sim
    lo("sim.run_s", "s/rep"),
    lo("sim.construct_s", "s/rep"),
    lo("sim.event_queue_s", "s/rep"),
    lo("sim.event_queue_ops", "count"),
    lo("sim.self_s", "s/rep"),
    lo("sim.ns_per_event", "ns/event"),
    lo("sim.ns_per_instance", "ns/instance"),
    lo("sim.events", "count"),
    lo("sim.decisions", "count"),
    lo("sim.instances", "count"),
    hi("sim.backfilled_jobs", "count"),
    lo("sim.queue_depth_mean", "jobs"),
    lo("sim.queue_depth_max", "jobs"),
    lo("sim.report_digest", "count"),
    lo("sim.measurement_s", "s/rep"),
    lo("policy_share", "ratio"),
    // core / dfp / nn / linalg on the decision path
    lo("core.encode_s", "s/rep"),
    lo("core.valid_s", "s/rep"),
    lo("core.goal_s", "s/rep"),
    lo("dfp.act_s", "s/rep"),
    lo("dfp.act_ns", "ns/call"),
    lo("nn.forward_ns", "ns/call"),
    lo("linalg.gemv_ns_per_decision", "ns/decision"),
    lo("linalg.flops_per_decision", "flop"),
    lo("linalg.weight_bytes_per_decision", "bytes"),
    // snapshot
    lo("snapshot.encode_s", "s/call"),
    lo("snapshot.restore_s", "s/call"),
    lo("snapshot.bytes", "bytes"),
    lo("sim.resume_s", "s/call"),
    // training
    lo("workload.materialize_s", "s/rep"),
    lo("core.rollout_s", "s/rep"),
    lo("dfp.train_batch_s", "s/rep"),
    lo("dfp.train_batch_ns", "ns/call"),
    lo("dfp.train_steps", "count"),
    lo("dfp.replay_len", "count"),
    lo("learn_share", "ratio"),
    lo("linalg.gemm_fwd_ns", "ns/batch"),
    lo("linalg.gemm_gradw_ns", "ns/batch"),
    lo("linalg.gemm_gradx_ns", "ns/batch"),
    lo("core.engine_overhead_s", "s/rep"),
    hi("core.workers2_speedup", "ratio"),
    hi("linalg.auto_policy_speedup", "ratio"),
    // evaluation grid
    lo("eval.build_policy_s", "s/pass"),
    lo("eval.build_mrsch_s", "s/pass"),
    lo("eval.build_scalar_rl_s", "s/pass"),
    lo("core.mrsch_run_s", "s/pass"),
    lo("baselines.ga_run_s", "s/pass"),
    lo("baselines.list_run_s", "s/pass"),
    lo("baselines.scalar_rl_run_s", "s/pass"),
    hi("eval.cache_hits", "count"),
    lo("eval.cache_misses", "count"),
    lo("eval.cache_stores", "count"),
    lo("eval.cache_read_s", "s/pass"),
    lo("eval.cache_bytes", "bytes"),
    lo("eval.csv_s", "s/pass"),
    lo("eval.harness_overhead_s", "s/pass"),
    lo("eval.grid_cold_s", "s/pass"),
    lo("eval.grid_warm_s", "s/pass"),
    // serving: direct calls on the recorded requests
    lo("serve.parse_ns", "ns/req"),
    lo("serve.check_request_ns", "ns/req"),
    lo("serve.format_response_ns", "ns/req"),
    lo("serve.request_bytes_mean", "bytes"),
    lo("serve.decide_one_ns", "ns/req"),
    lo("serve.decide_batch8_ns_per_req", "ns/req"),
    lo("serve.batcher_p50_us", "us/req"),
    lo("serve.batcher_p95_us", "us/req"),
    hi("serve.mean_batch", "req/flush"),
    lo("serve.socket_overhead_p50_us", "us/req"),
    // serving: over the socket
    hi("serve.saturated_qps", "1/s"),
    lo("serve.open_p50_us", "us/req"),
    lo("serve.open_p95_us", "us/req"),
    lo("serve.open_p99_us", "us/req"),
    lo("serve.open_p999_us", "us/req"),
    lo("serve.rtt_p50_us", "us/req"),
    lo("serve.rtt_p95_us", "us/req"),
    lo("serve.open_1000.p50_us", "us/req"),
    lo("serve.open_1000.p95_us", "us/req"),
    lo("serve.open_1000.failed", "req"),
    lo("serve.open_4000.p50_us", "us/req"),
    lo("serve.open_4000.p95_us", "us/req"),
    lo("serve.open_4000.failed", "req"),
    lo("serve.open_6000.p50_us", "us/req"),
    lo("serve.open_6000.p95_us", "us/req"),
    lo("serve.open_6000.failed", "req"),
    hi("serve.max_rate_under_limit_qps", "1/s"),
    lo("serve.gen_late_p99_us", "us/req"),
    lo("serve.gen_late_max_us", "us/req"),
    lo("serve.shed", "req"),
    lo("serve.malformed", "req"),
];

/// The definition of a registered metric. Panics on an unknown name: a
/// workload reporting a metric the registry lacks is a benchmark bug.
pub fn lookup(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the registry"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "name {}", d.name);
            assert!(valid_unit(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `/BENCHMARK.json` and this registry describe the same metrics.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                        m.get("better").and_then(Value::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let want = |defs: &[MetricDef], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == Better::Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        better.to_string(),
                        bounded.then(|| bound(d.name)),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(END_TO_END, true));
        assert_eq!(listed("per_layer"), want(PER_LAYER, false));
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        for (w, why) in workloads.iter().zip(crate::workloads::WHY) {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(crate::workloads::WHY.len(), crate::workloads::NAMES.len());
    }
}
