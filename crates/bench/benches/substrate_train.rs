//! Substrate bench: training throughput and the trained-policy cache.
//!
//! Two families of cells, written to `results/BENCH_train.json` (schema
//! `mrsch-bench/v2`) and gated against the committed baseline:
//!
//! * **curriculum training** — a disruption-hardening curriculum
//!   through the training engine with two rollout workers, reported as
//!   episodes/sec (host-speed dependent, not gated).
//! * **cold vs warm policy cache** — the same `EvalPlan` grid (mrsch ×
//!   clean × seeds) run twice against one content-addressed cache
//!   directory. The cold pass trains and stores every cell; the warm
//!   pass must replay from the cache with **zero retrains** and a
//!   **bit-identical grid** (both asserted), and its grid-seconds carry
//!   the in-run `speedup_vs_cold` ratio, **self-asserted ≥ 3×** — a
//!   cache hit skips training entirely, so the floor holds on any host.
//!
//! Env knobs: `MRSCH_BENCH_QUICK=1` shrinks the measurement budget for
//! CI; `MRSCH_BENCH_JSON=path` redirects the report (default
//! `results/BENCH_train.json`).

use mrsch::prelude::*;
use mrsch_bench::report::{BenchRecord, BenchReport, SCHEMA};
use mrsch_dfp::DfpConfig;
use mrsch_eval::{EvalPlan, PolicyCache, PolicySpec};
use mrsch_linalg::kernel_isa;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 20_220_517;

/// Small-but-real DFP network: big enough that gradient batches
/// dominate an episode, small enough for CI quick mode.
fn bench_dfp_config() -> DfpConfig {
    let mut cfg = DfpConfig::scaled(1, 2, 4);
    cfg.state_hidden = vec![32];
    cfg.state_embed = 16;
    cfg.io_hidden = 16;
    cfg.io_embed = 8;
    cfg.stream_hidden = 32;
    cfg.batch_size = 8;
    cfg
}

fn bench_system() -> SystemConfig {
    SystemConfig::two_resource(16, 8)
}

fn bench_scenario(jobs: usize, seed: u64) -> Scenario {
    Scenario::new(
        "clean",
        JobSource::Theta(ThetaConfig {
            machine_nodes: 16,
            mean_interarrival: 120.0,
            ..ThetaConfig::scaled(jobs)
        }),
        WorkloadSpec::s1(),
        SimParams::new(4, true),
    )
    .with_seed(seed)
}

fn main() {
    let quick = std::env::var_os("MRSCH_BENCH_QUICK").is_some();
    let (jobs, per_phase) = if quick { (30, 3) } else { (80, 8) };

    // --- curriculum training ------------------------------------------
    let curriculum = Curriculum::disruption_hardening(
        bench_scenario(jobs, SEED ^ 5),
        DisruptionConfig { cancel_fraction: 0.3, ..Default::default() },
        DisruptionConfig::node_drain(0.25, 600, 2400),
        per_phase,
    );
    let total_episodes = (3 * per_phase) as f64;
    let trainer = TrainerConfig::default().workers(2).round_size(2).batches_per_episode(4);
    let mut agent = MrschBuilder::new(bench_system(), SimParams::new(4, true))
        .seed(SEED)
        .trainer(trainer)
        .dfp_config(bench_dfp_config())
        .build();
    let t0 = Instant::now();
    agent.train_with_curriculum(&curriculum);
    let train_s = t0.elapsed().as_secs_f64();
    println!("train/curriculum ({total_episodes:.0} episodes, 2 workers): {train_s:.2}s");

    // --- cold vs warm policy cache -------------------------------------
    let seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2] };
    let cells = seeds.len();
    let cache_dir = std::env::temp_dir()
        .join(format!("mrsch_bench_policy_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let grid_run = |cache: Arc<PolicyCache>| {
        let plan = EvalPlan::new(
            bench_system(),
            vec![PolicySpec::mrsch()],
            vec![bench_scenario(jobs, SEED ^ 9)],
            seeds.clone(),
        )
        .train_episodes(per_phase)
        .trainer(TrainerConfig::default())
        .dfp_config(bench_dfp_config())
        .policy_cache(cache);
        let t0 = Instant::now();
        let grid = plan.run();
        (t0.elapsed().as_secs_f64(), grid)
    };

    let cold_cache = Arc::new(PolicyCache::new(&cache_dir));
    let (cold_s, cold_grid) = grid_run(cold_cache.clone());
    assert_eq!(cold_cache.misses(), cells, "cold pass trains every cell");
    assert_eq!(cold_cache.stores(), cells, "cold pass stores every cell");

    let warm_cache = Arc::new(PolicyCache::new(&cache_dir));
    let (warm_s, warm_grid) = grid_run(warm_cache.clone());
    assert_eq!(warm_cache.misses(), 0, "warm pass must not retrain");
    assert_eq!(warm_cache.hits(), cells, "warm pass replays every cell");
    assert_eq!(
        cold_grid.cells.len(),
        warm_grid.cells.len(),
        "cache replay covers the full grid"
    );
    for (c, w) in cold_grid.cells.iter().zip(&warm_grid.cells) {
        assert_eq!(c.report, w.report, "cache hit must replay bit-identically");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    let warm_speedup = cold_s / warm_s;
    assert!(
        warm_speedup >= 3.0,
        "warm cache ran only {warm_speedup:.2}x faster than cold (< 3x floor): \
         cold {cold_s:.2}s, warm {warm_s:.2}s"
    );
    println!(
        "train/policy_cache ({cells} cell(s)): cold {cold_s:.2}s, warm {warm_s:.2}s \
         ({warm_speedup:.2}x, zero retrains)"
    );

    // --- report --------------------------------------------------------
    let results = vec![
        BenchRecord {
            bench: "train/curriculum/barrier_w2".to_string(),
            group: "train".to_string(),
            unit: "episodes_per_sec".to_string(),
            value: total_episodes / train_s,
            ratio: None,
            ratio_kind: String::new(),
            extras: vec![
                ("seconds".to_string(), train_s),
                ("episodes".to_string(), total_episodes),
                ("workers".to_string(), 2.0),
            ],
            tags: vec![("trainer".to_string(), "barrier".to_string())],
        },
        BenchRecord {
            bench: "train/policy_cache/cold".to_string(),
            group: "train".to_string(),
            unit: "grid_seconds".to_string(),
            value: cold_s,
            ratio: None,
            ratio_kind: String::new(),
            extras: vec![("cells".to_string(), cells as f64)],
            tags: vec![("cache".to_string(), "cold".to_string())],
        },
        // Gated (the committed baseline pins this ratio at 3.75x, so the
        // gate's 20% tolerance lands exactly on the 3x acceptance floor;
        // the in-run assert above enforces the same floor regardless).
        BenchRecord {
            bench: "train/policy_cache/warm".to_string(),
            group: "train".to_string(),
            unit: "grid_seconds".to_string(),
            value: warm_s,
            ratio: Some(warm_speedup),
            ratio_kind: "speedup_vs_cold".to_string(),
            extras: vec![
                ("cells".to_string(), cells as f64),
                ("hits".to_string(), warm_cache.hits() as f64),
                ("retrains".to_string(), warm_cache.misses() as f64),
            ],
            tags: vec![("cache".to_string(), "warm".to_string())],
        },
    ];

    let out = BenchReport { quick, host: kernel_isa().to_string(), results };
    let path = std::env::var("MRSCH_BENCH_JSON").unwrap_or_else(|_| {
        format!("{}/../../results/BENCH_train.json", env!("CARGO_MANIFEST_DIR"))
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, out.to_json()) {
        Ok(()) => println!("train report ({SCHEMA}): {path} ({} records)", out.results.len()),
        Err(e) => eprintln!("train report: failed to write {path}: {e}"),
    }
}
