//! Substrate bench: the packed micro-kernel GEMM that carries every
//! forward and backward pass.
//!
//! Sweeps the shapes the pipeline actually runs — the canonical blocked
//! shape, training-batch forward/backward contractions at the scaled
//! network widths, and batch-1 inference (the `forward_inference` actor
//! path) up to the paper's Theta layer — under serial and parallel
//! policies, plus the pre-micro-kernel blocked loop on the canonical
//! shape as the in-run speedup baseline.
//!
//! On top of the printed table the run emits a machine-readable report
//! (`results/BENCH_gemm.json`, schema `mrsch-bench/v2`) that the CI
//! perf gate (`bench_gate`) compares against the committed baseline.
//! The canonical auto/threads2 cells additionally carry a
//! `speedup_vs_serial` extra — the in-run thread scaling CI asserts on
//! multi-core runners.
//! Env knobs: `MRSCH_BENCH_QUICK=1` shrinks the measurement budget for
//! CI; `MRSCH_BENCH_JSON=path` redirects the report.

use criterion::Criterion;
use mrsch_bench::report::{BenchRecord, BenchReport};
use mrsch_linalg::{gemm, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Which contraction a sweep cell measures.
#[derive(Clone, Copy)]
enum Op {
    /// `C = A · B`
    AB,
    /// `C = A · Bᵀ`
    ABt,
    /// `C = Aᵀ · B`
    AtB,
    /// The legacy pre-micro-kernel serial loop (`C = A · B`).
    LegacyBlocked,
}

impl Op {
    fn tag(self) -> &'static str {
        match self {
            Op::AB | Op::LegacyBlocked => "a_b",
            Op::ABt => "a_bt",
            Op::AtB => "at_b",
        }
    }
}

/// One sweep cell: logical `m × k × n` under a policy.
struct Cell {
    id: &'static str,
    op: Op,
    m: usize,
    k: usize,
    n: usize,
    policy: Option<gemm::ParallelPolicy>,
    policy_tag: &'static str,
}

const fn serial(id: &'static str, op: Op, m: usize, k: usize, n: usize) -> Cell {
    Cell { id, op, m, k, n, policy: Some(gemm::ParallelPolicy::Serial), policy_tag: "serial" }
}

/// The sweep. Ids are stable: the regression gate joins on them.
const CELLS: &[Cell] = &[
    // Canonical shape, every policy + the legacy baseline.
    serial("gemm/256x512x256/serial", Op::AB, 256, 512, 256),
    Cell {
        id: "gemm/256x512x256/auto",
        op: Op::AB,
        m: 256,
        k: 512,
        n: 256,
        policy: Some(gemm::ParallelPolicy::Auto),
        policy_tag: "auto",
    },
    Cell {
        id: "gemm/256x512x256/threads2",
        op: Op::AB,
        m: 256,
        k: 512,
        n: 256,
        policy: Some(gemm::ParallelPolicy::Threads { max_threads: 2 }),
        policy_tag: "threads2",
    },
    Cell {
        id: "gemm_blocked_legacy/256x512x256",
        op: Op::LegacyBlocked,
        m: 256,
        k: 512,
        n: 256,
        policy: None,
        policy_tag: "serial",
    },
    // Training-shaped: batch-32 forward and both backward contractions
    // at the scaled network widths (256/128 hidden).
    serial("gemm_train_fwd/32x256x128/serial", Op::AB, 32, 256, 128),
    serial("gemm_train_gradw/256x32x128/serial", Op::AtB, 256, 32, 128),
    serial("gemm_train_gradx/32x128x256/serial", Op::ABt, 32, 128, 256),
    // Large backward panels (the canonical shape's gradients).
    serial("gemm_backward_a_bt/256x256x512/serial", Op::ABt, 256, 256, 512),
    serial("gemm_backward_at_b/512x256x256/serial", Op::AtB, 512, 256, 256),
    // Inference-shaped: batch-1 actor path, scaled and Theta widths.
    serial("gemm_infer/1x256x128/serial", Op::AB, 1, 256, 128),
    serial("gemm_infer_theta/1x4000x1000/serial", Op::AB, 1, 4000, 1000),
];

/// Materialize the operands with the storage shapes the entry point
/// expects (`a_bt` takes B as `(n, k)`; `at_b` takes A as `(k, m)`).
fn operands(cell: &Cell, rng: &mut StdRng) -> (Matrix, Matrix) {
    let (m, k, n) = (cell.m, cell.k, cell.n);
    match cell.op {
        Op::AB | Op::LegacyBlocked => (
            mrsch_linalg::init::gaussian_matrix(rng, m, k, 1.0),
            mrsch_linalg::init::gaussian_matrix(rng, k, n, 1.0),
        ),
        Op::ABt => (
            mrsch_linalg::init::gaussian_matrix(rng, m, k, 1.0),
            mrsch_linalg::init::gaussian_matrix(rng, n, k, 1.0),
        ),
        Op::AtB => (
            mrsch_linalg::init::gaussian_matrix(rng, k, m, 1.0),
            mrsch_linalg::init::gaussian_matrix(rng, k, n, 1.0),
        ),
    }
}

fn main() {
    let quick = std::env::var_os("MRSCH_BENCH_QUICK").is_some();
    let mut criterion = Criterion::default().configure_from_args();
    if quick {
        criterion = criterion
            .sample_size(10)
            .measurement_time(Duration::from_millis(120));
    }
    let mut rng = StdRng::seed_from_u64(1);

    for cell in CELLS {
        let (a, b) = operands(cell, &mut rng);
        match (cell.op, cell.policy) {
            (Op::LegacyBlocked, _) => {
                criterion.bench_function(cell.id, |bch| {
                    bch.iter(|| gemm::reference::blocked_ikj(&a, &b))
                });
            }
            (Op::AB, Some(p)) => {
                criterion.bench_function(cell.id, |bch| bch.iter(|| gemm::matmul_with(&a, &b, p)));
            }
            (Op::ABt, Some(p)) => {
                criterion
                    .bench_function(cell.id, |bch| bch.iter(|| gemm::matmul_a_bt_with(&a, &b, p)));
            }
            (Op::AtB, Some(p)) => {
                criterion
                    .bench_function(cell.id, |bch| bch.iter(|| gemm::matmul_at_b_with(&a, &b, p)));
            }
            _ => unreachable!("policy-less cells are legacy-only"),
        }
    }

    // Assemble the report.
    let mean_of = |id: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
    };
    let legacy_ns = mean_of("gemm_blocked_legacy/256x512x256");
    let serial_ns = mean_of("gemm/256x512x256/serial");

    let results: Vec<BenchRecord> = CELLS
        .iter()
        .filter_map(|cell| {
            let ns = mean_of(cell.id)?;
            let flops = 2.0 * cell.m as f64 * cell.k as f64 * cell.n as f64;
            // The canonical-shape micro-kernel cells carry their in-run
            // speedup over the legacy loop: the gate's tracked metric.
            let tracked = matches!(cell.op, Op::AB) && cell.m == 256;
            let ratio = if tracked { legacy_ns.map(|l| l / ns) } else { None };
            let mut extras = vec![
                ("gflops".to_string(), flops / ns),
                ("m".to_string(), cell.m as f64),
                ("k".to_string(), cell.k as f64),
                ("n".to_string(), cell.n as f64),
            ];
            // In-run thread scaling on the parallel canonical cells.
            if matches!(cell.policy_tag, "auto" | "threads2") {
                if let Some(serial) = serial_ns {
                    extras.push(("speedup_vs_serial".to_string(), serial / ns));
                }
            }
            Some(BenchRecord {
                bench: cell.id.to_string(),
                group: "gemm".to_string(),
                unit: "ns_per_iter".to_string(),
                value: ns,
                ratio,
                ratio_kind: ratio.map_or(String::new(), |_| "speedup_vs_blocked".to_string()),
                extras,
                tags: vec![
                    ("op".to_string(), cell.op.tag().to_string()),
                    ("policy".to_string(), cell.policy_tag.to_string()),
                ],
            })
        })
        .collect();

    let report = BenchReport {
        quick,
        host: mrsch_linalg::kernel_isa().to_string(),
        results,
    };

    // A bare `cargo bench -- <filter>` run that skipped the sweep still
    // writes whatever it measured; the gate catches missing shapes.
    // Cargo runs benches with cwd = the package dir, so anchor the
    // default at the workspace root two levels up.
    let path = std::env::var("MRSCH_BENCH_JSON").unwrap_or_else(|_| {
        format!("{}/../../results/BENCH_gemm.json", env!("CARGO_MANIFEST_DIR"))
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("gemm report: {path} ({} records)", report.results.len()),
        Err(e) => eprintln!("gemm report: failed to write {path}: {e}"),
    }
}
