//! Kernel replays: the `nn` and `linalg` calls a workload makes, re-run
//! in isolation at that workload's shapes. The layers below `dfp` cannot
//! be timed in place from outside (their calls are made inside
//! `DfpAgent`), so the traced run replays them on recorded inputs
//! instead.

use crate::trace::{self, Span};
use crate::wrappers::NetInput;
use mrsch_dfp::{DfpConfig, DfpNetwork, StateModuleKind};
use mrsch_linalg::{gemv_into, matmul, matmul_a_bt, matmul_at_b, Epilogue, Matrix};
use std::hint::black_box;

/// `(k, n)` of every dense layer one MLP forward pass multiplies through.
/// Empty for the CNN state module (its convolutions are not dense gemv).
pub fn dense_shapes(cfg: &DfpConfig) -> Vec<(usize, usize)> {
    if cfg.state_module != StateModuleKind::Mlp {
        return Vec::new();
    }
    let mut shapes = Vec::new();
    let mut width = cfg.state_dim;
    for &h in cfg.state_hidden.iter().chain([&cfg.state_embed]) {
        shapes.push((width, h));
        width = h;
    }
    for _ in 0..2 {
        shapes.extend([
            (cfg.measurement_dim, cfg.io_hidden),
            (cfg.io_hidden, cfg.io_hidden),
            (cfg.io_hidden, cfg.io_embed),
        ]);
    }
    let joint = cfg.state_embed + 2 * cfg.io_embed;
    let mt = cfg.pred_width();
    shapes.extend([
        (joint, cfg.stream_hidden),
        (cfg.stream_hidden, mt),
        (joint, cfg.stream_hidden),
        (cfg.stream_hidden, cfg.num_actions * mt),
    ]);
    shapes
}

/// Multiply-add operations of one forward pass, **computed** from the
/// layer shapes (2·k·n per dense layer), not measured.
pub fn flops_per_decision(cfg: &DfpConfig) -> f64 {
    dense_shapes(cfg)
        .iter()
        .map(|&(k, n)| 2.0 * (k * n) as f64)
        .sum()
}

/// Weight + bias bytes one forward pass streams, **computed** from the
/// layer shapes (f32), ignoring cache reuse.
pub fn weight_bytes_per_decision(cfg: &DfpConfig) -> f64 {
    dense_shapes(cfg)
        .iter()
        .map(|&(k, n)| 4.0 * (k * n + n) as f64)
        .sum()
}

/// A deterministic non-trivial fill (values in `[-0.5, 0.5)`).
fn filled(rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|i| ((i * 2_654_435_761) % 1024) as f32 / 1024.0 - 0.5);
    Matrix::from_vec(rows, cols, data.collect())
}

/// Replays `DfpNetwork::forward_inference` over the recorded inputs, one
/// `nn.forward` span each.
pub fn nn_forward(net: &DfpNetwork, inputs: &[NetInput]) {
    for (i, (state, meas, goal)) in inputs.iter().enumerate() {
        let s = Matrix::row_vector(state.clone());
        let m = Matrix::row_vector(meas.clone());
        let g = Matrix::row_vector(goal.clone());
        trace::span(Span::NnForward, i as u64, || {
            black_box(net.forward_inference(&s, &m, &g))
        });
    }
}

/// Replays the batch-1 `gemv_into` calls of `decisions` forward passes at
/// the network's dense shapes, one `linalg.gemv` span per pass.
pub fn linalg_gemv(cfg: &DfpConfig, decisions: usize) {
    // One dense layer's operands: input row, weights, bias, output row.
    struct Layer(Vec<f32>, Matrix, Vec<f32>, Vec<f32>);
    let mut layers: Vec<Layer> = dense_shapes(cfg)
        .into_iter()
        .map(|(k, n)| {
            Layer(
                filled(1, k).into_vec(),
                filled(k, n),
                vec![0.1; n],
                vec![0.0; n],
            )
        })
        .collect();
    if layers.is_empty() {
        return;
    }
    for i in 0..decisions {
        trace::span(Span::LinalgGemv, i as u64, || {
            for Layer(x, b, bias, y) in layers.iter_mut() {
                gemv_into(y, x, b, Epilogue::BiasRelu(bias));
                black_box(&y);
            }
        });
    }
}

/// Replays the three GEMMs of one training step (forward `X·W`, weight
/// gradient `Xᵀ·dY`, input gradient `dY·Wᵀ`) at every dense layer, for a
/// batch of `cfg.batch_size` rows, `steps` times.
pub fn linalg_gemm_train(cfg: &DfpConfig, steps: usize) {
    let batch = cfg.batch_size;
    let layers: Vec<(Matrix, Matrix, Matrix)> = dense_shapes(cfg)
        .into_iter()
        .map(|(k, n)| (filled(batch, k), filled(k, n), filled(batch, n)))
        .collect();
    for i in 0..steps as u64 {
        trace::span(Span::LinalgGemmFwd, i, || {
            for (x, w, _) in &layers {
                black_box(matmul(x, w));
            }
        });
        trace::span(Span::LinalgGemmGradW, i, || {
            for (x, _, dy) in &layers {
                black_box(matmul_at_b(x, dy));
            }
        });
        trace::span(Span::LinalgGemmGradX, i, || {
            for (_, w, dy) in &layers {
                black_box(matmul_a_bt(dy, w));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_shapes_account_for_every_mlp_parameter() {
        let cfg = DfpConfig::scaled(702, 2, 10);
        let net = DfpNetwork::new(cfg.clone(), &mut StdRng::seed_from_u64(1));
        let params: usize = dense_shapes(&cfg).iter().map(|&(k, n)| k * n + n).sum();
        assert_eq!(params, net.param_count());
        assert_eq!(weight_bytes_per_decision(&cfg), 4.0 * params as f64);
        assert!(flops_per_decision(&cfg) > 2.0 * 702.0 * 256.0);
    }

    #[test]
    fn cnn_state_module_has_no_dense_replay() {
        let mut cfg = DfpConfig::scaled(64, 2, 4);
        cfg.state_module = StateModuleKind::Cnn;
        assert!(dense_shapes(&cfg).is_empty());
        linalg_gemv(&cfg, 3);
    }
}
