//! Property test: the fused batch-1 gemv kernels are **bit-identical**
//! to the naive triple-loop reference across random `K`/`N` (including
//! the `K = 0`, `K = 1`, `N = 1` edges), on both ISA instantiations
//! (hardware-dispatched and forced-portable), and with or without the
//! fused bias / bias+ReLU epilogue.
//!
//! This extends the GEMM determinism contract to the serving hot path:
//! routing `matmul` through `gemv` when `m == 1` must never change a
//! single bit, and fusing the dense-layer epilogue must match the
//! unfused `add_row_broadcast` + `max(0.0)` sequence exactly.
//!
//! `gemv_into` skips rows whose input is `±0.0` and applies the rest four
//! at a time, so the sparse-input cases feed it vectors that are 30–70 %
//! exact zeros of both signs, laid out in runs that straddle the 4-row
//! groups. A skipped row can only flip the sign of a zero output, and a
//! chain from `+0.0` reaches `−0.0` only by underflow (pinned by
//! `underflow_to_negative_zero_is_the_only_difference`), so with these
//! magnitudes the outputs must match bit for bit.

use mrsch_linalg::gemv::{
    gemv_at_into, gemv_at_portable_into, gemv_into, gemv_portable_into, Epilogue,
};
use mrsch_linalg::{gemm, Matrix};
use proptest::prelude::*;

/// Deterministic matrix fill from a seed (exact zeros sprinkled in).
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = ((state >> 33) as f32 / (1u64 << 28) as f32) - 16.0;
        if (state >> 21) & 0xF == 0 {
            0.0
        } else {
            v
        }
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: element {} differs: {} vs {}",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// The unfused specification of each epilogue, applied to the reference
/// contraction result.
fn apply_reference_epilogue(y: &mut Matrix, bias: &Matrix, relu: bool) {
    y.add_row_broadcast(bias);
    if relu {
        y.map_inplace(|v| v.max(0.0));
    }
}

/// A `1 x k` input that is `zero_pct` % exact zeros (each `+0.0` or
/// `−0.0`), placed as runs of 1–7 at random starts so runs cross the
/// 4-row group boundaries of `gemv_into`.
fn sparse_x(k: usize, zero_pct: usize, seed: u64) -> Matrix {
    let mut x = lcg_matrix(1, k, seed).as_slice().to_vec();
    // Dense entries must be non-zero so the zero count is exact.
    for v in x.iter_mut().filter(|v| **v == 0.0) {
        *v = 0.5;
    }
    let mut state = seed ^ 0x5EED;
    let mut next = |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % m.max(1)
    };
    let target = k * zero_pct / 100;
    let mut zeros = 0;
    while zeros < target {
        let start = next(k);
        let run = 1 + next(7);
        for v in x.iter_mut().skip(start).take(run) {
            if zeros < target && *v != 0.0 {
                *v = if next(2) == 0 { 0.0 } else { -0.0 };
                zeros += 1;
            }
        }
    }
    Matrix::from_vec(1, k, x)
}

/// One (k, n, seed) case: both kernels, both ISA paths, all epilogues,
/// against the naive reference.
fn check_gemv(k: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
    check_gemv_x(&lcg_matrix(1, k, seed), n, seed)
}

/// [`check_gemv`] for a given input row `x`.
fn check_gemv_x(x: &Matrix, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let k = x.cols();
    let b = lcg_matrix(k, n, seed ^ 0x9E37);
    let bt = lcg_matrix(n, k, seed ^ 0x51DE);
    let bias = lcg_matrix(1, n, seed ^ 0xB1A5);

    // y = x · B, no epilogue, vs reference; dispatched and portable.
    let want = gemm::reference::matmul(x, &b);
    let mut got = vec![0.0f32; n];
    gemv_into(&mut got, x.as_slice(), &b, Epilogue::None);
    assert_bits(&got, want.as_slice(), &format!("gemv {k}x{n}"))?;
    gemv_portable_into(&mut got, x.as_slice(), &b, Epilogue::None);
    assert_bits(&got, want.as_slice(), &format!("gemv portable {k}x{n}"))?;

    // y = x · Bᵀ likewise.
    let want_at = gemm::reference::matmul_a_bt(x, &bt);
    gemv_at_into(&mut got, x.as_slice(), &bt, Epilogue::None);
    assert_bits(&got, want_at.as_slice(), &format!("gemv_at {k}x{n}"))?;
    gemv_at_portable_into(&mut got, x.as_slice(), &bt, Epilogue::None);
    assert_bits(&got, want_at.as_slice(), &format!("gemv_at portable {k}x{n}"))?;

    // Fused epilogues vs the unfused op sequence, both ISA paths.
    for relu in [false, true] {
        let ep = if relu {
            Epilogue::BiasRelu(bias.as_slice())
        } else {
            Epilogue::Bias(bias.as_slice())
        };
        let mut want_ep = want.clone();
        apply_reference_epilogue(&mut want_ep, &bias, relu);
        gemv_into(&mut got, x.as_slice(), &b, ep);
        assert_bits(&got, want_ep.as_slice(), &format!("gemv epilogue relu={relu} {k}x{n}"))?;
        gemv_portable_into(&mut got, x.as_slice(), &b, ep);
        assert_bits(
            &got,
            want_ep.as_slice(),
            &format!("gemv portable epilogue relu={relu} {k}x{n}"),
        )?;

        let mut want_at_ep = want_at.clone();
        apply_reference_epilogue(&mut want_at_ep, &bias, relu);
        gemv_at_into(&mut got, x.as_slice(), &bt, ep);
        assert_bits(&got, want_at_ep.as_slice(), &format!("gemv_at epilogue relu={relu} {k}x{n}"))?;
        gemv_at_portable_into(&mut got, x.as_slice(), &bt, ep);
        assert_bits(
            &got,
            want_at_ep.as_slice(),
            &format!("gemv_at portable epilogue relu={relu} {k}x{n}"),
        )?;
    }

    // The matmul routing itself (m == 1 dispatches into gemv).
    let routed = mrsch_linalg::matmul(x, &b);
    assert_bits(routed.as_slice(), want.as_slice(), &format!("matmul routing {k}x{n}"))?;
    let routed_at = mrsch_linalg::matmul_a_bt(x, &bt);
    assert_bits(routed_at.as_slice(), want_at.as_slice(), &format!("a_bt routing {k}x{n}"))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random K/N straddling the NB = 32 column-block edge and the
    /// 4-row chunking of the transposed kernel.
    #[test]
    fn random_kn_bit_identical(
        k in 0usize..96,
        n in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        check_gemv(k, n, seed)?;
    }

    /// Degenerate extents pinned: empty reduction, single-element
    /// reduction, single output column.
    #[test]
    fn edge_kn_bit_identical(
        k in 0usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        check_gemv(0, n, seed)?;  // K = 0
        check_gemv(1, n, seed)?;  // K = 1
        check_gemv(k, 1, seed)?;  // N = 1
        check_gemv(1, 1, seed)?;  // scalar
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse inputs at every small depth (`k` = 0..=9 covers an empty
    /// input, a lone partial group and one full group plus each
    /// remainder) and at the first-layer depth of the scaled MRSch
    /// state (702).
    #[test]
    fn sparse_x_bit_identical(
        k in 0usize..=9,
        n in 1usize..40,
        zero_pct in 30usize..=70,
        seed in 0u64..1_000_000,
    ) {
        check_gemv_x(&sparse_x(k, zero_pct, seed), n, seed)?;
        check_gemv_x(&sparse_x(702, zero_pct, seed), n, seed)?;
    }
}

/// Every input zero: no row is read, and the output is the `+0.0` the
/// reference chain ends at (`−0 · b + +0 = +0`).
#[test]
fn all_zero_x_gives_positive_zero() {
    let x = Matrix::from_vec(1, 9, (0..9).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect());
    let b = lcg_matrix(9, 5, 3);
    for f in [gemv_into, gemv_portable_into] {
        let mut y = vec![1.0f32; 5];
        f(&mut y, x.as_slice(), &b, Epilogue::None);
        for &v in &y {
            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "got {v}");
        }
    }
}

/// The one case where skipping a zero row is visible: a product that
/// underflows to `−0.0` leaves the accumulator at `−0.0`, and a later
/// zero row turns the reference chain's `−0.0 + (+0.0)` into `+0.0`
/// while the skipping kernel keeps `−0.0`. The two still compare `==`.
#[test]
fn underflow_to_negative_zero_is_the_only_difference() {
    let tiny = f32::from_bits(1); // smallest positive subnormal
    // Row 0: tiny · (−0.25) rounds to −0.0. Row 1: x = +0, b = +1.
    let x = Matrix::from_vec(1, 2, vec![tiny, 0.0]);
    let b = Matrix::from_vec(2, 1, vec![-0.25, 1.0]);
    let want = gemm::reference::matmul(&x, &b);
    assert_eq!(want.as_slice()[0].to_bits(), 0.0f32.to_bits());
    for f in [gemv_into, gemv_portable_into] {
        let mut y = vec![1.0f32; 1];
        f(&mut y, x.as_slice(), &b, Epilogue::None);
        assert_eq!(y[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(y[0], want.as_slice()[0]);
    }
}

#[test]
fn k_zero_is_exact_positive_zero() {
    let x = Matrix::zeros(1, 0);
    let b = Matrix::zeros(0, 7);
    let mut y = vec![1.0f32; 7];
    gemv_into(&mut y, x.as_slice(), &b, Epilogue::None);
    for &v in &y {
        assert_eq!(v.to_bits(), 0.0f32.to_bits(), "K=0 must give +0.0, got {v}");
    }
    let bt = Matrix::zeros(7, 0);
    let mut y = vec![1.0f32; 7];
    gemv_at_into(&mut y, x.as_slice(), &bt, Epilogue::None);
    for &v in &y {
        assert_eq!(v.to_bits(), 0.0f32.to_bits(), "K=0 must give +0.0, got {v}");
    }
}
