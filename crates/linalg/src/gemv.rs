//! Fused batch-1 matrix–vector kernels: the decision-serving hot path.
//!
//! A one-row GEMM cannot amortize panel packing — the packed path would
//! pad the single row to an `MR`-row panel (wasting 5/6 of the
//! micro-kernel FLOPs) and stream the whole B operand through a packing
//! pass first (tripling memory traffic on a shape that is already
//! memory-bound). These kernels skip packing entirely:
//!
//! * [`gemv_into`]    — `y = x · B`   (B stored `k x n`): axpy-style
//!   row streaming — each row of B is read once at unit stride and
//!   accumulates into the L1-resident output row, broadcasting `x[k]`.
//!   Rows whose `x[k]` is `±0.0` are never read (an MRSch state vector
//!   is at least half exact zeros: every resource unit is a pair with
//!   one zero in it), and the remaining rows are applied four at a time,
//!   so the accumulator row is loaded and stored once per four weight
//!   rows instead of once per row.
//! * [`gemv_at_into`] — `y = x · Bᵀ`  (B stored `n x k`): per-output
//!   dot-product chains, four rows in flight for FMA-latency overlap.
//!
//! Both take a fusable [`Epilogue`] (bias add, bias + ReLU) so a dense
//! layer's batch-1 inference is one pass over the weights with no
//! intermediate write-back.
//!
//! # Determinism contract
//!
//! Same as [`crate::gemm`]: every output element is a single
//! `f32::mul_add` chain over `k` in increasing order starting from
//! `+0.0`. Vectorization happens across output columns `j` only — the
//! reduction is never split or reassociated — so results are
//! bit-identical to [`crate::gemm::reference`], to the direct and packed
//! GEMM paths, and across the AVX2+FMA and portable instantiations. The
//! fused bias is the same single `+` the unfused
//! `Matrix::add_row_broadcast` performs, and the fused ReLU is exactly
//! `x.max(0.0)` — one rounding either way.
//!
//! Grouping four rows changes no rounding: `gemv_into` computes
//! `acc = x3·b3 + (x2·b2 + (x1·b1 + (x0·b0 + acc)))` as four nested
//! `mul_add`s, which is the same increasing-`k` chain one row at a time.
//!
//! Skipping a zero row is exact up to the sign of a zero. For finite
//! `b`, `mul_add(±0, b, acc)` is `acc + (±0)`, which equals `acc` —
//! bit for bit — unless `acc` is `−0.0` (then it may become `+0.0`). A
//! chain that starts at `+0.0` reaches `−0.0` only when a product
//! underflows, so the skipped and unskipped chains always compare `==`,
//! and they are bitwise equal unless that output is zero. A non-finite
//! weight in a skipped row would have made the reference output NaN;
//! layer weights are finite.

use crate::matrix::Matrix;

/// Operation fused onto the kernel's register block before write-back.
#[derive(Clone, Copy, Debug)]
pub enum Epilogue<'a> {
    /// Plain contraction: `y = x · op(B)`.
    None,
    /// `y = x · op(B) + bias` — bit-identical to the separate
    /// `add_row_broadcast` (one `+` either way).
    Bias(&'a [f32]),
    /// `y = max(x · op(B) + bias, 0)` — the ReLU is exactly
    /// `Activation::Relu`'s `x.max(0.0)`.
    BiasRelu(&'a [f32]),
}

/// Apply the epilogue to the full accumulator row.
#[inline(always)]
fn apply_epilogue(acc: &mut [f32], epilogue: Epilogue<'_>) {
    match epilogue {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            for (a, &bv) in acc.iter_mut().zip(bias) {
                *a += bv;
            }
        }
        Epilogue::BiasRelu(bias) => {
            for (a, &bv) in acc.iter_mut().zip(bias) {
                *a = (*a + bv).max(0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// y = x · B  (B stored k x n)
// ---------------------------------------------------------------------------

/// `y = x · B` with a fused epilogue; `B` is `k x n`, `x` has length
/// `k`, `y` length `n`. Dispatches to the widest kernel the host
/// supports (see [`crate::kernel_isa`]); both instantiations are
/// bit-identical.
///
/// # Panics
/// Panics when `x.len() != B.rows()` or `y.len() != B.cols()`, or when a
/// bias epilogue is shorter than `y`.
pub fn gemv_into(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    assert_eq!(x.len(), b.rows(), "gemv: x length != B rows");
    assert_eq!(y.len(), b.cols(), "gemv: y length != B cols");
    assert_epilogue_len(y.len(), epilogue);
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { gemv_fma(y, x, b, epilogue) };
        return;
    }
    gemv_body(y, x, b, epilogue);
}

/// The portable instantiation of [`gemv_into`], callable on any host —
/// exists so bit-identity tests can compare both ISA paths on one
/// machine.
pub fn gemv_portable_into(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    assert_eq!(x.len(), b.rows(), "gemv: x length != B rows");
    assert_eq!(y.len(), b.cols(), "gemv: y length != B cols");
    assert_epilogue_len(y.len(), epilogue);
    gemv_body(y, x, b, epilogue);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_fma(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    gemv_body(y, x, b, epilogue);
}

/// The shared kernel body. Axpy-style row streaming: the output row is
/// the accumulator (L1-resident for any realistic layer width) and each
/// row of B is read at most once at unit stride — the shape is
/// memory-bound, so the win is reading fewer weight bytes. Rows with a
/// zero `x[k]` are skipped; the others are gathered four at a time and
/// applied in one pass over the accumulator. Each `y[j]` remains a
/// single `mul_add` chain in increasing-`k` order (vectorization is
/// across `j` only), so results stay equal to the reference (see the
/// module doc for the sign of a zero output).
#[inline(always)]
fn gemv_body(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    let n = b.cols();
    let bs = b.as_slice();
    let row = |kk: usize| &bs[kk * n..kk * n + n];
    y.fill(0.0);
    let mut group = [0usize; 4];
    let mut len = 0;
    for (kk, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        group[len] = kk;
        len += 1;
        if len == 4 {
            len = 0;
            let [k0, k1, k2, k3] = group;
            let (x0, x1, x2, x3) = (x[k0], x[k1], x[k2], x[k3]);
            for ((((a, &b0), &b1), &b2), &b3) in
                y.iter_mut().zip(row(k0)).zip(row(k1)).zip(row(k2)).zip(row(k3))
            {
                *a = x3.mul_add(b3, x2.mul_add(b2, x1.mul_add(b1, x0.mul_add(b0, *a))));
            }
        }
    }
    for &kk in &group[..len] {
        let xv = x[kk];
        for (a, &bv) in y.iter_mut().zip(row(kk)) {
            *a = xv.mul_add(bv, *a);
        }
    }
    apply_epilogue(y, epilogue);
}

// ---------------------------------------------------------------------------
// y = x · Bᵀ  (B stored n x k)
// ---------------------------------------------------------------------------

/// `y = x · Bᵀ` with a fused epilogue; `B` is `n x k` (each output is a
/// dot against a row of B), `x` has length `k`, `y` length `n`.
///
/// # Panics
/// Panics when `x.len() != B.cols()` or `y.len() != B.rows()`, or when a
/// bias epilogue is shorter than `y`.
pub fn gemv_at_into(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    assert_eq!(x.len(), b.cols(), "gemv_at: x length != B cols");
    assert_eq!(y.len(), b.rows(), "gemv_at: y length != B rows");
    assert_epilogue_len(y.len(), epilogue);
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { gemv_at_fma(y, x, b, epilogue) };
        return;
    }
    gemv_at_body(y, x, b, epilogue);
}

/// The portable instantiation of [`gemv_at_into`] (see
/// [`gemv_portable_into`]).
pub fn gemv_at_portable_into(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    assert_eq!(x.len(), b.cols(), "gemv_at: x length != B cols");
    assert_eq!(y.len(), b.rows(), "gemv_at: y length != B rows");
    assert_epilogue_len(y.len(), epilogue);
    gemv_at_body(y, x, b, epilogue);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_at_fma(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    gemv_at_body(y, x, b, epilogue);
}

/// Per-output-row dot chains, four rows in flight so independent FMA
/// chains overlap. Each chain is scalar — vectorizing it would split the
/// reduction and break bit-identity.
#[inline(always)]
fn gemv_at_body(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    let n = b.rows();
    let mut j = 0usize;
    while j + 4 <= n {
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let rows = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
        for ((((&xv, &v0), &v1), &v2), &v3) in
            x.iter().zip(rows.0).zip(rows.1).zip(rows.2).zip(rows.3)
        {
            a0 = xv.mul_add(v0, a0);
            a1 = xv.mul_add(v1, a1);
            a2 = xv.mul_add(v2, a2);
            a3 = xv.mul_add(v3, a3);
        }
        y[j] = a0;
        y[j + 1] = a1;
        y[j + 2] = a2;
        y[j + 3] = a3;
        j += 4;
    }
    for (jj, out) in y.iter_mut().enumerate().skip(j) {
        let mut acc = 0.0f32;
        for (&xv, &bv) in x.iter().zip(b.row(jj)) {
            acc = xv.mul_add(bv, acc);
        }
        *out = acc;
    }
    apply_epilogue(y, epilogue);
}

fn assert_epilogue_len(n: usize, epilogue: Epilogue<'_>) {
    if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) = epilogue {
        assert!(bias.len() >= n, "gemv: bias shorter than output ({} < {n})", bias.len());
    }
}

// ---------------------------------------------------------------------------
// Matrix-shaped conveniences
// ---------------------------------------------------------------------------

/// `y = x · B` as matrices: `x` is `1 x k`, `B` is `k x n`, result `1 x n`.
pub fn gemv(x: &Matrix, b: &Matrix, epilogue: Epilogue<'_>) -> Matrix {
    assert_eq!(x.rows(), 1, "gemv: x must be a row vector");
    let mut y = Matrix::zeros(1, b.cols());
    gemv_into(y.as_mut_slice(), x.as_slice(), b, epilogue);
    y
}

/// `y = x · Bᵀ` as matrices: `x` is `1 x k`, `B` is `n x k`, result `1 x n`.
pub fn gemv_at(x: &Matrix, b: &Matrix, epilogue: Epilogue<'_>) -> Matrix {
    assert_eq!(x.rows(), 1, "gemv_at: x must be a row vector");
    let mut y = Matrix::zeros(1, b.rows());
    gemv_at_into(y.as_mut_slice(), x.as_slice(), b, epilogue);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference;

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let data = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn gemv_matches_reference_bitwise() {
        // Shapes straddling the NB block edge and the scalar tail.
        for (k, n) in [(1, 1), (3, 7), (17, 31), (40, 32), (65, 100), (128, 96)] {
            let x = lcg_matrix(1, k, 11 + k as u64);
            let b = lcg_matrix(k, n, 23 + n as u64);
            let fast = gemv(&x, &b, Epilogue::None);
            assert_eq!(fast, reference::matmul(&x, &b), "{k}x{n}");
        }
    }

    #[test]
    fn gemv_at_matches_reference_bitwise() {
        for (k, n) in [(1, 1), (3, 7), (17, 31), (40, 4), (65, 100)] {
            let x = lcg_matrix(1, k, 31 + k as u64);
            let bt = lcg_matrix(n, k, 43 + n as u64);
            let fast = gemv_at(&x, &bt, Epilogue::None);
            assert_eq!(fast, reference::matmul_a_bt(&x, &bt), "{k}x{n}");
        }
    }

    #[test]
    fn fused_bias_matches_separate_broadcast_bitwise() {
        let (k, n) = (37, 50);
        let x = lcg_matrix(1, k, 5);
        let b = lcg_matrix(k, n, 6);
        let bias = lcg_matrix(1, n, 7);
        let fused = gemv(&x, &b, Epilogue::Bias(bias.as_slice()));
        let mut separate = reference::matmul(&x, &b);
        separate.add_row_broadcast(&bias);
        assert_eq!(fused, separate);
    }

    #[test]
    fn fused_bias_relu_matches_separate_ops_bitwise() {
        let (k, n) = (37, 50);
        let x = lcg_matrix(1, k, 8);
        let b = lcg_matrix(k, n, 9);
        let bias = lcg_matrix(1, n, 10);
        let fused = gemv(&x, &b, Epilogue::BiasRelu(bias.as_slice()));
        let mut separate = reference::matmul(&x, &b);
        separate.add_row_broadcast(&bias);
        separate.map_inplace(|v| v.max(0.0));
        assert_eq!(fused, separate);
    }

    #[test]
    fn portable_path_is_bit_identical_to_dispatched() {
        let (k, n) = (71, 45);
        let x = lcg_matrix(1, k, 12);
        let b = lcg_matrix(k, n, 13);
        let bias = lcg_matrix(1, n, 14);
        for ep in [Epilogue::None, Epilogue::Bias(bias.as_slice()), Epilogue::BiasRelu(bias.as_slice())] {
            let mut fast = vec![0.0f32; n];
            let mut portable = vec![0.0f32; n];
            gemv_into(&mut fast, x.as_slice(), &b, ep);
            gemv_portable_into(&mut portable, x.as_slice(), &b, ep);
            assert_eq!(fast, portable);
        }
        let bt = lcg_matrix(n, k, 15);
        let mut fast = vec![0.0f32; n];
        let mut portable = vec![0.0f32; n];
        gemv_at_into(&mut fast, x.as_slice(), &bt, Epilogue::None);
        gemv_at_portable_into(&mut portable, x.as_slice(), &bt, Epilogue::None);
        assert_eq!(fast, portable);
    }

    #[test]
    fn k_zero_contracts_to_bias_or_exact_zero() {
        let b = Matrix::zeros(0, 5);
        let bias = lcg_matrix(1, 5, 16);
        let plain = gemv(&Matrix::zeros(1, 0), &b, Epilogue::None);
        assert!(plain.as_slice().iter().all(|&v| v == 0.0 && v.is_sign_positive()));
        let biased = gemv(&Matrix::zeros(1, 0), &b, Epilogue::Bias(bias.as_slice()));
        assert_eq!(biased.as_slice(), bias.as_slice());
    }
}
