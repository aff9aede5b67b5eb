//! Layered micro-kernel GEMM with optional thread-level parallelism.
//!
//! Three entry points cover every contraction the network stack needs:
//!
//! * [`matmul`]        — `C = A · B`          (forward pass)
//! * [`matmul_a_bt`]   — `C = A · Bᵀ`         (input gradient: `dX = dY · Wᵀ`)
//! * [`matmul_at_b`]   — `C = Aᵀ · B`         (weight gradient: `dW = Xᵀ · dY`)
//!
//! All three route through one packed path (BLIS-style layered design):
//! the B operand is packed once into k-major `NR` panels, row bands of
//! the output pack their A rows into k-major `MR` panels per `MC`
//! block, and an `MR`×`NR` register-tiled micro-kernel runs fused
//! multiply-adds over the *entire* reduction depth per tile. The
//! transpose variants absorb their transpose into the packing pass, so
//! they stop paying strided access in the O(m·n·k) loop.
//!
//! # Determinism contract
//!
//! Every output element is one fused-multiply-add chain over `k` in
//! increasing order:
//!
//! ```text
//! C[i][j] = fma(A[i][K-1], B[K-1][j], … fma(A[i][1], B[1][j], fma(A[i][0], B[0][j], 0.0)))
//! ```
//!
//! exactly the order of the naive triple loop in [`reference`]. The
//! micro-kernel keeps a single accumulator per element across the whole
//! `k` extent (no split-K partial sums), panel padding lives in the
//! `M`/`N` dimensions only, and `f32::mul_add` is correctly rounded
//! whether it lands in an FMA instruction or libm — so results are
//! bit-identical across the packed and direct paths, across
//! [`ParallelPolicy`] variants and thread counts (parallelism splits
//! packed output *row bands*, never the reduction), and across hosts.

use crate::matrix::Matrix;
use crate::pack::{self, AlignedBuf};
use std::cell::RefCell;
use std::sync::OnceLock;

/// How a GEMM call may use threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelPolicy {
    /// Always single-threaded.
    Serial,
    /// Split output rows across up to `max_threads` threads when the
    /// problem is large enough to amortize spawn overhead.
    Threads {
        /// Upper bound on worker threads (>= 1).
        max_threads: usize,
    },
    /// Use `std::thread::available_parallelism()` when profitable.
    #[default]
    Auto,
}

/// Minimum number of multiply-adds before threading is considered.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 18;

/// Process-wide default policy used by [`matmul`]: 0 = Auto, 1 = Serial,
/// n >= 2 = `Threads { max_threads: n }`. Results are bit-identical
/// under every policy (row-band splitting preserves reduction order), so
/// this only trades wall time — and lets determinism tests drive the
/// whole pipeline serial vs parallel to prove it.
static DEFAULT_POLICY: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Replace the process-wide default [`ParallelPolicy`] used by [`matmul`]
/// and friends when no explicit policy is given. `Threads` with
/// `max_threads <= 1` means "one thread" and is stored as `Serial` —
/// the execution they describe is identical.
pub fn set_default_policy(policy: ParallelPolicy) {
    let enc = match policy {
        ParallelPolicy::Auto => 0,
        ParallelPolicy::Serial | ParallelPolicy::Threads { max_threads: 0 | 1 } => 1,
        ParallelPolicy::Threads { max_threads } => max_threads,
    };
    DEFAULT_POLICY.store(enc, std::sync::atomic::Ordering::Relaxed);
}

/// The current process-wide default [`ParallelPolicy`].
pub fn default_policy() -> ParallelPolicy {
    match DEFAULT_POLICY.load(std::sync::atomic::Ordering::Relaxed) {
        0 => ParallelPolicy::Auto,
        1 => ParallelPolicy::Serial,
        n => ParallelPolicy::Threads { max_threads: n },
    }
}

fn thread_count(policy: ParallelPolicy, rows: usize, flops: usize) -> usize {
    if flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    // Asked once: on Linux the answer costs cgroup and affinity reads.
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    let n = match policy {
        ParallelPolicy::Serial => 1,
        ParallelPolicy::Threads { max_threads } => max_threads,
        ParallelPolicy::Auto => *HOST_THREADS
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
    };
    n.min(rows).max(1)
}

// ---------------------------------------------------------------------------
// Kernel geometry
// ---------------------------------------------------------------------------

/// Micro-kernel tile rows. 6×16 is the classic Haswell-class f32 shape:
/// 12 vector accumulators + 2 B lanes + 1 broadcast stay inside 16
/// 256-bit registers.
const MR: usize = 6;
/// Micro-kernel tile columns (two 8-lane vectors).
const NR: usize = 16;
/// Below this many multiply-adds (or when `m < MR`) the unpacked direct
/// path wins: packing costs O(m·k + k·n) memory traffic that tiny and
/// skinny problems — notably batch-1 inference — cannot amortize.
const DIRECT_FLOP_THRESHOLD: usize = 1 << 13;
/// Target footprint of one packed A block (`MC × K` f32), sized to sit
/// in L2 while the kernel streams B panels across it.
const A_BLOCK_BYTES: usize = 1 << 18;

/// Rows per packed A block: as many MR-multiples as fit the L2 target,
/// never fewer than one panel.
fn mc_for(k: usize) -> usize {
    let rows = (A_BLOCK_BYTES / 4) / k.max(1);
    (rows.clamp(MR, 256) / MR) * MR
}

thread_local! {
    /// Per-thread scratch for packed A blocks. Long-lived threads (the
    /// serial path, rollout workers calling GEMM directly) reuse it
    /// across calls; the scoped band workers a `Threads`/`Auto` call
    /// spawns are fresh threads, so each band pays one allocation —
    /// noise next to the spawn itself.
    static PACK_A: RefCell<AlignedBuf> = const { RefCell::new(AlignedBuf::new()) };
    /// Per-thread scratch for the packed B operand. B is always packed
    /// on the *calling* thread (then shared read-only with the band
    /// workers), so this one is warm across every call.
    static PACK_B: RefCell<AlignedBuf> = const { RefCell::new(AlignedBuf::new()) };
}

/// Is the AVX2+FMA kernel instantiation usable on this host? Detected
/// once, then cached. Shared with the [`crate::gemv`] kernels.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            STATE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Which micro-kernel instantiation this host dispatches to. Purely
/// informational (benchmark records carry it); both instantiations are
/// bit-identical.
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        return "x86-64 avx2+fma";
    }
    "portable"
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `C = A · B` with the process-wide default parallel policy
/// ([`default_policy`]; `Auto` unless overridden).
///
/// # Panics
/// Panics when `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(a, b, default_policy())
}

/// `C = A · B` under an explicit parallel policy.
pub fn matmul_with(a: &Matrix, b: &Matrix, policy: ParallelPolicy) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims mismatch {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    gemm_core(a, false, b, false, policy)
}

/// `C = A · Bᵀ` (shapes: `(m,k) x (n,k) -> (m,n)`) with the default
/// parallel policy.
///
/// This is the backward-pass input gradient `dX = dY · Wᵀ` without
/// materializing the transpose.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_a_bt_with(a, b, default_policy())
}

/// `C = A · Bᵀ` under an explicit parallel policy.
pub fn matmul_a_bt_with(a: &Matrix, b: &Matrix, policy: ParallelPolicy) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt: inner dims mismatch {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    gemm_core(a, false, b, true, policy)
}

/// `C = Aᵀ · B` (shapes: `(k,m) x (k,n) -> (m,n)`) with the default
/// parallel policy.
///
/// This is the backward-pass weight gradient `dW = Xᵀ · dY` without
/// materializing the transpose.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_at_b_with(a, b, default_policy())
}

/// `C = Aᵀ · B` under an explicit parallel policy.
pub fn matmul_at_b_with(a: &Matrix, b: &Matrix, policy: ParallelPolicy) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b: inner dims mismatch {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
    gemm_core(a, true, b, false, policy)
}

/// `C = A · B` into a caller-owned output (reshaped and reused, no
/// allocation in steady state) — the scratch-arena entry point used by
/// inference. Bit-identical to [`matmul`].
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_into: inner dims mismatch {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    gemm_into_core(a, false, b, false, default_policy(), out);
}

/// `C = A · Bᵀ` into a caller-owned output (see [`matmul_into`]).
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt_into: inner dims mismatch {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    gemm_into_core(a, false, b, true, default_policy(), out);
}

// ---------------------------------------------------------------------------
// Core driver
// ---------------------------------------------------------------------------

/// Logical `(m, k, n)` of `op(A) · op(B)`.
fn dims(a: &Matrix, trans_a: bool, b: &Matrix, trans_b: bool) -> (usize, usize, usize) {
    let (m, k) = if trans_a {
        (a.cols(), a.rows())
    } else {
        (a.rows(), a.cols())
    };
    let n = if trans_b { b.rows() } else { b.cols() };
    (m, k, n)
}

/// `C = op(A) · op(B)` — the shared engine behind every entry point.
fn gemm_core(a: &Matrix, trans_a: bool, b: &Matrix, trans_b: bool, policy: ParallelPolicy) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    gemm_into_core(a, trans_a, b, trans_b, policy, &mut c);
    c
}

/// [`gemm_core`] into a caller-owned, reshaped-in-place output.
fn gemm_into_core(
    a: &Matrix,
    trans_a: bool,
    b: &Matrix,
    trans_b: bool,
    policy: ParallelPolicy,
    c: &mut Matrix,
) {
    let (m, k, n) = dims(a, trans_a, b, trans_b);
    c.reset_to_zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        // K = 0 contracts an empty sum: every element is exactly +0.0,
        // which is what the zeroed output holds.
        return;
    }
    if m == 1 {
        // Batch-1 hot path: the fused gemv kernels — no packing, no
        // threading (one output row), bit-identical chains. Whether A is
        // a `1 x k` row or (trans_a) a `k x 1` column, its backing slice
        // is the same contiguous x vector.
        if trans_b {
            crate::gemv::gemv_at_into(c.as_mut_slice(), a.as_slice(), b, crate::gemv::Epilogue::None);
        } else {
            crate::gemv::gemv_into(c.as_mut_slice(), a.as_slice(), b, crate::gemv::Epilogue::None);
        }
        return;
    }
    let flops = m * n * k;
    let threads = thread_count(policy, m, flops);
    if m < MR || flops < DIRECT_FLOP_THRESHOLD {
        run_banded(threads, m, n, c.as_mut_slice(), &|band, r0, r1| {
            direct_rows(a, trans_a, b, trans_b, band, r0, r1)
        });
        return;
    }
    packed_driver(a, trans_a, b, trans_b, threads, k, m, n, c.as_mut_slice());
}

/// The packed path: pack B once on the calling thread, then run packed
/// row bands.
#[allow(clippy::too_many_arguments)]
fn packed_driver(
    a: &Matrix,
    trans_a: bool,
    b: &Matrix,
    trans_b: bool,
    threads: usize,
    k: usize,
    m: usize,
    n: usize,
    c: &mut [f32],
) {
    PACK_B.with(|buf| {
        let mut buf = buf.borrow_mut();
        let bp = buf.slots(pack::b_len::<NR>(k, n));
        pack::pack_b::<NR>(bp, b, trans_b, 0, n, k);
        let bp: &[f32] = bp;
        run_banded(threads, m, n, c, &|band, r0, r1| {
            packed_rows(a, trans_a, bp, band, r0, r1, k, n)
        });
    });
}

/// Split rows `0..m` of C into contiguous bands, one per thread, and run
/// `f(band, r0, r1)` on each. Band boundaries never change per-element
/// arithmetic — only which thread performs it — so results are
/// bit-identical for every thread count.
fn run_banded<F>(threads: usize, m: usize, n: usize, c: &mut [f32], f: &F)
where
    F: Fn(&mut [f32], usize, usize) + Sync,
{
    if threads <= 1 {
        f(c, 0, m);
        return;
    }
    let chunk = m.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = c;
        let mut row0 = 0usize;
        while row0 < m {
            let rows_here = chunk.min(m - row0);
            let (band, tail) = rest.split_at_mut(rows_here * n);
            rest = tail;
            let r0 = row0;
            scope.spawn(move || f(band, r0, r0 + rows_here));
            row0 += rows_here;
        }
    });
}

// ---------------------------------------------------------------------------
// Packed path
// ---------------------------------------------------------------------------

/// Compute C rows `[r0, r1)` against a fully packed B, packing A in
/// L2-sized blocks. Dispatches to the widest kernel the host supports.
///
/// The thread-local scratch borrow happens *here*, outside the
/// feature-gated region: a closure (as `LocalKey::with` takes) compiled
/// inside a `#[target_feature]` body becomes its own non-FMA function,
/// silently demoting every `mul_add` to a libm call.
#[allow(clippy::too_many_arguments)]
fn packed_rows(a: &Matrix, trans_a: bool, bp: &[f32], band: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    PACK_A.with(|buf| {
        let buf = &mut buf.borrow_mut();
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: avx2 + fma presence verified by `fma_available`.
            unsafe { packed_rows_fma(a, trans_a, bp, band, r0, r1, k, n, buf) };
            return;
        }
        packed_rows_generic(a, trans_a, bp, band, r0, r1, k, n, buf);
    });
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn packed_rows_fma(a: &Matrix, trans_a: bool, bp: &[f32], band: &mut [f32], r0: usize, r1: usize, k: usize, n: usize, buf: &mut AlignedBuf) {
    packed_rows_generic(a, trans_a, bp, band, r0, r1, k, n, buf);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn packed_rows_generic(a: &Matrix, trans_a: bool, bp: &[f32], band: &mut [f32], r0: usize, r1: usize, k: usize, n: usize, buf: &mut AlignedBuf) {
    let rows = r1 - r0;
    let mc = mc_for(k);
    for ic in (0..rows).step_by(mc) {
        let rows_here = mc.min(rows - ic);
        let ap = buf.slots(pack::a_len::<MR>(k, rows_here));
        pack::pack_a::<MR>(ap, a, trans_a, r0 + ic, rows_here, k);
        // Macro-kernel: sweep every B panel across this A block so
        // the block stays hot in L2; the B panel stays hot across
        // the inner A-panel loop.
        for (jp, bpanel) in bp.chunks_exact(k * NR).enumerate() {
            let col0 = jp * NR;
            let cols_valid = NR.min(n - col0);
            for (ip, apanel) in ap.chunks_exact(k * MR).enumerate() {
                let acc = microkernel(k, apanel, bpanel);
                let row_base = ic + ip * MR;
                let rows_valid = MR.min(rows_here - ip * MR);
                for (i, acc_row) in acc.iter().enumerate().take(rows_valid) {
                    let dst = &mut band[(row_base + i) * n + col0..][..cols_valid];
                    dst.copy_from_slice(&acc_row[..cols_valid]);
                }
            }
        }
    }
}

/// The register-tiled inner kernel: an `MR`×`NR` accumulator block over
/// the full reduction depth. Each accumulator element is one fused
/// multiply-add chain in increasing-k order — the bit-exactness spec —
/// and the `MR * NR / 8 = 12` independent chains hide FMA latency.
#[inline(always)]
fn microkernel(k: usize, apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    debug_assert_eq!(apanel.len(), k * MR);
    debug_assert_eq!(bpanel.len(), k * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (ak, bk) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let ak: &[f32; MR] = ak.try_into().expect("panel chunk is MR wide");
        let bk: &[f32; NR] = bk.try_into().expect("panel chunk is NR wide");
        for (acc_row, &av) in acc.iter_mut().zip(ak) {
            for (dst, &bv) in acc_row.iter_mut().zip(bk) {
                *dst = av.mul_add(bv, *dst);
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Direct path (small / skinny problems)
// ---------------------------------------------------------------------------

/// Unpacked fallback for problems too small to amortize packing. Same
/// fused, increasing-k per-element chains as the packed path, so the
/// size-based dispatch never shows in the results.
fn direct_rows(a: &Matrix, trans_a: bool, b: &Matrix, trans_b: bool, band: &mut [f32], r0: usize, r1: usize) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { direct_rows_fma(a, trans_a, b, trans_b, band, r0, r1) };
        return;
    }
    direct_rows_generic(a, trans_a, b, trans_b, band, r0, r1);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn direct_rows_fma(a: &Matrix, trans_a: bool, b: &Matrix, trans_b: bool, band: &mut [f32], r0: usize, r1: usize) {
    direct_rows_generic(a, trans_a, b, trans_b, band, r0, r1);
}

#[inline(always)]
fn direct_rows_generic(a: &Matrix, trans_a: bool, b: &Matrix, trans_b: bool, band: &mut [f32], r0: usize, r1: usize) {
    match (trans_a, trans_b) {
        (false, false) => {
            // ikj: broadcast A[i][k] against row k of B (unit stride on
            // B and C).
            let n = b.cols();
            for i in r0..r1 {
                let out = &mut band[(i - r0) * n..(i - r0 + 1) * n];
                for (kk, &aik) in a.row(i).iter().enumerate() {
                    for (o, &bv) in out.iter_mut().zip(b.row(kk)) {
                        *o = aik.mul_add(bv, *o);
                    }
                }
            }
        }
        (false, true) => {
            // Row-by-row dot products: both operands unit stride.
            let n = b.rows();
            for i in r0..r1 {
                let arow = a.row(i);
                let out = &mut band[(i - r0) * n..(i - r0 + 1) * n];
                for (j, o) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (&x, &y) in arow.iter().zip(b.row(j)) {
                        acc = x.mul_add(y, acc);
                    }
                    *o = acc;
                }
            }
        }
        (true, false) => {
            // k-outer: broadcast A[k][i] against row k of B.
            let n = b.cols();
            for kk in 0..a.rows() {
                let arow = a.row(kk);
                let brow = b.row(kk);
                for i in r0..r1 {
                    let av = arow[i];
                    let out = &mut band[(i - r0) * n..(i - r0 + 1) * n];
                    for (o, &bv) in out.iter_mut().zip(brow) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
        }
        (true, true) => unreachable!("no entry point contracts Aᵀ · Bᵀ"),
    }
}

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

/// Reference implementations: the naive triple loops that *define* the
/// bit-exactness contract.
pub mod reference {
    use super::Matrix;

    /// Naive jik triple loop, fused: the specification every production
    /// path must match bit-for-bit (see the module docs).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "reference matmul: inner dims mismatch");
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a.get(i, kk).mul_add(b.get(kk, j), acc);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    /// Naive `C = A · Bᵀ`.
    pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "reference matmul_a_bt: inner dims mismatch");
        let m = a.rows();
        let n = b.rows();
        let k = a.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a.get(i, kk).mul_add(b.get(j, kk), acc);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    /// Naive `C = Aᵀ · B`.
    pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "reference matmul_at_b: inner dims mismatch");
        let k = a.rows();
        let m = a.cols();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a.get(kk, i).mul_add(b.get(kk, j), acc);
                }
                c.set(i, j, acc);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Tiny deterministic LCG so this test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let data = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_is_bit_identical_to_reference() {
        // Shapes straddling every dispatch edge: tiny (direct), tall,
        // skinny, MR/NR-unaligned, and large enough for the packed path.
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 3),
            (7, 13, 19),
            (16, 16, 16),
            (33, 40, 50),
            (64, 96, 80),
        ] {
            let a = rand_matrix(m, k, 42 + m as u64);
            let b = rand_matrix(k, n, 7 + n as u64);
            assert_eq!(
                matmul_with(&a, &b, ParallelPolicy::Serial),
                reference::matmul(&a, &b),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_and_direct_paths_agree_bitwise() {
        // 64x96x80 crosses DIRECT_FLOP_THRESHOLD (packed); slicing the
        // same data to 4 rows stays direct. Rows computed by either
        // path must match the reference exactly.
        let a = rand_matrix(64, 96, 1);
        let b = rand_matrix(96, 80, 2);
        let full = matmul_with(&a, &b, ParallelPolicy::Serial);
        let small = Matrix::from_vec(4, 96, a.as_slice()[..4 * 96].to_vec());
        let direct = matmul_with(&small, &b, ParallelPolicy::Serial);
        assert_eq!(&full.as_slice()[..4 * 80], direct.as_slice());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let a = rand_matrix(64, 96, 1);
        let b = rand_matrix(96, 80, 2);
        let serial = matmul_with(&a, &b, ParallelPolicy::Serial);
        for threads in [2, 3, 4, 7] {
            let par = matmul_with(&a, &b, ParallelPolicy::Threads { max_threads: threads });
            assert_eq!(serial, par, "threaded GEMM must be bit-identical ({threads} threads)");
        }
    }

    #[test]
    fn default_policy_roundtrips_and_is_bit_stable() {
        let a = rand_matrix(48, 64, 5);
        let b = rand_matrix(64, 40, 6);
        let reference = matmul_with(&a, &b, ParallelPolicy::Serial);
        for policy in [
            ParallelPolicy::Serial,
            ParallelPolicy::Threads { max_threads: 3 },
            ParallelPolicy::Auto,
        ] {
            set_default_policy(policy);
            assert_eq!(default_policy(), policy);
            assert_eq!(matmul(&a, &b), reference, "{policy:?}");
        }
        // Threads{0|1} are one-thread requests: stored as Serial, never
        // widened to 2 workers.
        for single in [0, 1] {
            set_default_policy(ParallelPolicy::Threads { max_threads: single });
            assert_eq!(default_policy(), ParallelPolicy::Serial);
        }
        set_default_policy(ParallelPolicy::Auto);
    }

    #[test]
    fn a_bt_matches_explicit_transpose_bitwise() {
        // Both big (packed) and small (direct) shapes: the fused chains
        // are identical whether Bᵀ is materialized or absorbed into
        // packing.
        for (m, n, k) in [(4, 5, 6), (48, 40, 64)] {
            let a = rand_matrix(m, k, 3);
            let b = rand_matrix(n, k, 4);
            let fast = matmul_a_bt(&a, &b);
            let slow = matmul(&a, &b.transpose());
            assert_eq!(fast, slow, "{m}x{k}x{n}");
            assert_eq!(fast, reference::matmul_a_bt(&a, &b), "{m}x{k}x{n} vs reference");
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose_bitwise() {
        for (m, n, k) in [(4, 5, 6), (48, 40, 64)] {
            let a = rand_matrix(k, m, 5);
            let b = rand_matrix(k, n, 6);
            let fast = matmul_at_b(&a, &b);
            let slow = matmul(&a.transpose(), &b);
            assert_eq!(fast, slow, "{m}x{k}x{n}");
            assert_eq!(fast, reference::matmul_at_b(&a, &b), "{m}x{k}x{n} vs reference");
        }
    }

    #[test]
    fn transpose_variants_parallel_matches_serial() {
        let a = rand_matrix(48, 64, 8);
        let bt = rand_matrix(40, 64, 9);
        assert_eq!(
            matmul_a_bt_with(&a, &bt, ParallelPolicy::Serial),
            matmul_a_bt_with(&a, &bt, ParallelPolicy::Threads { max_threads: 3 }),
        );
        let at = rand_matrix(64, 48, 10);
        let b = rand_matrix(64, 40, 11);
        assert_eq!(
            matmul_at_b_with(&at, &b, ParallelPolicy::Serial),
            matmul_at_b_with(&at, &b, ParallelPolicy::Threads { max_threads: 3 }),
        );
    }

    #[test]
    fn thread_count_is_one_below_the_threshold_and_clamped_to_rows_above() {
        let below = PARALLEL_FLOP_THRESHOLD - 1;
        for policy in [
            ParallelPolicy::Serial,
            ParallelPolicy::Threads { max_threads: 8 },
            ParallelPolicy::Auto,
        ] {
            assert_eq!(thread_count(policy, 64, below), 1, "{policy:?}");
        }
        let threads = |n| ParallelPolicy::Threads { max_threads: n };
        assert_eq!(thread_count(threads(8), 64, PARALLEL_FLOP_THRESHOLD), 8);
        assert_eq!(thread_count(threads(8), 3, PARALLEL_FLOP_THRESHOLD), 3);
        assert_eq!(thread_count(threads(0), 3, PARALLEL_FLOP_THRESHOLD), 1);
        assert_eq!(thread_count(ParallelPolicy::Serial, 64, PARALLEL_FLOP_THRESHOLD), 1);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn degenerate_shapes_yield_exact_zeros_or_match_reference() {
        // K = 0: an empty contraction is exactly +0.0 everywhere.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
        // 1×N routes to the fused gemv kernel, M×1 stays direct; both
        // still match the reference bitwise.
        let a = rand_matrix(1, 9, 20);
        let b = rand_matrix(9, 5, 21);
        assert_eq!(matmul(&a, &b), reference::matmul(&a, &b));
        let a = rand_matrix(7, 9, 22);
        let b = rand_matrix(9, 1, 23);
        assert_eq!(matmul(&a, &b), reference::matmul(&a, &b));
    }

    /// `C = A · B` through the packed (`packed == true`) or direct path
    /// regardless of what [`matmul`]'s dispatch would pick for the shape.
    fn matmul_forced(a: &Matrix, b: &Matrix, packed: bool) -> Matrix {
        let (m, k, n) = dims(a, false, b, false);
        let mut c = Matrix::zeros(m, n);
        if packed {
            packed_driver(a, false, b, false, 1, k, m, n, c.as_mut_slice());
        } else {
            run_banded(1, m, n, c.as_mut_slice(), &|band, r0, r1| {
                direct_rows(a, false, b, false, band, r0, r1)
            });
        }
        c
    }

    #[test]
    fn forced_paths_agree_with_dispatch_bitwise() {
        // Forced packed, forced direct and the gemv routing must all
        // produce the same bits, including on the batch-1 shape where
        // packing pads the row panel.
        for (m, k, n) in [(1, 64, 48), (1, 200, 33), (6, 64, 48), (12, 40, 20)] {
            let a = rand_matrix(m, k, 60 + m as u64);
            let b = rand_matrix(k, n, 61 + n as u64);
            let auto = matmul_with(&a, &b, ParallelPolicy::Serial);
            assert_eq!(auto, matmul_forced(&a, &b, true), "{m}x{k}x{n} packed");
            assert_eq!(auto, matmul_forced(&a, &b, false), "{m}x{k}x{n} direct");
            assert_eq!(auto, reference::matmul(&a, &b), "{m}x{k}x{n} reference");
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let mut out = Matrix::zeros(0, 0);
        for (m, k, n) in [(1, 40, 30), (5, 7, 3), (33, 40, 50)] {
            let a = rand_matrix(m, k, 70 + m as u64);
            let b = rand_matrix(k, n, 71 + n as u64);
            matmul_into(&a, &b, &mut out);
            assert_eq!(out, matmul(&a, &b), "{m}x{k}x{n}");
            let bt = rand_matrix(n, k, 72 + n as u64);
            matmul_a_bt_into(&a, &bt, &mut out);
            assert_eq!(out, matmul_a_bt(&a, &bt), "{m}x{k}x{n} a_bt");
        }
    }

    #[test]
    fn kernel_isa_reports_a_known_instantiation() {
        let isa = kernel_isa();
        assert!(isa == "x86-64 avx2+fma" || isa == "portable", "{isa}");
    }
}
