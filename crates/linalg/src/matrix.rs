//! Row-major dense `f32` matrix with shape-checked element-wise ops.

use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32`.
///
/// Shapes are `rows x cols`; element `(r, c)` lives at `data[r * cols + c]`.
/// All binary operations panic on shape mismatch — in a scheduling agent a
/// silent broadcast is always a bug.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build a `1 x n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self { rows: 1, cols, data }
    }

    /// Identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning the backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape to `rows x cols` in place and zero-fill, reusing the
    /// backing allocation. This is the scratch-arena primitive: once a
    /// buffer has grown to its steady-state size, repeated resets are
    /// allocation-free.
    pub fn reset_to_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `other` (shape and contents), reusing the
    /// backing allocation when it is large enough.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.check_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// `self -= other`, element-wise.
    pub fn sub_assign(&mut self, other: &Matrix) {
        self.check_same_shape(other, "sub_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= *b;
        }
    }

    /// `self + other`, element-wise.
    pub fn add(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `self - other`, element-wise.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.check_same_shape(other, "hadamard");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// `self *= k` for a scalar `k`.
    pub fn scale_assign(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// `self * k` for a scalar `k`.
    pub fn scale(&self, k: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(k);
        out
    }

    /// `self += k * other` (axpy), the hot path of gradient accumulation.
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        self.check_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * *b;
        }
    }

    /// Add a `1 x cols` row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be a row vector");
        assert_eq!(
            row.cols, self.cols,
            "add_row_broadcast: width mismatch ({} vs {})",
            row.cols, self.cols
        );
        for r in 0..self.rows {
            let start = r * self.cols;
            for c in 0..self.cols {
                self.data[start + c] += row.data[c];
            }
        }
    }

    /// Column-wise sum, producing a `1 x cols` row vector (bias gradient).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            let start = r * self.cols;
            for c in 0..self.cols {
                out.data[c] += self.data[start + c];
            }
        }
        out
    }

    /// Row-wise mean of all entries in each row, as an `rows x 1` column.
    pub fn mean_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        if self.cols == 0 {
            return out;
        }
        let inv = 1.0 / self.cols as f32;
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum::<f32>() * inv;
        }
        out
    }

    /// Apply `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Index of the maximum element of a `1 x n` or `n x 1` vector.
    ///
    /// Ties resolve to the lowest index so that argmax is deterministic.
    /// Returns `None` for an empty matrix.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// True when every element is finite (no NaN/inf) — used as a training
    /// invariant check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Horizontally concatenate matrices with equal row counts.
    ///
    /// This is the "concatenation" step of the DFP joint representation
    /// (state ⊕ measurement ⊕ goal embeddings).
    pub fn hcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hcat: need at least one part");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "hcat: row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0usize;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Split a matrix horizontally at the given column widths.
    ///
    /// Inverse of [`Matrix::hcat`]; used to route the joint-representation
    /// gradient back into each input module.
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        let total: usize = widths.iter().sum();
        assert_eq!(total, self.cols, "hsplit: widths must sum to cols");
        let mut out = Vec::with_capacity(widths.len());
        let mut offset = 0usize;
        for &w in widths {
            let mut part = Matrix::zeros(self.rows, w);
            for r in 0..self.rows {
                part.row_mut(r).copy_from_slice(&self.row(r)[offset..offset + w]);
            }
            out.push(part);
            offset += w;
        }
        out
    }

    fn check_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).into_vec(), vec![5., 7., 9.]);
        assert_eq!(b.sub(&a).into_vec(), vec![3., 3., 3.]);
        assert_eq!(a.hadamard(&b).into_vec(), vec![4., 10., 18.]);
        assert_eq!(a.scale(2.0).into_vec(), vec![2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_vec(1, 2, vec![1., 1.]);
        let g = Matrix::from_vec(1, 2, vec![2., 4.]);
        a.axpy(0.5, &g);
        assert_eq!(a.into_vec(), vec![2., 3.]);
    }

    #[test]
    fn bias_broadcast_and_sum_rows() {
        let mut m = Matrix::zeros(2, 3);
        let bias = Matrix::row_vector(vec![1., 2., 3.]);
        m.add_row_broadcast(&bias);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.row(1), &[1., 2., 3.]);
        assert_eq!(m.sum_rows().into_vec(), vec![2., 4., 6.]);
    }

    #[test]
    fn mean_cols_matches_hand_computation() {
        let m = Matrix::from_vec(2, 2, vec![1., 3., 5., 9.]);
        let mean = m.mean_cols();
        assert_eq!(mean.shape(), (2, 1));
        assert_eq!(mean.as_slice(), &[2.0, 7.0]);
    }

    #[test]
    fn argmax_deterministic_on_ties() {
        let m = Matrix::row_vector(vec![1.0, 3.0, 3.0, 2.0]);
        assert_eq!(m.argmax(), Some(1));
        assert_eq!(Matrix::zeros(0, 0).argmax(), None);
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 1, vec![5., 6.]);
        let joint = Matrix::hcat(&[&a, &b]);
        assert_eq!(joint.shape(), (2, 3));
        assert_eq!(joint.row(0), &[1., 2., 5.]);
        assert_eq!(joint.row(1), &[3., 4., 6.]);
        let parts = joint.hsplit(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn reset_and_copy_reuse_allocation() {
        let mut m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let cap = m.data.capacity();
        m.reset_to_zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap, "shrinking reset must not reallocate");
        let src = Matrix::from_vec(1, 4, vec![7., 8., 9., 10.]);
        m.copy_from(&src);
        assert_eq!(m, src);
        assert_eq!(m.data.capacity(), cap, "shrinking copy must not reallocate");
    }

    #[test]
    fn identity_matmul_property_small() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::identity(2);
        assert_eq!(crate::matmul(&m, &i), m);
    }
}
