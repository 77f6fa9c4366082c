//! Dense vector and row-major multi-column (multi-RHS) helpers.
//!
//! The solvers in this workspace operate on plain `&[f64]` slices for single
//! right-hand sides and on [`RowMajorMat`] for blocks of right-hand sides.
//! The paper's experiments (Section 9) store the 120,147 x 51 right-hand-side
//! and solution blocks in row-major order "to improve locality"; we mirror
//! that layout here.

/// Dot product `x . y`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y <- a * x + y`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y <- x + b * y` (the CG direction update `p <- r + beta p`).
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// Euclidean norm `||x||_2`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `||x||_inf`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Squared Euclidean norm.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// `x <- a * x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x {
        *v *= a;
    }
}

/// A dense matrix stored row by row, used for multi-RHS blocks.
///
/// Row-major storage keeps the `k` right-hand-side values of a single
/// equation adjacent in memory, which is the layout the paper uses for its
/// 51-column right-hand side (Section 9).
#[derive(Debug, Clone, PartialEq)]
pub struct RowMajorMat {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl RowMajorMat {
    /// Create an `n_rows x n_cols` matrix filled with zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        RowMajorMat {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != n_rows * n_cols`.
    pub fn from_vec(n_rows: usize, n_cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "from_vec: bad length");
        RowMajorMat {
            n_rows,
            n_cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n_cols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n_cols + j] = v;
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy column `j` into `out`.
    pub fn copy_col_into(&self, j: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_rows, "copy_col_into: bad length");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(i, j);
        }
    }

    /// Extract column `j` as a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n_rows];
        self.copy_col_into(j, &mut out);
        out
    }

    /// Overwrite column `j` from a slice.
    pub fn set_col(&mut self, j: usize, col: &[f64]) {
        assert_eq!(col.len(), self.n_rows, "set_col: bad length");
        for (i, v) in col.iter().enumerate() {
            self.set(i, j, *v);
        }
    }

    /// Frobenius norm of the whole block.
    pub fn frobenius_norm(&self) -> f64 {
        norm2(&self.data)
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn xpby_basic() {
        let mut p = vec![1.0, 2.0];
        xpby(&[10.0, 20.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 21.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn scale_basic() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn rowmajor_roundtrip() {
        let mut m = RowMajorMat::zeros(3, 2);
        m.set(1, 1, 5.0);
        m.set(2, 0, -1.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.row(2), &[-1.0, 0.0]);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
    }

    #[test]
    fn rowmajor_col_ops() {
        let m = RowMajorMat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        let mut m2 = m.clone();
        m2.set_col(0, &[9.0, 8.0]);
        assert_eq!(m2.get(0, 0), 9.0);
        assert_eq!(m2.get(1, 0), 8.0);
    }

    #[test]
    fn rowmajor_frobenius() {
        let a = RowMajorMat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn rowmajor_row_mut() {
        let mut m = RowMajorMat::zeros(2, 2);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 0.0, 0.0]);
        m.fill(7.0);
        assert_eq!(m.get(1, 1), 7.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
