//! Compressed sparse column (CSC) view.
//!
//! The least-squares coordinate-descent solvers (paper Section 8) walk the
//! *columns* of a rectangular matrix: iteration (21) needs, for a chosen
//! column `j`, the row indices and values of that column. [`CscMatrix`] is a
//! thin wrapper over a transposed CSR that provides exactly this access
//! pattern while remembering the original orientation.

use crate::csr::CsrMatrix;

/// A sparse matrix with efficient column access.
///
/// Internally stores `A^T` in CSR form, so `col(j)` is `A^T.row(j)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Transposed CSR: row `j` of `at` is column `j` of the logical matrix.
    at: CsrMatrix,
}

impl CscMatrix {
    /// Build a CSC view from a CSR matrix (one transpose).
    pub fn from_csr(a: &CsrMatrix) -> Self {
        CscMatrix {
            n_rows: a.n_rows(),
            n_cols: a.n_cols(),
            at: a.transpose(),
        }
    }

    /// Number of rows of the logical matrix.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns of the logical matrix.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.at.nnz()
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        self.at.row(j)
    }

    /// Dot product of column `j` with a dense vector of length `n_rows`.
    #[inline]
    pub fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        self.at.row_dot(j, v)
    }

    /// Squared Euclidean norm of column `j`.
    pub fn col_norm_sq(&self, j: usize) -> f64 {
        self.col(j).1.iter().map(|v| v * v).sum()
    }

    /// Recover the CSR form of the logical matrix (one transpose).
    pub fn to_csr(&self) -> CsrMatrix {
        self.at.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        // [ 0 6 0 ]
        CsrMatrix::from_dense(
            4,
            3,
            &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0, 0.0, 6.0, 0.0],
        )
    }

    #[test]
    fn shape_and_nnz() {
        let c = CscMatrix::from_csr(&rect());
        assert_eq!(c.n_rows(), 4);
        assert_eq!(c.n_cols(), 3);
        assert_eq!(c.nnz(), 6);
    }

    #[test]
    fn column_access() {
        let c = CscMatrix::from_csr(&rect());
        let (rows, vals) = c.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
        let (rows, vals) = c.col(1);
        assert_eq!(rows, &[1, 3]);
        assert_eq!(vals, &[3.0, 6.0]);
    }

    #[test]
    fn col_dot_and_norm() {
        let c = CscMatrix::from_csr(&rect());
        let v = vec![1.0, 1.0, 1.0, 1.0];
        assert_eq!(c.col_dot(0, &v), 5.0);
        assert_eq!(c.col_norm_sq(2), 4.0 + 25.0);
    }

    #[test]
    fn to_csr_roundtrip() {
        let a = rect();
        let c = CscMatrix::from_csr(&a);
        assert_eq!(c.to_csr(), a);
    }
}
