//! Operator abstractions: the traits every solver in the workspace is
//! written against.
//!
//! * [`LinearOperator`] — the minimal matrix-free interface (dimensions,
//!   `y <- A x`, diagonal extraction). Object-safe, so solvers that only
//!   need products (CG, FCG) accept `&dyn LinearOperator` as well as any
//!   concrete matrix type.
//! * [`RowAccess`] — the subtrait Gauss-Seidel-style kernels need:
//!   per-row iteration over `(column, value)` pairs in `O(nnz(row))`.
//!   Its visitor method is generic (monomorphized in the hot loops), so
//!   `RowAccess` itself is not object-safe — by design: row kernels are
//!   the inner loops of every solver here.
//!
//! Implementations are provided for [`CsrMatrix`], dense [`RowMajorMat`],
//! references to either, and the zero-copy
//! [`UnitDiagonalView`](crate::scale::UnitDiagonalView) rescaling wrapper.

use crate::csr::CsrMatrix;
use crate::dense::{self, RowMajorMat};
use asyrgs_parallel::WorkerPool;

/// A real linear operator `A: R^{n_cols} -> R^{n_rows}`, accessed through
/// matrix-vector products.
///
/// The trait is object-safe: `&dyn LinearOperator` works anywhere a
/// concrete matrix does (at the cost of virtual dispatch per call, not per
/// entry).
pub trait LinearOperator {
    /// Number of rows (the output dimension).
    fn n_rows(&self) -> usize;

    /// Number of columns (the input dimension).
    fn n_cols(&self) -> usize;

    /// `y <- A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols()` or `y.len() != n_rows()`.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]);

    /// The main diagonal (zero where nothing is stored). Requires a square
    /// operator.
    fn diag(&self) -> Vec<f64>;

    /// The main diagonal written into a reusable buffer (resized to
    /// match) — the allocation-amortized form the solve workspaces use.
    /// The default delegates to [`diag`](Self::diag); implementations with
    /// cheap direct access override it to skip the intermediate `Vec`.
    fn diag_into(&self, out: &mut Vec<f64>) {
        let mut d = self.diag();
        out.clear();
        out.append(&mut d);
    }

    /// Whether the operator is square.
    fn is_square(&self) -> bool {
        self.n_rows() == self.n_cols()
    }

    /// `A x`, allocating the output.
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows()];
        self.matvec_into(x, &mut y);
        y
    }

    /// Residual `r = b - A x`.
    fn residual(&self, b: &[f64], x: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; self.n_rows()];
        self.residual_into(b, x, &mut r);
        r
    }

    /// Residual `r <- b - A x` into a caller-provided buffer — the
    /// allocation-free form used by epoch-boundary residual observers.
    fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        self.matvec_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }

    /// [`residual_into`](Self::residual_into) on up to `threads` workers
    /// of `pool`, bitwise identical to it at every width. The default runs
    /// it serially on the caller; [`CsrMatrix`], whose residual splits by
    /// row, overrides it with
    /// [`CsrMatrix::par_residual_into_on`].
    fn par_residual_into_on(
        &self,
        _pool: &WorkerPool,
        _threads: usize,
        b: &[f64],
        x: &[f64],
        r: &mut [f64],
    ) {
        self.residual_into(b, x, r);
    }

    /// Relative residual `||b - A x||_2 / norm_b` computed through a
    /// caller-provided scratch buffer (no allocation).
    fn rel_residual_into(&self, b: &[f64], x: &[f64], norm_b: f64, scratch: &mut [f64]) -> f64 {
        self.residual_into(b, x, scratch);
        dense::norm2(scratch) / norm_b
    }

    /// Relative residual `||b - A x||_2 / ||b||_2` (with `||b||` clamped
    /// away from zero).
    fn rel_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        dense::norm2(&self.residual(b, x)) / dense::norm2(b).max(f64::MIN_POSITIVE)
    }

    /// Squared A-norm `x^T A x` (meaningful for symmetric operators).
    fn a_norm_sq(&self, x: &[f64]) -> f64 {
        dense::dot(&self.matvec(x), x)
    }

    /// A-norm `||x||_A = sqrt(x^T A x)`.
    fn a_norm(&self, x: &[f64]) -> f64 {
        self.a_norm_sq(x).max(0.0).sqrt()
    }

    /// A-norm computed through a caller-provided matvec scratch buffer
    /// (no allocation). Bitwise identical to [`a_norm`](Self::a_norm).
    fn a_norm_into(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        self.matvec_into(x, scratch);
        dense::dot(scratch, x).max(0.0).sqrt()
    }
}

/// Per-row access for Gauss-Seidel-style kernels.
///
/// `visit_row` is generic over the visitor closure so that solvers
/// monomorphize to direct loops; the provided `row_dot` is the single-row
/// inner product every coordinate update needs.
pub trait RowAccess: LinearOperator {
    /// Visit the stored `(column, value)` entries of row `i`, in increasing
    /// column order.
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, f: F);

    /// Number of stored entries in row `i`.
    fn row_nnz(&self, i: usize) -> usize {
        let mut c = 0;
        self.visit_row(i, |_, _| c += 1);
        c
    }

    /// Dot product of row `i` with the dense vector `x`.
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        self.visit_row(i, |c, v| acc += v * x[c]);
        acc
    }

    /// Dot product of row `i` where element `c` of the vector is produced
    /// by `load(c)` — the loader-generic form of
    /// [`row_dot`](Self::row_dot).
    ///
    /// The asynchronous solvers pass a closure doing a relaxed atomic load
    /// from the shared iterate, so the row walk monomorphizes to the same
    /// unrolled kernel (and the same single-accumulator summation order)
    /// as the slice-based path. The default delegates to `visit_row`;
    /// backends with unrolled kernels override it.
    fn row_dot_with<L: FnMut(usize) -> f64>(&self, i: usize, mut load: L) -> f64 {
        let mut acc = 0.0;
        self.visit_row(i, |c, v| acc += v * load(c));
        acc
    }

    /// Stored entry `(i, j)`, or `0.0` when nothing is stored there.
    ///
    /// The default scans row `i` in `O(nnz(row))`; backends with cheaper
    /// lookup (CSR binary search) override it. This is the point-query the
    /// delay-model executors need to reconstruct stale reads.
    fn row_entry(&self, i: usize, j: usize) -> f64 {
        let mut out = 0.0;
        self.visit_row(i, |c, v| {
            if c == j {
                out = v;
            }
        });
        out
    }

    /// Whether the operator is symmetric to within `tol` (absolute):
    /// `false` when some stored entry has `|a_ij - a_ji| > tol`, an
    /// unstored partner counting as `0.0`, and for every non-square
    /// operator. A NaN entry is never a violation (`NaN > tol` is false);
    /// the solvers' finite check owns non-finite input.
    ///
    /// This is the symmetry admission of the session and the scheduler.
    /// The default walks every stored entry and point-queries its partner
    /// through [`row_entry`](Self::row_entry), allocation-free and exiting
    /// on the first violation. [`CsrMatrix`] overrides it with the
    /// one-pass merge of [`CsrMatrix::is_symmetric`], which gives the same
    /// verdict in `O(nnz + n)`.
    fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.n_rows() {
            let mut ok = true;
            self.visit_row(i, |j, v| {
                if ok && (v - self.row_entry(j, i)).abs() > tol {
                    ok = false;
                }
            });
            if !ok {
                return false;
            }
        }
        true
    }
}

impl LinearOperator for CsrMatrix {
    fn n_rows(&self) -> usize {
        CsrMatrix::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        CsrMatrix::n_cols(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec_into(self, x, y)
    }

    fn diag(&self) -> Vec<f64> {
        CsrMatrix::diag(self)
    }

    fn diag_into(&self, out: &mut Vec<f64>) {
        assert!(self.is_square(), "diag: matrix must be square");
        out.clear();
        out.extend((0..CsrMatrix::n_rows(self)).map(|i| self.get(i, i)));
    }

    fn par_residual_into_on(
        &self,
        pool: &WorkerPool,
        threads: usize,
        b: &[f64],
        x: &[f64],
        r: &mut [f64],
    ) {
        CsrMatrix::par_residual_into_on(self, pool, threads, b, x, r)
    }
}

impl RowAccess for CsrMatrix {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, mut f: F) {
        let (cols, vals) = self.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            f(c, v);
        }
    }

    fn row_nnz(&self, i: usize) -> usize {
        CsrMatrix::row_nnz(self, i)
    }

    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        CsrMatrix::row_dot(self, i, x)
    }

    fn row_dot_with<L: FnMut(usize) -> f64>(&self, i: usize, load: L) -> f64 {
        CsrMatrix::row_dot_with(self, i, load)
    }

    fn row_entry(&self, i: usize, j: usize) -> f64 {
        CsrMatrix::get(self, i, j)
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        CsrMatrix::is_symmetric(self, tol)
    }
}

impl LinearOperator for RowMajorMat {
    fn n_rows(&self) -> usize {
        RowMajorMat::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        RowMajorMat::n_cols(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols(), "matvec: x length mismatch");
        assert_eq!(y.len(), self.n_rows(), "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dense::dot(self.row(i), x);
        }
    }

    fn diag(&self) -> Vec<f64> {
        assert!(self.is_square(), "diag: matrix must be square");
        (0..self.n_rows()).map(|i| self.get(i, i)).collect()
    }
}

impl RowAccess for RowMajorMat {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, mut f: F) {
        for (c, &v) in self.row(i).iter().enumerate() {
            if v != 0.0 {
                f(c, v);
            }
        }
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn n_rows(&self) -> usize {
        (**self).n_rows()
    }

    fn n_cols(&self) -> usize {
        (**self).n_cols()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        (**self).matvec_into(x, y)
    }

    fn diag(&self) -> Vec<f64> {
        (**self).diag()
    }

    fn diag_into(&self, out: &mut Vec<f64>) {
        (**self).diag_into(out)
    }

    fn par_residual_into_on(
        &self,
        pool: &WorkerPool,
        threads: usize,
        b: &[f64],
        x: &[f64],
        r: &mut [f64],
    ) {
        (**self).par_residual_into_on(pool, threads, b, x, r)
    }
}

impl<T: RowAccess> RowAccess for &T {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, f: F) {
        (**self).visit_row(i, f)
    }

    fn row_nnz(&self, i: usize) -> usize {
        (**self).row_nnz(i)
    }

    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        (**self).row_dot(i, x)
    }

    fn row_dot_with<L: FnMut(usize) -> f64>(&self, i: usize, load: L) -> f64 {
        (**self).row_dot_with(i, load)
    }

    fn row_entry(&self, i: usize, j: usize) -> f64 {
        (**self).row_entry(i, j)
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        (**self).is_symmetric(tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        CsrMatrix::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0])
    }

    #[test]
    fn csr_trait_matches_inherent() {
        let m = small();
        let x = vec![1.0, 2.0, 3.0];
        let op: &dyn LinearOperator = &m;
        assert_eq!(op.matvec(&x), m.matvec(&x));
        assert_eq!(op.diag(), m.diag());
        assert_eq!(op.n_rows(), 3);
        assert!(op.is_square());
    }

    #[test]
    fn row_access_visits_in_column_order() {
        let m = small();
        let mut seen = Vec::new();
        RowAccess::visit_row(&m, 1, |c, v| seen.push((c, v)));
        assert_eq!(seen, vec![(0, -1.0), (1, 2.0), (2, -1.0)]);
        assert_eq!(RowAccess::row_nnz(&m, 0), 2);
        let x = vec![1.0, 1.0, 1.0];
        assert_eq!(RowAccess::row_dot(&m, 1, &x), 0.0);
    }

    #[test]
    fn dense_operator_agrees_with_sparse() {
        let m = small();
        let d = RowMajorMat::from_vec(3, 3, m.to_dense());
        let x = vec![0.3, -1.0, 2.0];
        let ys = m.matvec(&x);
        let yd = LinearOperator::matvec(&d, &x);
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-15);
        }
        assert_eq!(LinearOperator::diag(&d), m.diag());
        let mut row = Vec::new();
        RowAccess::visit_row(&d, 0, |c, v| row.push((c, v)));
        assert_eq!(row, vec![(0, 2.0), (1, -1.0)]); // explicit zero skipped
    }

    #[test]
    fn reference_impl_delegates() {
        let m = small();
        let r = &m;
        let x = vec![1.0, 0.0, 0.0];
        assert_eq!(LinearOperator::matvec(&r, &x), m.matvec(&x));
        assert_eq!(RowAccess::row_dot(&r, 0, &x), 2.0);
    }

    #[test]
    fn provided_norms_match_csr_inherent() {
        let m = small();
        let x = vec![1.0, 2.0, -1.0];
        let op: &dyn LinearOperator = &m;
        assert!((op.a_norm(&x) - m.a_norm(&x)).abs() < 1e-14);
        let b = m.matvec(&x);
        assert!(op.rel_residual(&b, &x) < 1e-14);
    }
}
