//! Preconditioners, including the AsyRGS preconditioner of Section 9.
//!
//! A preconditioner here is an operator `z ~ M^{-1} r`. AsyRGS makes a
//! *variable* preconditioner: each application runs a few asynchronous
//! sweeps from a zero initial guess, and both the randomization and the
//! thread interleaving change between applications. That is exactly why the
//! outer Krylov method must be *flexible* (Notay's Flexible-CG, see
//! [`crate::fcg`]).
//!
//! The matrix-backed preconditioners are generic over the operator traits:
//! [`JacobiPrecond`] builds from any [`LinearOperator`]'s diagonal, and the
//! (Asy)RGS preconditioners wrap any [`RowAccess`] operator (defaulting to
//! [`CsrMatrix`]).

use asyrgs_core::asyrgs::{asyrgs_solve_in, AsyRgsOptions};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::error::SolveError;
use asyrgs_core::rgs::{rgs_solve_in, RgsOptions};
use asyrgs_core::workspace::SolveWorkspace;
use asyrgs_parallel::SolvePool;
use asyrgs_sparse::{CsrMatrix, LinearOperator, RowAccess};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An approximate inverse applied to residuals.
pub trait Preconditioner {
    /// Compute `z ~ M^{-1} r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Whether the operator can change between applications (flexible
    /// methods are required if true).
    fn is_variable(&self) -> bool {
        false
    }
}

/// The identity preconditioner: `z = r`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Jacobi (diagonal) preconditioner: `z = D^{-1} r`.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    dinv: Vec<f64>,
}

impl JacobiPrecond {
    /// Build from the operator's diagonal. Panics on non-positive entries.
    pub fn new<O: LinearOperator + ?Sized>(a: &O) -> Self {
        Self::try_new(a).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from the operator's diagonal, rejecting non-positive entries
    /// with a typed error — the fallible form the session layer uses.
    pub fn try_new<O: LinearOperator + ?Sized>(a: &O) -> Result<Self, SolveError> {
        let mut dinv = Vec::new();
        asyrgs_core::driver::inverse_diag_into(&a.diag(), &mut dinv)?;
        Ok(JacobiPrecond { dinv })
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.dinv.len());
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.dinv) {
            *zi = ri * di;
        }
    }
}

/// Sequential Randomized Gauss-Seidel preconditioner: `inner_sweeps` sweeps
/// of RGS on `A z = r` from `z = 0`. Variable (randomized), so use with a
/// flexible outer method.
pub struct RgsPrecond<'a, O: RowAccess = CsrMatrix> {
    a: &'a O,
    /// Sweeps per application.
    inner_sweeps: usize,
    /// Step size.
    beta: f64,
    seed: u64,
    counter: AtomicU64,
    /// Reusable solve scratch: an outer FCG solve applies this operator
    /// hundreds of times, so applications after the first must not
    /// allocate.
    scratch: Mutex<SolveWorkspace>,
}

impl<'a, O: RowAccess> RgsPrecond<'a, O> {
    /// New preconditioner over `a`.
    pub fn new(a: &'a O, inner_sweeps: usize, beta: f64, seed: u64) -> Self {
        RgsPrecond {
            a,
            inner_sweeps,
            beta,
            seed,
            counter: AtomicU64::new(0),
            scratch: Mutex::new(SolveWorkspace::new()),
        }
    }
}

impl<O: RowAccess> Preconditioner for RgsPrecond<'_, O> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        // A fresh direction substream per application.
        let app = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut ws = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        rgs_solve_in(
            &mut ws,
            self.a,
            r,
            z,
            None,
            &RgsOptions {
                beta: self.beta,
                seed: self.seed.wrapping_add(app.wrapping_mul(0x9E37_79B9)),
                term: Termination::sweeps(self.inner_sweeps),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    fn is_variable(&self) -> bool {
        true
    }
}

/// AsyRGS preconditioner (paper Section 9, Table 1 / Figure 3):
/// `inner_sweeps` sweeps of asynchronous Randomized Gauss-Seidel on
/// `A z = r` from `z = 0`, on `threads` threads.
pub struct AsyRgsPrecond<'a, O: RowAccess + Sync = CsrMatrix> {
    a: &'a O,
    /// Sweeps per application ("inner sweeps" in Table 1).
    inner_sweeps: usize,
    /// Worker threads; `pool` is built `threads` wide in
    /// [`new`](Self::new) and never narrower.
    threads: usize,
    /// Step size.
    beta: f64,
    seed: u64,
    counter: AtomicU64,
    /// Worker pool held for the preconditioner's lifetime: an outer FCG
    /// solve applies this operator hundreds of times, so each application
    /// must be a wake/park handshake, never a pool construction.
    pool: SolvePool,
    /// Reusable solve scratch, for the same reason: applications after
    /// the first must not allocate.
    scratch: Mutex<SolveWorkspace>,
}

impl<'a, O: RowAccess + Sync> AsyRgsPrecond<'a, O> {
    /// New preconditioner over `a`.
    pub fn new(a: &'a O, inner_sweeps: usize, threads: usize, beta: f64, seed: u64) -> Self {
        AsyRgsPrecond {
            a,
            inner_sweeps,
            threads,
            beta,
            seed,
            counter: AtomicU64::new(0),
            pool: asyrgs_parallel::pool_for(threads),
            scratch: Mutex::new(SolveWorkspace::new()),
        }
    }

    /// Number of applications so far.
    pub fn applications(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

impl<O: RowAccess + Sync> Preconditioner for AsyRgsPrecond<'_, O> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        let app = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut ws = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        asyrgs_solve_in(
            &self.pool,
            &mut ws,
            self.a,
            r,
            z,
            None,
            &AsyRgsOptions {
                beta: self.beta,
                threads: self.threads,
                seed: self.seed.wrapping_add(app.wrapping_mul(0x9E37_79B9)),
                term: Termination::sweeps(self.inner_sweeps),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    fn is_variable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_sparse::dense;
    use asyrgs_workloads::laplace2d;

    #[test]
    fn identity_is_identity() {
        let p = IdentityPrecond;
        let r = vec![1.0, -2.0, 3.0];
        let mut z = vec![0.0; 3];
        p.apply(&r, &mut z);
        assert_eq!(z, r);
        assert!(!p.is_variable());
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 2.0]);
        let p = JacobiPrecond::new(&a);
        let mut z = vec![0.0; 2];
        p.apply(&[8.0, 6.0], &mut z);
        assert_eq!(z, vec![2.0, 3.0]);
    }

    #[test]
    fn rgs_precond_reduces_residual() {
        let a = laplace2d(8, 8);
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let p = RgsPrecond::new(&a, 10, 1.0, 42);
        assert!(p.is_variable());
        let mut z = vec![0.0; n];
        p.apply(&r, &mut z);
        // z should approximately solve A z = r: residual shrinks vs z = 0.
        let res = a.residual(&r, &z);
        assert!(dense::norm2(&res) < 0.5 * dense::norm2(&r));
    }

    #[test]
    fn asyrgs_precond_reduces_residual_and_counts() {
        let a = laplace2d(8, 8);
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let p = AsyRgsPrecond::new(&a, 10, 2, 1.0, 7);
        let mut z = vec![0.0; n];
        p.apply(&r, &mut z);
        p.apply(&r, &mut z);
        assert_eq!(p.applications(), 2);
        let res = a.residual(&r, &z);
        assert!(dense::norm2(&res) < 0.5 * dense::norm2(&r));
    }

    #[test]
    fn applications_use_different_randomness() {
        // Two applications on the same residual give different (but both
        // useful) outputs — the preconditioner is variable.
        let a = laplace2d(6, 6);
        let n = a.n_rows();
        let r = vec![1.0; n];
        let p = RgsPrecond::new(&a, 2, 1.0, 3);
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        p.apply(&r, &mut z1);
        p.apply(&r, &mut z2);
        assert_ne!(z1, z2);
    }
}
