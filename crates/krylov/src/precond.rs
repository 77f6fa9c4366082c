//! Preconditioners, including the AsyRGS preconditioner of Section 9.
//!
//! A preconditioner here is an operator `z ~ M^{-1} r`. AsyRGS makes a
//! *variable* preconditioner: each application runs a few asynchronous
//! sweeps from a zero initial guess, and both the randomization and the
//! thread interleaving change between applications. That is exactly why the
//! outer Krylov method must be *flexible* (Notay's Flexible-CG, see
//! [`crate::fcg`]); BiCGSTAB, which is not, calls the fixed form
//! [`Preconditioner::apply_fixed`].
//!
//! [`SpecPrecond`] applies any [`PrecondSpec`] to a [`RowAccess`]
//! operator, borrowing a caller-owned [`WorkerPool`] and scratch
//! [`SolveWorkspace`]; [`IdentityPrecond`] is `z = r`.

use asyrgs_core::asyrgs::{asyrgs_solve_in, AsyRgsOptions};
use asyrgs_core::driver::{ensure_beta, ensure_threads, inverse_diag_into, Recording, Termination};
use asyrgs_core::error::SolveError;
use asyrgs_core::workspace::SolveWorkspace;
use asyrgs_parallel::WorkerPool;
use asyrgs_sparse::RowAccess;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An approximate inverse applied to residuals.
pub trait Preconditioner {
    /// Compute `z ~ M^{-1} r`. The operator may change between calls, so
    /// only a flexible outer method (FCG, FGMRES) should call this.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Compute `z = M^{-1} r` for one fixed linear `M^{-1}`, the same on
    /// every call — what a non-flexible recurrence (BiCGSTAB) needs. The
    /// default forwards to [`apply`](Self::apply), which is right for
    /// every preconditioner whose `apply` never varies.
    fn apply_fixed(&self, r: &[f64], z: &mut [f64]) {
        self.apply(r, z);
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

/// Which preconditioner a Krylov solve applies: the FCG, BiCGSTAB and
/// GMRES sessions read it from `SolverBuilder::preconditioner`, and
/// [`SpecPrecond`] applies it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PrecondSpec {
    /// No preconditioning (`z = r`).
    Identity,
    /// Diagonal scaling (`z = D^{-1} r`).
    Jacobi,
    /// `inner_sweeps` of sequential RGS per application (variable): the
    /// AsyRGS sweeps at one thread, whatever thread count is configured.
    Rgs {
        /// Inner sweeps per application.
        inner_sweeps: usize,
    },
    /// `inner_sweeps` of AsyRGS per application on the configured thread
    /// count (the paper's Table 1 / Figure 3 configuration; variable).
    AsyRgs {
        /// Inner sweeps per application.
        inner_sweeps: usize,
    },
}

/// The preconditioner a [`PrecondSpec`] names, over the operator `a`.
///
/// The RGS/AsyRGS specs run `inner_sweeps` sweeps of [`asyrgs_solve_in`]
/// on `a z = r`, RGS at one thread and AsyRGS at `threads`; one thread
/// walks on the caller's thread and never touches the pool.
/// [`apply`](Preconditioner::apply)
/// starts from `z = 0` on a fresh direction substream each call
/// (application `k` uses seed `seed + k * 0x9E3779B9`).
/// [`apply_fixed`](Preconditioner::apply_fixed) pins the first substream
/// and starts from `D^{-1} r`: sweeps draw rows with replacement, so a
/// pinned substream misses the same rows every time, and from a zero
/// start that would make `M^{-1}` singular. The sweeps need a symmetric
/// `a`; for a nonsymmetric system pass its symmetric part
/// (`asyrgs::session::symmetrized`).
///
/// `pool` runs the AsyRGS sweeps on two or more threads. `scratch` holds
/// `D^{-1}` and the inner solves' buffers, and belongs to this
/// preconditioner while it lives.
pub struct SpecPrecond<'a, O> {
    a: &'a O,
    spec: PrecondSpec,
    threads: usize,
    beta: f64,
    seed: u64,
    pool: &'a WorkerPool,
    scratch: &'a Mutex<SolveWorkspace>,
    /// Variable applications so far; each draws a fresh substream.
    applications: AtomicU64,
}

impl<'a, O: RowAccess + Sync> SpecPrecond<'a, O> {
    /// Check the configuration and cache `D^{-1}` of `a` in `scratch`, so
    /// no application can fail.
    ///
    /// # Errors
    /// [`SolveError::ZeroDiagonal`] for a non-positive diagonal entry
    /// (every spec but identity); [`SolveError::InvalidBeta`] (sweeps);
    /// [`SolveError::ZeroThreads`], or [`SolveError::DimensionMismatch`]
    /// for a pool narrower than `threads` (AsyRGS).
    pub fn new(
        a: &'a O,
        spec: PrecondSpec,
        threads: usize,
        beta: f64,
        seed: u64,
        pool: &'a WorkerPool,
        scratch: &'a Mutex<SolveWorkspace>,
    ) -> Result<Self, SolveError> {
        if let PrecondSpec::Rgs { .. } | PrecondSpec::AsyRgs { .. } = spec {
            ensure_beta(beta)?;
        }
        if let PrecondSpec::AsyRgs { .. } = spec {
            ensure_threads(threads)?;
            if threads > pool.concurrency() {
                return Err(SolveError::DimensionMismatch {
                    solver: "precond",
                    detail: format!(
                        "{threads} threads requested but the pool provides {}",
                        pool.concurrency()
                    ),
                });
            }
        }
        if spec != PrecondSpec::Identity {
            let mut ws = scratch.lock().unwrap_or_else(|e| e.into_inner());
            let ws = &mut *ws;
            a.diag_into(&mut ws.diag);
            inverse_diag_into(&ws.diag, &mut ws.dinv)?;
        }
        Ok(SpecPrecond {
            a,
            spec,
            threads,
            beta,
            seed,
            pool,
            scratch,
            applications: AtomicU64::new(0),
        })
    }

    /// One application; `fixed` selects [`Preconditioner::apply_fixed`].
    fn run(&self, r: &[f64], z: &mut [f64], fixed: bool) {
        // A panicked application leaves the scratch valid: the inner
        // solves rewrite `D^{-1}` with the values it already holds and
        // overwrite every other buffer before reading it.
        let mut ws = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        let (inner_sweeps, threads) = match self.spec {
            PrecondSpec::Identity => return z.copy_from_slice(r),
            PrecondSpec::Jacobi => return jacobi(&ws.dinv, r, z),
            PrecondSpec::Rgs { inner_sweeps } => (inner_sweeps, 1),
            PrecondSpec::AsyRgs { inner_sweeps } => (inner_sweeps, self.threads),
        };
        let app = if fixed {
            jacobi(&ws.dinv, r, z);
            0
        } else {
            z.fill(0.0);
            self.applications.fetch_add(1, Ordering::Relaxed)
        };
        let seed = self.seed.wrapping_add(app.wrapping_mul(0x9E37_79B9));
        let opts = AsyRgsOptions {
            beta: self.beta,
            threads,
            seed,
            term: Termination::sweeps(inner_sweeps),
            record: Recording::end_only(),
            ..Default::default()
        };
        asyrgs_solve_in(self.pool, &mut ws, self.a, r, z, None, &opts)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// `z = D^{-1} r`.
fn jacobi(dinv: &[f64], r: &[f64], z: &mut [f64]) {
    assert_eq!(r.len(), dinv.len());
    for ((zi, ri), di) in z.iter_mut().zip(r).zip(dinv) {
        *zi = ri * di;
    }
}

impl<O: RowAccess + Sync> Preconditioner for SpecPrecond<'_, O> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.run(r, z, false);
    }

    fn apply_fixed(&self, r: &[f64], z: &mut [f64]) {
        self.run(r, z, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_sparse::{dense, CsrMatrix};
    use asyrgs_workloads::laplace2d;

    /// Apply `spec` over `a` twice through `apply`, then twice through
    /// `apply_fixed`, on a pool `threads` wide.
    fn four_applications(
        a: &CsrMatrix,
        spec: PrecondSpec,
        threads: usize,
        r: &[f64],
    ) -> [Vec<f64>; 4] {
        let pool = asyrgs_parallel::pool_for(threads);
        let scratch = Mutex::new(SolveWorkspace::new());
        let p = SpecPrecond::new(a, spec, threads, 1.0, 7, &pool, &scratch).unwrap();
        let mut out: [Vec<f64>; 4] = Default::default();
        for (k, z) in out.iter_mut().enumerate() {
            *z = vec![0.0; r.len()];
            if k < 2 {
                p.apply(r, z);
            } else {
                p.apply_fixed(r, z);
            }
        }
        out
    }

    #[test]
    fn identity_is_identity() {
        let p = IdentityPrecond;
        let r = vec![1.0, -2.0, 3.0];
        let mut z = vec![0.0; 3];
        p.apply(&r, &mut z);
        assert_eq!(z, r);
        p.apply_fixed(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, 2.0]);
        let z = four_applications(&a, PrecondSpec::Jacobi, 1, &[8.0, 6.0]);
        for zk in z {
            assert_eq!(zk, vec![2.0, 3.0]);
        }
    }

    #[test]
    fn sweeps_reduce_residual() {
        let a = laplace2d(8, 8);
        let n = a.n_rows();
        let r: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        for (spec, threads) in [
            (PrecondSpec::Rgs { inner_sweeps: 10 }, 1),
            (PrecondSpec::AsyRgs { inner_sweeps: 10 }, 2),
        ] {
            for z in four_applications(&a, spec, threads, &r) {
                // z should approximately solve A z = r: residual shrinks
                // vs z = 0.
                let res = a.residual(&r, &z);
                assert!(dense::norm2(&res) < 0.5 * dense::norm2(&r), "{spec:?}");
            }
        }
    }

    #[test]
    fn new_rejects_what_apply_could_not_survive() {
        let a = CsrMatrix::from_dense(2, 2, &[4.0, 1.0, 1.0, -2.0]);
        let pool = asyrgs_parallel::pool_for(1);
        let scratch = Mutex::new(SolveWorkspace::new());
        let new =
            |spec, threads, beta| SpecPrecond::new(&a, spec, threads, beta, 0, &pool, &scratch);
        let sweeps = PrecondSpec::AsyRgs { inner_sweeps: 1 };
        assert!(new(PrecondSpec::Identity, 1, 1.0).is_ok());
        assert!(matches!(
            new(PrecondSpec::Jacobi, 1, 1.0),
            Err(SolveError::ZeroDiagonal { index: 1, .. })
        ));
        let spd = laplace2d(2, 2);
        let new =
            |spec, threads, beta| SpecPrecond::new(&spd, spec, threads, beta, 0, &pool, &scratch);
        assert!(matches!(
            new(sweeps, 1, 2.0),
            Err(SolveError::InvalidBeta { .. })
        ));
        assert!(matches!(new(sweeps, 0, 1.0), Err(SolveError::ZeroThreads)));
        let wide = pool.concurrency() + 1;
        assert!(matches!(
            new(sweeps, wide, 1.0),
            Err(SolveError::DimensionMismatch { .. })
        ));
        // Beta and threads only matter to the sweeps.
        assert!(new(PrecondSpec::Jacobi, 0, 2.0).is_ok());
    }
}
