//! BiCGSTAB (van der Vorst's stabilized bi-conjugate gradients) for
//! nonsymmetric systems, with right preconditioning.
//!
//! The paper's Krylov study (Section 9) uses AsyRGS as a *variable*
//! randomized preconditioner inside a flexible outer method; [`crate::fcg`]
//! reproduces that for SPD systems. BiCGSTAB is the nonsymmetric
//! counterpart this crate routes general square systems through. The
//! preconditioner is applied on the right — each direction is passed
//! through `M^{-1}` just before the operator:
//!
//! ```text
//! p_hat = M^{-1} p ;  v = A p_hat ;  alpha = rho / (r_hat_0, v)
//! s     = r - alpha v
//! s_hat = M^{-1} s ;  t = A s_hat ;  omega = (t, s) / (t, t)
//! x <- x + alpha p_hat + omega s_hat ;  r <- s - omega t
//! ```
//!
//! Right preconditioning keeps the recurrence residual equal to the *true*
//! residual of `A x = b`. BiCGSTAB is not flexible: its recurrence
//! assumes every `M^{-1}` application is the same linear operator, and a
//! preconditioner that changes between applications (fresh randomized
//! sweeps per call) breaks it: the solve ends its budget far from the
//! target, or diverges. So the solver applies `M^{-1}` through
//! [`Preconditioner::apply_fixed`]; for the RGS/AsyRGS specs of
//! [`crate::precond::SpecPrecond`] that pins one direction substream and
//! starts the sweeps from `D^{-1} r`, a fixed linear map. A
//! preconditioner that should vary needs a flexible method:
//! [`crate::fcg`] for SPD systems, [`crate::gmres`] otherwise.
//!
//! Breakdown (`rho`, the `alpha` denominator `(r_hat_0, v)`, or `omega`'s
//! denominator `(t, t)` collapsing to numerical zero) surfaces as
//! [`SolveError::Breakdown`] with the caller's `x` bitwise untouched: the
//! iterate is advanced on workspace scratch and only copied out on success.

use crate::precond::Preconditioner;
use asyrgs_core::driver::{
    ensure_finite_slice, ensure_square_system, Driver, Recording, Termination,
};
use asyrgs_core::error::SolveError;
use asyrgs_core::report::SolveReport;
use asyrgs_core::workspace::{resize_scratch, SolveWorkspace};
use asyrgs_sparse::dense;
use asyrgs_sparse::LinearOperator;

/// Options for BiCGSTAB.
#[derive(Debug, Clone)]
pub struct BicgstabOptions {
    /// When to stop: `max_sweeps` caps the outer iterations (each of which
    /// costs two operator applications and two preconditioner
    /// applications) and `target_rel_residual` is the tolerance.
    pub term: Termination,
    /// Residual-recording cadence.
    pub record: Recording,
    /// Relative threshold below which a recurrence scalar counts as
    /// numerically zero and the solve reports
    /// [`SolveError::Breakdown`].
    pub breakdown_tol: f64,
}

impl Default for BicgstabOptions {
    fn default() -> Self {
        BicgstabOptions {
            term: Termination::sweeps(2000).with_target(1e-8),
            record: Recording::every(1),
            breakdown_tol: 1e-14,
        }
    }
}

/// Solve a square (possibly nonsymmetric) `A x = b` by right-preconditioned
/// BiCGSTAB on the caller's [`SolveWorkspace`].
///
/// # Errors
/// Returns a [`SolveError`] and leaves `x` bitwise untouched if the system
/// shape or values are rejected, or if the recurrence breaks down
/// ([`SolveError::Breakdown`] with kind `"rho"`, `"alpha"`, `"omega"`, or
/// `"nonfinite"` when the residual overflows).
pub fn bicgstab_solve_in<O: LinearOperator + ?Sized, M: Preconditioner>(
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &BicgstabOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_system("bicgstab_solve", a.n_rows(), a.n_cols(), b.len(), x.len())?;
    ensure_finite_slice("bicgstab_solve", "right-hand side b", b)?;
    ensure_finite_slice("bicgstab_solve", "initial iterate x", x)?;
    let n = a.n_rows();
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);

    let mut driver = Driver::new(&opts.term, opts.record);
    resize_scratch(&mut ws.snap, n);
    resize_scratch(&mut ws.resid, n);
    resize_scratch(&mut ws.shadow, n);
    resize_scratch(&mut ws.aux, n);
    resize_scratch(&mut ws.aux2, n);
    resize_scratch(&mut ws.aux3, n);
    resize_scratch(&mut ws.aux4, n);
    resize_scratch(&mut ws.diff, n);
    // Working iterate: the caller's x is copied out only on success, so a
    // typed breakdown leaves it bitwise untouched (invariant 8).
    let xw = &mut ws.snap;
    let r = &mut ws.resid;
    let rhat = &mut ws.shadow;
    let p = &mut ws.aux;
    let v = &mut ws.aux2;
    let t = &mut ws.aux3;
    let sh = &mut ws.aux4;
    let ph = &mut ws.diff;
    xw.copy_from_slice(x);
    a.residual_into(b, xw, r);
    rhat.copy_from_slice(r);
    let norm_rhat = dense::norm2(rhat).max(f64::MIN_POSITIVE);
    p.fill(0.0);
    v.fill(0.0);

    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut norm_r = dense::norm2(r);
    let mut it = 0usize;
    let initially_converged = opts
        .term
        .target_rel_residual
        .is_some_and(|tgt| norm_r / norm_b <= tgt);
    if !initially_converged {
        while it < driver.max_sweeps() {
            it += 1;
            let rho_next = dense::dot(rhat, r);
            if rho_next.abs() < opts.breakdown_tol * norm_rhat * norm_r {
                return Err(SolveError::Breakdown {
                    kind: "rho",
                    iteration: it,
                });
            }
            if it == 1 {
                p.copy_from_slice(r);
            } else {
                if omega == 0.0 || !omega.is_finite() {
                    return Err(SolveError::Breakdown {
                        kind: "omega",
                        iteration: it,
                    });
                }
                let beta = (rho_next / rho) * (alpha / omega);
                for i in 0..n {
                    p[i] = r[i] + beta * (p[i] - omega * v[i]);
                }
            }
            rho = rho_next;
            m.apply_fixed(p, ph);
            a.matvec_into(ph, v);
            let rv = dense::dot(rhat, v);
            let norm_v = dense::norm2(v).max(f64::MIN_POSITIVE);
            if rv.abs() < opts.breakdown_tol * norm_rhat * norm_v {
                return Err(SolveError::Breakdown {
                    kind: "alpha",
                    iteration: it,
                });
            }
            alpha = rho / rv;
            // s = r - alpha v, overwriting r.
            dense::axpy(-alpha, v, r);
            let norm_s = dense::norm2(r);
            if !norm_s.is_finite() {
                // Overflow is a divergence of the recurrence, surfaced as
                // a typed breakdown before any non-finite value can reach
                // the preconditioner (whose input validation would panic).
                return Err(SolveError::Breakdown {
                    kind: "nonfinite",
                    iteration: it,
                });
            }
            if opts
                .term
                .target_rel_residual
                .is_some_and(|tgt| norm_s / norm_b <= tgt)
            {
                // Half-step convergence: take the alpha update and stop.
                dense::axpy(alpha, ph, xw);
                driver.observe(it, it as u64, norm_s / norm_b, None);
                break;
            }
            m.apply_fixed(r, sh);
            a.matvec_into(sh, t);
            let tt = dense::dot(t, t);
            if tt <= f64::MIN_POSITIVE {
                return Err(SolveError::Breakdown {
                    kind: "omega",
                    iteration: it,
                });
            }
            omega = dense::dot(t, r) / tt;
            for i in 0..n {
                xw[i] += alpha * ph[i] + omega * sh[i];
            }
            // r = s - omega t.
            dense::axpy(-omega, t, r);
            norm_r = dense::norm2(r);
            if !norm_r.is_finite() {
                return Err(SolveError::Breakdown {
                    kind: "nonfinite",
                    iteration: it,
                });
            }
            if driver.observe(it, it as u64, norm_r / norm_b, None) {
                break;
            }
        }
    }

    // True (not recurrence) final residual, reusing r as scratch.
    a.residual_into(b, xw, r);
    let final_rel = dense::norm2(r) / norm_b;
    x.copy_from_slice(xw);
    let mut report = driver.finish_computed(it as u64, 1, final_rel);
    report.converged_early |= initially_converged;
    Ok(report)
}

/// Solve `A x = b` by right-preconditioned BiCGSTAB with a fresh workspace.
///
/// # Errors
/// See [`bicgstab_solve_in`].
pub fn try_bicgstab_solve<O: LinearOperator + ?Sized, M: Preconditioner>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &BicgstabOptions,
) -> Result<SolveReport, SolveError> {
    bicgstab_solve_in(&mut SolveWorkspace::new(), a, b, x, m, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, PrecondSpec, SpecPrecond};
    use asyrgs_sparse::CsrMatrix;
    use asyrgs_workloads::laplace2d;

    /// Small nonsymmetric convection-diffusion-like system with a planted
    /// solution.
    fn nonsym_problem(n: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let mut dense_a = vec![0.0; n * n];
        for i in 0..n {
            dense_a[i * n + i] = 4.0;
            if i > 0 {
                dense_a[i * n + i - 1] = -1.5; // upwind: stronger lower band
            }
            if i + 1 < n {
                dense_a[i * n + i + 1] = -0.5;
            }
        }
        let a = CsrMatrix::from_dense(n, n, &dense_a);
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.4).collect();
        let b = a.matvec(&x_star);
        (a, b, x_star)
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let (a, b, x_star) = nonsym_problem(60);
        let mut x = vec![0.0; 60];
        let rep = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early, "rel {}", rep.final_rel_residual);
        for (g, w) in x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn solves_spd_system_too() {
        let a = laplace2d(10, 10);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; n];
        let rep = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.final_rel_residual < 1e-7);
    }

    #[test]
    fn jacobi_preconditioning_converges() {
        let (a, b, _) = nonsym_problem(80);
        let scratch = std::sync::Mutex::new(SolveWorkspace::new());
        let pool = asyrgs_parallel::global();
        let pre = SpecPrecond::new(&a, PrecondSpec::Jacobi, 1, 1.0, 0, pool, &scratch).unwrap();
        let mut x = vec![0.0; 80];
        let rep = try_bicgstab_solve(&a, &b, &mut x, &pre, &BicgstabOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
    }

    #[test]
    fn skew_system_breaks_down_and_leaves_x_untouched() {
        // For skew-symmetric A with r_hat_0 = r_0 = b: (r_hat_0, A p) =
        // (b, A b) = 0 exactly, so the alpha denominator vanishes on the
        // first iteration.
        let a = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, -1.0, 0.0]);
        let b = vec![1.0, 0.0];
        let mut x = vec![7.25, 7.25];
        let err = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .expect_err("skew system must break down");
        assert!(
            matches!(err, SolveError::Breakdown { iteration: 1, .. }),
            "got {err:?}"
        );
        assert_eq!(x, vec![7.25, 7.25], "x must stay bitwise untouched");
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let (a, b, _) = nonsym_problem(30);
        let mut ws = SolveWorkspace::new();
        let mut x1 = vec![0.0; 30];
        bicgstab_solve_in(
            &mut ws,
            &a,
            &b,
            &mut x1,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut x2 = vec![0.0; 30];
        bicgstab_solve_in(
            &mut ws,
            &a,
            &b,
            &mut x2,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x1, x2);
    }

    #[test]
    fn respects_max_iters() {
        let (a, b, _) = nonsym_problem(100);
        let mut x = vec![0.0; 100];
        let rep = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions {
                term: Termination::sweeps(2).with_target(1e-14),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rep.iterations, 2);
        assert!(!rep.converged_early);
    }

    #[test]
    fn cancel_stops_after_first_iteration() {
        use asyrgs_core::driver::CancelToken;
        let (a, b, _) = nonsym_problem(100);
        let token = CancelToken::new();
        token.cancel();
        let mut x = vec![0.0; 100];
        let rep = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions {
                term: Termination::sweeps(1000)
                    .with_target(1e-12)
                    .with_cancel(token),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.cancelled);
        assert!(!rep.converged_early);
        assert_eq!(rep.iterations, 1);
    }

    #[test]
    fn rejects_mismatched_x_with_typed_error() {
        let (a, b, _) = nonsym_problem(4);
        let mut x = vec![0.0; 5];
        let err = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .expect_err("shape mismatch");
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let (a, b, x_star) = nonsym_problem(40);
        let mut x = x_star.clone();
        let rep = try_bicgstab_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &BicgstabOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert_eq!(rep.iterations, 0, "exact start must converge immediately");
        assert_eq!(x, x_star);
    }
}
