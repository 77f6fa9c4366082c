//! Restarted GMRES(m) with right preconditioning, flexible (FGMRES) so a
//! variable preconditioner such as AsyRGS drops in.
//!
//! Each restart cycle runs an Arnoldi process (modified Gram-Schmidt) on
//! the right-preconditioned operator and solves the small least-squares
//! problem with Givens rotations, so the recurrence residual is available
//! after every inner step at no extra cost:
//!
//! ```text
//! z_j = M_j^{-1} v_j                (stored: the preconditioner may vary)
//! w   = A z_j ;  MGS against v_0..v_j  ->  column j of H
//! Givens-rotate column j ;  |g_{j+1}| = ||b - A x_j||
//! at cycle end:  solve R y = g ;  x <- x + Z y
//! ```
//!
//! Storing the preconditioned basis `Z` (Saad's FGMRES) is what makes the
//! method *flexible*: the update uses exactly the vectors the variable
//! preconditioner actually produced, so AsyRGS's per-application
//! randomness and thread interleaving are harmless. Right preconditioning
//! also keeps `|g_{j+1}|` equal to the true residual norm of `A x = b`
//! (up to orthogonality roundoff), which is what the driver observes.
//!
//! A vanishing Arnoldi subdiagonal means the Krylov space became
//! invariant ("happy breakdown"): if the residual is at target this is
//! simply convergence; otherwise the solve surfaces
//! [`SolveError::Breakdown`] with the caller's `x` bitwise untouched.

use crate::precond::Preconditioner;
use asyrgs_core::driver::{
    ensure_finite_slice, ensure_square_system, Driver, Recording, Termination,
};
use asyrgs_core::error::SolveError;
use asyrgs_core::report::SolveReport;
use asyrgs_core::workspace::{resize_scratch, resize_scratch_vecs, SolveWorkspace};
use asyrgs_sparse::dense;
use asyrgs_sparse::LinearOperator;

/// Options for restarted (flexible) GMRES.
#[derive(Debug, Clone)]
pub struct GmresOptions {
    /// When to stop: `max_sweeps` caps the *total inner iterations across
    /// restarts* (each costs one operator and one preconditioner
    /// application) and `target_rel_residual` is the tolerance.
    pub term: Termination,
    /// Residual-recording cadence.
    pub record: Recording,
    /// Restart length `m`: the Krylov basis is rebuilt from the current
    /// residual every `m` inner iterations.
    pub restart: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            term: Termination::sweeps(2000).with_target(1e-8),
            record: Recording::every(1),
            restart: 30,
        }
    }
}

/// A Givens rotation `(c, s)` with `c*a + s*b = r`, `-s*a + c*b = 0`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a == 0.0 {
        (0.0, 1.0)
    } else {
        let r = a.hypot(b);
        (a / r, b / r)
    }
}

/// Solve a square (possibly nonsymmetric) `A x = b` by right-preconditioned
/// restarted FGMRES(m) on the caller's [`SolveWorkspace`]. The Arnoldi
/// basis `V` and preconditioned basis `Z` live in the workspace; the small
/// `(m+1) x m` Hessenberg factorization is per-call.
///
/// # Errors
/// Returns a [`SolveError`] and leaves `x` bitwise untouched if the system
/// shape or values are rejected, or on an unconverged happy breakdown
/// ([`SolveError::Breakdown`] with kind `"happy_breakdown"`).
///
/// # Panics
/// Panics if the restart length is zero.
pub fn gmres_solve_in<O: LinearOperator + ?Sized, M: Preconditioner>(
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &GmresOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_system("gmres_solve", a.n_rows(), a.n_cols(), b.len(), x.len())?;
    ensure_finite_slice("gmres_solve", "right-hand side b", b)?;
    ensure_finite_slice("gmres_solve", "initial iterate x", x)?;
    assert!(opts.restart >= 1, "restart length must be at least 1");
    let n = a.n_rows();
    let mdim = opts.restart;
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);

    let mut driver = Driver::new(&opts.term, opts.record);
    resize_scratch(&mut ws.snap, n);
    resize_scratch(&mut ws.resid, n);
    resize_scratch(&mut ws.aux, n);
    resize_scratch_vecs(&mut ws.basis, mdim + 1, n);
    resize_scratch_vecs(&mut ws.flex_basis, mdim, n);
    // Working iterate: the caller's x is copied out only on success, so a
    // typed breakdown leaves it bitwise untouched (invariant 8).
    let xw = &mut ws.snap;
    let r = &mut ws.resid;
    let w = &mut ws.aux;
    xw.copy_from_slice(x);

    // Column-major Hessenberg (rotated in place into R), rotation pairs,
    // and the rotated residual vector g.
    let mut h = vec![0.0; (mdim + 1) * mdim];
    let mut cs = vec![0.0; mdim];
    let mut sn = vec![0.0; mdim];
    let mut g = vec![0.0; mdim + 1];
    let mut y = vec![0.0; mdim];

    a.residual_into(b, xw, r);
    let mut beta = dense::norm2(r);
    let initially_converged = opts
        .term
        .target_rel_residual
        .is_some_and(|tgt| beta / norm_b <= tgt);
    let mut it = 0usize;
    let mut stop = initially_converged;
    while !stop && it < driver.max_sweeps() && beta > f64::MIN_POSITIVE {
        {
            let v0 = &mut ws.basis[0];
            for i in 0..n {
                v0[i] = r[i] / beta;
            }
        }
        g.fill(0.0);
        g[0] = beta;
        let mut k = 0usize;
        let mut happy = false;
        for j in 0..mdim {
            if it >= driver.max_sweeps() {
                break;
            }
            it += 1;
            m.apply(&ws.basis[j], &mut ws.flex_basis[j]);
            a.matvec_into(&ws.flex_basis[j], w);
            let norm_w0 = dense::norm2(w).max(f64::MIN_POSITIVE);
            // Modified Gram-Schmidt: column j of H.
            for i in 0..=j {
                let hij = dense::dot(w, &ws.basis[i]);
                h[i * mdim + j] = hij;
                dense::axpy(-hij, &ws.basis[i], w);
            }
            let hsub = dense::norm2(w);
            h[(j + 1) * mdim + j] = hsub;
            if hsub > 1e-14 * norm_w0 {
                let vnext = &mut ws.basis[j + 1];
                for i in 0..n {
                    vnext[i] = w[i] / hsub;
                }
            } else {
                // The Krylov space became invariant under the
                // preconditioned operator.
                happy = true;
            }
            // Rotate column j by the previous Givens pairs, then zero the
            // subdiagonal with a new pair.
            for i in 0..j {
                let hi = h[i * mdim + j];
                let hi1 = h[(i + 1) * mdim + j];
                h[i * mdim + j] = cs[i] * hi + sn[i] * hi1;
                h[(i + 1) * mdim + j] = -sn[i] * hi + cs[i] * hi1;
            }
            let (c, s) = givens(h[j * mdim + j], h[(j + 1) * mdim + j]);
            cs[j] = c;
            sn[j] = s;
            h[j * mdim + j] = c * h[j * mdim + j] + s * h[(j + 1) * mdim + j];
            h[(j + 1) * mdim + j] = 0.0;
            let gj = g[j];
            g[j] = c * gj;
            g[j + 1] = -s * gj;
            k = j + 1;
            // |g_{k}| is the recurrence residual of A x = b.
            stop = driver.observe(it, it as u64, g[k].abs() / norm_b, None);
            if stop || happy {
                break;
            }
        }
        if k == 0 {
            break;
        }
        // Back-substitute R y = g on the rotated Hessenberg.
        for jj in (0..k).rev() {
            let mut sum = g[jj];
            for ii in jj + 1..k {
                sum -= h[jj * mdim + ii] * y[ii];
            }
            let d = h[jj * mdim + jj];
            if d.abs() <= f64::MIN_POSITIVE {
                return Err(SolveError::Breakdown {
                    kind: "happy_breakdown",
                    iteration: it,
                });
            }
            y[jj] = sum / d;
        }
        // Flexible update: x += Z y uses the stored preconditioned basis.
        for (jj, yj) in y.iter().enumerate().take(k) {
            dense::axpy(*yj, &ws.flex_basis[jj], xw);
        }
        a.residual_into(b, xw, r);
        beta = dense::norm2(r);
        if happy && !stop {
            // Invariant subspace: the least-squares solve above is exact
            // on it, so either we are at target now or no further GMRES
            // progress is possible.
            if opts
                .term
                .target_rel_residual
                .is_some_and(|tgt| beta / norm_b > tgt)
            {
                return Err(SolveError::Breakdown {
                    kind: "happy_breakdown",
                    iteration: it,
                });
            }
            break;
        }
    }

    let final_rel = beta / norm_b;
    x.copy_from_slice(xw);
    let mut report = driver.finish_computed(it as u64, 1, final_rel);
    report.converged_early |= initially_converged;
    Ok(report)
}

/// Solve `A x = b` by right-preconditioned restarted FGMRES(m) with a
/// fresh workspace.
///
/// # Errors
/// See [`gmres_solve_in`].
///
/// # Panics
/// Panics if the restart length is zero.
pub fn try_gmres_solve<O: LinearOperator + ?Sized, M: Preconditioner>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &GmresOptions,
) -> Result<SolveReport, SolveError> {
    gmres_solve_in(&mut SolveWorkspace::new(), a, b, x, m, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, PrecondSpec, SpecPrecond};
    use asyrgs_sparse::CsrMatrix;
    use asyrgs_workloads::laplace2d;

    fn nonsym_problem(n: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let mut dense_a = vec![0.0; n * n];
        for i in 0..n {
            dense_a[i * n + i] = 4.0;
            if i > 0 {
                dense_a[i * n + i - 1] = -1.5;
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
        let rep = try_gmres_solve(&a, &b, &mut x, &IdentityPrecond, &GmresOptions::default())
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
        let rep = try_gmres_solve(&a, &b, &mut x, &IdentityPrecond, &GmresOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.final_rel_residual < 1e-7);
    }

    #[test]
    fn small_restart_still_converges() {
        let (a, b, _) = nonsym_problem(50);
        let mut x = vec![0.0; 50];
        let rep = try_gmres_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &GmresOptions {
                restart: 5,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early, "rel {}", rep.final_rel_residual);
    }

    #[test]
    fn jacobi_preconditioning_converges() {
        let (a, b, _) = nonsym_problem(80);
        let scratch = std::sync::Mutex::new(SolveWorkspace::new());
        let pool = asyrgs_parallel::global();
        let pre = SpecPrecond::new(&a, PrecondSpec::Jacobi, 1, 1.0, 0, pool, &scratch).unwrap();
        let mut x = vec![0.0; 80];
        let rep = try_gmres_solve(&a, &b, &mut x, &pre, &GmresOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
    }

    #[test]
    fn exact_solve_within_one_cycle_on_tiny_system() {
        // n = 4 with restart 8: the Arnoldi space exhausts in at most 4
        // steps (happy breakdown) and the least-squares solve is exact.
        let a = CsrMatrix::from_dense(
            4,
            4,
            &[
                3.0, 1.0, 0.0, 0.0, //
                0.0, 2.0, 1.0, 0.0, //
                0.0, 0.0, 4.0, 1.0, //
                1.0, 0.0, 0.0, 5.0,
            ],
        );
        let x_star = vec![1.0, -2.0, 0.5, 3.0];
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 4];
        let rep = try_gmres_solve(&a, &b, &mut x, &IdentityPrecond, &GmresOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.iterations <= 4);
        for (g, w) in x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-8);
        }
    }

    #[test]
    fn singular_system_breaks_down_and_leaves_x_untouched() {
        // Rank-1 singular A with b outside its range: the one-step Krylov
        // space is invariant but the residual cannot reach target.
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 0.0]);
        let b = vec![1.0, 1.0];
        let mut x = vec![7.25, 7.25];
        let err = try_gmres_solve(&a, &b, &mut x, &IdentityPrecond, &GmresOptions::default())
            .expect_err("singular system must break down");
        assert!(
            matches!(
                err,
                SolveError::Breakdown {
                    kind: "happy_breakdown",
                    ..
                }
            ),
            "got {err:?}"
        );
        assert_eq!(x, vec![7.25, 7.25], "x must stay bitwise untouched");
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let (a, b, _) = nonsym_problem(30);
        let mut ws = SolveWorkspace::new();
        let mut x1 = vec![0.0; 30];
        gmres_solve_in(
            &mut ws,
            &a,
            &b,
            &mut x1,
            &IdentityPrecond,
            &GmresOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut x2 = vec![0.0; 30];
        gmres_solve_in(
            &mut ws,
            &a,
            &b,
            &mut x2,
            &IdentityPrecond,
            &GmresOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x1, x2);
    }

    #[test]
    fn respects_max_iters_mid_cycle() {
        let (a, b, _) = nonsym_problem(100);
        let mut x = vec![0.0; 100];
        let rep = try_gmres_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &GmresOptions {
                term: Termination::sweeps(7).with_target(1e-14),
                restart: 5,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // Budget lands mid-second-cycle; the partial cycle's update is
        // still applied.
        assert_eq!(rep.iterations, 7);
        assert!(!rep.converged_early);
        assert!(x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn cancel_mid_restart_stops_with_partial_cycle_applied() {
        use asyrgs_core::driver::CancelToken;
        let (a, b, _) = nonsym_problem(100);
        let token = CancelToken::new();
        token.cancel();
        let mut x = vec![0.0; 100];
        let rep = try_gmres_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &GmresOptions {
                term: Termination::sweeps(1000)
                    .with_target(1e-12)
                    .with_cancel(token),
                restart: 5,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // The token fires at the first observation point, mid-cycle; the
        // partial cycle's least-squares update is still applied.
        assert!(rep.cancelled);
        assert!(!rep.converged_early);
        assert_eq!(rep.iterations, 1);
        assert!(x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn deadline_mid_restart_stops_on_budget() {
        use std::time::Duration;
        let (a, b, _) = nonsym_problem(100);
        let mut x = vec![0.0; 100];
        let rep = try_gmres_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &GmresOptions {
                term: Termination::sweeps(1_000_000)
                    .with_target(1e-12)
                    .with_wall_clock(Duration::ZERO),
                restart: 5,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.stopped_on_budget);
        assert!(!rep.converged_early);
        assert!(rep.iterations <= 5, "must stop within the first cycle");
    }

    #[test]
    #[should_panic(expected = "restart length")]
    fn rejects_zero_restart() {
        let (a, b, _) = nonsym_problem(4);
        let mut x = vec![0.0; 4];
        try_gmres_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &GmresOptions {
                restart: 0,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn rejects_mismatched_x_with_typed_error() {
        let (a, b, _) = nonsym_problem(4);
        let mut x = vec![0.0; 5];
        let err = try_gmres_solve(&a, &b, &mut x, &IdentityPrecond, &GmresOptions::default())
            .expect_err("shape mismatch");
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    }
}
