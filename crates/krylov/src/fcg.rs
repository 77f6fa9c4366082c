//! Notay's Flexible Conjugate Gradients (FCG).
//!
//! The paper's final experiments (Section 9, Table 1, Figure 3) use AsyRGS
//! as a preconditioner inside "Notay's Flexible-CG algorithm \[16\]... In our
//! implementation we do not use truncation or restarts". A variable
//! (randomized, asynchronous) preconditioner breaks ordinary PCG's implicit
//! A-orthogonality, so the direction must be re-orthogonalized explicitly
//! against the previous direction:
//!
//! ```text
//! z_i    = M_i(r_i)                        (preconditioner application)
//! beta_i = (z_i, A p_{i-1}) / (p_{i-1}, A p_{i-1})
//! p_i    = z_i - beta_i p_{i-1}
//! alpha_i = (p_i, r_i) / (p_i, A p_i)
//! x <- x + alpha_i p_i ;  r <- r - alpha_i A p_i
//! ```
//!
//! This is FCG(1) — flexible CG with one direction retained — which is
//! Notay's method without truncation/restarts.
//!
//! [`fcg_solve_in`] is generic over [`LinearOperator`] (including `&dyn`) and
//! routes stopping and recording through the shared [`asyrgs_core::driver`].

use crate::precond::{PrecondSpec, Preconditioner, SpecPrecond};
use asyrgs_core::driver::{
    ensure_finite_slice, ensure_square_system, Driver, Recording, Termination,
};
use asyrgs_core::error::SolveError;
use asyrgs_core::report::SolveReport;
use asyrgs_core::workspace::{resize_scratch, SolveWorkspace};
use asyrgs_sparse::dense;
use asyrgs_sparse::{CsrMatrix, LinearOperator};
use std::sync::Mutex;

/// Options for Flexible-CG.
#[derive(Debug, Clone)]
pub struct FcgOptions {
    /// When to stop: `max_sweeps` caps the outer iterations and
    /// `target_rel_residual` is the tolerance (the paper uses `1e-8`,
    /// computing the norm after *every* iteration).
    pub term: Termination,
    /// Residual-recording cadence.
    pub record: Recording,
    /// Truncation depth: A-orthogonalize the new direction against this
    /// many previous directions. `1` reproduces the paper's configuration
    /// ("we do not use truncation or restarts" — i.e. plain FCG(1));
    /// larger values give Notay's truncated FCG(m), which a production
    /// solver "might require".
    pub truncate: usize,
    /// Drop all retained directions every `restart_every` iterations
    /// (`None` = never, the paper's configuration).
    pub restart_every: Option<usize>,
}

impl Default for FcgOptions {
    fn default() -> Self {
        FcgOptions {
            term: Termination::sweeps(2000).with_target(1e-8),
            record: Recording::every(1),
            truncate: 1,
            restart_every: None,
        }
    }
}

/// Solve `A x = b` by Flexible-CG with the given (possibly variable)
/// preconditioner, on the caller's [`SolveWorkspace`]. The retained
/// direction history is per-call (its length depends on `truncate`).
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, or `b`/`x` have mismatched lengths.
///
/// # Panics
/// Panics if the truncation depth is zero.
pub fn fcg_solve_in<O: LinearOperator + ?Sized, M: Preconditioner>(
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &FcgOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_system("fcg_solve", a.n_rows(), a.n_cols(), b.len(), x.len())?;
    ensure_finite_slice("fcg_solve", "right-hand side b", b)?;
    ensure_finite_slice("fcg_solve", "initial iterate x", x)?;
    assert!(opts.truncate >= 1, "truncation depth must be at least 1");
    let n = a.n_rows();
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);

    let mut driver = Driver::new(&opts.term, opts.record);
    resize_scratch(&mut ws.resid, n);
    resize_scratch(&mut ws.diff, n);
    resize_scratch(&mut ws.aux, n);
    resize_scratch(&mut ws.aux2, n);
    let r = &mut ws.resid;
    let z = &mut ws.diff;
    let p = &mut ws.aux;
    let ap = &mut ws.aux2;
    a.residual_into(b, x, r);
    // Retained directions for FCG(m): (p_h, A p_h, (p_h, A p_h)).
    let mut history: std::collections::VecDeque<(Vec<f64>, Vec<f64>, f64)> =
        std::collections::VecDeque::with_capacity(opts.truncate);

    let mut it = 0usize;
    let initially_converged = opts
        .term
        .target_rel_residual
        .is_some_and(|t| dense::norm2(r) / norm_b <= t);
    if !initially_converged {
        while it < driver.max_sweeps() {
            it += 1;
            if let Some(re) = opts.restart_every {
                if it.is_multiple_of(re.max(1)) {
                    history.clear();
                }
            }
            m.apply(r, z);
            // A-orthogonalize against the retained directions:
            // p = z - sum_h (z, A p_h)/(p_h, A p_h) p_h.
            p.copy_from_slice(z);
            for (ph, aph, paph) in history.iter() {
                if *paph > 0.0 {
                    let beta = dense::dot(z, aph) / paph;
                    for i in 0..n {
                        p[i] -= beta * ph[i];
                    }
                }
            }
            a.matvec_into(p, ap);
            let mut pap = dense::dot(p, ap);
            if pap <= 0.0 {
                // Preconditioned direction lost positive curvature (can
                // happen with a very rough stochastic preconditioner): fall
                // back to the raw residual direction for this step.
                p.copy_from_slice(r);
                a.matvec_into(p, ap);
                pap = dense::dot(p, ap);
                if pap <= 0.0 {
                    break;
                }
            }
            let alpha = dense::dot(p, r) / pap;
            dense::axpy(alpha, p, x);
            dense::axpy(-alpha, ap, r);

            if history.len() == opts.truncate {
                history.pop_front();
            }
            history.push_back((p.clone(), ap.clone(), pap));

            if driver.observe(it, it as u64, dense::norm2(r) / norm_b, None) {
                break;
            }
        }
    }

    // True (not recurrence) final residual, reusing r as scratch.
    a.residual_into(b, x, r);
    let mut report = driver.finish_computed(it as u64, 1, dense::norm2(r) / norm_b);
    report.converged_early |= initially_converged;
    Ok(report)
}

/// Solve `A x = b` by Flexible-CG with the given (possibly variable)
/// preconditioner.
///
/// # Errors
/// See [`fcg_solve_in`].
///
/// # Panics
/// Panics if the truncation depth is zero.
pub fn try_fcg_solve<O: LinearOperator + ?Sized, M: Preconditioner>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: &FcgOptions,
) -> Result<SolveReport, SolveError> {
    fcg_solve_in(&mut SolveWorkspace::new(), a, b, x, m, opts)
}

/// Summary row of the paper's Table 1: Flexible-CG with an AsyRGS
/// preconditioner at a given inner-sweep count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcgRunSummary {
    /// Inner (preconditioner) sweeps per application.
    pub inner_sweeps: usize,
    /// Outer FCG iterations to convergence.
    pub outer_iters: usize,
    /// `outer * (inner + 1)` — total times the matrix is operated on
    /// (Table 1's "Outer x (Inner + 1)" column).
    pub mat_ops: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Run FCG + AsyRGS preconditioning and summarize as a Table 1 row.
pub fn fcg_asyrgs_summary(
    a: &CsrMatrix,
    b: &[f64],
    inner_sweeps: usize,
    threads: usize,
    beta: f64,
    seed: u64,
    opts: &FcgOptions,
) -> FcgRunSummary {
    let n = a.n_rows();
    let mut x = vec![0.0; n];
    let pool = asyrgs_parallel::pool_for(threads);
    let scratch = Mutex::new(SolveWorkspace::new());
    let spec = PrecondSpec::AsyRgs { inner_sweeps };
    let rep = SpecPrecond::new(a, spec, threads, beta, seed, &pool, &scratch)
        .and_then(|pre| try_fcg_solve(a, b, &mut x, &pre, opts))
        .unwrap_or_else(|e| panic!("{e}"));
    FcgRunSummary {
        inner_sweeps,
        outer_iters: rep.iterations as usize,
        mat_ops: rep.iterations as usize * (inner_sweeps + 1),
        seconds: rep.wall_seconds,
        converged: rep.converged_early,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{try_cg_solve, CgOptions};
    use crate::precond::IdentityPrecond;
    use asyrgs_workloads::laplace2d;

    fn problem(side: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplace2d(side, side);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
        let b = a.matvec(&x_star);
        (a, b, x_star)
    }

    /// FCG on `a x = b` from zero under `spec` at `threads` threads,
    /// beta 1 and the given seed.
    fn fcg_with(
        a: &CsrMatrix,
        b: &[f64],
        spec: PrecondSpec,
        threads: usize,
        seed: u64,
        opts: &FcgOptions,
    ) -> (Vec<f64>, SolveReport) {
        let pool = asyrgs_parallel::pool_for(threads);
        let scratch = Mutex::new(SolveWorkspace::new());
        let pre = SpecPrecond::new(a, spec, threads, 1.0, seed, &pool, &scratch).unwrap();
        let mut x = vec![0.0; a.n_rows()];
        let rep = try_fcg_solve(a, b, &mut x, &pre, opts).unwrap_or_else(|e| panic!("{e}"));
        (x, rep)
    }

    #[test]
    fn fcg_identity_converges_like_cg() {
        let (a, b, _) = problem(10);
        let n = a.n_rows();
        let mut x_fcg = vec![0.0; n];
        let rep_fcg = try_fcg_solve(&a, &b, &mut x_fcg, &IdentityPrecond, &FcgOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        let mut x_cg = vec![0.0; n];
        let rep_cg = try_cg_solve(
            &a,
            &b,
            &mut x_cg,
            &CgOptions {
                term: Termination::sweeps(1000).with_target(1e-8),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep_fcg.converged_early);
        // FCG(1) with the identity preconditioner is mathematically CG;
        // iteration counts match up to roundoff effects.
        let diff = rep_fcg.iterations as i64 - rep_cg.iterations as i64;
        assert!(
            diff.abs() <= 3,
            "fcg {} vs cg {}",
            rep_fcg.iterations,
            rep_cg.iterations
        );
    }

    #[test]
    fn fcg_jacobi_converges() {
        let (a, b, _) = problem(10);
        let (_, rep) = fcg_with(&a, &b, PrecondSpec::Jacobi, 1, 0, &FcgOptions::default());
        assert!(rep.converged_early);
        assert!(rep.final_rel_residual < 1e-7);
    }

    #[test]
    fn rgs_preconditioning_cuts_outer_iterations() {
        let (a, b, _) = problem(14);
        let (_, plain) = fcg_with(&a, &b, PrecondSpec::Identity, 1, 0, &FcgOptions::default());
        let spec = PrecondSpec::Rgs { inner_sweeps: 10 };
        let (_, with_pre) = fcg_with(&a, &b, spec, 1, 5, &FcgOptions::default());
        assert!(with_pre.converged_early);
        assert!(
            with_pre.iterations < plain.iterations,
            "preconditioned {} vs plain {}",
            with_pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn asyrgs_preconditioning_converges_to_tight_tolerance() {
        let (a, b, x_star) = problem(12);
        let spec = PrecondSpec::AsyRgs { inner_sweeps: 5 };
        let (x, rep) = fcg_with(&a, &b, spec, 2, 11, &FcgOptions::default());
        assert!(
            rep.converged_early,
            "no convergence: {}",
            rep.final_rel_residual
        );
        assert!(rep.final_rel_residual < 1e-7);
        for (g, w) in x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn fcg_generic_over_dyn_operator() {
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        let dyn_a: &dyn LinearOperator = &a;
        let scratch = Mutex::new(SolveWorkspace::new());
        let pool = asyrgs_parallel::global();
        let pre = SpecPrecond::new(&a, PrecondSpec::Jacobi, 1, 1.0, 0, pool, &scratch).unwrap();
        let mut x = vec![0.0; n];
        let rep = try_fcg_solve(dyn_a, &b, &mut x, &pre, &FcgOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
    }

    #[test]
    fn more_inner_sweeps_fewer_outer_iterations() {
        // Table 1's monotonicity: increasing preconditioner sweeps lowers
        // the outer iteration count.
        let (a, b, _) = problem(12);
        let s2 = fcg_asyrgs_summary(&a, &b, 2, 2, 1.0, 3, &FcgOptions::default());
        let s10 = fcg_asyrgs_summary(&a, &b, 10, 2, 1.0, 3, &FcgOptions::default());
        assert!(s2.converged && s10.converged);
        assert!(
            s10.outer_iters < s2.outer_iters,
            "10 sweeps: {} outer, 2 sweeps: {} outer",
            s10.outer_iters,
            s2.outer_iters
        );
        assert_eq!(s10.mat_ops, s10.outer_iters * 11);
    }

    #[test]
    fn summary_reports_fields() {
        let (a, b, _) = problem(8);
        let s = fcg_asyrgs_summary(&a, &b, 3, 1, 1.0, 9, &FcgOptions::default());
        assert!(s.converged);
        assert_eq!(s.inner_sweeps, 3);
        assert!(s.seconds >= 0.0);
        assert_eq!(s.mat_ops, s.outer_iters * 4);
    }

    #[test]
    fn truncation_depth_two_converges_no_slower() {
        let (a, b, _) = problem(12);
        let spec = PrecondSpec::Rgs { inner_sweeps: 3 };
        let (_, f1) = fcg_with(&a, &b, spec, 1, 7, &FcgOptions::default());
        let deep = FcgOptions {
            truncate: 3,
            ..Default::default()
        };
        let (_, f2) = fcg_with(&a, &b, spec, 1, 7, &deep);
        assert!(f1.converged_early && f2.converged_early);
        // Deeper orthogonalization should not need substantially more
        // iterations (usually fewer or equal).
        assert!(
            f2.iterations <= f1.iterations + 5,
            "fcg(3) {} vs fcg(1) {}",
            f2.iterations,
            f1.iterations
        );
    }

    #[test]
    fn restart_still_converges() {
        let (a, b, _) = problem(10);
        let restarted = FcgOptions {
            restart_every: Some(10),
            ..Default::default()
        };
        let (_, rep) = fcg_with(&a, &b, PrecondSpec::Jacobi, 1, 0, &restarted);
        assert!(rep.converged_early);
        assert!(rep.final_rel_residual < 1e-7);
    }

    #[test]
    #[should_panic(expected = "truncation depth")]
    fn rejects_zero_truncation() {
        let (a, b, _) = problem(4);
        let mut x = vec![0.0; a.n_rows()];
        try_fcg_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &FcgOptions {
                truncate: 0,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn respects_max_iters() {
        let (a, b, _) = problem(16);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_fcg_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &FcgOptions {
                term: Termination::sweeps(2).with_target(1e-8),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rep.iterations, 2);
        assert!(!rep.converged_early);
    }

    #[test]
    #[should_panic(expected = "fcg_solve: solution vector x has length 5")]
    fn rejects_mismatched_x() {
        let (a, b, _) = problem(4);
        let mut x = vec![0.0; 5];
        try_fcg_solve(&a, &b, &mut x, &IdentityPrecond, &FcgOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
