//! Conjugate gradients for SPD systems — the paper's synchronous baseline.
//!
//! Single-RHS CG plus the multi-RHS lockstep variant the paper benchmarks
//! ("a SIMD variant of CG where the indices are assigned to threads in a
//! round-robin manner", Section 9): each right-hand side carries its own
//! scalar recurrences but all share the sparse matrix traversal.
//!
//! [`cg_solve_in`] is generic over [`LinearOperator`] — including unsized
//! operators, so `&dyn LinearOperator` works — and routes stopping and
//! recording through the shared [`asyrgs_core::driver`].

use asyrgs_core::driver::{
    ensure_finite_slice, ensure_square_block_system, ensure_square_system, Driver, Recording,
    Termination,
};
use asyrgs_core::error::SolveError;
use asyrgs_core::report::SolveReport;
use asyrgs_core::workspace::{resize_scratch, SolveWorkspace};
use asyrgs_sparse::dense::{self, RowMajorMat};
use asyrgs_sparse::{CsrMatrix, LinearOperator};

/// Options for the CG solvers.
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// When to stop: `max_sweeps` is the iteration cap and
    /// `target_rel_residual` the convergence tolerance `||r|| / ||b||`
    /// (checked every iteration against the recurrence residual).
    pub term: Termination,
    /// Residual-recording cadence.
    pub record: Recording,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            term: Termination::sweeps(1000).with_target(1e-10),
            record: Recording::every(1),
        }
    }
}

/// Solve `A x = b` (SPD `A`) by conjugate gradients on the caller's
/// [`SolveWorkspace`] — the allocation-amortized entry point behind the
/// session API.
///
/// `x` holds the initial guess on entry and the solution on exit.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, or `b`/`x` have mismatched lengths.
pub fn cg_solve_in<O: LinearOperator + ?Sized>(
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    opts: &CgOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_system("cg_solve", a.n_rows(), a.n_cols(), b.len(), x.len())?;
    ensure_finite_slice("cg_solve", "right-hand side b", b)?;
    ensure_finite_slice("cg_solve", "initial iterate x", x)?;
    let n = a.n_rows();
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);

    let mut driver = Driver::new(&opts.term, opts.record);
    resize_scratch(&mut ws.resid, n);
    resize_scratch(&mut ws.aux, n);
    resize_scratch(&mut ws.aux2, n);
    let r = &mut ws.resid;
    let p = &mut ws.aux;
    let ap = &mut ws.aux2;
    a.residual_into(b, x, r);
    p.copy_from_slice(r);
    let mut rr = dense::norm2_sq(r);

    let mut it = 0usize;
    let initially_converged = opts
        .term
        .target_rel_residual
        .is_some_and(|t| rr.sqrt() / norm_b <= t);
    if !initially_converged {
        while it < driver.max_sweeps() {
            it += 1;
            a.matvec_into(p, ap);
            let pap = dense::dot(p, ap);
            if pap <= 0.0 {
                // Matrix not positive definite along p; stop defensively.
                break;
            }
            let alpha = rr / pap;
            dense::axpy(alpha, p, x);
            dense::axpy(-alpha, ap, r);
            let rr_new = dense::norm2_sq(r);
            let beta = rr_new / rr;
            rr = rr_new;
            dense::xpby(r, beta, p);

            if driver.observe(it, it as u64, rr.sqrt() / norm_b, None) {
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

/// Solve `A x = b` (SPD `A`) by conjugate gradients.
///
/// # Errors
/// See [`cg_solve_in`].
pub fn try_cg_solve<O: LinearOperator + ?Sized>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    opts: &CgOptions,
) -> Result<SolveReport, SolveError> {
    cg_solve_in(&mut SolveWorkspace::new(), a, b, x, opts)
}

/// Multi-RHS lockstep CG: solves `A X = B` with per-column scalar
/// recurrences, one shared SpMM per iteration. Columns that have converged
/// are frozen (per-column tolerance: the termination's
/// `target_rel_residual`, or exact-zero if none). Residuals are recorded
/// as Frobenius-relative.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `X` untouched) if `A` is not
/// square or empty, or the blocks do not conform.
pub fn try_cg_solve_block(
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &CgOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_block_system(
        "cg_solve_block",
        a.n_rows(),
        a.n_cols(),
        b.n_rows(),
        b.n_cols(),
        x.n_rows(),
        x.n_cols(),
    )?;
    ensure_finite_slice("cg_solve_block", "right-hand side B", b.as_slice())?;
    ensure_finite_slice("cg_solve_block", "initial iterate X", x.as_slice())?;
    let n = a.n_rows();
    let k = b.n_cols();
    let norm_b = b.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = opts.term.target_rel_residual.unwrap_or(0.0);
    // Per-column freezing is the block solver's own convergence rule; keep
    // the driver's target unset so it does not early-stop on the Frobenius
    // aggregate.
    let term = Termination {
        target_rel_residual: None,
        ..opts.term.clone()
    };

    let mut driver = Driver::new(&term, opts.record);

    // R = B - A X
    let mut r = a.residual_block(b, x);
    let mut p = r.clone();
    let mut ap = RowMajorMat::zeros(n, k);
    let mut rr: Vec<f64> = (0..k)
        .map(|t| {
            let col = r.col(t);
            dense::norm2_sq(&col)
        })
        .collect();
    let col_norm_b: Vec<f64> = (0..k)
        .map(|t| dense::norm2(&b.col(t)).max(f64::MIN_POSITIVE))
        .collect();
    let mut active: Vec<bool> = rr
        .iter()
        .zip(&col_norm_b)
        .map(|(&rr_t, &nb)| rr_t.sqrt() / nb > tol)
        .collect();

    let mut it = 0usize;
    while active.iter().any(|&a| a) && it < driver.max_sweeps() {
        it += 1;
        a.spmm_into(&p, &mut ap);
        // Per-column alpha = rr_t / (p_t, Ap_t).
        let mut pap = vec![0.0f64; k];
        for i in 0..n {
            let pr = p.row(i);
            let apr = ap.row(i);
            for t in 0..k {
                pap[t] += pr[t] * apr[t];
            }
        }
        let mut alpha = vec![0.0f64; k];
        for t in 0..k {
            if active[t] && pap[t] > 0.0 {
                alpha[t] = rr[t] / pap[t];
            }
        }
        for i in 0..n {
            let pr = p.row(i).to_vec();
            let apr = ap.row(i).to_vec();
            let xr = x.row_mut(i);
            for t in 0..k {
                xr[t] += alpha[t] * pr[t];
            }
            let rrow = r.row_mut(i);
            for t in 0..k {
                rrow[t] -= alpha[t] * apr[t];
            }
        }
        let mut rr_new = vec![0.0f64; k];
        for i in 0..n {
            let rrow = r.row(i);
            for t in 0..k {
                rr_new[t] += rrow[t] * rrow[t];
            }
        }
        for i in 0..n {
            let rrow = r.row(i).to_vec();
            let prow = p.row_mut(i);
            for t in 0..k {
                if active[t] {
                    let beta = if rr[t] > 0.0 { rr_new[t] / rr[t] } else { 0.0 };
                    prow[t] = rrow[t] + beta * prow[t];
                }
            }
        }
        for t in 0..k {
            if active[t] {
                rr[t] = rr_new[t];
                if rr[t].sqrt() / col_norm_b[t] <= tol {
                    active[t] = false;
                }
            }
        }

        let frob = rr_new.iter().sum::<f64>().sqrt() / norm_b;
        if !active.iter().any(|&a| a) {
            // The last active column froze: record the convergence point
            // even off-cadence, as the trace's terminal entry.
            driver.record_now(it, it as u64, frob, None);
            break;
        }
        if driver.observe(it, it as u64, frob, None) {
            break;
        }
    }

    let all_frozen = !active.iter().any(|&a| a);
    let mut report = driver.finish_computed(
        it as u64,
        1,
        a.residual_block(b, x).frobenius_norm() / norm_b,
    );
    report.converged_early = all_frozen;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_workloads::{diag_dominant, laplace2d};

    #[test]
    fn cg_solves_laplace_to_high_accuracy() {
        let a = laplace2d(10, 10);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; n];
        let rep =
            try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.final_rel_residual < 1e-9);
        for (g, w) in x.iter().zip(&x_star) {
            assert!((g - w).abs() < 1e-7);
        }
    }

    #[test]
    fn cg_terminates_within_n_iterations_exactly() {
        // Exact arithmetic would finish in <= n iterations; numerically we
        // allow a modest factor.
        let a = diag_dominant(60, 4, 2.0, 3);
        let x_star = vec![1.0; 60];
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 60];
        let rep =
            try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.iterations <= 120, "{} iterations", rep.iterations);
    }

    #[test]
    fn cg_residual_trajectory_decreases() {
        let a = laplace2d(8, 8);
        let b = vec![1.0; 64];
        let mut x = vec![0.0; 64];
        let rep =
            try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        let series = rep.residual_series();
        assert!(series.last().unwrap().1 < series[0].1 * 1e-6);
    }

    #[test]
    fn cg_through_dyn_operator_matches_concrete() {
        // The acceptance property of the operator layer: the exact same
        // residual trace whether dispatch is static or through &dyn.
        let a = laplace2d(9, 9);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let opts = CgOptions::default();
        let mut x1 = vec![0.0; n];
        let rep1 = try_cg_solve(&a, &b, &mut x1, &opts).unwrap_or_else(|e| panic!("{e}"));
        let dyn_a: &dyn LinearOperator = &a;
        let mut x2 = vec![0.0; n];
        let rep2 = try_cg_solve(dyn_a, &b, &mut x2, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x1, x2);
        assert_eq!(rep1.residual_series(), rep2.residual_series());
        assert_eq!(rep1.final_rel_residual, rep2.final_rel_residual);
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = laplace2d(6, 6);
        let x_star: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let b = a.matvec(&x_star);
        let mut x = x_star.clone();
        let rep =
            try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rep.iterations, 0);
        assert!(rep.converged_early);
    }

    #[test]
    fn block_cg_matches_column_solves() {
        let a = laplace2d(6, 5);
        let n = a.n_rows();
        let k = 3;
        let mut b_blk = RowMajorMat::zeros(n, k);
        for t in 0..k {
            let col: Vec<f64> = (0..n).map(|i| ((i * (t + 2)) % 7) as f64 - 2.0).collect();
            b_blk.set_col(t, &col);
        }
        let opts = CgOptions::default();
        let mut x_blk = RowMajorMat::zeros(n, k);
        let rep =
            try_cg_solve_block(&a, &b_blk, &mut x_blk, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        for t in 0..k {
            let mut x = vec![0.0; n];
            try_cg_solve(&a, &b_blk.col(t), &mut x, &opts).unwrap_or_else(|e| panic!("{e}"));
            for (g, w) in x_blk.col(t).iter().zip(&x) {
                assert!((g - w).abs() < 1e-6, "col {t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn block_cg_freezes_converged_columns() {
        let a = laplace2d(5, 5);
        let n = a.n_rows();
        // Column 0 starts at the exact solution; column 1 does not.
        let x0 = vec![0.5; n];
        let b0 = a.matvec(&x0);
        let b1 = vec![1.0; n];
        let mut b_blk = RowMajorMat::zeros(n, 2);
        b_blk.set_col(0, &b0);
        b_blk.set_col(1, &b1);
        let mut x_blk = RowMajorMat::zeros(n, 2);
        x_blk.set_col(0, &x0);
        let rep = try_cg_solve_block(&a, &b_blk, &mut x_blk, &CgOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        // Column 0 must be untouched (it was converged from the start).
        for (g, w) in x_blk.col(0).iter().zip(&x0) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn block_cg_records_convergence_even_at_end_only_cadence() {
        let a = laplace2d(6, 6);
        let n = a.n_rows();
        let mut b_blk = RowMajorMat::zeros(n, 2);
        b_blk.set_col(0, &vec![1.0; n]);
        b_blk.set_col(1, &(0..n).map(|i| i as f64 * 0.1).collect::<Vec<_>>());
        let mut x_blk = RowMajorMat::zeros(n, 2);
        let rep = try_cg_solve_block(
            &a,
            &b_blk,
            &mut x_blk,
            &CgOptions {
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        // The convergence iteration must appear in the trace.
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].sweep, rep.iterations as usize);
    }

    #[test]
    fn respects_max_iters() {
        let a = laplace2d(12, 12);
        let b = vec![1.0; 144];
        let mut x = vec![0.0; 144];
        let rep = try_cg_solve(
            &a,
            &b,
            &mut x,
            &CgOptions {
                term: Termination::sweeps(3).with_target(1e-10),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rep.iterations, 3);
        assert!(!rep.converged_early);
    }

    #[test]
    #[should_panic(expected = "cg_solve: right-hand side b has length 7")]
    fn rejects_mismatched_rhs() {
        let a = laplace2d(3, 3);
        let b = vec![1.0; 7];
        let mut x = vec![0.0; 9];
        try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap_or_else(|e| panic!("{e}"));
    }
}
