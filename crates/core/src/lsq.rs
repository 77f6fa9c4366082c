//! Randomized coordinate descent for overdetermined least squares
//! (paper Section 8).
//!
//! For full-rank `A` (rows >= cols) with unit-norm columns, the
//! Leventhal-Lewis iteration (20) is stochastic coordinate descent on
//! `f(x) = ||A x - b||_2^2`: pick a random column `j`, set
//! `gamma = (A e_j)^T (b - A x)`, update `x_j += gamma`. The sequential
//! implementation keeps the residual `r = b - A x` in memory and updates it
//! incrementally — `O(nnz(col))` per step.
//!
//! The asynchronous variant (iteration (21)) cannot keep a shared residual
//! ("updates to r cannot be atomic"), so each iteration recomputes the
//! needed residual entries on the fly:
//! `gamma_j = d_j^T A^T (b - A x_{K(j)})`, costing `O(sum of nnz of the rows
//! touched by column j)`. This matches the per-iteration cost analysis in
//! Section 8, and is identical to AsyRGS applied to the normal equations
//! `A^T A x = A^T b` (Theorem 5 transfers Theorem 4's bound with
//! `kappa -> kappa^2`).
//!
//! Columns need not have exactly unit norm here: the step divides by
//! `||A e_j||_2^2`, which reduces to the paper's iteration for unit-norm
//! columns.
//!
//! Stopping and telemetry route through the shared [`crate::driver`]; the
//! asynchronous variant's worker runs in the crate's one epoch loop.

use crate::asyrgs::claim_batch;
use crate::atomic::SharedVec;
use crate::driver::{
    ensure_beta, ensure_finite_matrix, ensure_finite_slice, ensure_threads, Driver, Recording,
    Termination,
};
use crate::epochs::{self, Epoch, Plan, Scratch, Update};
use crate::error::SolveError;
use crate::report::SolveReport;
use crate::workspace::{resize_scratch, SolveWorkspace};
use asyrgs_parallel::WorkerPool;
use asyrgs_rng::{DirectionStream, DrawBuffer};
use asyrgs_sparse::dense;
use asyrgs_sparse::{CscMatrix, CsrMatrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// A least-squares operator: the matrix with precomputed column access and
/// column norms.
#[derive(Debug, Clone)]
pub struct LsqOperator {
    /// Row access (`A_i` for residual recomputation).
    a: CsrMatrix,
    /// Column access (`A e_j`).
    csc: CscMatrix,
    /// Squared Euclidean column norms.
    col_norms_sq: Vec<f64>,
}

impl LsqOperator {
    /// Build from a CSR matrix. Panics if a column is identically zero
    /// (which would contradict full column rank).
    pub fn new(a: CsrMatrix) -> Self {
        assert!(a.n_rows() >= a.n_cols(), "least squares needs rows >= cols");
        let csc = CscMatrix::from_csr(&a);
        let col_norms_sq: Vec<f64> = (0..a.n_cols()).map(|j| csc.col_norm_sq(j)).collect();
        for (j, &nsq) in col_norms_sq.iter().enumerate() {
            assert!(nsq > 0.0, "column {j} is identically zero");
        }
        LsqOperator {
            a,
            csc,
            col_norms_sq,
        }
    }

    /// The underlying CSR matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// The column view.
    pub fn csc(&self) -> &CscMatrix {
        &self.csc
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.a.n_rows()
    }

    /// Number of columns (the dimension of `x`).
    pub fn n_cols(&self) -> usize {
        self.a.n_cols()
    }

    /// `||A x - b||_2 / ||b||_2`.
    pub fn rel_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        dense::norm2(&self.a.residual(b, x)) / dense::norm2(b).max(f64::MIN_POSITIVE)
    }
}

/// Validate the shapes of a least-squares solve.
fn ensure_lsq_system(
    solver: &'static str,
    op: &LsqOperator,
    b_len: usize,
    x_len: usize,
) -> Result<(), SolveError> {
    if b_len != op.n_rows() {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "right-hand side b has length {b_len} but A has {} rows",
                op.n_rows()
            ),
        });
    }
    if x_len != op.n_cols() {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "solution vector x has length {x_len} but A has {} columns",
                op.n_cols()
            ),
        });
    }
    if op.n_rows() == 0 {
        return Err(SolveError::EmptySystem { solver });
    }
    Ok(())
}

/// Options for the least-squares solvers.
#[derive(Debug, Clone)]
pub struct LsqSolveOptions {
    /// Step size; the asynchronous guarantee (Theorem 5) needs `beta < 1`.
    pub beta: f64,
    /// Philox seed for the coordinate stream.
    pub seed: u64,
    /// Threads for the asynchronous variant.
    pub threads: usize,
    /// When to stop; one sweep = `n_cols` coordinate steps.
    pub term: Termination,
    /// Residual-recording cadence.
    pub record: Recording,
}

impl Default for LsqSolveOptions {
    fn default() -> Self {
        LsqSolveOptions {
            beta: 1.0,
            seed: 0x15EED,
            threads: 2,
            term: Termination::sweeps(20),
            record: Recording::every(1),
        }
    }
}

/// Sequential randomized coordinate descent on the caller's
/// [`SolveWorkspace`], iteration (20): keeps the residual `r = b - A x` in
/// memory and updates both `x` and `r` each step.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `b`/`x` do not
/// match the operator's dimensions or `beta` is outside `(0, 2)`.
pub fn rcd_solve_in(
    ws: &mut SolveWorkspace,
    op: &LsqOperator,
    b: &[f64],
    x: &mut [f64],
    opts: &LsqSolveOptions,
) -> Result<SolveReport, SolveError> {
    ensure_lsq_system("rcd_solve", op, b.len(), x.len())?;
    ensure_finite_matrix("rcd_solve", op.matrix())?;
    ensure_finite_slice("rcd_solve", "right-hand side b", b)?;
    ensure_finite_slice("rcd_solve", "initial iterate x", x)?;
    ensure_beta(opts.beta)?;
    let n = op.n_cols();
    let ds = DirectionStream::new(opts.seed, n);
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);

    resize_scratch(&mut ws.resid, op.n_rows());
    let r = &mut ws.resid;
    op.a.residual_into(b, x, r);
    let mut driver = Driver::new(&opts.term, opts.record);
    let mut j: u64 = 0;

    for sweep in 1..=driver.max_sweeps() {
        for _ in 0..n {
            let col = ds.direction(j);
            j += 1;
            // gamma = (A e_col)^T r / ||A e_col||^2
            let gamma = op.csc.col_dot(col, r) / op.col_norms_sq[col];
            let step = opts.beta * gamma;
            x[col] += step;
            // r -= step * A e_col
            let (rows_c, vals_c) = op.csc.col(col);
            for (&i, &v) in rows_c.iter().zip(vals_c) {
                r[i] -= step * v;
            }
        }
        // The maintained residual tracks the true one up to roundoff
        // accumulation, and is cheap — the driver checks the target every
        // sweep.
        let rel = dense::norm2(r) / norm_b;
        if driver.observe(sweep, j, rel, None) {
            break;
        }
    }

    Ok(driver.finish_computed(j, 1, op.rel_residual(b, x)))
}

/// Sequential randomized coordinate descent, iteration (20).
///
/// # Errors
/// See [`rcd_solve_in`].
pub fn try_rcd_solve(
    op: &LsqOperator,
    b: &[f64],
    x: &mut [f64],
    opts: &LsqSolveOptions,
) -> Result<SolveReport, SolveError> {
    rcd_solve_in(&mut SolveWorkspace::new(), op, b, x, opts)
}

/// Asynchronous worker for iteration (21).
///
/// Iterations are claimed in batches of `claim` and their column draws
/// filled into a per-worker [`DrawBuffer`] in one pass; Philox draws are
/// pure functions of the iteration index, so the batched stream is bitwise
/// identical to per-iteration draws.
#[allow(clippy::too_many_arguments)]
fn lsq_worker(
    op: &LsqOperator,
    b: &[f64],
    x: &SharedVec,
    ds: &DirectionStream,
    counter: &AtomicU64,
    limit: u64,
    claim: u64,
    beta: f64,
) {
    let mut draws = DrawBuffer::new();
    loop {
        let start = counter.fetch_add(claim, Ordering::Relaxed);
        if start >= limit {
            break;
        }
        let batch = (limit - start).min(claim) as usize;
        let dirs = draws.fill_with(batch, |out| ds.fill_directions(start, out));
        for &col in dirs {
            // gamma = sum over rows i with A_{i,col} != 0 of
            //         A_{i,col} * (b_i - A_i x),
            // recomputing each needed residual entry from shared x.
            let (rows_c, vals_c) = op.csc.col(col);
            let mut gamma = 0.0;
            for (&i, &vic) in rows_c.iter().zip(vals_c) {
                let dot = op.a.row_dot_with(i, |c| x.load(c));
                gamma += vic * (b[i] - dot);
            }
            gamma /= op.col_norms_sq[col];
            x.fetch_add(col, beta * gamma);
        }
    }
}

/// Asynchronous randomized coordinate descent for least squares on an
/// injected worker pool and caller-owned [`SolveWorkspace`], iteration
/// (21): the AsyRGS strategy applied to `min ||A x - b||_2`.
///
/// Residuals can only be observed while the workers are quiescent, so the
/// recording cadence doubles as the epoch length (with
/// [`Recording::end_only`], the whole run is one lock-free epoch).
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `b`/`x` do not
/// match the operator's dimensions, `beta` is outside `(0, 2)`, or
/// `threads == 0`.
pub fn async_rcd_solve_in(
    pool: &WorkerPool,
    ws: &mut SolveWorkspace,
    op: &LsqOperator,
    b: &[f64],
    x: &mut [f64],
    opts: &LsqSolveOptions,
) -> Result<SolveReport, SolveError> {
    ensure_lsq_system("async_rcd_solve", op, b.len(), x.len())?;
    ensure_finite_matrix("async_rcd_solve", op.matrix())?;
    ensure_finite_slice("async_rcd_solve", "right-hand side b", b)?;
    ensure_finite_slice("async_rcd_solve", "initial iterate x", x)?;
    ensure_beta(opts.beta)?;
    ensure_threads(opts.threads)?;
    let n = op.n_cols();
    let ds = DirectionStream::new(opts.seed, n);
    let (scratch, _, _, _) = Scratch::split(ws);
    let update = |_: usize, x: &SharedVec, e: &Epoch| {
        let (start, limit) = e.range;
        let claim = claim_batch(limit - start, e.threads);
        lsq_worker(op, b, x, &ds, &e.claims, limit, claim, opts.beta);
    };
    let plan = Plan {
        pool,
        threads: opts.threads,
        cadence: Some(opts.record.every).filter(|&k| k > 0),
        claims_per_sweep: n as u64,
        term: &opts.term,
        record: opts.record,
        health: None,
        faults: None,
    };
    epochs::run(
        &plan,
        scratch,
        op.matrix(),
        b,
        x,
        None,
        Update::Pool(&update),
    )
}

/// Asynchronous randomized coordinate descent for least squares,
/// iteration (21).
///
/// # Errors
/// See [`async_rcd_solve_in`].
pub fn try_async_rcd_solve(
    op: &LsqOperator,
    b: &[f64],
    x: &mut [f64],
    opts: &LsqSolveOptions,
) -> Result<SolveReport, SolveError> {
    async_rcd_solve_in(
        &asyrgs_parallel::pool_for(opts.threads),
        &mut SolveWorkspace::new(),
        op,
        b,
        x,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_workloads::{random_lsq, LsqParams};

    fn problem(noise: f64, seed: u64) -> (LsqOperator, Vec<f64>, Vec<f64>) {
        let p = random_lsq(&LsqParams {
            rows: 240,
            cols: 60,
            nnz_per_col: 6,
            noise,
            seed,
        });
        (LsqOperator::new(p.a), p.b, p.x_planted)
    }

    #[test]
    fn rcd_drives_consistent_residual_to_zero() {
        let (op, b, _) = problem(0.0, 1);
        let mut x = vec![0.0; op.n_cols()];
        let rep = try_rcd_solve(
            &op,
            &b,
            &mut x,
            &LsqSolveOptions {
                term: Termination::sweeps(300),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            rep.final_rel_residual < 1e-8,
            "residual {}",
            rep.final_rel_residual
        );
    }

    #[test]
    fn rcd_recovers_planted_solution() {
        let (op, b, x_star) = problem(0.0, 2);
        let mut x = vec![0.0; op.n_cols()];
        try_rcd_solve(
            &op,
            &b,
            &mut x,
            &LsqSolveOptions {
                term: Termination::sweeps(500),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        for (a, w) in x.iter().zip(&x_star) {
            assert!((a - w).abs() < 1e-6, "{a} vs {w}");
        }
    }

    #[test]
    fn maintained_residual_matches_true_residual() {
        let (op, b, _) = problem(0.05, 3);
        let mut x = vec![0.0; op.n_cols()];
        let rep = try_rcd_solve(
            &op,
            &b,
            &mut x,
            &LsqSolveOptions {
                term: Termination::sweeps(50),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let true_rel = op.rel_residual(&b, &x);
        let maintained = rep.records.last().unwrap().rel_residual;
        assert!(
            (true_rel - maintained).abs() < 1e-9,
            "{true_rel} vs {maintained}"
        );
    }

    #[test]
    fn rcd_stops_early_on_target() {
        let (op, b, _) = problem(0.0, 12);
        let mut x = vec![0.0; op.n_cols()];
        let rep = try_rcd_solve(
            &op,
            &b,
            &mut x,
            &LsqSolveOptions {
                term: Termination::sweeps(1000).with_target(1e-6),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.sweeps_run() < 1000);
        assert!(rep.final_rel_residual < 1e-5);
    }

    #[test]
    fn noisy_residual_converges_to_lsq_optimum_not_zero() {
        let (op, b, _) = problem(0.2, 4);
        let mut x = vec![0.0; op.n_cols()];
        let rep = try_rcd_solve(
            &op,
            &b,
            &mut x,
            &LsqSolveOptions {
                term: Termination::sweeps(400),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // Residual stalls at the projection distance, strictly above zero.
        assert!(rep.final_rel_residual > 1e-4);
        // And the normal-equations residual A^T(b - Ax) goes to zero.
        let r = op.matrix().residual(&b, &x);
        let atr = op.matrix().transpose().matvec(&r);
        assert!(
            dense::norm2(&atr) < 1e-7,
            "normal residual {}",
            dense::norm2(&atr)
        );
    }

    #[test]
    fn async_single_thread_matches_sequential() {
        let (op, b, _) = problem(0.0, 5);
        let opts = LsqSolveOptions {
            threads: 1,
            term: Termination::sweeps(10),
            record: Recording::end_only(),
            ..Default::default()
        };
        let mut x_seq = vec![0.0; op.n_cols()];
        try_rcd_solve(&op, &b, &mut x_seq, &opts).unwrap_or_else(|e| panic!("{e}"));
        let mut x_async = vec![0.0; op.n_cols()];
        try_async_rcd_solve(&op, &b, &mut x_async, &opts).unwrap_or_else(|e| panic!("{e}"));
        for (s, a) in x_seq.iter().zip(&x_async) {
            assert!((s - a).abs() < 1e-10, "{s} vs {a}");
        }
    }

    #[test]
    fn async_converges_multithreaded() {
        let (op, b, _) = problem(0.0, 6);
        let mut x = vec![0.0; op.n_cols()];
        let rep = try_async_rcd_solve(
            &op,
            &b,
            &mut x,
            &LsqSolveOptions {
                threads: 4,
                beta: 0.9,
                term: Termination::sweeps(300),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            rep.final_rel_residual < 1e-6,
            "residual {}",
            rep.final_rel_residual
        );
    }

    #[test]
    fn operator_accessors() {
        let (op, _, _) = problem(0.0, 7);
        assert_eq!(op.n_rows(), 240);
        assert_eq!(op.n_cols(), 60);
        assert_eq!(op.matrix().n_rows(), 240);
        assert_eq!(op.csc().n_cols(), 60);
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn rejects_wide_matrices() {
        let a = CsrMatrix::from_dense(1, 2, &[1.0, 1.0]);
        LsqOperator::new(a);
    }

    #[test]
    #[should_panic(expected = "identically zero")]
    fn rejects_zero_columns() {
        let a = CsrMatrix::from_dense(3, 2, &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        LsqOperator::new(a);
    }

    #[test]
    #[should_panic(expected = "rcd_solve: right-hand side b has length 2")]
    fn rejects_mismatched_rhs() {
        let (op, _, _) = problem(0.0, 8);
        let b = vec![1.0; 2];
        let mut x = vec![0.0; op.n_cols()];
        try_rcd_solve(&op, &b, &mut x, &LsqSolveOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "async_rcd_solve: solution vector x has length 3")]
    fn rejects_mismatched_x_async() {
        let (op, b, _) = problem(0.0, 9);
        let mut x = vec![0.0; 3];
        try_async_rcd_solve(&op, &b, &mut x, &LsqSolveOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
