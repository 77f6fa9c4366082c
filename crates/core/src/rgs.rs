//! Sequential Randomized Gauss-Seidel (Leventhal-Lewis / Griebel-Oswald).
//!
//! The synchronous baseline of the paper (Section 3). Each iteration picks a
//! uniformly random row `r`, computes
//! `gamma = (b_r - A_r x) / A_rr`, and updates `x_r += beta * gamma` — the
//! general-diagonal iteration (3), which reduces to iteration (1) when the
//! diagonal is unit. The expected error contracts per Eq. (2):
//! `E_m <= (1 - beta(2-beta) lambda_min / n)^m ||x_0 - x*||_A^2`
//! (after unit-diagonal rescaling).
//!
//! Directions come from a Philox counter stream, so the exact same direction
//! sequence can be replayed by the asynchronous solver (paper Section 9 uses
//! Random123 for the same purpose).
//!
//! The solvers are generic over [`RowAccess`], so they run unchanged on
//! [`CsrMatrix`], on dense row-major matrices, and on the zero-copy
//! [`UnitDiagonalView`](asyrgs_sparse::UnitDiagonalView) rescaling wrapper.
//! Stopping and telemetry route through the shared [`crate::driver`].

use crate::driver::{
    ensure_beta, ensure_finite_matrix, ensure_finite_slice, ensure_finite_system,
    ensure_square_block_system, ensure_square_system, inverse_diag_into, Driver, Recording, Solver,
    Termination,
};
use crate::error::SolveError;
use crate::health::{HealthConfig, HealthMonitor};
use crate::report::SolveReport;
use crate::workspace::{resize_scratch, resize_scratch_mat, SolveWorkspace};
use asyrgs_rng::{DirectionStream, DrawBuffer, WeightedDirectionStream};
use asyrgs_sparse::dense::{self, RowMajorMat};
use asyrgs_sparse::{CsrMatrix, RowAccess};

/// How rows are sampled each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowSampling {
    /// Uniform over `{1, .., n}` — the unit-diagonal analysis of the paper.
    #[default]
    Uniform,
    /// `P(i) proportional to A_ii` — Leventhal & Lewis's non-uniform
    /// probabilities for general-diagonal matrices (paper Section 3,
    /// footnote 1). Sampled in O(1) via a Walker alias table.
    DiagonalWeighted,
}

/// A direction provider with Philox random access, uniform or weighted.
#[derive(Debug, Clone)]
pub(crate) enum Directions {
    /// Uniform stream.
    Uniform(DirectionStream),
    /// Diagonal-weighted stream.
    Weighted(WeightedDirectionStream),
}

impl Directions {
    pub(crate) fn new(sampling: RowSampling, seed: u64, n: usize, diag: &[f64]) -> Directions {
        match sampling {
            RowSampling::Uniform => Directions::Uniform(DirectionStream::new(seed, n)),
            RowSampling::DiagonalWeighted => {
                Directions::Weighted(WeightedDirectionStream::new(seed, diag))
            }
        }
    }

    #[inline]
    pub(crate) fn direction(&self, j: u64) -> usize {
        match self {
            Directions::Uniform(s) => s.direction(j),
            Directions::Weighted(s) => s.direction(j),
        }
    }

    /// Batched draw: fill `out[k]` with the direction of iteration
    /// `start + k`. One enum dispatch per batch instead of per draw;
    /// counter-based random access makes the result bitwise identical to
    /// per-iteration [`direction`](Self::direction) calls.
    #[inline]
    pub(crate) fn fill_directions(&self, start: u64, out: &mut [usize]) {
        match self {
            Directions::Uniform(s) => s.fill_directions(start, out),
            Directions::Weighted(s) => s.fill_directions(start, out),
        }
    }
}

/// How many draws ahead of the current update [`walk_rows`] hints a row.
const PREFETCH_AHEAD: usize = 8;

/// Apply `update` to the drawn rows `dirs` in order — the row walk of the
/// AsyRGS worker and of sequential RGS.
///
/// With `prefetch` (the caller passes the operator's
/// [`RowAccess::prefetch_pays`]), it first hints the batch's first
/// [`PREFETCH_AHEAD`] rows into cache, then hints row `dirs[k + 8]` just
/// before it updates `dirs[k]`, so the cache misses of upcoming rows
/// overlap the current update. Without it, it is the plain loop. A hint
/// reads no value and writes none, so both branches apply the same updates
/// in the same order and produce the same bits.
#[inline(always)]
pub(crate) fn walk_rows<O: RowAccess, F: FnMut(usize)>(
    a: &O,
    dirs: &[usize],
    prefetch: bool,
    mut update: F,
) {
    if prefetch {
        for &r in dirs.iter().take(PREFETCH_AHEAD) {
            a.prefetch_row(r);
        }
        for (k, &r) in dirs.iter().enumerate() {
            if let Some(&ahead) = dirs.get(k + PREFETCH_AHEAD) {
                a.prefetch_row(ahead);
            }
            update(r);
        }
    } else {
        for &r in dirs {
            update(r);
        }
    }
}

/// Options shared by the sequential solvers.
#[derive(Debug, Clone)]
pub struct RgsOptions {
    /// Step size `beta` in `(0, 2)` (Griebel-Oswald relaxation); the
    /// synchronous bound is best at `beta = 1`.
    pub beta: f64,
    /// Seed of the Philox direction stream.
    pub seed: u64,
    /// Row sampling distribution.
    pub sampling: RowSampling,
    /// When to stop: sweep budget, residual target, wall-clock budget. One
    /// sweep is `n` single-coordinate iterations, costing about one
    /// Gauss-Seidel iteration (`Theta(nnz)`).
    pub term: Termination,
    /// Residual-recording cadence (each record costs one residual
    /// evaluation, `Theta(nnz)`).
    pub record: Recording,
    /// Optional numerical-health watchdog, evaluated at every sweep
    /// boundary. `None` (the default) leaves the solve path bitwise
    /// unchanged. When set, the solver iterates on workspace scratch so a
    /// trip surfaces as a typed [`SolveError`] with `x` left untouched.
    /// Honored by the single-RHS solve only; the block solve ignores it.
    pub health: Option<HealthConfig>,
}

impl Default for RgsOptions {
    fn default() -> Self {
        RgsOptions {
            beta: 1.0,
            seed: 0x5EED,
            sampling: RowSampling::Uniform,
            term: Termination::sweeps(10),
            record: Recording::every(1),
            health: None,
        }
    }
}

/// Solve `A x = b` by sequential Randomized Gauss-Seidel, using the
/// caller's [`SolveWorkspace`] for all scratch — the allocation-amortized
/// entry point behind the session API: repeated calls with the same-sized
/// system perform no heap allocation in the hot path.
///
/// `x` holds the initial iterate on entry and the final iterate on exit.
/// If `x_star` is supplied, per-record A-norm errors are reported.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, `b`/`x` have mismatched lengths, a diagonal entry is
/// non-positive, or `beta` is outside `(0, 2)`.
pub fn rgs_solve_in<O: RowAccess>(
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &RgsOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_system("rgs_solve", a.n_rows(), a.n_cols(), b.len(), x.len())?;
    ensure_finite_system("rgs_solve", a, b, x)?;
    ensure_beta(opts.beta)?;
    let n = a.n_rows();
    a.diag_into(&mut ws.diag);
    inverse_diag_into(&ws.diag, &mut ws.dinv)?;
    let dinv = &ws.dinv;
    let ds = Directions::new(opts.sampling, opts.seed, n, &ws.diag);
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);
    let norm_xs_a = x_star.map(|xs| a.a_norm(xs).max(f64::MIN_POSITIVE));

    let mut driver = Driver::new(&opts.term, opts.record);
    let mut monitor = opts.health.as_ref().map(|c| HealthMonitor::new(c.clone()));
    let guarded = monitor.is_some();
    let mut j: u64 = 0;
    // Observation scratch, reused across every record point (and across
    // solves: the workspace retains the buffers).
    resize_scratch(&mut ws.resid, n);
    if x_star.is_some() {
        resize_scratch(&mut ws.diff, n);
    }
    if guarded {
        resize_scratch(&mut ws.snap, n);
        ws.snap.copy_from_slice(x);
    }
    // Out-of-cache matrices draw a batch of directions ahead and walk it
    // with prefetch; the draws are counter-based, so the direction
    // sequence is the per-iteration one.
    let prefetch = a.prefetch_pays();
    if prefetch {
        ws.draws.resize(DrawBuffer::DEFAULT_CAPACITY, 0);
    }
    let resid = &mut ws.resid;
    let diff = &mut ws.diff;
    let draws = &mut ws.draws;

    {
        // With a watchdog armed, iterate on workspace scratch so a trip
        // returns a typed error with the caller's `x` bitwise untouched.
        let xw: &mut [f64] = if guarded {
            ws.snap.as_mut_slice()
        } else {
            &mut *x
        };
        for sweep in 1..=driver.max_sweeps() {
            if prefetch {
                let end = j + n as u64;
                while j < end {
                    let batch = draws.len().min((end - j) as usize);
                    let dirs = &mut draws[..batch];
                    ds.fill_directions(j, dirs);
                    j += batch as u64;
                    walk_rows(a, dirs, true, |r| {
                        let gamma = (b[r] - a.row_dot(r, xw)) * dinv[r];
                        xw[r] += opts.beta * gamma;
                    });
                }
            } else {
                for _ in 0..n {
                    let r = ds.direction(j);
                    j += 1;
                    let gamma = (b[r] - a.row_dot(r, xw)) * dinv[r];
                    xw[r] += opts.beta * gamma;
                }
            }
            let stop = if let Some(mon) = monitor.as_mut() {
                // Every sweep boundary is a quiescent point: run the
                // health checks eagerly and feed the driver the
                // precomputed residual.
                mon.check_iterate("rgs_solve", sweep - 1, xw)?;
                a.residual_into(b, xw, resid);
                let rel = dense::norm2(resid) / norm_b;
                mon.observe_residual(sweep - 1, rel)?;
                let err = x_star.map(|xs| {
                    for ((di, xi), xsi) in diff.iter_mut().zip(xw.iter()).zip(xs) {
                        *di = xi - xsi;
                    }
                    a.a_norm_into(diff, resid) / norm_xs_a.unwrap()
                });
                driver.observe_lazy(sweep, j, || (rel, err))
            } else {
                driver.observe_lazy(sweep, j, || {
                    a.residual_into(b, xw, resid);
                    let rel = dense::norm2(resid) / norm_b;
                    let err = x_star.map(|xs| {
                        for ((di, xi), xsi) in diff.iter_mut().zip(xw.iter()).zip(xs) {
                            *di = xi - xsi;
                        }
                        a.a_norm_into(diff, resid) / norm_xs_a.unwrap()
                    });
                    (rel, err)
                })
            };
            if stop {
                break;
            }
        }
    }
    if guarded {
        x.copy_from_slice(&ws.snap);
    }

    Ok(driver.finish(j, 1, || {
        a.residual_into(b, x, resid);
        dense::norm2(resid) / norm_b
    }))
}

/// Solve `A x = b` by sequential Randomized Gauss-Seidel.
///
/// `x` holds the initial iterate on entry and the final iterate on exit.
/// If `x_star` is supplied, per-record A-norm errors are reported.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, `b`/`x` have mismatched lengths, a diagonal entry is
/// non-positive, or `beta` is outside `(0, 2)`.
pub fn try_rgs_solve<O: RowAccess>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &RgsOptions,
) -> Result<SolveReport, SolveError> {
    rgs_solve_in(&mut SolveWorkspace::new(), a, b, x, x_star, opts)
}

/// Solve `A x = b` by sequential Randomized Gauss-Seidel.
///
/// # Panics
/// Panics if `A` is not square, `b`/`x` have mismatched lengths, a
/// diagonal entry is non-positive, or `beta` is outside `(0, 2)`.
#[deprecated(note = "use `try_rgs_solve` (typed errors) or the session API")]
pub fn rgs_solve<O: RowAccess>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &RgsOptions,
) -> SolveReport {
    try_rgs_solve(a, b, x, x_star, opts).unwrap_or_else(|e| panic!("{e}"))
}

impl Solver for RgsOptions {
    fn name(&self) -> &'static str {
        "rgs"
    }

    fn solve<O: RowAccess + Sync>(
        &self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
        x_star: Option<&[f64]>,
    ) -> Result<SolveReport, SolveError> {
        try_rgs_solve(a, b, x, x_star, self)
    }
}

/// Multi-RHS Randomized Gauss-Seidel on the caller's [`SolveWorkspace`]:
/// solves `A X = B` for row-major blocks, all right-hand sides sharing the
/// same random direction sequence (the paper solves its 51 systems
/// together this way, Section 9).
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `X` untouched) if `A` is not
/// square or empty, the blocks do not conform, a diagonal entry is
/// non-positive, or `beta` is outside `(0, 2)`.
pub fn rgs_solve_block_in(
    ws: &mut SolveWorkspace,
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &RgsOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_block_system(
        "rgs_solve_block",
        a.n_rows(),
        a.n_cols(),
        b.n_rows(),
        b.n_cols(),
        x.n_rows(),
        x.n_cols(),
    )?;
    ensure_finite_matrix("rgs_solve_block", a)?;
    ensure_finite_slice("rgs_solve_block", "right-hand side B", b.as_slice())?;
    ensure_finite_slice("rgs_solve_block", "initial iterate X", x.as_slice())?;
    ensure_beta(opts.beta)?;
    let n = a.n_rows();
    let k = b.n_cols();
    asyrgs_sparse::LinearOperator::diag_into(a, &mut ws.diag);
    inverse_diag_into(&ws.diag, &mut ws.dinv)?;
    let dinv = &ws.dinv;
    let ds = Directions::new(opts.sampling, opts.seed, n, &ws.diag);
    let norm_b = b.frobenius_norm().max(f64::MIN_POSITIVE);

    let mut driver = Driver::new(&opts.term, opts.record);
    let mut j: u64 = 0;
    resize_scratch(&mut ws.gammas, k);
    resize_scratch_mat(&mut ws.blk_resid, n, k);
    let gammas = &mut ws.gammas;
    let resid = &mut ws.blk_resid;

    for sweep in 1..=driver.max_sweeps() {
        for _ in 0..n {
            let r = ds.direction(j);
            j += 1;
            let (cols, vals) = a.row(r);
            // Per RHS t: gamma_t = (B[r][t] - A_r X[:, t]) / A_rr, with the
            // dot accumulated first and the same association as the
            // single-RHS kernel (`(b - dot) * dinv`, then `beta * gamma`),
            // so column t of a block solve is bitwise the single solve on
            // that column — the contract `solve_many` advertises.
            gammas.fill(0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                let xrow = x.row(c);
                for t in 0..k {
                    gammas[t] += v * xrow[t];
                }
            }
            let br = b.row(r);
            let xr = x.row_mut(r);
            for t in 0..k {
                let gamma = (br[t] - gammas[t]) * dinv[r];
                xr[t] += opts.beta * gamma;
            }
        }
        let stop = driver.observe_lazy(sweep, j, || {
            a.residual_block_into(b, x, resid);
            (resid.frobenius_norm() / norm_b, None)
        });
        if stop {
            break;
        }
    }

    Ok(driver.finish(j, 1, || {
        a.residual_block_into(b, x, resid);
        resid.frobenius_norm() / norm_b
    }))
}

/// Multi-RHS Randomized Gauss-Seidel: solves `A X = B` for row-major
/// blocks.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `X` untouched) if `A` is not
/// square or empty, the blocks do not conform, a diagonal entry is
/// non-positive, or `beta` is outside `(0, 2)`.
pub fn try_rgs_solve_block(
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &RgsOptions,
) -> Result<SolveReport, SolveError> {
    rgs_solve_block_in(&mut SolveWorkspace::new(), a, b, x, opts)
}

/// Multi-RHS Randomized Gauss-Seidel: solves `A X = B` for row-major
/// blocks.
///
/// # Panics
/// Panics if `A` is not square, the blocks do not conform, a diagonal
/// entry is non-positive, or `beta` is outside `(0, 2)`.
#[deprecated(note = "use `try_rgs_solve_block` (typed errors) or the session API")]
pub fn rgs_solve_block(
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &RgsOptions,
) -> SolveReport {
    try_rgs_solve_block(a, b, x, opts).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_workloads::{diag_dominant, laplace2d, tridiag_toeplitz};

    #[test]
    fn converges_on_laplace2d() {
        let a = laplace2d(8, 8);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; n];
        let rep = try_rgs_solve(
            &a,
            &b,
            &mut x,
            Some(&x_star),
            &RgsOptions {
                term: Termination::sweeps(200),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            rep.final_rel_residual < 1e-6,
            "residual {}",
            rep.final_rel_residual
        );
        // A-norm error recorded and decreasing overall.
        let first = rep.records.first().unwrap().rel_error_anorm.unwrap();
        let last = rep.records.last().unwrap().rel_error_anorm.unwrap();
        assert!(last < first * 1e-3);
    }

    #[test]
    fn residual_monotone_in_expectation() {
        // Not strictly monotone per sweep, but over 10-sweep windows the
        // residual must drop for a well-conditioned matrix.
        let a = diag_dominant(100, 5, 2.0, 3);
        let x_star: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 100];
        let rep = try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                term: Termination::sweeps(30),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let res = rep.residual_series();
        assert!(res[9].1 < res[0].1);
        assert!(res[29].1 < res[9].1);
    }

    #[test]
    fn early_stop_on_target() {
        let a = diag_dominant(80, 4, 3.0, 1);
        let x_star: Vec<f64> = vec![1.0; 80];
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 80];
        let rep = try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                term: Termination::sweeps(1000).with_target(1e-4),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.sweeps_run() < 1000);
        assert!(rep.final_rel_residual <= 1e-4);
    }

    #[test]
    fn wall_clock_budget_cuts_solve_short() {
        // A budget of zero stops at the very first sweep boundary.
        let a = diag_dominant(80, 4, 2.0, 5);
        let b = a.matvec(&vec![1.0; 80]);
        let mut x = vec![0.0; 80];
        let rep = try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                term: Termination::sweeps(100_000)
                    .with_wall_clock(std::time::Duration::from_secs(0)),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.stopped_on_budget);
        assert!(!rep.converged_early);
        assert_eq!(rep.sweeps_run(), 1);
    }

    #[test]
    fn beta_under_relaxation_still_converges() {
        // Well-conditioned instance so convergence at beta = 0.5 is fast
        // enough to verify within a few hundred sweeps.
        let a = diag_dominant(50, 4, 2.5, 12);
        let x_star: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 50];
        let rep = try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                beta: 0.5,
                term: Termination::sweeps(400),
                record: Recording::every(50),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            rep.final_rel_residual < 1e-6,
            "residual {}",
            rep.final_rel_residual
        );
        let _ = tridiag_toeplitz(3, 2.0, -1.0); // keep import used
    }

    #[test]
    fn unit_beta_beats_small_beta() {
        // Eq. (2): contraction is best at beta = 1.
        let a = laplace2d(6, 6);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let b = a.matvec(&x_star);
        let run = |beta: f64| {
            let mut x = vec![0.0; n];
            try_rgs_solve(
                &a,
                &b,
                &mut x,
                None,
                &RgsOptions {
                    beta,
                    term: Termination::sweeps(60),
                    record: Recording::end_only(),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{e}"))
            .final_rel_residual
        };
        assert!(run(1.0) < run(0.2));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = laplace2d(5, 5);
        let b = vec![1.0; 25];
        let mut x1 = vec![0.0; 25];
        let mut x2 = vec![0.0; 25];
        let opts = RgsOptions {
            term: Termination::sweeps(5),
            ..Default::default()
        };
        try_rgs_solve(&a, &b, &mut x1, None, &opts).unwrap_or_else(|e| panic!("{e}"));
        try_rgs_solve(&a, &b, &mut x2, None, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x1, x2);
        let mut x3 = vec![0.0; 25];
        try_rgs_solve(&a, &b, &mut x3, None, &RgsOptions { seed: 1, ..opts })
            .unwrap_or_else(|e| panic!("{e}"));
        assert_ne!(x1, x3);
    }

    #[test]
    fn general_diagonal_matches_rescaled_unit_diagonal() {
        // Section 3 "Non-Unit Diagonal": iteration (3) on B y = z with the
        // same directions equals D^{-1} * (iteration (1) on A x = D z),
        // A = DBD.
        let bmat = diag_dominant(30, 4, 2.0, 9);
        let u = asyrgs_sparse::UnitDiagonal::from_spd(&bmat).unwrap();
        let y_star: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        let z = bmat.matvec(&y_star);
        let opts = RgsOptions {
            term: Termination::sweeps(7),
            record: Recording::end_only(),
            ..Default::default()
        };
        // General-diagonal solve on B.
        let mut y = vec![0.0; 30];
        try_rgs_solve(&bmat, &z, &mut y, None, &opts).unwrap_or_else(|e| panic!("{e}"));
        // Unit-diagonal solve on A with rhs D z.
        let dz = u.rhs_to_unit(&z);
        let mut x = vec![0.0; 30];
        try_rgs_solve(&u.a, &dz, &mut x, None, &opts).unwrap_or_else(|e| panic!("{e}"));
        let y_from_x = u.solution_to_original(&x);
        for (a, b) in y.iter().zip(&y_from_x) {
            assert!((a - b).abs() < 1e-10, "iterates must match: {a} vs {b}");
        }
    }

    #[test]
    fn zero_copy_view_matches_materialized_rescaling_bitwise() {
        // The UnitDiagonalView wrapper must drive the solver to bitwise
        // the same iterate as the materialized rescaled matrix.
        let bmat = diag_dominant(40, 5, 2.0, 23);
        let u = asyrgs_sparse::UnitDiagonal::from_spd(&bmat).unwrap();
        let view = asyrgs_sparse::UnitDiagonalView::new(&bmat).unwrap();
        let z: Vec<f64> = (0..40).map(|i| (i as f64 * 0.17).cos()).collect();
        let dz = u.rhs_to_unit(&z);
        let opts = RgsOptions {
            term: Termination::sweeps(9),
            record: Recording::end_only(),
            ..Default::default()
        };
        let mut x_mat = vec![0.0; 40];
        let rep_mat =
            try_rgs_solve(&u.a, &dz, &mut x_mat, None, &opts).unwrap_or_else(|e| panic!("{e}"));
        let mut x_view = vec![0.0; 40];
        let rep_view =
            try_rgs_solve(&view, &dz, &mut x_view, None, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x_mat, x_view);
        assert_eq!(rep_mat.final_rel_residual, rep_view.final_rel_residual);
    }

    #[test]
    fn block_solve_matches_per_column_solves() {
        let a = laplace2d(5, 4);
        let n = a.n_rows();
        let k = 3;
        let mut b_blk = RowMajorMat::zeros(n, k);
        for t in 0..k {
            let col: Vec<f64> = (0..n).map(|i| ((i + t) % 5) as f64).collect();
            b_blk.set_col(t, &col);
        }
        let opts = RgsOptions {
            term: Termination::sweeps(6),
            record: Recording::end_only(),
            ..Default::default()
        };
        let mut x_blk = RowMajorMat::zeros(n, k);
        try_rgs_solve_block(&a, &b_blk, &mut x_blk, &opts).unwrap_or_else(|e| panic!("{e}"));
        for t in 0..k {
            let mut x = vec![0.0; n];
            try_rgs_solve(&a, &b_blk.col(t), &mut x, None, &opts).unwrap_or_else(|e| panic!("{e}"));
            let got = x_blk.col(t);
            for (g, w) in got.iter().zip(&x) {
                assert!((g - w).abs() < 1e-12, "col {t}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn block_solve_reports_residual() {
        let a = diag_dominant(40, 4, 2.5, 4);
        let mut b_blk = RowMajorMat::zeros(40, 2);
        b_blk.set_col(0, &vec![1.0; 40]);
        b_blk.set_col(1, &(0..40).map(|i| i as f64 / 40.0).collect::<Vec<_>>());
        let mut x_blk = RowMajorMat::zeros(40, 2);
        let rep = try_rgs_solve_block(
            &a,
            &b_blk,
            &mut x_blk,
            &RgsOptions {
                term: Termination::sweeps(50),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.final_rel_residual < 1e-4);
        assert_eq!(rep.records.len(), 50);
    }

    #[test]
    fn diagonal_weighted_sampling_converges() {
        // Badly scaled diagonal: weighted sampling visits heavy rows more
        // often (Leventhal-Lewis footnote-1 scheme) and still converges.
        let mut coo = asyrgs_sparse::CooBuilder::new(60, 60);
        for i in 0..60usize {
            coo.push(i, i, 1.0 + (i % 6) as f64 * 20.0).unwrap();
            if i + 1 < 60 {
                coo.push(i, i + 1, -0.4).unwrap();
                coo.push(i + 1, i, -0.4).unwrap();
            }
        }
        let a = coo.to_csr();
        let x_star: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 60];
        let rep = try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                sampling: RowSampling::DiagonalWeighted,
                term: Termination::sweeps(120),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.final_rel_residual < 1e-2, "{}", rep.final_rel_residual);
    }

    #[test]
    fn weighted_and_uniform_agree_on_unit_diagonal() {
        // With unit diagonal the weighted distribution IS uniform; the
        // samplers differ only in how they consume Philox bits, so compare
        // final quality, not bitwise iterates.
        let raw = laplace2d(6, 6);
        let u = asyrgs_sparse::UnitDiagonal::from_spd(&raw).unwrap();
        let n = u.a.n_rows();
        let x_star = vec![0.7; n];
        let b = u.a.matvec(&x_star);
        let run = |sampling: RowSampling| {
            let mut x = vec![0.0; n];
            try_rgs_solve(
                &u.a,
                &b,
                &mut x,
                None,
                &RgsOptions {
                    sampling,
                    term: Termination::sweeps(80),
                    record: Recording::end_only(),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{e}"))
            .final_rel_residual
        };
        let ru = run(RowSampling::Uniform);
        let rw = run(RowSampling::DiagonalWeighted);
        assert!(ru < 1e-3 && rw < 1e-3, "uniform {ru}, weighted {rw}");
        // Same order of magnitude: the distributions are identical.
        assert!(rw / ru < 10.0 && ru / rw < 10.0);
    }

    #[test]
    #[should_panic(expected = "beta must lie in (0, 2)")]
    fn rejects_bad_beta() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0; 3];
        let mut x = vec![0.0; 3];
        try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                beta: 2.5,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "diagonal entry")]
    fn rejects_zero_diagonal() {
        let a = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let b = vec![1.0; 2];
        let mut x = vec![0.0; 2];
        try_rgs_solve(&a, &b, &mut x, None, &RgsOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "rgs_solve: right-hand side b has length 5")]
    fn rejects_mismatched_rhs() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0; 5];
        let mut x = vec![0.0; 3];
        try_rgs_solve(&a, &b, &mut x, None, &RgsOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
