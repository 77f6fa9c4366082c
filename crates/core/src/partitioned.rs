//! Block-partitioned AsyRGS — the restricted randomization the paper
//! leaves as future work.
//!
//! The paper's limitations section (Section 1) notes two problems with
//! letting every processor update every entry: it does not map to
//! distributed memory ("it is desirable that each processor owns and be the
//! sole updater of only a subset of the entries"), and the fully random
//! access pattern thrashes caches. Both call for "a more limited form of
//! randomization... not explored in the paper".
//!
//! This module explores it: the index set is split into `P` contiguous
//! blocks; thread `t` *owns* block `t` and picks its update rows uniformly
//! at random **within its own block**, while still reading the whole shared
//! vector. Writes are single-owner, so:
//!
//! * no write-write races exist at all — atomic RMW is unnecessary (plain
//!   stores suffice), which is exactly the property a distributed-memory
//!   port needs;
//! * each thread's writes stay in its own cache lines (no invalidation
//!   traffic from other writers);
//! * the sampled distribution over rows is uniform overall: each owner has a
//!   fixed update budget proportional to its block size, so scheduler
//!   imbalance delays blocks but cannot starve them.
//!
//! Convergence follows the same intuition as AsyRGS (each coordinate is
//! still hit infinitely often with a random schedule), but the paper's
//! uniform-sampling analysis does not apply verbatim; treat this as the
//! experimental extension it is.
//!
//! The solver is generic over [`RowAccess`] and routes stopping and
//! telemetry through the shared [`crate::driver`] (observed at epoch
//! boundaries, where all owners are quiescent).

use crate::driver::{
    ensure_beta, ensure_finite_system, ensure_square_system, ensure_threads, inverse_diag_into,
    Driver, Recording, Termination,
};
use crate::error::SolveError;
use crate::report::SolveReport;
use crate::workspace::{resize_scratch, SolveWorkspace};
use asyrgs_parallel::WorkerPool;
use asyrgs_rng::Philox4x32;
use asyrgs_sparse::dense;
use asyrgs_sparse::RowAccess;
use std::sync::atomic::{AtomicU64, Ordering};

/// Options for the partitioned solver.
#[derive(Debug, Clone)]
pub struct PartitionedOptions {
    /// Step size in `(0, 2)`.
    pub beta: f64,
    /// Number of blocks = number of threads.
    pub threads: usize,
    /// Philox seed; each block derives an independent substream.
    pub seed: u64,
    /// When to stop (each sweep = `n` updates in total across all owners).
    pub term: Termination,
    /// Residual-recording cadence (default: stopping boundary only, the
    /// historical behavior — each record synchronizes all owners).
    pub record: Recording,
}

impl Default for PartitionedOptions {
    fn default() -> Self {
        PartitionedOptions {
            beta: 1.0,
            threads: 2,
            seed: 0xB10C,
            term: Termination::sweeps(10),
            record: Recording::end_only(),
        }
    }
}

/// Result details specific to the partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedReport {
    /// The generic solve report.
    pub report: SolveReport,
    /// Updates performed per block (equal under perfect rate balance).
    pub block_iterations: Vec<u64>,
}

/// Block-partitioned AsyRGS on an injected worker pool and caller-owned
/// [`SolveWorkspace`]: thread `t` owns rows `[t*n/P, (t+1)*n/P)` and
/// updates only those, sampling uniformly within the block; reads span the
/// whole shared vector (lock-free). The pool must provide at least
/// `opts.threads`-way concurrency: every owner must run concurrently to
/// reach the per-sweep barrier.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, `b`/`x` have mismatched lengths, a diagonal entry is
/// non-positive, `beta` is outside `(0, 2)`, `threads == 0`, or there are
/// more blocks than unknowns.
pub fn partitioned_solve_in<O: RowAccess + Sync>(
    pool: &WorkerPool,
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    opts: &PartitionedOptions,
) -> Result<PartitionedReport, SolveError> {
    ensure_square_system(
        "partitioned_solve",
        a.n_rows(),
        a.n_cols(),
        b.len(),
        x.len(),
    )?;
    ensure_finite_system("partitioned_solve", a, b, x)?;
    ensure_threads(opts.threads)?;
    let n = a.n_rows();
    if opts.threads > n {
        return Err(SolveError::DimensionMismatch {
            solver: "partitioned_solve",
            detail: format!("more blocks than unknowns ({} > {n})", opts.threads),
        });
    }
    ensure_beta(opts.beta)?;
    a.diag_into(&mut ws.diag);
    inverse_diag_into(&ws.diag, &mut ws.dinv)?;
    let dinv = &ws.dinv;

    let p = opts.threads;
    ws.shared.reset_from(x);
    let shared = &ws.shared;
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);
    // Block bounds: block t covers [bounds[t], bounds[t+1]).
    let bounds: Vec<usize> = (0..=p).map(|t| t * n / p).collect();
    // Each owner performs a fixed budget proportional to its block size,
    // with a barrier once per sweep: within a sweep owners run fully
    // asynchronously; across sweeps they exchange (the pattern a
    // distributed-memory port would use for boundary communication). The
    // sampled row distribution stays uniform overall and no block can be
    // starved by scheduler imbalance.
    let block_counts: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
    let master = Philox4x32::from_seed(opts.seed);

    let mut driver = Driver::new(&opts.term, opts.record);
    let epoch_sweeps = crate::jacobi::epoch_len(&opts.term, opts.record);
    let mut sweeps_done = 0usize;

    resize_scratch(&mut ws.snap, n);
    resize_scratch(&mut ws.resid, n);
    let snap = &mut ws.snap;
    let resid = &mut ws.resid;

    while sweeps_done < driver.max_sweeps() {
        let this_epoch = epoch_sweeps.min(driver.max_sweeps() - sweeps_done);
        let sweeps_before = sweeps_done;
        sweeps_done += this_epoch;
        let barrier = std::sync::Barrier::new(p);
        // One pool round per epoch; the round's worker id *is* the block
        // owner id, so pool worker `t` owns rows [bounds[t], bounds[t+1]).
        pool.run(p, |t| {
            let lo = bounds[t];
            let hi = bounds[t + 1];
            let gen = master.substream(t as u64);
            let width = hi - lo;
            // The Philox counter is a pure function of how many
            // updates this owner has already applied, so epochs
            // continue the same per-owner random sequence.
            let mut local: u64 = (sweeps_before as u64) * (width as u64);
            for _sweep in 0..this_epoch {
                for _ in 0..width {
                    let r = lo + gen.index_at(local, width);
                    local += 1;
                    let mut dot = 0.0;
                    a.visit_row(r, |c, v| dot += v * shared.load(c));
                    let gamma = (b[r] - dot) * dinv[r];
                    // Single-owner write: a plain store is race-free.
                    shared.store(r, shared.load(r) + opts.beta * gamma);
                }
                // One exchange per sweep — the BSP-style boundary
                // communication a distributed-memory port would do.
                barrier.wait();
            }
            block_counts[t].fetch_add((this_epoch as u64) * (width as u64), Ordering::Relaxed);
        });
        let stop = driver.observe_lazy(sweeps_done, (sweeps_done as u64) * (n as u64), || {
            shared.snapshot_into(snap);
            (a.rel_residual_into(b, snap, norm_b, resid), None)
        });
        if stop {
            break;
        }
    }

    shared.snapshot_into(x);
    let total = (sweeps_done as u64) * (n as u64);
    let report = driver.finish(total, p, || a.rel_residual_into(b, x, norm_b, resid));
    Ok(PartitionedReport {
        report,
        block_iterations: block_counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
    })
}

/// Solve `A x = b` with block-partitioned AsyRGS; see
/// [`partitioned_solve_in`] for the algorithm.
///
/// # Errors
/// See [`partitioned_solve_in`].
pub fn try_partitioned_solve<O: RowAccess + Sync>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    opts: &PartitionedOptions,
) -> Result<PartitionedReport, SolveError> {
    partitioned_solve_in(
        &asyrgs_parallel::pool_for(opts.threads),
        &mut SolveWorkspace::new(),
        a,
        b,
        x,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_sparse::CsrMatrix;
    use asyrgs_workloads::{diag_dominant, laplace2d};

    fn problem(n_side: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplace2d(n_side, n_side);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 / 7.0).collect();
        let b = a.matvec(&x_star);
        (a, b, x_star)
    }

    #[test]
    fn converges_single_block() {
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 1,
                term: Termination::sweeps(200),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            rep.report.final_rel_residual < 1e-5,
            "{}",
            rep.report.final_rel_residual
        );
        assert_eq!(rep.block_iterations.len(), 1);
        assert_eq!(rep.block_iterations[0], rep.report.iterations);
    }

    #[test]
    fn converges_multi_block() {
        let (a, b, _) = problem(10);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 4,
                term: Termination::sweeps(300),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            rep.report.final_rel_residual < 1e-4,
            "{}",
            rep.report.final_rel_residual
        );
        // All updates accounted for.
        let sum: u64 = rep.block_iterations.iter().sum();
        assert_eq!(sum, rep.report.iterations);
    }

    #[test]
    fn works_on_general_diagonal() {
        let a = diag_dominant(120, 5, 2.0, 4);
        let x_star = vec![1.0; 120];
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 120];
        let rep = try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 3,
                term: Termination::sweeps(100),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.report.final_rel_residual < 1e-8);
    }

    #[test]
    fn comparable_quality_to_unrestricted_asyrgs() {
        // The restricted randomization should not dramatically hurt
        // convergence on a well-conditioned matrix.
        let a = diag_dominant(200, 5, 2.0, 9);
        let x_star: Vec<f64> = (0..200).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.matvec(&x_star);
        let sweeps = 30;
        let mut xp = vec![0.0; 200];
        let part = try_partitioned_solve(
            &a,
            &b,
            &mut xp,
            &PartitionedOptions {
                threads: 4,
                term: Termination::sweeps(sweeps),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut xu = vec![0.0; 200];
        let full = crate::asyrgs::try_asyrgs_solve(
            &a,
            &b,
            &mut xu,
            None,
            &crate::asyrgs::AsyRgsOptions {
                threads: 4,
                term: Termination::sweeps(sweeps),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let ratio = part.report.final_rel_residual / full.final_rel_residual;
        assert!(
            ratio < 100.0,
            "partitioned {} vs unrestricted {}",
            part.report.final_rel_residual,
            full.final_rel_residual
        );
    }

    #[test]
    fn blocks_receive_balanced_work_single_core() {
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 4,
                term: Termination::sweeps(50),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // No block should be starved entirely.
        for (t, &c) in rep.block_iterations.iter().enumerate() {
            assert!(c > 0, "block {t} starved");
        }
    }

    #[test]
    fn recording_cadence_synchronizes_and_records() {
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 2,
                term: Termination::sweeps(20),
                record: Recording::every(5),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let sweeps: Vec<usize> = rep.report.records.iter().map(|r| r.sweep).collect();
        assert_eq!(sweeps, vec![5, 10, 15, 20]);
    }

    #[test]
    #[should_panic(expected = "more blocks than unknowns")]
    fn rejects_too_many_blocks() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0; 3];
        let mut x = vec![0.0; 3];
        try_partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 5,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "partitioned_solve: right-hand side b has length 1")]
    fn rejects_mismatched_rhs() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0; 1];
        let mut x = vec![0.0; 3];
        try_partitioned_solve(&a, &b, &mut x, &PartitionedOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
