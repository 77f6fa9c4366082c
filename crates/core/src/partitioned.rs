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
//! The solver is generic over [`RowAccess`] and keeps its owner loop and
//! per-sweep barrier; the crate's one epoch loop runs them on the pool and
//! observes through the shared [`crate::driver`] at epoch boundaries, where
//! all owners are quiescent.

use crate::atomic::SharedVec;
use crate::driver::{
    ensure_beta, ensure_finite_system, ensure_square_system, ensure_threads, inverse_diag_into,
    Recording, Termination,
};
use crate::epochs::{self, Epoch, Plan, Scratch, Update};
use crate::error::SolveError;
use crate::report::SolveReport;
use crate::workspace::SolveWorkspace;
use asyrgs_parallel::WorkerPool;
use asyrgs_rng::Philox4x32;
use asyrgs_sparse::RowAccess;
use std::sync::Barrier;

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
) -> Result<SolveReport, SolveError> {
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
    let (scratch, dinv, _, _) = Scratch::split(ws);
    let p = opts.threads;
    let master = Philox4x32::from_seed(opts.seed);
    // Each owner performs a fixed budget proportional to its block size,
    // with a barrier once per sweep: within a sweep owners run fully
    // asynchronously; across sweeps they exchange (the pattern a
    // distributed-memory port would use for boundary communication). The
    // sampled row distribution stays uniform overall and no block can be
    // starved by scheduler imbalance.
    let barrier = Barrier::new(p);
    // The round's worker id *is* the block owner id, so pool worker `t`
    // owns rows [t*n/P, (t+1)*n/P).
    let own = |t: usize, x: &SharedVec, e: &Epoch| {
        let lo = t * n / p;
        let width = (t + 1) * n / p - lo;
        let gen = master.substream(t as u64);
        // The Philox counter is a pure function of how many updates this
        // owner has already applied, so epochs continue the same
        // per-owner random sequence.
        let (first, last) = e.range;
        let mut local = first * width as u64;
        for _sweep in first..last {
            for _ in 0..width {
                let r = lo + gen.index_at(local, width);
                local += 1;
                let mut dot = 0.0;
                a.visit_row(r, |c, v| dot += v * x.load(c));
                let gamma = (b[r] - dot) * dinv[r];
                // Single-owner write: a plain store is race-free.
                x.store(r, x.load(r) + opts.beta * gamma);
            }
            // One exchange per sweep — the BSP-style boundary
            // communication a distributed-memory port would do.
            barrier.wait();
        }
    };
    let plan = Plan {
        pool,
        threads: p,
        cadence: Some(opts.record.every).filter(|&k| k > 0),
        claims_per_sweep: 1,
        term: &opts.term,
        record: opts.record,
        health: None,
        faults: None,
    };
    epochs::run(&plan, scratch, a, b, x, None, Update::Pool(&own))
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
) -> Result<SolveReport, SolveError> {
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
        assert!(rep.final_rel_residual < 1e-5, "{}", rep.final_rel_residual);
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
        assert!(rep.final_rel_residual < 1e-4, "{}", rep.final_rel_residual);
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
        assert!(rep.final_rel_residual < 1e-8);
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
        let ratio = part.final_rel_residual / full.final_rel_residual;
        assert!(
            ratio < 100.0,
            "partitioned {} vs unrestricted {}",
            part.final_rel_residual,
            full.final_rel_residual
        );
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
        let sweeps: Vec<usize> = rep.records.iter().map(|r| r.sweep).collect();
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
