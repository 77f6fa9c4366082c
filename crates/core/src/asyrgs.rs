//! AsyRGS — the asynchronous shared-memory Randomized Gauss-Seidel solver.
//!
//! This is the paper's primary contribution (Section 4): `P` threads all
//! execute Algorithm 1 against the *same* solution vector `x` in shared
//! memory, with no coordination beyond atomic single-coordinate writes
//! (Assumption A-1). Reads are plain relaxed atomic loads, so the executed
//! iteration is the **inconsistent-read** model (9) — exactly the variant
//! the paper's experiments run ("We experimented with the inconsistent read
//! variant only", Section 9). The consistent-read model (8) is studied
//! exactly in `asyrgs-sim`.
//!
//! Key properties mirrored from the paper:
//!
//! * **Fixed direction set** — iteration `j`'s direction is
//!   `Philox(seed, j)`; threads claim `j` from a shared counter, so the
//!   *set* of directions is the same regardless of thread count or
//!   interleaving (Section 9 does this with Random123).
//! * **Write modes** — [`WriteMode::Atomic`] (CAS add, Assumption A-1) and
//!   [`WriteMode::NonAtomic`] (load+store, can lose updates), the two
//!   variants compared in Fig. 2.
//! * **Occasional synchronization** — [`AsyRgsOptions::epoch_sweeps`]
//!   implements the synchronize-and-restart scheme discussed after
//!   Theorem 2, which restores the stronger assertion-(a) bound per epoch.
//! * **Step-size control** — `beta < 1` per Section 6; see
//!   [`crate::theory::optimal_beta_consistent`] and
//!   [`crate::theory::optimal_beta_inconsistent`] for the tuned values.
//!
//! Workers are generic over [`RowAccess`]; stopping and telemetry (at epoch
//! boundaries, the only points where the shared iterate is quiescent) route
//! through the shared [`crate::driver`].

use crate::atomic::SharedVec;
use crate::driver::{
    ensure_beta, ensure_finite_matrix, ensure_finite_slice, ensure_finite_system,
    ensure_square_block_system, ensure_square_system, ensure_threads, inverse_diag_into, Driver,
    Recording, Solver, Termination,
};
use crate::error::SolveError;
use crate::health::{HealthConfig, HealthMonitor};
use crate::report::SolveReport;
use crate::rgs::{walk_rows, Directions, RowSampling};
use crate::workspace::{resize_scratch, resize_scratch_mat, SolveWorkspace};
use asyrgs_parallel::{FaultPlan, WorkerPool};
use asyrgs_rng::DrawBuffer;
use asyrgs_sparse::dense::{self, RowMajorMat};
use asyrgs_sparse::{CsrMatrix, LinearOperator, RowAccess};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// How a worker writes its update into the shared vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Compare-and-exchange add — the paper's Assumption A-1.
    Atomic,
    /// Relaxed load + relaxed store; concurrent updates may be lost. The
    /// experimental "non atomic" variant of Fig. 2.
    NonAtomic,
}

/// How a worker reads the shared vector.
///
/// The paper analyzes both models but only runs the inconsistent one,
/// noting that "enforcing consistent reads involves some overhead... a
/// complex trade-off" (Section 4) that it presents but does not quantify.
/// [`ReadMode::LockedConsistent`] lets this implementation quantify it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Plain relaxed loads: the executed iteration is model (9). What the
    /// paper's experiments run.
    Inconsistent,
    /// Enforce Assumption A-2 with a readers-writer lock: the read of
    /// line 5 holds a shared lock, the write of line 7 an exclusive one,
    /// so no entry read is concurrently modified (the paper's sufficient
    /// condition `R ∩ M = ∅`). The executed iteration is model (8), at
    /// the cost of lock traffic on every iteration.
    LockedConsistent,
}

/// Options for the asynchronous solver.
#[derive(Debug, Clone)]
pub struct AsyRgsOptions {
    /// Step size `beta` in `(0, 2)`; the inconsistent-read analysis
    /// requires `beta < 1` for a guarantee, but the solver accepts the full
    /// range (the paper runs `beta = 1` in practice).
    pub beta: f64,
    /// Worker thread count `P`.
    pub threads: usize,
    /// Write mode (atomic CAS vs racy load/store).
    pub write_mode: WriteMode,
    /// Read mode (lock-free inconsistent vs lock-enforced consistent).
    pub read_mode: ReadMode,
    /// Row sampling distribution (uniform, or proportional to the
    /// diagonal per Leventhal-Lewis for general-diagonal matrices).
    pub sampling: RowSampling,
    /// Philox seed for the direction stream.
    pub seed: u64,
    /// If `Some(k)`, synchronize all threads every `k` sweeps (the
    /// occasional-synchronization scheme after Theorem 2). Residuals can
    /// only be observed at synchronization points, so this is also the
    /// recording/stopping granularity.
    pub epoch_sweeps: Option<usize>,
    /// When to stop (sweep budget, residual target checked at epoch
    /// boundaries, wall-clock budget).
    pub term: Termination,
    /// Recording cadence, evaluated at epoch boundaries (the default
    /// records every boundary).
    pub record: Recording,
    /// Optional numerical-health watchdog, evaluated at every epoch
    /// boundary (the only quiescent points). `None` (the default) adds no
    /// work and no branches to the default path, so fixed-seed results are
    /// bitwise unchanged. When set, the synchronization interval is forced
    /// to one sweep so detection latency is a single epoch, and a trip
    /// surfaces as a typed [`SolveError`] with `x` left untouched.
    /// Honored by the single-RHS solve only; the block solve ignores it.
    pub health: Option<HealthConfig>,
    /// Optional deterministic fault-injection schedule (tests and the
    /// fault harness). `None` (the default) injects nothing. Pool-level
    /// faults (stalls, kills, slow clocks) fire at epoch-round starts;
    /// poisoned updates write a NaN into the shared iterate mid-round.
    /// Honored by the single-RHS solve only.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for AsyRgsOptions {
    fn default() -> Self {
        AsyRgsOptions {
            beta: 1.0,
            threads: 2,
            write_mode: WriteMode::Atomic,
            read_mode: ReadMode::Inconsistent,
            sampling: RowSampling::Uniform,
            seed: 0x5EED,
            epoch_sweeps: None,
            term: Termination::sweeps(10),
            record: Recording::every(1),
            health: None,
            fault_plan: None,
        }
    }
}

impl AsyRgsOptions {
    /// Set the step size to the theory-tuned value for the expected delay.
    ///
    /// Under normal circumstances `tau = O(P)` (Section 4's discussion of
    /// Assumption A-3, and the Section 6 guideline for setting the step
    /// size), so we take `tau = delay_factor * threads`:
    /// `beta~ = 1/(1 + 2 rho tau)` for consistent reads,
    /// `beta* = 1/(2 + rho_2 tau^2)` for inconsistent reads.
    pub fn with_tuned_beta(
        mut self,
        params: &crate::theory::ProblemParams,
        delay_factor: f64,
    ) -> Self {
        let tau = (delay_factor * self.threads as f64).ceil() as usize;
        self.beta = match self.read_mode {
            ReadMode::LockedConsistent => crate::theory::optimal_beta_consistent(params, tau),
            ReadMode::Inconsistent => {
                // The paper runs beta = 1 in practice even in the
                // inconsistent model; the tuned value guards the guarantee.
                crate::theory::optimal_beta_inconsistent(params, tau)
            }
        };
        self
    }
}

/// The synchronization interval actually used: the user's `epoch_sweeps`
/// when given; otherwise one free-running epoch over the whole budget —
/// unless a residual target or wall-clock budget needs sweep-granularity
/// boundaries to be honored (they can only fire at synchronization
/// points). A watchdog forces one-sweep epochs regardless: health checks
/// only happen at quiescent points, and one-sweep granularity bounds
/// detection latency at a single epoch.
fn effective_epoch(opts: &AsyRgsOptions) -> usize {
    if opts.health.is_some() {
        return 1;
    }
    opts.epoch_sweeps
        .unwrap_or_else(|| {
            if opts.term.target_rel_residual.is_some() || opts.term.wall_clock.is_some() {
                1
            } else {
                opts.term.max_sweeps
            }
        })
        .max(1)
}

/// Pick the per-worker claim batch for an epoch of `epoch_iters`
/// iterations: large enough to amortize the shared-counter RMW and the
/// batched draw fill, small enough that every worker gets a share of even
/// a short epoch. Claim order — and therefore the single-thread update
/// sequence — is independent of the batch size.
pub(crate) fn claim_batch(epoch_iters: u64, threads: usize) -> u64 {
    (epoch_iters / (threads as u64 * 4)).clamp(1, DrawBuffer::DEFAULT_CAPACITY as u64)
}

/// One worker: claim global iteration indices until `limit`, apply updates.
///
/// Iterations are claimed `claim` at a time (one counter RMW per batch,
/// not per update) and their directions drawn with one batched fill —
/// both bitwise-neutral: claimed ranges are consecutive and the draws are
/// pure functions of the iteration index. On a matrix too large for a
/// core's private cache ([`RowAccess::prefetch_pays`]) the walk hints each
/// batch's upcoming rows into cache ([`walk_rows`]), which is bitwise
/// neutral too.
#[allow(clippy::too_many_arguments)]
fn worker<O: RowAccess>(
    a: &O,
    b: &[f64],
    x: &SharedVec,
    dinv: &[f64],
    ds: &Directions,
    counter: &AtomicU64,
    limit: u64,
    claim: u64,
    beta: f64,
    mode: WriteMode,
    lock: Option<&RwLock<()>>,
    commits: &AtomicU64,
    max_delay: &AtomicU64,
) {
    let mut draws = DrawBuffer::new();
    let prefetch = a.prefetch_pays();
    let mut local_max = 0u64;
    loop {
        let start = counter.fetch_add(claim, Ordering::Relaxed);
        if start >= limit {
            break;
        }
        let batch = (limit - start).min(claim) as usize;
        let dirs = draws.fill_with(batch, |out| ds.fill_directions(start, out));
        // Commits visible when the batch starts — used to measure the
        // empirical delay tau (Assumption A-3's constant, observed at
        // batch granularity: the count of foreign commits that landed
        // while this batch ran).
        let c0 = commits.load(Ordering::Relaxed);
        if lock.is_none() && mode == WriteMode::Atomic {
            // Fast path for the default configuration (lock-free
            // inconsistent reads, atomic writes): no per-update dispatch,
            // just walk and CAS-add. Same expressions in the same order as
            // the general path below, so the iterates are bitwise equal.
            walk_rows(a, dirs, prefetch, |r| {
                let dot = a.row_dot_with(r, |c| x.load(c));
                let gamma = (b[r] - dot) * dinv[r];
                x.fetch_add(r, beta * gamma);
            });
        } else {
            walk_rows(a, dirs, prefetch, |r| {
                // Read phase (Algorithm 1 line 5). Under LockedConsistent,
                // hold a shared lock so no write interleaves: R ∩ M = ∅
                // (Assumption A-2). The walk runs the backend's unrolled
                // kernel against relaxed loads.
                let dot;
                {
                    let _guard = lock.map(|l| l.read().unwrap());
                    dot = a.row_dot_with(r, |c| x.load(c));
                }
                let gamma = (b[r] - dot) * dinv[r];
                // Write phase (line 7); exclusive under LockedConsistent.
                {
                    let _wguard = lock.map(|l| l.write().unwrap());
                    match mode {
                        WriteMode::Atomic => x.fetch_add(r, beta * gamma),
                        WriteMode::NonAtomic => x.cell(r).add_non_atomic(beta * gamma),
                    }
                }
            });
        }
        let c1 = commits.fetch_add(dirs.len() as u64, Ordering::Relaxed);
        local_max = local_max.max(c1.saturating_sub(c0));
    }
    max_delay.fetch_max(local_max, Ordering::Relaxed);
}

/// AsyRGS on an injected worker pool and caller-owned [`SolveWorkspace`] —
/// the allocation-amortized entry point behind the session API. The pool
/// must provide at least `opts.threads`-way concurrency; repeated calls
/// with the same-sized system perform no heap allocation in the hot path.
///
/// `x` holds the initial iterate on entry and the final iterate on exit.
/// If `x_star` is supplied, A-norm errors are recorded at epoch boundaries.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, `b`/`x` have mismatched lengths, a diagonal entry is
/// non-positive, `beta` is outside `(0, 2)`, or `threads == 0`.
pub fn asyrgs_solve_in<O: RowAccess + Sync>(
    pool: &WorkerPool,
    ws: &mut SolveWorkspace,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &AsyRgsOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_system("asyrgs_solve", a.n_rows(), a.n_cols(), b.len(), x.len())?;
    ensure_finite_system("asyrgs_solve", a, b, x)?;
    ensure_beta(opts.beta)?;
    ensure_threads(opts.threads)?;
    let n = a.n_rows();
    a.diag_into(&mut ws.diag);
    inverse_diag_into(&ws.diag, &mut ws.dinv)?;
    let dinv = &ws.dinv;
    let ds = Directions::new(opts.sampling, opts.seed, n, &ws.diag);
    ws.shared.reset_from(x);
    let shared = &ws.shared;
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);
    let norm_xs_a = x_star.map(|xs| a.a_norm(xs).max(f64::MIN_POSITIVE));

    let epoch_sweeps = effective_epoch(opts);
    let counter = AtomicU64::new(0);
    let commits = AtomicU64::new(0);
    let max_delay = AtomicU64::new(0);
    let lock = match opts.read_mode {
        ReadMode::Inconsistent => None,
        ReadMode::LockedConsistent => Some(RwLock::new(())),
    };
    let mut driver = Driver::new(&opts.term, opts.record);
    let mut sweeps_done = 0usize;
    // Observation scratch, reused across every epoch boundary (and across
    // solves): the iterate snapshot, the residual buffer (doubling as the
    // A-norm matvec scratch), and the error diff.
    resize_scratch(&mut ws.snap, n);
    resize_scratch(&mut ws.resid, n);
    if x_star.is_some() {
        resize_scratch(&mut ws.diff, n);
    }
    let snap = &mut ws.snap;
    let resid = &mut ws.resid;
    let diff = &mut ws.diff;
    let healthy = &mut ws.healthy;

    let mut monitor = opts.health.as_ref().map(|c| HealthMonitor::new(c.clone()));
    let fault_plan = opts.fault_plan.as_ref().filter(|p| !p.is_empty());
    // A killed worker (injected or real) degrades the solve to fewer
    // threads when a watchdog is armed; without one the panic propagates
    // unchanged, as `WorkerPool::run` documents.
    let mut threads_now = opts.threads;
    let mut epoch: u64 = 0;

    while sweeps_done < driver.max_sweeps() {
        let sweeps_this_epoch = epoch_sweeps.min(driver.max_sweeps() - sweeps_done);
        sweeps_done += sweeps_this_epoch;
        let limit = (sweeps_done as u64) * (n as u64);
        let claim = claim_batch((sweeps_this_epoch as u64) * (n as u64), threads_now);
        let round = epoch;
        // One pool round per epoch: round completion is the
        // synchronization point.
        let run_round = |p: usize| {
            pool.run(p, |w| {
                if let Some(plan) = fault_plan {
                    plan.apply_pool_faults(w, round);
                    if let Some(idx) = plan.poison_for(w, round) {
                        if idx < n {
                            shared.store(idx, f64::NAN);
                        }
                    }
                }
                worker(
                    a,
                    b,
                    shared,
                    dinv,
                    &ds,
                    &counter,
                    limit,
                    claim,
                    opts.beta,
                    opts.write_mode,
                    lock.as_ref(),
                    &commits,
                    &max_delay,
                )
            })
        };
        if monitor.is_some() {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_round(threads_now)))
                .is_err()
            {
                // The pool survives a worker panic and the surviving
                // workers drain the epoch's claim range; continue on the
                // remaining threads.
                threads_now = threads_now.saturating_sub(1).max(1);
            }
        } else {
            run_round(threads_now);
        }
        // Exiting workers overshoot the claim counter by up to one claim
        // batch each; reset it to the exact epoch boundary while they are
        // quiescent so the next epoch misses no iteration.
        counter.store(limit, Ordering::Relaxed);
        epoch += 1;
        // Synchronized: observe telemetry through the driver (scratch
        // buffers reused, nothing allocated). The residual runs on the
        // solve's own workers, bitwise equal to the serial one; its norm
        // stays serial, in the same order.
        let stop = if let Some(mon) = monitor.as_mut() {
            // Watchdog path: the residual is needed every epoch anyway, so
            // compute it eagerly, run the health checks (a trip returns a
            // typed error with `x` untouched — it is only written below,
            // after the loop), and feed the driver the precomputed values.
            shared.snapshot_into(snap);
            mon.check_iterate("asyrgs_solve", round as usize, snap)?;
            a.par_residual_into_on(pool, threads_now, b, snap, resid);
            let rel = dense::norm2(resid) / norm_b;
            mon.observe_residual(round as usize, rel)?;
            healthy.clear();
            healthy.extend_from_slice(snap);
            let err = x_star.map(|xs| {
                for ((di, si), xsi) in diff.iter_mut().zip(snap.iter()).zip(xs) {
                    *di = si - xsi;
                }
                a.a_norm_into(diff, resid) / norm_xs_a.unwrap()
            });
            driver.observe_lazy(sweeps_done, limit, || (rel, err))
        } else {
            driver.observe_lazy(sweeps_done, limit, || {
                shared.snapshot_into(snap);
                a.par_residual_into_on(pool, threads_now, b, snap, resid);
                let rel = dense::norm2(resid) / norm_b;
                let err = x_star.map(|xs| {
                    for ((di, si), xsi) in diff.iter_mut().zip(snap.iter()).zip(xs) {
                        *di = si - xsi;
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

    shared.snapshot_into(x);
    let iterations = (sweeps_done as u64) * (n as u64);
    let mut report = driver.finish(iterations, threads_now, || {
        a.residual_into(b, x, resid);
        dense::norm2(resid) / norm_b
    });
    report.max_observed_delay = Some(max_delay.load(Ordering::Relaxed));
    Ok(report)
}

/// Solve `A x = b` with AsyRGS.
///
/// `x` holds the initial iterate on entry and the final iterate on exit.
/// If `x_star` is supplied, A-norm errors are recorded at epoch boundaries.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `x` untouched) if `A` is not
/// square or empty, `b`/`x` have mismatched lengths, a diagonal entry is
/// non-positive, `beta` is outside `(0, 2)`, or `threads == 0`.
pub fn try_asyrgs_solve<O: RowAccess + Sync>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &AsyRgsOptions,
) -> Result<SolveReport, SolveError> {
    try_asyrgs_solve_on(
        &asyrgs_parallel::pool_for(opts.threads),
        a,
        b,
        x,
        x_star,
        opts,
    )
}

/// [`try_asyrgs_solve`] on an injected worker pool (which must provide at
/// least `opts.threads`-way concurrency). The default entry point borrows
/// the process-wide pool when it is wide enough, so an epoch transition is
/// a wake/park handshake rather than `threads` thread spawns and joins.
///
/// # Errors
/// See [`try_asyrgs_solve`].
pub fn try_asyrgs_solve_on<O: RowAccess + Sync>(
    pool: &WorkerPool,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &AsyRgsOptions,
) -> Result<SolveReport, SolveError> {
    asyrgs_solve_in(pool, &mut SolveWorkspace::new(), a, b, x, x_star, opts)
}

/// Solve `A x = b` with AsyRGS.
///
/// # Panics
/// Panics if `A` is not square, `b`/`x` have mismatched lengths, a
/// diagonal entry is non-positive, `beta` is outside `(0, 2)`, or
/// `threads == 0`.
#[deprecated(note = "use `try_asyrgs_solve` (typed errors) or the session API")]
pub fn asyrgs_solve<O: RowAccess + Sync>(
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &AsyRgsOptions,
) -> SolveReport {
    try_asyrgs_solve(a, b, x, x_star, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`asyrgs_solve`] on an injected worker pool (which must provide at
/// least `opts.threads`-way concurrency).
///
/// # Panics
/// Panics on invalid input like [`asyrgs_solve`].
#[deprecated(note = "use `try_asyrgs_solve_on` (typed errors) or the session API")]
pub fn asyrgs_solve_on<O: RowAccess + Sync>(
    pool: &WorkerPool,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    opts: &AsyRgsOptions,
) -> SolveReport {
    try_asyrgs_solve_on(pool, a, b, x, x_star, opts).unwrap_or_else(|e| panic!("{e}"))
}

impl Solver for AsyRgsOptions {
    fn name(&self) -> &'static str {
        "asyrgs"
    }

    fn solve<O: RowAccess + Sync>(
        &self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
        x_star: Option<&[f64]>,
    ) -> Result<SolveReport, SolveError> {
        try_asyrgs_solve(a, b, x, x_star, self)
    }
}

/// Multi-RHS worker: each iteration updates the whole row `X[r, :]`.
/// Claims and draws are batched exactly as in the single-RHS [`worker`].
#[allow(clippy::too_many_arguments)]
fn worker_block(
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &SharedVec, // row-major n x k
    k: usize,
    dinv: &[f64],
    ds: &Directions,
    counter: &AtomicU64,
    limit: u64,
    claim: u64,
    beta: f64,
    mode: WriteMode,
    lock: Option<&RwLock<()>>,
) {
    let mut draws = DrawBuffer::new();
    let mut gammas = vec![0.0f64; k];
    loop {
        let start = counter.fetch_add(claim, Ordering::Relaxed);
        if start >= limit {
            break;
        }
        let batch = (limit - start).min(claim) as usize;
        let dirs: &[usize] = draws.fill_with(batch, |out| ds.fill_directions(start, out));
        for &r in dirs {
            let (cols, vals) = a.row(r);
            // Accumulate the per-column dots first and keep the single-RHS
            // association (`(b - dot) * dinv`, then `beta * gamma`), so a
            // one-thread block solve is bitwise the sequence of single
            // solves — the contract `solve_many` advertises.
            gammas.fill(0.0);
            {
                let _guard = lock.map(|l| l.read().unwrap());
                for (&c, &v) in cols.iter().zip(vals) {
                    let base = c * k;
                    for (t, g) in gammas.iter_mut().enumerate() {
                        *g += v * x.load(base + t);
                    }
                }
            }
            let br = b.row(r);
            let base = r * k;
            let _wguard = lock.map(|l| l.write().unwrap());
            for (t, g) in gammas.iter().enumerate() {
                let gamma = (br[t] - g) * dinv[r];
                let delta = beta * gamma;
                match mode {
                    WriteMode::Atomic => x.fetch_add(base + t, delta),
                    WriteMode::NonAtomic => x.cell(base + t).add_non_atomic(delta),
                }
            }
        }
    }
}

/// Multi-RHS AsyRGS on an injected worker pool and caller-owned
/// [`SolveWorkspace`]: solves `A X = B` for row-major blocks (the paper's
/// 51 simultaneous systems, Section 9), all right-hand sides sharing one
/// direction stream and one quiescence-epoch structure.
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `X` untouched) if `A` is not
/// square or empty, the blocks do not conform, a diagonal entry is
/// non-positive, `beta` is outside `(0, 2)`, or `threads == 0`.
pub fn asyrgs_solve_block_in(
    pool: &WorkerPool,
    ws: &mut SolveWorkspace,
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &AsyRgsOptions,
) -> Result<SolveReport, SolveError> {
    ensure_square_block_system(
        "asyrgs_solve_block",
        a.n_rows(),
        a.n_cols(),
        b.n_rows(),
        b.n_cols(),
        x.n_rows(),
        x.n_cols(),
    )?;
    ensure_finite_matrix("asyrgs_solve_block", a)?;
    ensure_finite_slice("asyrgs_solve_block", "right-hand side B", b.as_slice())?;
    ensure_finite_slice("asyrgs_solve_block", "initial iterate X", x.as_slice())?;
    ensure_beta(opts.beta)?;
    ensure_threads(opts.threads)?;
    let n = a.n_rows();
    let k = b.n_cols();
    LinearOperator::diag_into(a, &mut ws.diag);
    inverse_diag_into(&ws.diag, &mut ws.dinv)?;
    let dinv = &ws.dinv;
    let ds = Directions::new(opts.sampling, opts.seed, n, &ws.diag);
    ws.shared.reset_from(x.as_slice());
    let shared = &ws.shared;
    let norm_b = b.frobenius_norm().max(f64::MIN_POSITIVE);

    let epoch_sweeps = effective_epoch(opts);
    let counter = AtomicU64::new(0);
    let lock = match opts.read_mode {
        ReadMode::Inconsistent => None,
        ReadMode::LockedConsistent => Some(RwLock::new(())),
    };
    let mut driver = Driver::new(&opts.term, opts.record);
    let mut sweeps_done = 0usize;
    // Observation scratch blocks, reused across every epoch boundary (and
    // across solves).
    resize_scratch_mat(&mut ws.blk_snap, n, k);
    resize_scratch_mat(&mut ws.blk_resid, n, k);
    let snap = &mut ws.blk_snap;
    let resid = &mut ws.blk_resid;

    while sweeps_done < driver.max_sweeps() {
        let sweeps_this_epoch = epoch_sweeps.min(driver.max_sweeps() - sweeps_done);
        sweeps_done += sweeps_this_epoch;
        let limit = (sweeps_done as u64) * (n as u64);
        let claim = claim_batch((sweeps_this_epoch as u64) * (n as u64), opts.threads);
        pool.run(opts.threads, |_| {
            worker_block(
                a,
                b,
                shared,
                k,
                dinv,
                &ds,
                &counter,
                limit,
                claim,
                opts.beta,
                opts.write_mode,
                lock.as_ref(),
            )
        });
        counter.store(limit, Ordering::Relaxed);
        let stop = driver.observe_lazy(sweeps_done, limit, || {
            shared.snapshot_into(snap.as_mut_slice());
            a.residual_block_into(b, snap, resid);
            (resid.frobenius_norm() / norm_b, None)
        });
        if stop {
            break;
        }
    }

    shared.snapshot_into(x.as_mut_slice());
    let iterations = (sweeps_done as u64) * (n as u64);
    Ok(driver.finish(iterations, opts.threads, || {
        a.residual_block_into(b, x, resid);
        resid.frobenius_norm() / norm_b
    }))
}

/// Multi-RHS AsyRGS: solves `A X = B` for row-major blocks (the paper's 51
/// simultaneous systems, Section 9).
///
/// # Errors
/// Returns a [`SolveError`] (and leaves `X` untouched) if `A` is not
/// square or empty, the blocks do not conform, a diagonal entry is
/// non-positive, `beta` is outside `(0, 2)`, or `threads == 0`.
pub fn try_asyrgs_solve_block(
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &AsyRgsOptions,
) -> Result<SolveReport, SolveError> {
    try_asyrgs_solve_block_on(&asyrgs_parallel::pool_for(opts.threads), a, b, x, opts)
}

/// [`try_asyrgs_solve_block`] on an injected worker pool (which must
/// provide at least `opts.threads`-way concurrency).
///
/// # Errors
/// See [`try_asyrgs_solve_block`].
pub fn try_asyrgs_solve_block_on(
    pool: &WorkerPool,
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &AsyRgsOptions,
) -> Result<SolveReport, SolveError> {
    asyrgs_solve_block_in(pool, &mut SolveWorkspace::new(), a, b, x, opts)
}

/// Multi-RHS AsyRGS: solves `A X = B` for row-major blocks.
///
/// # Panics
/// Panics if `A` is not square, the blocks do not conform, a diagonal
/// entry is non-positive, `beta` is outside `(0, 2)`, or `threads == 0`.
#[deprecated(note = "use `try_asyrgs_solve_block` (typed errors) or the session API")]
pub fn asyrgs_solve_block(
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &AsyRgsOptions,
) -> SolveReport {
    try_asyrgs_solve_block(a, b, x, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`asyrgs_solve_block`] on an injected worker pool (which must provide
/// at least `opts.threads`-way concurrency).
///
/// # Panics
/// Panics on invalid input like [`asyrgs_solve_block`].
#[deprecated(note = "use `try_asyrgs_solve_block_on` (typed errors) or the session API")]
pub fn asyrgs_solve_block_on(
    pool: &WorkerPool,
    a: &CsrMatrix,
    b: &RowMajorMat,
    x: &mut RowMajorMat,
    opts: &AsyRgsOptions,
) -> SolveReport {
    try_asyrgs_solve_block_on(pool, a, b, x, opts).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgs::{try_rgs_solve, RgsOptions};
    use asyrgs_workloads::{diag_dominant, laplace2d};

    fn problem(n_side: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplace2d(n_side, n_side);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 / 17.0).collect();
        let b = a.matvec(&x_star);
        (a, b, x_star)
    }

    #[test]
    fn single_thread_matches_sequential_rgs() {
        // With one thread there is no asynchrony: AsyRGS must reproduce the
        // sequential iterate exactly (same Philox directions).
        let (a, b, _) = problem(6);
        let n = a.n_rows();
        let mut x_seq = vec![0.0; n];
        try_rgs_solve(
            &a,
            &b,
            &mut x_seq,
            None,
            &RgsOptions {
                term: Termination::sweeps(8),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut x_async = vec![0.0; n];
        try_asyrgs_solve(
            &a,
            &b,
            &mut x_async,
            None,
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(8),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        for (s, p) in x_seq.iter().zip(&x_async) {
            assert!((s - p).abs() < 1e-14, "{s} vs {p}");
        }
    }

    #[test]
    fn converges_with_multiple_threads() {
        let (a, b, x_star) = problem(8);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            Some(&x_star),
            &AsyRgsOptions {
                threads: 4,
                term: Termination::sweeps(200),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // With 4 threads on only 64 unknowns the relative delay tau/n is
        // large — and under full-workspace test load the container is
        // heavily oversubscribed (observed intermittent >1e-2 under a
        // concurrent whole-workspace run) — so this checks robust
        // convergence progress, not a tight tolerance, like the
        // locked_consistent_reads_converge sibling below.
        assert!(
            rep.final_rel_residual < 1e-1,
            "residual {}",
            rep.final_rel_residual
        );
        assert_eq!(rep.threads, 4);
    }

    #[test]
    fn non_atomic_variant_converges_too() {
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 4,
                write_mode: WriteMode::NonAtomic,
                term: Termination::sweeps(150),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // Lost updates + oversubscribed scheduling make the non-atomic
        // variant noisier; require solid progress, not a tight tolerance.
        assert!(
            rep.final_rel_residual < 1e-2,
            "residual {}",
            rep.final_rel_residual
        );
    }

    #[test]
    fn epoch_synchronization_records_each_epoch() {
        let (a, b, _) = problem(6);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 2,
                epoch_sweeps: Some(3),
                term: Termination::sweeps(12),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rep.records.len(), 4);
        assert_eq!(rep.records.last().unwrap().sweep, 12);
        // Residual decreases across epochs.
        assert!(rep.records[3].rel_residual < rep.records[0].rel_residual);
    }

    #[test]
    fn early_stop_at_epoch_boundary() {
        let a = diag_dominant(120, 5, 3.0, 2);
        let x_star = vec![1.0; 120];
        let b = a.matvec(&x_star);
        let mut x = vec![0.0; 120];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 3,
                epoch_sweeps: Some(5),
                term: Termination::sweeps(500).with_target(1e-6),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.final_rel_residual <= 1e-6);
        assert!(rep.sweeps_run() < 500);
    }

    #[test]
    fn target_honored_without_explicit_epochs() {
        // With epoch_sweeps: None a residual target still forces
        // sweep-granularity synchronization points so it can fire early.
        let a = diag_dominant(120, 5, 3.0, 6);
        let b = a.matvec(&vec![1.0; 120]);
        let mut x = vec![0.0; 120];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 2,
                epoch_sweeps: None,
                term: Termination::sweeps(100_000).with_target(1e-6),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.converged_early);
        assert!(rep.sweeps_run() < 100_000);
    }

    #[test]
    fn wall_clock_budget_stops_at_epoch_boundary() {
        let a = diag_dominant(120, 5, 2.0, 2);
        let b = a.matvec(&vec![1.0; 120]);
        let mut x = vec![0.0; 120];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 2,
                epoch_sweeps: Some(1),
                term: Termination::sweeps(1_000_000)
                    .with_wall_clock(std::time::Duration::from_millis(50)),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.stopped_on_budget);
        assert!(rep.sweeps_run() < 1_000_000);
    }

    #[test]
    fn async_result_close_to_sync_result() {
        // Fig. 2 (center): after 10 sweeps the async residual is the same
        // order of magnitude as the sync one.
        let a = diag_dominant(300, 8, 2.0, 5);
        let x_star: Vec<f64> = (0..300).map(|i| (i as f64 * 0.05).cos()).collect();
        let b = a.matvec(&x_star);

        let mut x_sync = vec![0.0; 300];
        let sync = try_rgs_solve(
            &a,
            &b,
            &mut x_sync,
            None,
            &RgsOptions {
                term: Termination::sweeps(10),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut x_async = vec![0.0; 300];
        let asy = try_asyrgs_solve(
            &a,
            &b,
            &mut x_async,
            None,
            &AsyRgsOptions {
                threads: 4,
                term: Termination::sweeps(10),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let ratio = asy.final_rel_residual / sync.final_rel_residual;
        assert!(
            ratio < 20.0,
            "async {} vs sync {}",
            asy.final_rel_residual,
            sync.final_rel_residual
        );
    }

    #[test]
    fn block_solve_single_thread_matches_sequential_block() {
        let (a, b, _) = problem(5);
        let n = a.n_rows();
        let k = 2;
        let mut b_blk = RowMajorMat::zeros(n, k);
        b_blk.set_col(0, &b);
        b_blk.set_col(1, &vec![1.0; n]);
        let opts_seq = RgsOptions {
            term: Termination::sweeps(6),
            record: Recording::end_only(),
            ..Default::default()
        };
        let mut x_seq = RowMajorMat::zeros(n, k);
        crate::rgs::try_rgs_solve_block(&a, &b_blk, &mut x_seq, &opts_seq)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut x_async = RowMajorMat::zeros(n, k);
        try_asyrgs_solve_block(
            &a,
            &b_blk,
            &mut x_async,
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(6),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        for (s, p) in x_seq.as_slice().iter().zip(x_async.as_slice()) {
            assert!((s - p).abs() < 1e-14);
        }
    }

    #[test]
    fn block_solve_converges_multithreaded() {
        let a = diag_dominant(150, 6, 2.0, 8);
        let k = 3;
        let mut b_blk = RowMajorMat::zeros(150, k);
        for t in 0..k {
            let col: Vec<f64> = (0..150).map(|i| ((i * (t + 1)) % 7) as f64).collect();
            b_blk.set_col(t, &col);
        }
        let mut x_blk = RowMajorMat::zeros(150, k);
        let rep = try_asyrgs_solve_block(
            &a,
            &b_blk,
            &mut x_blk,
            &AsyRgsOptions {
                threads: 4,
                term: Termination::sweeps(80),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // Async interleavings vary run to run — under full-suite load on an
        // oversubscribed core the effective delay can be large, so leave
        // wide slack above the typical ~1e-6.
        assert!(
            rep.final_rel_residual < 1e-3,
            "residual {}",
            rep.final_rel_residual
        );
    }

    #[test]
    fn warm_start_is_respected() {
        let (a, b, x_star) = problem(6);
        let n = a.n_rows();
        // Start at the exact solution: nothing should change much.
        let mut x = x_star.clone();
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 2,
                term: Termination::sweeps(2),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.final_rel_residual < 1e-12);
        let _ = n;
    }

    #[test]
    fn delay_is_measured_and_zero_single_threaded() {
        let (a, b, _) = problem(6);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(5),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(rep.max_observed_delay, Some(0));
        // Multithreaded: reported (possibly zero under benign scheduling,
        // but present).
        let mut x2 = vec![0.0; n];
        let rep2 = try_asyrgs_solve(
            &a,
            &b,
            &mut x2,
            None,
            &AsyRgsOptions {
                threads: 4,
                term: Termination::sweeps(20),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep2.max_observed_delay.is_some());
    }

    #[test]
    fn locked_consistent_reads_converge() {
        let (a, b, x_star) = problem(8);
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            Some(&x_star),
            &AsyRgsOptions {
                threads: 4,
                read_mode: ReadMode::LockedConsistent,
                term: Termination::sweeps(150),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // Full-suite load on an oversubscribed core inflates delays; this
        // checks robust convergence, not a tight tolerance.
        assert!(
            rep.final_rel_residual < 1e-1,
            "residual {}",
            rep.final_rel_residual
        );
    }

    #[test]
    fn locked_consistent_single_thread_matches_inconsistent() {
        // With one thread there is no concurrency, so the two read modes
        // must produce identical iterates.
        let (a, b, _) = problem(5);
        let n = a.n_rows();
        let base = AsyRgsOptions {
            threads: 1,
            term: Termination::sweeps(6),
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        try_asyrgs_solve(&a, &b, &mut x1, None, &base).unwrap_or_else(|e| panic!("{e}"));
        let mut x2 = vec![0.0; n];
        try_asyrgs_solve(
            &a,
            &b,
            &mut x2,
            None,
            &AsyRgsOptions {
                read_mode: ReadMode::LockedConsistent,
                ..base
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(x1, x2);
    }

    #[test]
    fn tuned_beta_is_applied_and_below_one() {
        let params = crate::theory::ProblemParams {
            n: 1000,
            lambda_min: 0.01,
            lambda_max: 2.0,
            rho: 10.0 / 1000.0,
            rho2: 2.0 / 1000.0,
        };
        let opts = AsyRgsOptions {
            threads: 8,
            ..Default::default()
        }
        .with_tuned_beta(&params, 1.0);
        // Inconsistent default: beta* = 1/(2 + rho2 tau^2), tau = 8.
        let want = 1.0 / (2.0 + params.rho2 * 64.0);
        assert!((opts.beta - want).abs() < 1e-12);
        assert!(opts.beta < 1.0);

        let opts_c = AsyRgsOptions {
            threads: 8,
            read_mode: ReadMode::LockedConsistent,
            ..Default::default()
        }
        .with_tuned_beta(&params, 1.0);
        let want_c = 1.0 / (1.0 + 2.0 * params.rho * 8.0);
        assert!((opts_c.beta - want_c).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0; 3];
        let mut x = vec![0.0; 3];
        try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 0,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "asyrgs_solve: solution vector x has length 2")]
    fn rejects_mismatched_x() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0; 3];
        let mut x = vec![0.0; 2];
        try_asyrgs_solve(&a, &b, &mut x, None, &AsyRgsOptions::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
