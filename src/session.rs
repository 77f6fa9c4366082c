//! The session API: one builder entry point, typed errors, reusable
//! workspaces, multi-RHS batching.
//!
//! This is the service boundary of the workspace. Instead of picking one
//! family's `try_*` one-shot, which re-allocates scratch on every call, a
//! caller configures a [`SolverBuilder`] once,
//! [`build`](SolverBuilder::build)s a [`SolveSession`], and then calls
//! [`SolveSession::solve`] as many times
//! as it likes:
//!
//! * **validated once** — `build()` rejects bad configuration (`beta`,
//!   `damping`, `threads`) with a typed [`SolveError`]; per-solve input
//!   (dimensions, diagonal) is validated before any output is touched;
//! * **amortized** — the session owns its [`WorkerPool`](asyrgs_parallel::WorkerPool)
//!   handle and a [`SolveWorkspace`] holding every scratch buffer
//!   (residual, snapshot, search directions, inverted diagonal, the
//!   shared atomic iterate), so repeated `solve` calls on same-sized
//!   systems perform **no heap allocation in the hot path** after the
//!   first call;
//! * **batched** — [`SolveSession::solve_many`] solves one matrix against
//!   many right-hand sides; the Gauss-Seidel families share a single
//!   direction stream and one quiescence-epoch structure across all
//!   right-hand sides (the paper's 51-systems workload, Section 9).
//!
//! A `SolveSession` assumes its caller owns the machine for the duration
//! of a solve. When multiple callers share one process, route the same
//! builder through the `asyrgs-serve` scheduler instead
//! (`Scheduler::session(builder)` has the same `solve` shape but adds
//! admission control, weighted-fair dispatch across tenants, coalescing,
//! cancellation, and deadlines).
//!
//! ```
//! use asyrgs::session::{SolverBuilder, SolverFamily};
//! use asyrgs::prelude::Termination;
//!
//! let a = asyrgs::workloads::laplace2d(16, 16);
//! let x_true = vec![1.0; a.n_rows()];
//! let b = a.matvec(&x_true);
//!
//! let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
//!     .threads(4)
//!     .term(Termination::sweeps(300))
//!     .build()
//!     .expect("valid configuration");
//!
//! let mut x = vec![0.0; a.n_rows()];
//! let report = session.solve(&a, &b, &mut x).expect("valid system");
//! assert!(report.final_rel_residual < 1e-2);
//!
//! // Reuse: same session, new right-hand side, zero allocation.
//! let b2 = a.matvec(&vec![2.0; a.n_rows()]);
//! let report2 = session.solve(&a, &b2, &mut x).expect("valid system");
//! assert!(report2.final_rel_residual < 1e-2);
//! ```

use asyrgs_core::asyrgs::{
    asyrgs_solve_block_in, asyrgs_solve_in, AsyRgsOptions, ReadMode, WriteMode,
};
use asyrgs_core::driver::{
    ensure_beta, ensure_damping, ensure_finite_matrix, ensure_finite_slice, ensure_square_system,
    ensure_threads, Recording, Termination,
};
use asyrgs_core::error::SolveError;
use asyrgs_core::health::{is_watchdog_trip, HealthConfig, RecoveryPolicy};
use asyrgs_core::jacobi::{async_jacobi_solve_in, jacobi_solve_in, JacobiOptions};
use asyrgs_core::lsq::{async_rcd_solve_in, rcd_solve_in, LsqOperator, LsqSolveOptions};
use asyrgs_core::partitioned::{partitioned_solve_in, PartitionedOptions};
use asyrgs_core::report::{RecoveryAttempt, SolveReport};
use asyrgs_core::rgs::RowSampling;
use asyrgs_core::workspace::{resize_scratch_mat, SolveWorkspace};
use asyrgs_krylov::precond::SpecPrecond;
use asyrgs_krylov::{
    bicgstab_solve_in, cg_solve_in, fcg_solve_in, gmres_solve_in, BicgstabOptions, CgOptions,
    FcgOptions, GmresOptions,
};
use asyrgs_parallel::{FaultPlan, SolvePool};
use asyrgs_sparse::dense::RowMajorMat;
use asyrgs_sparse::{CsrMatrix, RowAccess};
use std::sync::Mutex;

pub use asyrgs_krylov::precond::PrecondSpec;

/// The solver families reachable through the builder — every public solve
/// path in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolverFamily {
    /// Sequential Randomized Gauss-Seidel (the paper's synchronous
    /// baseline, Section 3): the AsyRGS engine on one thread, synchronized
    /// every sweep, with no fault plan. A name for that configuration; it
    /// has no solve loop of its own.
    Rgs,
    /// Asynchronous Randomized Gauss-Seidel (the paper's AsyRGS,
    /// Section 4).
    AsyRgs,
    /// Synchronous (damped) Jacobi.
    Jacobi,
    /// Asynchronous Jacobi (chaotic relaxation).
    AsyncJacobi,
    /// Block-partitioned (owner-computes) AsyRGS.
    Partitioned,
    /// Sequential randomized coordinate descent for least squares
    /// (Section 8); use [`SolveSession::solve_lsq`].
    Rcd,
    /// Asynchronous randomized coordinate descent for least squares; use
    /// [`SolveSession::solve_lsq`].
    AsyncRcd,
    /// Conjugate gradients (SPD systems).
    Cg,
    /// Notay's Flexible-CG with a configurable (possibly variable)
    /// preconditioner.
    Fcg,
    /// BiCGSTAB for nonsymmetric square systems, right-preconditioned
    /// through the same [`PrecondSpec`] knob as FCG (the RGS/AsyRGS
    /// preconditioners sweep on the symmetrized inner system
    /// `(A + A^T)/2`).
    Bicgstab,
    /// Restarted flexible GMRES(m) for nonsymmetric square systems,
    /// right-preconditioned like [`Bicgstab`](Self::Bicgstab); the
    /// restart length comes from
    /// [`restart_every`](SolverBuilder::restart_every).
    Gmres,
}

impl SolverFamily {
    /// Every solver family, in registry order (matches
    /// `asyrgs_workloads::scenarios::FAMILY_NAMES`).
    pub const ALL: [SolverFamily; 11] = [
        SolverFamily::Rgs,
        SolverFamily::AsyRgs,
        SolverFamily::Jacobi,
        SolverFamily::AsyncJacobi,
        SolverFamily::Partitioned,
        SolverFamily::Rcd,
        SolverFamily::AsyncRcd,
        SolverFamily::Cg,
        SolverFamily::Fcg,
        SolverFamily::Bicgstab,
        SolverFamily::Gmres,
    ];

    /// Stable snake_case name.
    pub fn name(&self) -> &'static str {
        match self {
            SolverFamily::Rgs => "rgs",
            SolverFamily::AsyRgs => "asyrgs",
            SolverFamily::Jacobi => "jacobi",
            SolverFamily::AsyncJacobi => "async_jacobi",
            SolverFamily::Partitioned => "partitioned",
            SolverFamily::Rcd => "rcd",
            SolverFamily::AsyncRcd => "async_rcd",
            SolverFamily::Cg => "cg",
            SolverFamily::Fcg => "fcg",
            SolverFamily::Bicgstab => "bicgstab",
            SolverFamily::Gmres => "gmres",
        }
    }

    /// The family for a stable name from [`name`](Self::name) — the
    /// single reverse map the scenario matrix and benchmark use.
    pub fn from_name(name: &str) -> Option<SolverFamily> {
        SolverFamily::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Whether this family runs worker threads (and therefore needs a
    /// pool wide enough for `threads`). Schedulers use this to decide how
    /// many concurrency slots a job of this family can exploit.
    pub fn is_parallel(&self) -> bool {
        matches!(
            self,
            SolverFamily::AsyRgs
                | SolverFamily::AsyncJacobi
                | SolverFamily::Partitioned
                | SolverFamily::AsyncRcd
        )
    }

    /// Whether this family solves least-squares systems through
    /// [`SolveSession::solve_lsq`] rather than square systems.
    pub fn is_lsq(&self) -> bool {
        matches!(self, SolverFamily::Rcd | SolverFamily::AsyncRcd)
    }

    /// Whether this family's convergence theory requires a symmetric
    /// operator (the Gauss-Seidel/Jacobi stationary families need SPD,
    /// CG/FCG need SPD). The session and the serve scheduler reject
    /// nonsymmetric square systems for these families with a typed error
    /// instead of silently diverging; route such systems to
    /// [`Bicgstab`](Self::Bicgstab) or [`Gmres`](Self::Gmres).
    pub fn requires_symmetric(&self) -> bool {
        matches!(
            self,
            SolverFamily::Rgs
                | SolverFamily::AsyRgs
                | SolverFamily::Jacobi
                | SolverFamily::AsyncJacobi
                | SolverFamily::Partitioned
                | SolverFamily::Cg
                | SolverFamily::Fcg
        )
    }

    /// The symmetry admission check of the session and
    /// `Scheduler::submit`: when this family
    /// [`requires_symmetric`](Self::requires_symmetric), reject a square
    /// `a` that is not symmetric to [`SYMMETRY_TOL`]. A non-square `a`
    /// passes, so it reaches the caller's own shape check.
    ///
    /// # Errors
    /// [`SolveError::DimensionMismatch`] labelled `solver`, naming the
    /// family and the nonsymmetric families to use instead.
    pub fn check_symmetry<O: RowAccess + ?Sized>(
        &self,
        solver: &'static str,
        a: &O,
    ) -> Result<(), SolveError> {
        if !self.requires_symmetric()
            || a.n_rows() != a.n_cols()
            || operator_is_symmetric(a, SYMMETRY_TOL)
        {
            return Ok(());
        }
        Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "family '{}' requires a symmetric operator, but A != A^T; \
                 use the bicgstab or gmres family for nonsymmetric systems",
                self.name()
            ),
        })
    }
}

/// Absolute entrywise tolerance for symmetry: `|a_ij - a_ji|` at or below
/// this is still symmetric. The admission check
/// ([`SolverFamily::check_symmetry`]) and the solver policy's profiling
/// ([`MatrixProfile::structural`](crate::policy::MatrixProfile::structural))
/// both use it: they must agree on what "symmetric" means, or the policy
/// could pick a family the check rejects.
pub const SYMMETRY_TOL: f64 = 1e-9;

/// Whether a square operator is symmetric to an absolute entrywise
/// tolerance — the test behind [`SolverFamily::check_symmetry`], and a
/// call to the backend's
/// [`RowAccess::is_symmetric`], so the session, `Scheduler::submit` and
/// the solver policy share one implementation per backend.
///
/// For a [`CsrMatrix`] that is [`CsrMatrix::is_symmetric`]'s merge pass:
/// `O(nnz + n)` time and an `n`-length cursor buffer, no transpose. Other
/// backends take the generic walk: one `row_entry` point query per stored
/// entry, no allocation. Both exit on the first violation, return `false`
/// for non-square operators, and never count a NaN entry as a violation.
pub fn operator_is_symmetric<O: RowAccess + ?Sized>(a: &O, tol: f64) -> bool {
    a.is_symmetric(tol)
}

/// The symmetric part `(A + A^T) / 2` of a square operator, as a fresh
/// CSR matrix — the inner system the RGS/AsyRGS preconditioners sweep on
/// when the outer Krylov method (BiCGSTAB/GMRES) targets a nonsymmetric
/// `A`. When `A` is exactly symmetric the result equals `A` entrywise
/// bitwise (`0.5 v + 0.5 v == v` in IEEE-754), so symmetric callers lose
/// nothing. Entries that cancel exactly (purely skew pairs) are dropped.
pub fn symmetrized<O: RowAccess + ?Sized>(a: &O) -> CsrMatrix {
    let n = a.n_rows();
    let mut nnz = 0;
    for i in 0..n {
        nnz += a.row_nnz(i);
    }
    let mut coo = asyrgs_sparse::CooBuilder::with_capacity(n, n, 2 * nnz);
    for i in 0..n {
        a.visit_row(i, |j, v| {
            coo.push(i, j, 0.5 * v).unwrap();
            coo.push(j, i, 0.5 * v).unwrap();
        });
    }
    coo.to_csr()
}

/// Fluent, validate-once configuration for a [`SolveSession`].
///
/// Every knob any solver family accepts lives here; `build()` checks the
/// numeric ones (`beta`, `damping`, `threads`) and returns a typed
/// [`SolveError`] instead of panicking. Knobs irrelevant to the chosen
/// family are ignored.
///
/// `PartialEq` compares every knob — schedulers use it to recognize jobs
/// that can share one batched dispatch (see `asyrgs-serve`).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverBuilder {
    family: SolverFamily,
    beta: f64,
    damping: f64,
    threads: usize,
    seed: u64,
    sampling: RowSampling,
    write_mode: WriteMode,
    read_mode: ReadMode,
    epoch_sweeps: Option<usize>,
    term: Termination,
    record: Recording,
    precond: PrecondSpec,
    truncate: usize,
    restart_every: Option<usize>,
    health: Option<HealthConfig>,
    recovery: RecoveryPolicy,
    fault_plan: Option<FaultPlan>,
}

impl SolverBuilder {
    /// Start configuring a solver of the given family, with that family's
    /// historical defaults.
    pub fn new(family: SolverFamily) -> Self {
        let (term, record) = match family {
            SolverFamily::Cg => (
                Termination::sweeps(1000).with_target(1e-10),
                Recording::every(1),
            ),
            SolverFamily::Fcg | SolverFamily::Bicgstab | SolverFamily::Gmres => (
                Termination::sweeps(2000).with_target(1e-8),
                Recording::every(1),
            ),
            SolverFamily::Rcd | SolverFamily::AsyncRcd => {
                (Termination::sweeps(20), Recording::every(1))
            }
            SolverFamily::Jacobi | SolverFamily::AsyncJacobi => {
                (Termination::sweeps(50), Recording::every(1))
            }
            SolverFamily::Partitioned => (Termination::sweeps(10), Recording::end_only()),
            _ => (Termination::sweeps(10), Recording::every(1)),
        };
        SolverBuilder {
            family,
            beta: 1.0,
            damping: 1.0,
            threads: if family.is_parallel() { 2 } else { 1 },
            seed: match family {
                SolverFamily::Partitioned => 0xB10C,
                SolverFamily::Rcd | SolverFamily::AsyncRcd => 0x15EED,
                _ => 0x5EED,
            },
            sampling: RowSampling::Uniform,
            write_mode: WriteMode::Atomic,
            read_mode: ReadMode::Inconsistent,
            epoch_sweeps: None,
            term,
            record,
            precond: PrecondSpec::Identity,
            truncate: 1,
            restart_every: None,
            health: None,
            recovery: RecoveryPolicy::None,
            fault_plan: None,
        }
    }

    /// Relaxation step size `beta in (0, 2)` (Gauss-Seidel/RCD families).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Jacobi damping factor in `(0, 1]`.
    pub fn damping(mut self, damping: f64) -> Self {
        self.damping = damping;
        self
    }

    /// Worker thread count for the asynchronous families (and the AsyRGS
    /// preconditioner).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Seed of the Philox direction stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Row sampling distribution (Gauss-Seidel families).
    pub fn sampling(mut self, sampling: RowSampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Write mode: atomic CAS vs racy load/store (AsyRGS).
    pub fn write_mode(mut self, mode: WriteMode) -> Self {
        self.write_mode = mode;
        self
    }

    /// Read mode: lock-free inconsistent vs lock-enforced consistent
    /// (AsyRGS).
    pub fn read_mode(mut self, mode: ReadMode) -> Self {
        self.read_mode = mode;
        self
    }

    /// Synchronize all AsyRGS workers every `k` sweeps (the
    /// occasional-synchronization scheme after Theorem 2).
    pub fn epoch_sweeps(mut self, k: usize) -> Self {
        self.epoch_sweeps = Some(k);
        self
    }

    /// When to stop: sweep budget, residual target, wall-clock budget.
    pub fn term(mut self, term: Termination) -> Self {
        self.term = term;
        self
    }

    /// Residual-recording cadence.
    pub fn record(mut self, record: Recording) -> Self {
        self.record = record;
        self
    }

    /// Preconditioner for the Krylov families FCG, BiCGSTAB and GMRES (CG
    /// and the sweep families ignore it). FCG and GMRES are flexible and
    /// apply the RGS/AsyRGS sweeps on a fresh substream each time;
    /// BiCGSTAB applies them as one fixed map
    /// ([`Preconditioner::apply_fixed`](asyrgs_krylov::Preconditioner::apply_fixed)).
    /// Under BiCGSTAB and GMRES the sweeps run on the symmetric part
    /// [`symmetrized`] of `A`.
    pub fn preconditioner(mut self, precond: PrecondSpec) -> Self {
        self.precond = precond;
        self
    }

    /// FCG truncation depth (retained directions).
    pub fn truncate(mut self, depth: usize) -> Self {
        self.truncate = depth;
        self
    }

    /// Drop all retained FCG directions every this-many iterations. For
    /// the [`Gmres`](SolverFamily::Gmres) family this is the restart
    /// length `m` of GMRES(m) (default 30).
    pub fn restart_every(mut self, every: usize) -> Self {
        self.restart_every = Some(every);
        self
    }

    /// Arm the numerical-health watchdog (RGS, AsyRGS, Jacobi, async
    /// Jacobi). Off by default — the default solve paths are
    /// branch-identical to a build without the watchdog, so the
    /// fixed-seed fingerprints are bitwise unchanged.
    pub fn health(mut self, config: HealthConfig) -> Self {
        self.health = Some(config);
        self
    }

    /// What to do when the watchdog trips. Any active policy arms a
    /// default watchdog if [`health`](Self::health) was not called.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Inject deterministic faults into the asynchronous solve paths
    /// (AsyRGS, async Jacobi) — the test/benchmark harness hook. An
    /// empty plan is equivalent to no plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The family this builder configures.
    pub fn configured_family(&self) -> SolverFamily {
        self.family
    }

    /// The currently configured worker thread count.
    pub fn configured_threads(&self) -> usize {
        self.threads
    }

    /// The currently configured termination rule. Schedulers read this to
    /// compose their own cancellation/deadline/progress plumbing with the
    /// caller's stopping criteria (see `asyrgs-serve`).
    pub fn configured_term(&self) -> &Termination {
        &self.term
    }

    /// The currently configured recovery policy. Schedulers read this to
    /// decide retry/quarantine handling for watchdog trips.
    pub fn configured_recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The currently configured health watchdog, if any.
    pub fn configured_health(&self) -> Option<&HealthConfig> {
        self.health.as_ref()
    }

    /// Check every numeric knob against the chosen family's rules without
    /// building anything — the admission-time validation a scheduler runs
    /// before queueing a job (see `asyrgs-serve`), and exactly the checks
    /// [`build`](Self::build) performs.
    ///
    /// # Errors
    /// The same errors as [`build`](Self::build).
    pub fn validate(&self) -> Result<(), SolveError> {
        match self.family {
            SolverFamily::Rgs
            | SolverFamily::AsyRgs
            | SolverFamily::Partitioned
            | SolverFamily::Rcd
            | SolverFamily::AsyncRcd => ensure_beta(self.beta)?,
            SolverFamily::Jacobi | SolverFamily::AsyncJacobi => ensure_damping(self.damping)?,
            SolverFamily::Cg => {}
            SolverFamily::Fcg => {
                if let PrecondSpec::Rgs { .. } | PrecondSpec::AsyRgs { .. } = self.precond {
                    ensure_beta(self.beta)?;
                }
                if self.truncate == 0 {
                    // A structural FCG constraint: zero retained
                    // directions is not a valid configuration, and
                    // deferring it would surface as fcg_solve_in's
                    // assert at solve time.
                    return Err(SolveError::DimensionMismatch {
                        solver: "fcg_solve",
                        detail: "truncation depth must be at least 1".into(),
                    });
                }
            }
            SolverFamily::Bicgstab | SolverFamily::Gmres => {
                if let PrecondSpec::Rgs { .. } | PrecondSpec::AsyRgs { .. } = self.precond {
                    ensure_beta(self.beta)?;
                }
                if self.family == SolverFamily::Gmres && self.restart_every == Some(0) {
                    // Like FCG's truncation depth: a zero restart length
                    // would otherwise surface as gmres_solve_in's assert
                    // at solve time.
                    return Err(SolveError::DimensionMismatch {
                        solver: "gmres_solve",
                        detail: "restart length must be at least 1".into(),
                    });
                }
            }
        }
        match self.recovery {
            RecoveryPolicy::DampenAndRestart {
                factor,
                max_attempts,
            } => {
                if !factor.is_finite() || factor <= 0.0 || factor >= 1.0 {
                    return Err(SolveError::DimensionMismatch {
                        solver: "recovery",
                        detail: format!("dampen factor must lie in (0, 1), got {factor}"),
                    });
                }
                if max_attempts == 0 {
                    return Err(SolveError::DimensionMismatch {
                        solver: "recovery",
                        detail: "max_attempts must be at least 1".into(),
                    });
                }
            }
            RecoveryPolicy::SynchronizeRestart { max_attempts } => {
                if max_attempts == 0 {
                    return Err(SolveError::DimensionMismatch {
                        solver: "recovery",
                        detail: "max_attempts must be at least 1".into(),
                    });
                }
            }
            RecoveryPolicy::None | RecoveryPolicy::FallbackSequential => {}
        }
        ensure_threads(self.threads)
    }

    /// Validate the configuration and build a reusable [`SolveSession`].
    ///
    /// Acquires the worker-pool handle once (borrowing the process-wide
    /// pool when it is wide enough) and allocates nothing else: the
    /// session's workspace buffers are sized lazily by the first solve.
    ///
    /// # Errors
    /// [`SolveError::InvalidBeta`], [`SolveError::InvalidDamping`], or
    /// [`SolveError::ZeroThreads`] when the corresponding knob is out of
    /// range for the chosen family.
    pub fn build(self) -> Result<SolveSession, SolveError> {
        self.validate()?;
        let pool_width =
            if self.family.is_parallel() || matches!(self.precond, PrecondSpec::AsyRgs { .. }) {
                self.threads
            } else {
                1
            };
        let pool = asyrgs_parallel::pool_for(pool_width);
        Ok(SolveSession {
            config: self,
            pool,
            ws: SolveWorkspace::new(),
            precond_scratch: Mutex::new(SolveWorkspace::new()),
        })
    }
}

/// A configured, reusable solver: owns its worker-pool handle and every
/// scratch buffer, so repeated [`solve`](Self::solve) calls are
/// zero-allocation after the first. Built by [`SolverBuilder::build`].
pub struct SolveSession {
    config: SolverBuilder,
    pool: SolvePool,
    ws: SolveWorkspace,
    /// Dedicated scratch for Krylov preconditioner applications
    /// (disjoint from `ws`, which the outer iteration owns during a
    /// solve). A `Mutex` because `Preconditioner::apply` takes `&self`.
    precond_scratch: Mutex<SolveWorkspace>,
}

impl std::fmt::Debug for SolveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveSession")
            .field("family", &self.config.family.name())
            .field("threads", &self.config.threads)
            .finish()
    }
}

impl SolveSession {
    /// The configured solver family.
    pub fn family(&self) -> SolverFamily {
        self.config.family
    }

    /// The health configuration the watchdog-aware solvers receive: the
    /// explicit one when set, a default watchdog when a recovery policy
    /// is active (recovery needs trips to react to), `None` otherwise —
    /// so default sessions run the exact historical code paths.
    fn effective_health(&self) -> Option<HealthConfig> {
        match (&self.config.health, self.config.recovery.is_active()) {
            (Some(cfg), _) => Some(cfg.clone()),
            (None, true) => Some(HealthConfig::default()),
            (None, false) => None,
        }
    }

    /// The engine options of the two Gauss-Seidel families. RGS is AsyRGS
    /// on one thread, synchronized every sweep (so it records and stops
    /// per sweep) and never fault-injected.
    fn asyrgs_options(&self) -> AsyRgsOptions {
        let opts = AsyRgsOptions {
            beta: self.config.beta,
            threads: self.config.threads,
            write_mode: self.config.write_mode,
            read_mode: self.config.read_mode,
            sampling: self.config.sampling,
            seed: self.config.seed,
            epoch_sweeps: self.config.epoch_sweeps,
            term: self.config.term.clone(),
            record: self.config.record,
            health: self.effective_health(),
            fault_plan: self.config.fault_plan.clone(),
        };
        if self.config.family != SolverFamily::Rgs {
            return opts;
        }
        AsyRgsOptions {
            threads: 1,
            epoch_sweeps: Some(1),
            fault_plan: None,
            ..opts
        }
    }

    fn jacobi_options(&self) -> JacobiOptions {
        JacobiOptions {
            threads: self.config.threads,
            damping: self.config.damping,
            term: self.config.term.clone(),
            record: self.config.record,
            health: self.effective_health(),
            fault_plan: self.config.fault_plan.clone(),
        }
    }

    fn partitioned_options(&self) -> PartitionedOptions {
        PartitionedOptions {
            beta: self.config.beta,
            threads: self.config.threads,
            seed: self.config.seed,
            term: self.config.term.clone(),
            record: self.config.record,
        }
    }

    fn lsq_options(&self) -> LsqSolveOptions {
        LsqSolveOptions {
            beta: self.config.beta,
            seed: self.config.seed,
            threads: self.config.threads,
            term: self.config.term.clone(),
            record: self.config.record,
        }
    }

    fn cg_options(&self) -> CgOptions {
        CgOptions {
            term: self.config.term.clone(),
            record: self.config.record,
        }
    }

    fn fcg_options(&self) -> FcgOptions {
        FcgOptions {
            term: self.config.term.clone(),
            record: self.config.record,
            truncate: self.config.truncate,
            restart_every: self.config.restart_every,
        }
    }

    fn bicgstab_options(&self) -> BicgstabOptions {
        BicgstabOptions {
            term: self.config.term.clone(),
            record: self.config.record,
            ..Default::default()
        }
    }

    fn gmres_options(&self) -> GmresOptions {
        GmresOptions {
            term: self.config.term.clone(),
            record: self.config.record,
            restart: self.config.restart_every.unwrap_or(30),
        }
    }

    /// FCG, BiCGSTAB or GMRES under the configured preconditioner.
    ///
    /// The RGS/AsyRGS sweeps need a symmetric inner operator, so under
    /// BiCGSTAB and GMRES, whose `A` may be nonsymmetric, they sweep on
    /// the symmetric part `(A + A^T)/2` (bitwise `A` when `A` is
    /// symmetric). Jacobi reads only the diagonal, which symmetrization
    /// preserves, so it scales by `A`'s own.
    fn krylov_dispatch<O: RowAccess + Sync>(
        &mut self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveReport, SolveError> {
        let sweeps = matches!(
            self.config.precond,
            PrecondSpec::Rgs { .. } | PrecondSpec::AsyRgs { .. }
        );
        if sweeps && self.config.family != SolverFamily::Fcg {
            return self.krylov_solve(a, &symmetrized(a), b, x);
        }
        self.krylov_solve(a, a, b, x)
    }

    /// [`krylov_dispatch`](Self::krylov_dispatch) with the preconditioner
    /// over `inner`. It borrows the session's pool and preconditioner
    /// scratch (disjoint from `ws`, which the outer iteration owns), so
    /// applications after the first solve allocate nothing and never
    /// spawn a pool. Its constructor checks the diagonal up front, so a
    /// bad one is a typed error with `x` untouched.
    fn krylov_solve<O: RowAccess + Sync, P: RowAccess + Sync>(
        &mut self,
        a: &O,
        inner: &P,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveReport, SolveError> {
        let c = &self.config;
        let pre = SpecPrecond::new(
            inner,
            c.precond,
            c.threads,
            c.beta,
            c.seed,
            &self.pool,
            &self.precond_scratch,
        )?;
        match c.family {
            SolverFamily::Fcg => {
                let opts = self.fcg_options();
                fcg_solve_in(&mut self.ws, a, b, x, &pre, &opts)
            }
            SolverFamily::Bicgstab => {
                let opts = self.bicgstab_options();
                bicgstab_solve_in(&mut self.ws, a, b, x, &pre, &opts)
            }
            SolverFamily::Gmres => {
                let opts = self.gmres_options();
                gmres_solve_in(&mut self.ws, a, b, x, &pre, &opts)
            }
            other => unreachable!("{} is not a Krylov family", other.name()),
        }
    }

    /// Solve the square system `A x = b`, reading the initial iterate from
    /// `x` and leaving the final iterate there.
    ///
    /// # Errors
    /// Returns a typed [`SolveError`] — and leaves `x` bitwise untouched —
    /// when the input violates any rule of the configured family
    /// (mismatched dimensions, empty system, bad diagonal), and
    /// [`SolveError::MethodMismatch`] for the least-squares families
    /// (use [`solve_lsq`](Self::solve_lsq)).
    pub fn solve<O: RowAccess + Sync>(
        &mut self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveReport, SolveError> {
        self.solve_inner(a, b, x, None)
    }

    /// [`solve`](Self::solve) with a reference solution: families that
    /// support it report the relative A-norm error alongside each
    /// residual record.
    ///
    /// # Errors
    /// See [`solve`](Self::solve).
    pub fn solve_with_reference<O: RowAccess + Sync>(
        &mut self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
        x_star: &[f64],
    ) -> Result<SolveReport, SolveError> {
        self.solve_inner(a, b, x, Some(x_star))
    }

    fn solve_inner<O: RowAccess + Sync>(
        &mut self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
        x_star: Option<&[f64]>,
    ) -> Result<SolveReport, SolveError> {
        // Admission: the symmetric-theory families reject nonsymmetric
        // square operators with a typed error (and an untouched `x`)
        // instead of silently diverging.
        self.config.family.check_symmetry("solve", a)?;
        // Recovery only applies to the watchdog-aware families; for the
        // rest (and with recovery off) this is exactly one dispatch.
        let watchdog_aware = matches!(
            self.config.family,
            SolverFamily::Rgs
                | SolverFamily::AsyRgs
                | SolverFamily::Jacobi
                | SolverFamily::AsyncJacobi
        );
        if !watchdog_aware || !self.config.recovery.is_active() {
            return self.dispatch_once(a, b, x, x_star);
        }
        // The loop below escalates step sizes and may swap families;
        // restore the configuration on every exit so the session stays
        // reusable (and `PartialEq`-comparable) afterwards.
        let saved_family = self.config.family;
        let saved_beta = self.config.beta;
        let saved_damping = self.config.damping;
        let out = self.solve_with_recovery(a, b, x, x_star);
        self.config.family = saved_family;
        self.config.beta = saved_beta;
        self.config.damping = saved_damping;
        out
    }

    /// The recovery ladder: dispatch, and on a watchdog trip restart from
    /// the last healthy snapshot per the configured [`RecoveryPolicy`],
    /// recording each attempt. The caller's `x` is written only on
    /// success — every terminal error leaves it bitwise untouched.
    fn solve_with_recovery<O: RowAccess + Sync>(
        &mut self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
        x_star: Option<&[f64]>,
    ) -> Result<SolveReport, SolveError> {
        let started = std::time::Instant::now();
        let budget = self.config.term.wall_clock;
        let max_retries: u32 = match self.config.recovery {
            RecoveryPolicy::None => 0,
            RecoveryPolicy::SynchronizeRestart { max_attempts }
            | RecoveryPolicy::DampenAndRestart { max_attempts, .. } => max_attempts,
            RecoveryPolicy::FallbackSequential => 1,
        };
        // `ws.healthy` may hold a snapshot from a previous solve of the
        // same size; clear it so restarts never seed from stale state.
        self.ws.healthy.clear();
        let x0: Vec<f64> = x.to_vec();
        let mut xwork: Vec<f64> = x.to_vec();
        let mut attempts: Vec<RecoveryAttempt> = Vec::new();
        loop {
            match self.dispatch_once(a, b, &mut xwork, x_star) {
                Ok(mut rep) => {
                    rep.recovery_attempts = std::mem::take(&mut attempts);
                    x.copy_from_slice(&xwork);
                    return Ok(rep);
                }
                Err(e) if is_watchdog_trip(&e) && (attempts.len() as u32) < max_retries => {
                    // Honor the caller's cancellation and wall-clock
                    // budget across the whole ladder, not per attempt.
                    if let Some(token) = self.config.term.cancel.as_ref() {
                        if token.is_cancelled() {
                            return Err(SolveError::Cancelled);
                        }
                    }
                    if let Some(budget) = budget {
                        if started.elapsed() >= budget {
                            return Err(SolveError::DeadlineExceeded {
                                budget_ms: budget.as_millis() as u64,
                            });
                        }
                    }
                    // Restart from the last healthy snapshot when one
                    // exists (a trip leaves `xwork` at the attempt's
                    // starting point, not at the failure point).
                    let from_snapshot = !self.ws.healthy.is_empty()
                        && self.ws.healthy.len() == xwork.len()
                        && self.ws.healthy.iter().all(|v| v.is_finite());
                    if from_snapshot {
                        xwork.copy_from_slice(&self.ws.healthy);
                    } else {
                        xwork.copy_from_slice(&x0);
                    }
                    let action = match self.config.recovery {
                        RecoveryPolicy::None => unreachable!("inactive policy never retries"),
                        RecoveryPolicy::SynchronizeRestart { .. } => "synchronize_restart",
                        RecoveryPolicy::DampenAndRestart { factor, .. } => {
                            self.config.beta *= factor;
                            self.config.damping *= factor;
                            "dampen_and_restart"
                        }
                        RecoveryPolicy::FallbackSequential => {
                            self.config.family = match self.config.family {
                                SolverFamily::AsyRgs => SolverFamily::Rgs,
                                SolverFamily::AsyncJacobi => SolverFamily::Jacobi,
                                other => other,
                            };
                            "fallback_sequential"
                        }
                    };
                    let step = match self.config.family {
                        SolverFamily::Jacobi | SolverFamily::AsyncJacobi => self.config.damping,
                        _ => self.config.beta,
                    };
                    attempts.push(RecoveryAttempt {
                        attempt: attempts.len() as u32 + 1,
                        error: e,
                        action,
                        step,
                        from_snapshot,
                    });
                }
                // Non-watchdog errors and exhausted ladders surface
                // unchanged; `x` was never written.
                Err(e) => return Err(e),
            }
        }
    }

    fn dispatch_once<O: RowAccess + Sync>(
        &mut self,
        a: &O,
        b: &[f64],
        x: &mut [f64],
        x_star: Option<&[f64]>,
    ) -> Result<SolveReport, SolveError> {
        // The Krylov solvers see `A` only through products, so they check
        // `b` and `x` alone; its stored values are checked here, after the
        // shapes, in the order the Gauss-Seidel families check them.
        let krylov = match self.config.family {
            SolverFamily::Cg => Some("cg_solve"),
            SolverFamily::Fcg => Some("fcg_solve"),
            SolverFamily::Bicgstab => Some("bicgstab_solve"),
            SolverFamily::Gmres => Some("gmres_solve"),
            _ => None,
        };
        if let Some(solver) = krylov {
            ensure_square_system(solver, a.n_rows(), a.n_cols(), b.len(), x.len())?;
            ensure_finite_matrix(solver, a)?;
        }
        match self.config.family {
            SolverFamily::Rgs | SolverFamily::AsyRgs => {
                let opts = self.asyrgs_options();
                asyrgs_solve_in(&self.pool, &mut self.ws, a, b, x, x_star, &opts)
            }
            SolverFamily::Jacobi => {
                let opts = self.jacobi_options();
                jacobi_solve_in(&mut self.ws, a, b, x, x_star, &opts)
            }
            SolverFamily::AsyncJacobi => {
                let opts = self.jacobi_options();
                async_jacobi_solve_in(&self.pool, &mut self.ws, a, b, x, x_star, &opts)
            }
            SolverFamily::Partitioned => {
                let opts = self.partitioned_options();
                partitioned_solve_in(&self.pool, &mut self.ws, a, b, x, &opts)
            }
            SolverFamily::Cg => {
                let opts = self.cg_options();
                cg_solve_in(&mut self.ws, a, b, x, &opts)
            }
            SolverFamily::Fcg | SolverFamily::Bicgstab | SolverFamily::Gmres => {
                self.krylov_dispatch(a, b, x)
            }
            SolverFamily::Rcd | SolverFamily::AsyncRcd => Err(SolveError::MethodMismatch {
                called: "solve",
                family: self.config.family.name(),
            }),
        }
    }

    /// Solve the least-squares problem `min ||A x - b||_2` (RCD
    /// families).
    ///
    /// # Errors
    /// Returns a typed [`SolveError`] on mismatched dimensions (leaving
    /// `x` untouched), and [`SolveError::MethodMismatch`] when the session
    /// was built for a square-system family.
    pub fn solve_lsq(
        &mut self,
        op: &LsqOperator,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveReport, SolveError> {
        let opts = self.lsq_options();
        match self.config.family {
            SolverFamily::Rcd => rcd_solve_in(&mut self.ws, op, b, x, &opts),
            SolverFamily::AsyncRcd => async_rcd_solve_in(&self.pool, &mut self.ws, op, b, x, &opts),
            _ => Err(SolveError::MethodMismatch {
                called: "solve_lsq",
                family: self.config.family.name(),
            }),
        }
    }

    /// Solve one matrix against many right-hand sides: `A x_i = b_i` for
    /// every `(b_i, x_i)` pair, returning one report per system.
    ///
    /// The Gauss-Seidel families (RGS, AsyRGS) batch all right-hand sides
    /// into a single row-major block solve sharing one direction stream
    /// and one quiescence-epoch structure — the paper's 51-simultaneous-
    /// systems strategy (Section 9) — and every per-system report carries
    /// that run's aggregate (Frobenius-relative) residual trace with its
    /// own final residual. The remaining families solve the systems
    /// sequentially through the same reusable workspace.
    ///
    /// All inputs are validated **before** any solve starts: on a rejected
    /// input no `x_i` is modified. A runtime error on system `i` (a
    /// watchdog trip or a Krylov breakdown) in the families solved one
    /// system at a time leaves `x_0 … x_{i-1}` solved and `x_i` onward
    /// untouched; the batched RGS/AsyRGS run leaves every `x_i` untouched.
    ///
    /// # Errors
    /// [`SolveError::DimensionMismatch`] when `bs` and `xs` differ in
    /// count or any pair has wrong lengths; the configured family's usual
    /// errors otherwise; [`SolveError::MethodMismatch`] for the
    /// least-squares families.
    pub fn solve_many(
        &mut self,
        a: &CsrMatrix,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
    ) -> Result<Vec<SolveReport>, SolveError> {
        if self.config.family.is_lsq() {
            return Err(SolveError::MethodMismatch {
                called: "solve_many",
                family: self.config.family.name(),
            });
        }
        if bs.len() != xs.len() {
            return Err(SolveError::DimensionMismatch {
                solver: "solve_many",
                detail: format!(
                    "{} right-hand sides but {} solution vectors",
                    bs.len(),
                    xs.len()
                ),
            });
        }
        if bs.is_empty() {
            return Ok(Vec::new());
        }
        if a.n_rows() != a.n_cols() {
            return Err(SolveError::DimensionMismatch {
                solver: "solve_many",
                detail: format!("matrix must be square, got {} x {}", a.n_rows(), a.n_cols()),
            });
        }
        self.config.family.check_symmetry("solve_many", a)?;
        let n = a.n_rows();
        for (i, (b, x)) in bs.iter().zip(xs.iter()).enumerate() {
            if b.len() != n || x.len() != a.n_cols() {
                return Err(SolveError::DimensionMismatch {
                    solver: "solve_many",
                    detail: format!(
                        "system {i}: b has length {}, x has length {}, but A is {n} x {}",
                        b.len(),
                        x.len(),
                        a.n_cols()
                    ),
                });
            }
        }

        match self.config.family {
            SolverFamily::Rgs | SolverFamily::AsyRgs => self.solve_many_block(a, bs, xs),
            _ => {
                // Validate-all-before-touching-anything: each solve checks
                // its own `b` and `x` for non-finite values, which would
                // reject system `i` only after systems before it were
                // solved in place, so check every pair here first. The
                // remaining per-solve checks (square, diagonal, matrix
                // values, config) depend only on `a` and the session, so
                // the first solve runs them before mutating any x.
                for (b, x) in bs.iter().zip(xs.iter()) {
                    ensure_finite_slice("solve_many", "right-hand side b", b)?;
                    ensure_finite_slice("solve_many", "initial iterate x", x)?;
                }
                let mut reports = Vec::with_capacity(bs.len());
                for (b, x) in bs.iter().zip(xs.iter_mut()) {
                    reports.push(self.solve_inner(a, b, x, None)?);
                }
                Ok(reports)
            }
        }
    }

    /// The batched multi-RHS path: pack into row-major blocks owned by the
    /// workspace, run the block solver (one direction stream, one epoch
    /// structure), unpack, and derive per-system reports.
    fn solve_many_block(
        &mut self,
        a: &CsrMatrix,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
    ) -> Result<Vec<SolveReport>, SolveError> {
        let n = a.n_rows();
        let k = bs.len();
        // Pack b and the initial iterates column-wise into the workspace
        // blocks (reused across calls).
        let mut blk_b = std::mem::replace(&mut self.ws.blk_b, RowMajorMat::zeros(0, 0));
        let mut blk_x = std::mem::replace(&mut self.ws.blk_x, RowMajorMat::zeros(0, 0));
        resize_scratch_mat(&mut blk_b, n, k);
        resize_scratch_mat(&mut blk_x, n, k);
        for (t, (b, x)) in bs.iter().zip(xs.iter()).enumerate() {
            blk_b.set_col(t, b);
            blk_x.set_col(t, x);
        }

        let opts = self.asyrgs_options();
        let result = asyrgs_solve_block_in(&self.pool, &mut self.ws, a, &blk_b, &mut blk_x, &opts);

        // Return the blocks to the workspace whatever happened; on error
        // the caller's vectors were never written.
        let block_report = match result {
            Ok(r) => r,
            Err(e) => {
                self.ws.blk_b = blk_b;
                self.ws.blk_x = blk_x;
                return Err(e);
            }
        };

        // Unpack the solved block into the caller's vectors.
        for (t, x) in xs.iter_mut().enumerate() {
            blk_x.copy_col_into(t, x);
        }

        // Per-system reports: the shared trace and counters come from the
        // aggregate run; the final residual is recomputed per column.
        let mut out = Vec::with_capacity(k);
        for (b, x) in bs.iter().zip(xs.iter()) {
            let mut rep = block_report.clone();
            rep.final_rel_residual = asyrgs_sparse::LinearOperator::rel_residual(a, b, x);
            out.push(rep);
        }
        self.ws.blk_b = blk_b;
        self.ws.blk_x = blk_x;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_core::driver::Termination;
    use asyrgs_workloads::{diag_dominant, laplace2d, random_lsq, LsqParams};

    fn problem(side: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplace2d(side, side);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 / 17.0).collect();
        let b = a.matvec(&x_star);
        (a, b, x_star)
    }

    #[test]
    fn every_square_family_is_reachable_and_converges() {
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        for family in [
            SolverFamily::Rgs,
            SolverFamily::AsyRgs,
            SolverFamily::Jacobi,
            SolverFamily::AsyncJacobi,
            SolverFamily::Partitioned,
            SolverFamily::Cg,
            SolverFamily::Fcg,
            SolverFamily::Bicgstab,
            SolverFamily::Gmres,
        ] {
            // The Krylov nonsymmetric families need a residual target:
            // iterating a fully converged BiCGSTAB recurrence further
            // collapses rho, which is (correctly) a typed breakdown.
            let term = match family {
                SolverFamily::Bicgstab | SolverFamily::Gmres => {
                    Termination::sweeps(200).with_target(1e-8)
                }
                _ => Termination::sweeps(200),
            };
            let mut session = SolverBuilder::new(family)
                .threads(2)
                .term(term)
                .build()
                .unwrap();
            let mut x = vec![0.0; n];
            let rep = session.solve(&a, &b, &mut x).unwrap();
            assert!(
                rep.final_rel_residual < 1e-1,
                "{}: residual {}",
                family.name(),
                rep.final_rel_residual
            );
        }
    }

    /// A small nonsymmetric upwind convection-diffusion-style operator:
    /// strictly diagonally dominant, so the Krylov families converge fast.
    fn nonsym_problem(n: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let mut coo = asyrgs_sparse::CooBuilder::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.8).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -0.3).unwrap();
            }
        }
        let a = coo.to_csr();
        let x_star: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.4).collect();
        let b = a.matvec(&x_star);
        (a, b, x_star)
    }

    #[test]
    fn nonsym_families_solve_nonsymmetric_systems_under_every_precond() {
        let (a, b, x_star) = nonsym_problem(60);
        for family in [SolverFamily::Bicgstab, SolverFamily::Gmres] {
            for precond in [
                PrecondSpec::Identity,
                PrecondSpec::Jacobi,
                PrecondSpec::Rgs { inner_sweeps: 2 },
                PrecondSpec::AsyRgs { inner_sweeps: 2 },
            ] {
                let mut session = SolverBuilder::new(family)
                    .threads(2)
                    .preconditioner(precond)
                    .term(Termination::sweeps(500).with_target(1e-10))
                    .build()
                    .unwrap();
                let mut x = vec![0.0; a.n_rows()];
                let rep = session.solve(&a, &b, &mut x).unwrap();
                assert!(
                    rep.converged_early,
                    "{} + {precond:?}: residual {}",
                    family.name(),
                    rep.final_rel_residual
                );
                let err: f64 = x
                    .iter()
                    .zip(&x_star)
                    .map(|(xi, si)| (xi - si) * (xi - si))
                    .sum::<f64>()
                    .sqrt();
                assert!(err < 1e-6, "{} + {precond:?}: error {err}", family.name());
            }
        }
    }

    #[test]
    fn symmetric_theory_families_reject_nonsymmetric_operators() {
        let (a, b, _) = nonsym_problem(24);
        for family in [
            SolverFamily::Rgs,
            SolverFamily::AsyRgs,
            SolverFamily::Jacobi,
            SolverFamily::AsyncJacobi,
            SolverFamily::Partitioned,
            SolverFamily::Cg,
            SolverFamily::Fcg,
        ] {
            let mut session = SolverBuilder::new(family)
                .threads(2)
                .term(Termination::sweeps(50))
                .build()
                .unwrap();
            let mut x = vec![7.25; a.n_rows()];
            let err = session.solve(&a, &b, &mut x).unwrap_err();
            assert!(
                matches!(err, SolveError::DimensionMismatch { .. }),
                "{}: {err:?}",
                family.name()
            );
            assert!(
                x.iter().all(|v| *v == 7.25),
                "{}: x must be untouched on rejection",
                family.name()
            );
        }
    }

    #[test]
    fn solve_many_rejects_nonsymmetric_for_symmetric_families() {
        let (a, b, _) = nonsym_problem(16);
        let b2 = b.clone();
        let mut x1 = vec![7.25; 16];
        let mut x2 = vec![7.25; 16];
        let mut session = SolverBuilder::new(SolverFamily::Rgs)
            .term(Termination::sweeps(20))
            .build()
            .unwrap();
        let err = session
            .solve_many(&a, &[&b, &b2], &mut [&mut x1, &mut x2])
            .unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        assert!(x1.iter().chain(&x2).all(|v| *v == 7.25));

        // The nonsymmetric families accept the same batch.
        let mut session = SolverBuilder::new(SolverFamily::Bicgstab)
            .term(Termination::sweeps(200).with_target(1e-8))
            .build()
            .unwrap();
        x1.fill(0.0);
        x2.fill(0.0);
        let reps = session
            .solve_many(&a, &[&b, &b2], &mut [&mut x1, &mut x2])
            .unwrap();
        assert_eq!(reps.len(), 2);
        assert!(reps.iter().all(|r| r.final_rel_residual < 1e-8));
    }

    #[test]
    fn gmres_zero_restart_rejected_at_build() {
        let err = SolverBuilder::new(SolverFamily::Gmres)
            .restart_every(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        // BiCGSTAB ignores the knob entirely, so the gate is GMRES-only.
        assert!(SolverBuilder::new(SolverFamily::Bicgstab)
            .restart_every(0)
            .build()
            .is_ok());
    }

    #[test]
    fn symmetrized_is_bitwise_identity_on_symmetric_input() {
        let (a, _, _) = problem(5);
        let s = symmetrized(&a);
        assert_eq!(a.n_rows(), s.n_rows());
        for i in 0..a.n_rows() {
            let mut row_a: Vec<(usize, f64)> = Vec::new();
            a.visit_row(i, |j, v| row_a.push((j, v)));
            let mut row_s: Vec<(usize, f64)> = Vec::new();
            s.visit_row(i, |j, v| row_s.push((j, v)));
            assert_eq!(row_a, row_s, "row {i} must match bitwise");
        }
    }

    #[test]
    fn symmetrized_halves_skew_parts() {
        // A = [[2, 1], [3, 2]] -> (A + A^T)/2 = [[2, 2], [2, 2]].
        let a = CsrMatrix::from_dense(2, 2, &[2.0, 1.0, 3.0, 2.0]);
        let s = symmetrized(&a);
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.row_entry(0, 1), 2.0);
        assert_eq!(s.row_entry(1, 0), 2.0);
        assert_eq!(s.row_entry(0, 0), 2.0);
    }

    #[test]
    fn lsq_families_are_reachable_through_solve_lsq() {
        let p = random_lsq(&LsqParams {
            rows: 120,
            cols: 30,
            nnz_per_col: 5,
            noise: 0.0,
            seed: 3,
        });
        let op = LsqOperator::new(p.a);
        for family in [SolverFamily::Rcd, SolverFamily::AsyncRcd] {
            let mut session = SolverBuilder::new(family)
                .threads(2)
                .term(Termination::sweeps(200))
                .build()
                .unwrap();
            let mut x = vec![0.0; op.n_cols()];
            let rep = session.solve_lsq(&op, &p.b, &mut x).unwrap();
            assert!(
                rep.final_rel_residual < 1e-4,
                "{}: residual {}",
                family.name(),
                rep.final_rel_residual
            );
        }
    }

    #[test]
    fn session_reuse_matches_fresh_sessions_bitwise() {
        // The amortized workspace must not change results: solving twice
        // through one session equals two one-shot sessions, bitwise.
        let (a, b, _) = problem(7);
        let n = a.n_rows();
        let b2: Vec<f64> = b.iter().map(|v| v * 1.5).collect();
        let build = || {
            SolverBuilder::new(SolverFamily::AsyRgs)
                .threads(1)
                .term(Termination::sweeps(9))
                .build()
                .unwrap()
        };

        let mut shared_session = build();
        let mut x1 = vec![0.0; n];
        shared_session.solve(&a, &b, &mut x1).unwrap();
        let mut x2 = vec![0.0; n];
        shared_session.solve(&a, &b2, &mut x2).unwrap();

        let mut x1f = vec![0.0; n];
        build().solve(&a, &b, &mut x1f).unwrap();
        let mut x2f = vec![0.0; n];
        build().solve(&a, &b2, &mut x2f).unwrap();

        assert_eq!(x1, x1f);
        assert_eq!(x2, x2f);
    }

    #[test]
    fn session_survives_size_changes() {
        let (a_small, b_small, _) = problem(5);
        let (a_big, b_big, _) = problem(9);
        let mut session = SolverBuilder::new(SolverFamily::Rgs)
            .term(Termination::sweeps(50))
            .build()
            .unwrap();
        let mut xs = vec![0.0; a_small.n_rows()];
        session.solve(&a_small, &b_small, &mut xs).unwrap();
        let mut xb = vec![0.0; a_big.n_rows()];
        session.solve(&a_big, &b_big, &mut xb).unwrap();
        let mut xs2 = vec![0.0; a_small.n_rows()];
        let rep = session.solve(&a_small, &b_small, &mut xs2).unwrap();
        assert!(rep.final_rel_residual < 1e-3);
        assert_eq!(xs, xs2, "shrinking back must not change results");
    }

    #[test]
    fn build_rejects_bad_config_with_typed_errors() {
        assert_eq!(
            SolverBuilder::new(SolverFamily::AsyRgs)
                .beta(2.5)
                .build()
                .unwrap_err(),
            SolveError::InvalidBeta { beta: 2.5 }
        );
        assert_eq!(
            SolverBuilder::new(SolverFamily::Jacobi)
                .damping(0.0)
                .build()
                .unwrap_err(),
            SolveError::InvalidDamping { damping: 0.0 }
        );
        assert_eq!(
            SolverBuilder::new(SolverFamily::AsyRgs)
                .threads(0)
                .build()
                .unwrap_err(),
            SolveError::ZeroThreads
        );
        // CG ignores beta entirely.
        assert!(SolverBuilder::new(SolverFamily::Cg)
            .beta(7.0)
            .build()
            .is_ok());
    }

    #[test]
    fn solve_rejects_bad_input_and_leaves_x_untouched() {
        let (a, _, _) = problem(4);
        let bad_b = vec![1.0; 3];
        let mut session = SolverBuilder::new(SolverFamily::AsyRgs).build().unwrap();
        let mut x = vec![42.0; a.n_rows()];
        let err = session.solve(&a, &bad_b, &mut x).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        assert!(x.iter().all(|&v| v == 42.0));
    }

    #[test]
    fn method_mismatch_is_typed() {
        let (a, b, _) = problem(4);
        let mut rcd = SolverBuilder::new(SolverFamily::Rcd).build().unwrap();
        let mut x = vec![0.0; a.n_rows()];
        assert!(matches!(
            rcd.solve(&a, &b, &mut x).unwrap_err(),
            SolveError::MethodMismatch {
                called: "solve",
                ..
            }
        ));
        let p = random_lsq(&LsqParams {
            rows: 40,
            cols: 10,
            nnz_per_col: 4,
            noise: 0.0,
            seed: 1,
        });
        let op = LsqOperator::new(p.a);
        let mut cg = SolverBuilder::new(SolverFamily::Cg).build().unwrap();
        let mut y = vec![0.0; op.n_cols()];
        assert!(matches!(
            cg.solve_lsq(&op, &p.b, &mut y).unwrap_err(),
            SolveError::MethodMismatch {
                called: "solve_lsq",
                ..
            }
        ));
    }

    #[test]
    fn solve_many_batches_the_rgs_families() {
        let a = diag_dominant(90, 4, 2.5, 7);
        let n = a.n_rows();
        let b1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let b2: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b3 = vec![1.0; n];
        for family in [SolverFamily::Rgs, SolverFamily::AsyRgs] {
            let mut session = SolverBuilder::new(family)
                .threads(2)
                .term(Termination::sweeps(60))
                .build()
                .unwrap();
            let mut x1 = vec![0.0; n];
            let mut x2 = vec![0.0; n];
            let mut x3 = vec![0.0; n];
            let reports = session
                .solve_many(
                    &a,
                    &[&b1, &b2, &b3],
                    &mut [&mut x1[..], &mut x2[..], &mut x3[..]],
                )
                .unwrap();
            assert_eq!(reports.len(), 3);
            // Async interleavings vary run to run — under full-suite load
            // on an oversubscribed core the effective delay can be large,
            // so require robust progress, not a tight tolerance.
            for (i, rep) in reports.iter().enumerate() {
                assert!(
                    rep.final_rel_residual < 1e-2,
                    "{} rhs {i}: {}",
                    family.name(),
                    rep.final_rel_residual
                );
            }
        }
    }

    #[test]
    fn solve_many_matches_block_solver_bitwise() {
        // The batched path must be the block solver, not a loop: compare
        // against the one-thread block solve on the packed matrices.
        let (a, b, _) = problem(6);
        let n = a.n_rows();
        let b2 = vec![1.0; n];
        let mut session = SolverBuilder::new(SolverFamily::Rgs)
            .term(Termination::sweeps(6))
            .build()
            .unwrap();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        session
            .solve_many(&a, &[&b, &b2], &mut [&mut x1[..], &mut x2[..]])
            .unwrap();

        let mut blk_b = RowMajorMat::zeros(n, 2);
        blk_b.set_col(0, &b);
        blk_b.set_col(1, &b2);
        let mut blk_x = RowMajorMat::zeros(n, 2);
        asyrgs_core::asyrgs::try_asyrgs_solve_block(
            &a,
            &blk_b,
            &mut blk_x,
            &AsyRgsOptions {
                threads: 1,
                epoch_sweeps: Some(1),
                term: Termination::sweeps(6),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(x1, blk_x.col(0));
        assert_eq!(x2, blk_x.col(1));
    }

    #[test]
    fn solve_many_loops_the_other_families() {
        let (a, b, _) = problem(6);
        let n = a.n_rows();
        let b2 = vec![1.0; n];
        let mut session = SolverBuilder::new(SolverFamily::Cg).build().unwrap();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let reports = session
            .solve_many(&a, &[&b, &b2], &mut [&mut x1[..], &mut x2[..]])
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.final_rel_residual < 1e-8));
    }

    #[test]
    fn solve_many_validates_everything_up_front() {
        let (a, b, _) = problem(5);
        let n = a.n_rows();
        let short = vec![1.0; n - 1];
        let mut session = SolverBuilder::new(SolverFamily::Rgs).build().unwrap();
        let mut x1 = vec![5.0; n];
        let mut x2 = vec![5.0; n];
        let err = session
            .solve_many(&a, &[&b, &short], &mut [&mut x1[..], &mut x2[..]])
            .unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        // Neither x may have been touched, including the valid first one.
        assert!(x1.iter().all(|&v| v == 5.0));
        assert!(x2.iter().all(|&v| v == 5.0));

        // A family solved one system at a time must also reject a
        // non-finite later right-hand side before solving the first.
        let mut nan_b = b.clone();
        nan_b[3] = f64::NAN;
        let mut session = SolverBuilder::new(SolverFamily::Cg).build().unwrap();
        let err = session
            .solve_many(&a, &[&b, &nan_b], &mut [&mut x1[..], &mut x2[..]])
            .unwrap_err();
        assert!(
            matches!(err, SolveError::NonFiniteInput { index: 3, .. }),
            "{err:?}"
        );
        assert!(x1.iter().all(|&v| v == 5.0));
        assert!(x2.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn solve_many_rejects_rectangular_matrix_with_typed_error() {
        // A 4x3 matrix with consistently-sized b (4) and x (3) passes the
        // per-pair length checks, so the square check must fire — as a
        // typed error on both the block path (Rgs/AsyRgs) and the looped
        // path (Cg), never a panic.
        let rect = CsrMatrix::from_dense(
            4,
            3,
            &[2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 1.0],
        );
        let b = vec![1.0; 4];
        for family in [SolverFamily::Rgs, SolverFamily::AsyRgs, SolverFamily::Cg] {
            let mut session = SolverBuilder::new(family).build().unwrap();
            let mut x = [5.0; 3];
            let err = session
                .solve_many(&rect, &[&b], &mut [&mut x[..]])
                .unwrap_err();
            assert!(
                matches!(err, SolveError::DimensionMismatch { .. }),
                "{}: {err:?}",
                family.name()
            );
            assert!(err.to_string().contains("matrix must be square"));
            assert!(x.iter().all(|&v| v == 5.0));
        }
    }

    #[test]
    fn fcg_bad_diagonal_is_a_typed_error_for_every_precond() {
        // The preconditioner's diagonal requirement must surface as a
        // typed error from solve(), never a panic from inside apply().
        let bad = CsrMatrix::from_dense(2, 2, &[1.0, 0.5, 0.5, -2.0]);
        let b = vec![1.0; 2];
        for precond in [
            PrecondSpec::Jacobi,
            PrecondSpec::Rgs { inner_sweeps: 2 },
            PrecondSpec::AsyRgs { inner_sweeps: 2 },
        ] {
            let mut session = SolverBuilder::new(SolverFamily::Fcg)
                .preconditioner(precond)
                .build()
                .unwrap();
            let mut x = vec![9.0; 2];
            let err = session.solve(&bad, &b, &mut x).unwrap_err();
            assert!(
                matches!(err, SolveError::ZeroDiagonal { index: 1, .. }),
                "{precond:?}: {err:?}"
            );
            assert!(x.iter().all(|&v| v == 9.0), "{precond:?}: x mutated");
        }
    }

    #[test]
    fn fcg_zero_truncation_rejected_at_build() {
        let err = SolverBuilder::new(SolverFamily::Fcg)
            .truncate(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        assert!(err.to_string().contains("truncation depth"));
    }

    #[test]
    fn fcg_session_reuse_does_not_respawn_pools() {
        // The FCG preconditioner path must reuse the session's pool and
        // scratch across solves; repeated solves through one session give
        // the same result as fresh sessions (the per-solve application
        // counter resets).
        let (a, b, _) = problem(8);
        let n = a.n_rows();
        let build = || {
            SolverBuilder::new(SolverFamily::Fcg)
                .threads(1)
                .preconditioner(PrecondSpec::Rgs { inner_sweeps: 3 })
                .build()
                .unwrap()
        };
        let mut session = build();
        let mut x1 = vec![0.0; n];
        session.solve(&a, &b, &mut x1).unwrap();
        let mut x2 = vec![0.0; n];
        session.solve(&a, &b, &mut x2).unwrap();
        assert_eq!(x1, x2, "second solve through the session must match");
        let mut xf = vec![0.0; n];
        build().solve(&a, &b, &mut xf).unwrap();
        assert_eq!(x1, xf, "session solve must match a fresh session");
    }

    #[test]
    fn fcg_preconditioner_specs_all_work() {
        let (a, b, _) = problem(10);
        let n = a.n_rows();
        for precond in [
            PrecondSpec::Identity,
            PrecondSpec::Jacobi,
            PrecondSpec::Rgs { inner_sweeps: 3 },
            PrecondSpec::AsyRgs { inner_sweeps: 3 },
        ] {
            let mut session = SolverBuilder::new(SolverFamily::Fcg)
                .threads(2)
                .preconditioner(precond)
                .build()
                .unwrap();
            let mut x = vec![0.0; n];
            let rep = session.solve(&a, &b, &mut x).unwrap();
            assert!(rep.converged_early, "{precond:?} did not converge");
        }
    }

    #[test]
    fn reference_solution_enables_error_telemetry() {
        let (a, b, x_star) = problem(8);
        let n = a.n_rows();
        for family in [
            SolverFamily::Rgs,
            SolverFamily::AsyRgs,
            SolverFamily::Jacobi,
            SolverFamily::AsyncJacobi,
        ] {
            let mut session = SolverBuilder::new(family)
                .threads(2)
                .term(Termination::sweeps(30))
                .build()
                .unwrap();
            let mut x = vec![0.0; n];
            let rep = session
                .solve_with_reference(&a, &b, &mut x, &x_star)
                .unwrap();
            assert!(
                rep.records.iter().all(|r| r.rel_error_anorm.is_some()),
                "{}: missing error column",
                family.name()
            );
        }
    }
}
