//! Jobs, handles, and outcomes: the request/response types of the
//! [`Scheduler`](crate::Scheduler).
//!
//! A [`SolveJob`] is one unit of servable work — a validated
//! [`SolverBuilder`] configuration plus the system it should solve, tagged
//! with the submitting [`TenantId`], a fair-share weight, and an optional
//! deadline. Submission returns a [`JobHandle`], the caller's end of the
//! job: it can stream progress, cancel cooperatively, and wait for the
//! [`JobOutcome`].

use asyrgs::session::SolverBuilder;
use asyrgs_core::driver::{CancelToken, ProgressProbe, ProgressSnapshot};
use asyrgs_core::error::SolveError;
use asyrgs_core::report::SolveReport;
use asyrgs_sparse::CsrMatrix;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Identifies the tenant a job belongs to; fair-share accounting is per
/// tenant, so every job carrying the same id draws from one budget.
///
/// ```
/// use asyrgs_serve::TenantId;
/// let t = TenantId(7);
/// assert_eq!(t, TenantId(7));
/// assert_ne!(t, TenantId::ANON);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The default tenant for jobs submitted without an explicit id.
    pub const ANON: TenantId = TenantId(0);
}

/// One servable solve: configuration, system, and scheduling metadata.
/// Build with [`SolveJob::new`] and the `with_*` methods, then hand to
/// [`Scheduler::submit`](crate::Scheduler::submit).
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{SolveJob, TenantId};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let a = Arc::new(asyrgs::workloads::laplace2d(4, 4));
/// let b = vec![1.0; a.n_rows()];
/// let job = SolveJob::new(SolverBuilder::new(SolverFamily::Cg), Arc::clone(&a), b)
///     .with_tenant(TenantId(3))
///     .with_weight(4)
///     .with_deadline(Duration::from_secs(1));
/// assert_eq!(job.tenant(), TenantId(3));
/// assert_eq!(job.weight(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SolveJob {
    pub(crate) builder: SolverBuilder,
    pub(crate) a: Arc<CsrMatrix>,
    pub(crate) b: Vec<f64>,
    pub(crate) x0: Vec<f64>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tenant: TenantId,
    pub(crate) weight: u32,
    pub(crate) warm_start: bool,
    /// Whether the solver configuration should be resolved by the solver
    /// policy at admission instead of taken from `builder` (see
    /// [`SolveJob::auto`]).
    pub(crate) auto: bool,
}

impl SolveJob {
    /// A job solving `A x = b` under the given configuration, starting
    /// from the zero iterate, owned by [`TenantId::ANON`] with weight 1
    /// and no deadline.
    pub fn new(builder: SolverBuilder, a: Arc<CsrMatrix>, b: Vec<f64>) -> Self {
        let n = a.n_cols();
        SolveJob {
            builder,
            a,
            b,
            x0: vec![0.0; n],
            deadline: None,
            tenant: TenantId::ANON,
            weight: 1,
            warm_start: false,
            auto: false,
        }
    }

    /// A job that names **no** solver family: at admission the scheduler
    /// profiles the (deduped, canonical) matrix, resolves the solver
    /// policy's decision — cached per content fingerprint, so repeat
    /// submissions of the same matrix skip the spectral probe — and runs
    /// under the prescribed family, preconditioner, and thread count.
    /// A probe runs on the thread calling `Scheduler::submit`, with the
    /// registry unlocked; two first submissions of one matrix racing each
    /// other may both probe (both are counted), and the first decision
    /// stored is the one cached.
    /// Inspect the pick without submitting via
    /// `Scheduler::policy_preview`, and the probe/cache economics via
    /// `RegistryStats::{policy_probes, policy_hits}`.
    ///
    /// Scheduling metadata (`with_tenant`, `with_weight`,
    /// `with_deadline`, `with_warm_start`, `with_x0`) composes as usual.
    pub fn auto(a: Arc<CsrMatrix>, b: Vec<f64>) -> Self {
        // Placeholder configuration; admission replaces it with the
        // policy's builder before the job is queued.
        let mut job = SolveJob::new(SolverBuilder::new(asyrgs::session::SolverFamily::Cg), a, b);
        job.auto = true;
        job
    }

    /// Start from this iterate instead of zeros (length is validated at
    /// submission).
    pub fn with_x0(mut self, x0: Vec<f64>) -> Self {
        self.x0 = x0;
        self
    }

    /// Fail the job with [`SolveError::DeadlineExceeded`] if it has not
    /// finished this long after submission. Checked before dispatch and at
    /// every sweep boundary during the solve.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Account this job to the given tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Opt into warm-starting: if this tenant previously solved a matrix
    /// with the same content fingerprint *successfully* (and this job
    /// starts from the default zero iterate), admission seeds `x0` from
    /// that last solution, and this job's own successful solution is
    /// stored for the tenant's next submission. A caller-supplied `x0`
    /// always wins over the stored one, and a quarantined or failed solve
    /// records nothing — resubmission after a watchdog trip falls back to
    /// the caller's x0. Off by default: jobs that did not opt in keep
    /// bitwise-identical behavior to previous releases.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Fair-share weight (priority): a tenant with weight `2w` is
    /// dispatched twice as often as one with weight `w` when both have
    /// work queued. Clamped to at least 1 — a zero weight would starve,
    /// and the scheduler guarantees freedom from starvation.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// The tenant this job is accounted to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The fair-share weight.
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// The deadline relative to submission, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The solver configuration this job will run under.
    pub fn builder(&self) -> &SolverBuilder {
        &self.builder
    }

    /// The right-hand side.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// The initial iterate.
    pub fn x0(&self) -> &[f64] {
        &self.x0
    }

    /// Whether this job opted into warm-starting.
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }
}

/// Scheduling telemetry attached to every [`JobOutcome`].
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{Scheduler, SolveJob};
/// use std::sync::Arc;
///
/// let scheduler = Scheduler::with_defaults();
/// let a = Arc::new(asyrgs::workloads::laplace2d(4, 4));
/// let b = vec![1.0; a.n_rows()];
/// let outcome = scheduler
///     .submit(SolveJob::new(SolverBuilder::new(SolverFamily::Cg), a, b))
///     .unwrap()
///     .wait();
/// let stats = outcome.stats;
/// assert!(stats.dispatch_seq.is_some(), "the job ran");
/// assert_eq!(stats.batch_size, 1, "nothing to coalesce with");
/// assert!(stats.threads_used >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStats {
    /// Submission-to-dispatch wait.
    pub queued: Duration,
    /// Service time from dispatch to publication, registry publish
    /// included, on every path (zero when the job never dispatched, e.g.
    /// cancelled while queued).
    pub service: Duration,
    /// Global dispatch sequence number (`None` when the job never
    /// dispatched); with one runner this is the exact dispatch order,
    /// which the fairness tests assert on.
    pub dispatch_seq: Option<u64>,
    /// Concurrency slots the job actually ran on (0 when never
    /// dispatched).
    pub threads_used: usize,
    /// Jobs coalesced into the dispatch this one rode in (1 = solo, 0 =
    /// never dispatched). See `SchedulerConfig::coalesce`.
    pub batch_size: usize,
    /// Watchdog-trip re-dispatches this job consumed before completing.
    /// See `SchedulerConfig::retry_max`.
    pub retries: u32,
    /// Whether admission seeded this job's initial iterate from the
    /// tenant's previous solution against the same matrix fingerprint
    /// (see `SolveJob::with_warm_start`).
    pub warm_started: bool,
}

/// The final state of a job: the solution vector and the solve result.
///
/// On any error — cancellation, deadline expiry, or a solver rejection —
/// `x` is bitwise the submitted initial iterate: a failed job never
/// exposes a partially-updated buffer.
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{Scheduler, SolveJob};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let scheduler = Scheduler::with_defaults();
/// let a = Arc::new(asyrgs::workloads::laplace2d(4, 4));
/// let b = vec![1.0; a.n_rows()];
/// let x0 = vec![7.0; a.n_rows()];
/// // An unmeetable deadline: the outcome is a typed error and the
/// // outcome's x is the submitted iterate, untouched.
/// let job = SolveJob::new(SolverBuilder::new(SolverFamily::Rgs), a, b)
///     .with_x0(x0.clone())
///     .with_deadline(Duration::ZERO);
/// let outcome = scheduler.submit(job).unwrap().wait();
/// assert!(outcome.result.is_err());
/// assert_eq!(outcome.x, x0);
/// ```
#[derive(Debug)]
pub struct JobOutcome {
    /// The solution (on success) or the untouched initial iterate (on any
    /// error).
    pub x: Vec<f64>,
    /// The solve report, or the typed error that stopped the job.
    pub result: Result<SolveReport, SolveError>,
    /// Queueing/service telemetry.
    pub stats: JobStats,
}

/// Job lifecycle; `Taken` marks an outcome already claimed by `wait`.
pub(crate) enum JobState {
    Queued,
    Running,
    Done(JobOutcome),
    Taken,
}

/// The shared heart of a job: handle and scheduler both hold an `Arc`.
pub(crate) struct JobShared {
    pub(crate) state: Mutex<JobState>,
    pub(crate) done: Condvar,
    pub(crate) cancel: CancelToken,
    pub(crate) progress: ProgressProbe,
}

impl JobShared {
    /// `cancel`/`progress` are the job's channels: the scheduler passes
    /// the builder's own token/probe when the caller configured them (so
    /// external and handle-side cancellation share one flag), fresh ones
    /// otherwise.
    pub(crate) fn new(cancel: CancelToken, progress: ProgressProbe) -> Arc<Self> {
        Arc::new(JobShared {
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
            cancel,
            progress,
        })
    }

    /// Publish the outcome and wake every waiter.
    pub(crate) fn complete(&self, outcome: JobOutcome) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = JobState::Done(outcome);
        self.done.notify_all();
    }

    pub(crate) fn mark_running(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*st, JobState::Queued) {
            *st = JobState::Running;
        }
    }
}

/// The caller's end of a submitted job: cancel it, stream its progress,
/// and wait for its [`JobOutcome`].
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{Scheduler, SchedulerConfig, SolveJob};
/// use std::sync::Arc;
///
/// // Paused scheduler: the job stays queued, so cancellation lands
/// // before dispatch — deterministically.
/// let scheduler = Scheduler::new(SchedulerConfig {
///     paused: true,
///     ..SchedulerConfig::default()
/// });
/// let a = Arc::new(asyrgs::workloads::laplace2d(4, 4));
/// let b = vec![1.0; a.n_rows()];
/// let handle = scheduler
///     .submit(SolveJob::new(SolverBuilder::new(SolverFamily::Cg), a, b))
///     .unwrap();
/// handle.cancel();
/// scheduler.resume();
/// let outcome = handle.wait();
/// assert!(outcome.result.is_err(), "cancelled before dispatch");
/// ```
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl JobHandle {
    /// Request cooperative cancellation: a queued job is dropped before
    /// dispatch; a solo-dispatched running job stops at its next
    /// sweep/epoch boundary. Either way the outcome is
    /// [`SolveError::Cancelled`] with the output buffer untouched —
    /// unless the job finishes first, in which case cancellation is a
    /// no-op.
    ///
    /// **Coalescing exception**: a job merged into a block dispatch
    /// (`SchedulerConfig::coalesce`; visible as
    /// [`JobStats::batch_size`](crate::JobStats) > 1) shares one solve
    /// driver with its batch and is no longer individually cancellable
    /// once dispatched — it runs to completion. Cancellation *before*
    /// dispatch always works, and a job whose token is already cancelled
    /// never joins a batch. Jobs with a deadline never coalesce, so
    /// deadline enforcement is unaffected.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// The latest progress record the running solve published (all zeros /
    /// `None` before the first record).
    pub fn progress(&self) -> ProgressSnapshot {
        self.shared.progress.snapshot()
    }

    /// Whether the outcome is ready to [`wait`](Self::wait) for without
    /// blocking.
    pub fn is_finished(&self) -> bool {
        let st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        matches!(*st, JobState::Done(_) | JobState::Taken)
    }

    /// Block until the job completes and take its outcome.
    pub fn wait(self) -> JobOutcome {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *st, JobState::Taken) {
                JobState::Done(outcome) => return outcome,
                JobState::Taken => unreachable!("outcome taken twice (wait consumes the handle)"),
                other => {
                    *st = other;
                    st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
}
