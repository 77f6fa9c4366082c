//! The multi-tenant scheduler: admission, weighted-fair dispatch, and
//! execution of [`SolveJob`]s over the shared worker pool.
//!
//! ## How a job flows
//!
//! 1. [`Scheduler::submit`] validates the job (shapes, family, builder
//!    knobs), fingerprints the matrix, admits it to the registry (for an
//!    `auto` job, probing the policy between two registry lock holds), and
//!    appends it to its tenant's FIFO under one hold of the dispatch lock.
//!    Once [`SchedulerConfig::queue_capacity`] jobs are queued, the job is
//!    refused with a typed [`SubmitError::QueueFull`] and its registry pin
//!    released: the backlog is bounded, not merely slowed.
//! 2. A runner thread picks the next job by **stride scheduling**: each
//!    tenant accumulates
//!    "pass" value at a rate inversely proportional to its jobs' weights,
//!    and the lowest-pass tenant with queued work dispatches next. A
//!    weight-4 tenant gets 4 dispatch opportunities for every 1 a
//!    weight-1 tenant gets, and no tenant starves.
//! 3. Before executing, the runner **coalesces**: other queued jobs that
//!    solve the *same matrix* under the *same configuration* (and carry no
//!    deadline) join the dispatch as extra right-hand sides of one
//!    [`solve_many`](asyrgs::session::SolveSession::solve_many) block
//!    solve — the paper's Section 9 many-systems strategy turned into a
//!    scheduling policy. This works *across tenants*: admission dedups
//!    bitwise-identical matrices onto one canonical `Arc` through the
//!    content-addressed registry, and the batch gate compares matrices by
//!    pointer identity. The block kernels share one direction stream and
//!    one epoch structure across the batch, which is where the aggregate
//!    throughput win over sequential single-tenant solves comes from, and
//!    (per PR 4) a batched solve is bitwise a sequence of single solves.
//! 4. The runner drops any job cancelled or expired while queued, leases
//!    concurrency slots from the shared [`SlotAccountant`] (elastic: it
//!    takes what is free rather than waiting for its full request), and
//!    runs the solve on scratch iterates. A batch of one solves through
//!    [`SolveSession::solve`](asyrgs::session::SolveSession::solve) with
//!    the job's [`CancelToken`]/[`ProgressProbe`](asyrgs_core::driver::ProgressProbe)
//!    and remaining deadline threaded through the solver's `Termination`;
//!    two or more share one `solve_many` driver, so their jobs are not
//!    individually cancellable after dispatch.
//! 5. One `publish` ends every job, dispatched or not: it releases the
//!    registry pin, counts the outcome, stamps [`JobStats`] and lands the
//!    outcome in the [`JobHandle`]: the solution on success, or a typed
//!    [`SolveError`] with the caller's buffer untouched.

use crate::job::{JobHandle, JobOutcome, JobShared, JobStats, SolveJob, TenantId};
use crate::registry::{MatrixArtifacts, MatrixFingerprint, MatrixRegistry, RegistryStats};
use asyrgs::policy::PolicyDecision;
use asyrgs::session::SolverBuilder;
use asyrgs_core::error::SolveError;
use asyrgs_core::report::SolveReport;
use asyrgs_parallel::SlotAccountant;
use asyrgs_sparse::CsrMatrix;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why [`Scheduler::submit`] refused a job; every variant hands the job
/// back so the caller can retry or re-route it.
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{Scheduler, SolveJob, SubmitError};
/// use std::sync::Arc;
///
/// let scheduler = Scheduler::with_defaults();
/// let a = Arc::new(asyrgs::workloads::laplace2d(4, 4));
/// let short_b = vec![1.0; 3]; // wrong length: rejected at admission
/// let err = scheduler
///     .submit(SolveJob::new(SolverBuilder::new(SolverFamily::Cg), a, short_b))
///     .unwrap_err();
/// let SubmitError::Rejected { error, job } = err else { panic!() };
/// assert_eq!(job.b().len(), 3); // the job comes back to the caller
/// assert!(error.to_string().contains("right-hand side"));
/// ```
#[derive(Debug)]
pub enum SubmitError {
    /// The job failed validation (shapes, solver family, builder knobs).
    Rejected {
        /// The specific rule the job violated.
        error: SolveError,
        /// The rejected job, returned to the caller (boxed so the error
        /// stays small on the happy path).
        job: Box<SolveJob>,
    },
    /// [`SchedulerConfig::queue_capacity`] jobs are already queued — the
    /// service is saturated; back off and retry.
    QueueFull {
        /// The job that did not fit, returned to the caller.
        job: Box<SolveJob>,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { error, .. } => write!(f, "job rejected: {error}"),
            SubmitError::QueueFull { .. } => write!(f, "admission queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Sizing and behavior knobs for a [`Scheduler`]; `Default` fits the
/// current machine.
///
/// ```
/// use asyrgs_serve::SchedulerConfig;
/// let cfg = SchedulerConfig::default();
/// assert!(cfg.runners >= 1 && cfg.slots >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Runner threads — the maximum number of jobs in flight at once.
    pub runners: usize,
    /// The most jobs that may wait for dispatch (at least 1):
    /// [`Scheduler::submit`] refuses a job with [`SubmitError::QueueFull`]
    /// once this many are queued, so [`Scheduler::queued`] never exceeds
    /// it through admission. A watchdog retry re-entering its tenant's
    /// queue was admitted already and is never refused.
    pub queue_capacity: usize,
    /// Concurrency-slot budget shared by all in-flight jobs; defaults to
    /// the machine's worker-pool width so co-scheduled solves cannot
    /// oversubscribe the cores.
    pub slots: usize,
    /// Start with dispatch paused (jobs queue but do not run) until
    /// [`Scheduler::resume`] — deterministic setup for fairness tests and
    /// coordinated benchmark starts.
    pub paused: bool,
    /// Maximum jobs coalesced into one batched dispatch (`1` disables
    /// coalescing). Queued jobs with the same matrix, the same
    /// configuration, and no deadline ride along as extra right-hand
    /// sides of one block solve (RGS/AsyRGS families).
    pub coalesce: usize,
    /// How many times a job whose solve ends in a watchdog trip
    /// (non-finite iterate, divergence, stall — see
    /// [`asyrgs_core::health`]) is re-enqueued before it is quarantined
    /// with [`SolveError::Quarantined`]. `0` disables scheduler-level
    /// retries: trips surface to the handle unchanged. Only jobs whose
    /// builder armed the watchdog can trip, so this knob never affects
    /// default-configured jobs. A tenant's jobs share at most 64 retries
    /// in total.
    pub retry_max: u32,
    /// Exponential-backoff base: retry `k` waits `retry_backoff_ms *
    /// 2^(k-1)` milliseconds before re-dispatching.
    pub retry_backoff_ms: u64,
    /// Byte budget for the content-addressed matrix registry: canonical
    /// CSRs at `(n_rows + 1)·8 + nnz·16` bytes each plus stored warm-start
    /// solutions (see [`RegistryStats::bytes`]). Least-recently-used
    /// entries are evicted when the budget is exceeded, but never while a
    /// job admitted through them is in flight.
    pub registry_max_bytes: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        let width = asyrgs_parallel::default_concurrency();
        SchedulerConfig {
            runners: width,
            queue_capacity: 1024,
            slots: width,
            paused: false,
            coalesce: 32,
            retry_max: 2,
            retry_backoff_ms: 10,
            registry_max_bytes: 256 << 20,
        }
    }
}

/// Total watchdog-trip retries a single tenant may consume across all its
/// jobs — a misconfigured tenant cannot grind the service with endless
/// restarts. Exhausted tenants get their jobs quarantined on the first
/// trip.
const TENANT_RETRY_BUDGET: u64 = 64;

/// Monotone counters describing scheduler activity so far.
///
/// ```
/// use asyrgs_serve::Scheduler;
/// let scheduler = Scheduler::with_defaults();
/// let stats = scheduler.stats();
/// assert_eq!(stats.submitted, 0);
/// assert_eq!(stats.completed, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs accepted by [`Scheduler::submit`].
    pub submitted: u64,
    /// Jobs whose outcome has been published (any result).
    pub completed: u64,
    /// Completed jobs that produced a solution.
    pub succeeded: u64,
    /// Completed jobs that ended in [`SolveError::Cancelled`].
    pub cancelled: u64,
    /// Completed jobs that ended in [`SolveError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Watchdog-trip re-enqueues performed so far (each retry counts).
    pub retried: u64,
    /// Completed jobs that ended in [`SolveError::Quarantined`].
    pub quarantined: u64,
    /// Jobs dispatched as part of a coalesced batch (batch size ≥ 2;
    /// every member counts, anchor included).
    pub coalesced: u64,
    /// Coalesced jobs that rode a batch anchored by a *different* tenant —
    /// the cross-tenant merges the matrix registry's dedup enables.
    pub cross_tenant_coalesced: u64,
    /// Jobs whose initial iterate was seeded from the tenant's previous
    /// solution against the same matrix fingerprint.
    pub warm_started: u64,
}

/// One admitted job travelling from its tenant's FIFO to a runner.
struct Submission {
    job: SolveJob,
    shared: Arc<JobShared>,
    submitted_at: Instant,
    deadline_at: Option<Instant>,
    /// Watchdog-trip re-dispatches so far (see `SchedulerConfig::retry_max`).
    retries: u32,
    /// Earliest dispatch time — set by retry backoff, `None` otherwise.
    not_before: Option<Instant>,
    /// The registry entry this job admitted through (`None` only when a
    /// fingerprint collision forced an unregistered admission). Pinned at
    /// admission; released exactly once at any terminal state.
    fingerprint: Option<MatrixFingerprint>,
    /// Whether admission seeded `x0` from the tenant's stored solution.
    warm_started: bool,
}

impl Submission {
    /// Whether the job's deadline has passed.
    fn expired(&self) -> bool {
        self.deadline_at.is_some_and(|d| Instant::now() >= d)
    }

    /// The error a job whose deadline passed ends with.
    fn deadline_exceeded(&self) -> SolveError {
        let budget = self.job.deadline.unwrap_or_default();
        SolveError::DeadlineExceeded {
            budget_ms: budget.as_millis().min(u128::from(u64::MAX)) as u64,
        }
    }
}

/// Per-tenant dispatch state: FIFO of admitted jobs plus the stride-
/// scheduling pass value.
struct TenantQueue {
    fifo: VecDeque<Submission>,
    /// Stride-scheduling virtual time: the tenant with the smallest pass
    /// dispatches next; dispatching advances it by `STRIDE_ONE / weight`.
    pass: u64,
}

/// Pass-increment numerator: one dispatch of a weight-`w` job advances the
/// tenant's pass by `STRIDE_ONE / w`.
const STRIDE_ONE: u64 = 1 << 20;

/// Mutex-guarded dispatch state, touched once per admission and once per
/// dispatch, never per sweep.
struct DispatchState {
    tenants: BTreeMap<TenantId, TenantQueue>,
    queued: usize,
    paused: bool,
    shutdown: bool,
    /// Pass value of the most recently dispatched tenant; newly-active
    /// tenants start here so an idle tenant cannot bank credit and then
    /// monopolize the runners.
    virtual_time: u64,
    /// Retried jobs waiting out their backoff (`not_before` in the
    /// future); [`release_parked`](Self::release_parked) moves them back
    /// into their tenant FIFOs when due.
    parked: Vec<Submission>,
    /// Watchdog-trip retries each tenant has consumed (see
    /// [`TENANT_RETRY_BUDGET`]).
    retry_spent: BTreeMap<TenantId, u64>,
}

impl DispatchState {
    /// Insert one submission into its tenant's FIFO under the stride
    /// bookkeeping rules (idle tenants cannot bank credit).
    fn enqueue(&mut self, sub: Submission) {
        let vt = self.virtual_time;
        let tenant = self
            .tenants
            .entry(sub.job.tenant)
            .or_insert_with(|| TenantQueue {
                fifo: VecDeque::new(),
                pass: vt,
            });
        if tenant.fifo.is_empty() {
            tenant.pass = tenant.pass.max(vt);
        }
        tenant.fifo.push_back(sub);
        self.queued += 1;
    }

    /// Move parked retries whose backoff has elapsed back into dispatch.
    fn release_parked(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].not_before.is_none_or(|t| t <= now) {
                let sub = self.parked.swap_remove(i);
                self.enqueue(sub);
            } else {
                i += 1;
            }
        }
    }

    /// The earliest `not_before` among parked retries, if any — how long a
    /// runner may sleep before a retry could become dispatchable.
    fn earliest_parked(&self) -> Option<Instant> {
        self.parked.iter().filter_map(|s| s.not_before).min()
    }

    /// Stride scheduling: dispatch the head job of the lowest-pass tenant
    /// with queued work (ties break on the smaller `TenantId` via the
    /// BTreeMap's iteration order).
    fn pick_next(&mut self) -> Option<Submission> {
        let id = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.fifo.is_empty())
            .min_by_key(|(_, t)| t.pass)
            .map(|(id, _)| *id)?;
        let tenant = self.tenants.get_mut(&id).expect("picked above");
        let sub = tenant.fifo.pop_front().expect("non-empty checked");
        self.queued -= 1;
        self.virtual_time = tenant.pass;
        tenant.pass += STRIDE_ONE / u64::from(sub.job.weight.max(1));
        Some(sub)
    }

    /// Pick the next dispatch and coalesce up to `max - 1` compatible
    /// queued jobs onto it as extra right-hand sides (fairness still
    /// applies: every rider is charged its tenant's normal stride).
    /// Riders are taken from FIFO *heads* only, so no tenant's jobs
    /// complete out of submission order.
    fn pick_batch(&mut self, max: usize) -> Option<Vec<Submission>> {
        let seed = self.pick_next()?;
        let mut batch = vec![seed];
        if max <= 1 || !batch_anchor(&batch[0]) {
            return Some(batch);
        }
        let ids: Vec<TenantId> = self.tenants.keys().copied().collect();
        'outer: for id in ids {
            loop {
                if batch.len() >= max {
                    break 'outer;
                }
                let tenant = self.tenants.get_mut(&id).expect("key from keys()");
                match tenant.fifo.front() {
                    Some(head) if batchable_with(&batch[0], head) => {
                        let sub = tenant.fifo.pop_front().expect("front checked");
                        self.queued -= 1;
                        tenant.pass += STRIDE_ONE / u64::from(sub.job.weight.max(1));
                        batch.push(sub);
                    }
                    _ => break,
                }
            }
        }
        Some(batch)
    }
}

/// Whether a dispatched job may anchor a coalesced batch: a block entry
/// point exists for its family (RGS/AsyRGS), and it carries none of the
/// per-job plumbing (deadline, pending cancellation) a shared block driver
/// cannot honor.
fn batch_anchor(sub: &Submission) -> bool {
    use asyrgs::session::SolverFamily;
    matches!(
        sub.job.builder.configured_family(),
        SolverFamily::Rgs | SolverFamily::AsyRgs
    ) && sub.deadline_at.is_none()
        && !sub.shared.cancel.is_cancelled()
        // The block kernels have no watchdog/recovery path, so a job that
        // armed either must run the solo dispatch that honors them.
        // Riders inherit this via builder equality with the anchor.
        && sub.job.builder.configured_health().is_none()
        && !sub.job.builder.configured_recovery().is_active()
}

/// Whether `candidate` can ride along with `seed`: same matrix (by
/// pointer), same full configuration, and no per-job plumbing of its own.
fn batchable_with(seed: &Submission, candidate: &Submission) -> bool {
    candidate.deadline_at.is_none()
        && !candidate.shared.cancel.is_cancelled()
        && Arc::ptr_eq(&seed.job.a, &candidate.job.a)
        && seed.job.builder == candidate.job.builder
}

struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    succeeded: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    retried: AtomicU64,
    quarantined: AtomicU64,
    coalesced: AtomicU64,
    cross_tenant_coalesced: AtomicU64,
    warm_started: AtomicU64,
    dispatch_seq: AtomicU64,
    running: AtomicUsize,
}

struct Inner {
    dispatch: Mutex<DispatchState>,
    /// The content-addressed matrix store, behind its own lock so
    /// admission never contends with dispatch.
    registry: Mutex<MatrixRegistry>,
    work: Condvar,
    slots: SlotAccountant,
    counters: Counters,
    queue_capacity: usize,
    coalesce: usize,
    retry_max: u32,
    retry_backoff_ms: u64,
}

impl Inner {
    /// The registry, locked (a poisoned lock is recovered, as every other
    /// scheduler lock is).
    fn registry(&self) -> MutexGuard<'_, MatrixRegistry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The multi-tenant solve scheduler (see the module docs for the dispatch
/// pipeline, and the crate docs for a worked example).
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{Scheduler, SolveJob};
/// use std::sync::Arc;
///
/// let scheduler = Scheduler::with_defaults();
/// let a = Arc::new(asyrgs::workloads::laplace2d(6, 6));
/// let b = a.matvec(&vec![1.0; a.n_rows()]);
/// let handle = scheduler
///     .submit(SolveJob::new(SolverBuilder::new(SolverFamily::Cg), a, b))
///     .expect("valid job");
/// let outcome = handle.wait();
/// assert!(outcome.result.expect("cg converges").converged_early);
/// ```
pub struct Scheduler {
    inner: Arc<Inner>,
    runners: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("runners", &self.runners.len())
            .field("slots", &self.inner.slots.capacity())
            .field("queued", &self.queued())
            .finish()
    }
}

impl Scheduler {
    /// A scheduler sized by `config`, with its runner threads started.
    pub fn new(config: SchedulerConfig) -> Self {
        let runners = config.runners.max(1);
        let inner = Arc::new(Inner {
            dispatch: Mutex::new(DispatchState {
                tenants: BTreeMap::new(),
                queued: 0,
                paused: config.paused,
                shutdown: false,
                virtual_time: 0,
                parked: Vec::new(),
                retry_spent: BTreeMap::new(),
            }),
            registry: Mutex::new(MatrixRegistry::new(config.registry_max_bytes)),
            work: Condvar::new(),
            slots: SlotAccountant::new(config.slots.max(1)),
            counters: Counters {
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                succeeded: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                deadline_exceeded: AtomicU64::new(0),
                retried: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                cross_tenant_coalesced: AtomicU64::new(0),
                warm_started: AtomicU64::new(0),
                dispatch_seq: AtomicU64::new(0),
                running: AtomicUsize::new(0),
            },
            queue_capacity: config.queue_capacity.max(1),
            coalesce: config.coalesce.max(1),
            retry_max: config.retry_max,
            retry_backoff_ms: config.retry_backoff_ms,
        });
        let handles = (0..runners)
            .map(|id| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("asyrgs-serve-{id}"))
                    .spawn(move || runner_loop(&inner))
                    .expect("failed to spawn scheduler runner")
            })
            .collect();
        Scheduler {
            inner,
            runners: handles,
        }
    }

    /// A scheduler with [`SchedulerConfig::default`] sizing.
    pub fn with_defaults() -> Self {
        Scheduler::new(SchedulerConfig::default())
    }

    /// Validate and enqueue a job; returns the caller's [`JobHandle`].
    ///
    /// Validation runs **before** admission, so every job in the queue is
    /// known-runnable: square system, conforming `b`/`x0`, a square-system
    /// solver family, and in-range builder knobs.
    ///
    /// A [`CancelToken`](asyrgs_core::driver::CancelToken) or
    /// [`ProgressProbe`](asyrgs_core::driver::ProgressProbe) the caller
    /// already configured on the builder's `Termination` is **adopted**
    /// as the job's own channel: cancelling the external token and
    /// calling [`JobHandle::cancel`] raise the same flag, and the
    /// external probe sees the same records as
    /// [`JobHandle::progress`].
    ///
    /// # Errors
    /// [`SubmitError::Rejected`] with the violated rule (the least-squares
    /// families are rejected with
    /// [`SolveError::MethodMismatch`] — serve square systems for now), or
    /// [`SubmitError::QueueFull`] once
    /// [`SchedulerConfig::queue_capacity`] jobs are queued.
    pub fn submit(&self, job: SolveJob) -> Result<JobHandle, SubmitError> {
        // `auto` jobs carry no family of their own: every family-dependent
        // check is skipped here and the solver policy's decision (resolved
        // at registry admission below, cached per fingerprint) supplies
        // a configuration that passes them by construction. Explicit jobs
        // run the exact historical validation sequence.
        if !job.auto && job.builder.configured_family().is_lsq() {
            return Err(SubmitError::Rejected {
                error: SolveError::MethodMismatch {
                    called: "submit",
                    family: job.builder.configured_family().name(),
                },
                job: Box::new(job),
            });
        }
        if let Err(error) = asyrgs_core::driver::ensure_square_system(
            "serve_submit",
            job.a.n_rows(),
            job.a.n_cols(),
            job.b.len(),
            job.x0.len(),
        ) {
            return Err(SubmitError::Rejected {
                error,
                job: Box::new(job),
            });
        }
        // Non-finite input is rejected at admission, not discovered
        // mid-solve: a NaN in A, b, or x0 can only ever produce garbage.
        if let Err(error) = asyrgs_core::driver::ensure_finite_system(
            "serve_submit",
            job.a.as_ref(),
            &job.b,
            &job.x0,
        ) {
            return Err(SubmitError::Rejected {
                error,
                job: Box::new(job),
            });
        }
        if !job.auto {
            if let Err(error) = job.builder.validate() {
                return Err(SubmitError::Rejected {
                    error,
                    job: Box::new(job),
                });
            }
            // Symmetry admission: the symmetric-theory families would only
            // diverge (or return garbage) on a nonsymmetric operator, so
            // the mismatch is surfaced here instead of mid-queue. Tenants
            // with nonsymmetric systems submit the bicgstab/gmres families
            // — or a policy-routed `SolveJob::auto`, which picks one.
            let family = job.builder.configured_family();
            if let Err(error) = family.check_symmetry("serve_submit", job.a.as_ref()) {
                return Err(SubmitError::Rejected {
                    error,
                    job: Box::new(job),
                });
            }
        }
        // Registry admission: dedup onto the canonical allocation. The Arc
        // swap is what widens coalescing across tenants — the batch gate
        // compares matrices by pointer identity, and after dedup every
        // bitwise-identical submission shares one pointer. Runs after
        // validation so rejected jobs never pin an entry. The hash runs
        // before the registry lock and an auto job's policy probe between
        // two holds of it, so runners publishing results do not queue
        // behind either.
        let mut job = job;
        let fp = MatrixFingerprint::of(&job.a);
        let mut reg = self.inner.registry();
        let adm = reg.admit(fp, &job.a);
        job.a = adm.canonical;
        let fingerprint = adm.registered.then_some(fp);
        if job.auto {
            // The first auto submission of a fingerprint pays the
            // spectral probe, every later one reuses the cached decision
            // bit-for-bit. The admission pin keeps the entry from being
            // evicted while the probe runs unlocked.
            let decision = match reg.cached_policy(fp, &job.a) {
                Some(decision) => decision,
                None => {
                    drop(reg);
                    let probed = asyrgs::policy::decide_for(&job.a);
                    reg = self.inner.registry();
                    match probed {
                        Ok(decision) => reg.store_policy(fp, &job.a, Arc::new(decision)),
                        Err(error) => {
                            if let Some(fp) = fingerprint {
                                reg.release(fp);
                            }
                            return Err(SubmitError::Rejected {
                                error,
                                job: Box::new(job),
                            });
                        }
                    }
                }
            };
            job.builder = SolverBuilder::from_decision(&decision);
        }
        let mut warm_started = false;
        if job.warm_start {
            // Warm start replaces only the *default zero* iterate: a
            // caller-supplied x0 always wins, and a stored solution is
            // only trusted if it is still finite.
            if job.x0.iter().all(|&v| v == 0.0) {
                if let Some(x) = reg.take_warm_start(fp, &job.a, job.tenant) {
                    if x.len() == job.x0.len() && x.iter().all(|v| v.is_finite()) {
                        job.x0 = x;
                        warm_started = true;
                    }
                }
            }
        }
        drop(reg);
        // Adopt a CancelToken/ProgressProbe the caller already configured
        // on the builder's Termination as the job's own channels, so an
        // external token and JobHandle::cancel share one flag (and both
        // probes are one probe) instead of the scheduler's plumbing
        // silently replacing the caller's.
        let caller_term = job.builder.configured_term();
        let shared = JobShared::new(
            caller_term.cancel.clone().unwrap_or_default(),
            caller_term.progress.clone().unwrap_or_default(),
        );
        let handle = JobHandle {
            shared: Arc::clone(&shared),
        };
        let now = Instant::now();
        let sub = Submission {
            deadline_at: job.deadline.map(|d| now + d),
            job,
            shared,
            submitted_at: now,
            retries: 0,
            not_before: None,
            fingerprint,
            warm_started,
        };
        let mut st = self
            .inner
            .dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if st.queued >= self.inner.queue_capacity {
            drop(st);
            // The job never entered the queue: undo its registry pin.
            if let Some(fp) = sub.fingerprint {
                self.inner.registry().release(fp);
            }
            return Err(SubmitError::QueueFull {
                job: Box::new(sub.job),
            });
        }
        st.enqueue(sub);
        let c = &self.inner.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        if warm_started {
            c.warm_started.fetch_add(1, Ordering::Relaxed);
        }
        drop(st);
        // Runners check for work and wait under the dispatch lock, so a
        // notify after it is released cannot be missed.
        self.inner.work.notify_all();
        Ok(handle)
    }

    /// Release a scheduler created with [`SchedulerConfig::paused`]:
    /// everything queued so far dispatches in weighted-fair order.
    pub fn resume(&self) {
        let mut st = self
            .inner
            .dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        st.paused = false;
        drop(st);
        self.inner.work.notify_all();
    }

    /// Jobs admitted but not yet dispatched (retries waiting out their
    /// backoff excluded); admission keeps it at most
    /// [`SchedulerConfig::queue_capacity`].
    pub fn queued(&self) -> usize {
        self.inner
            .dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queued
    }

    /// Jobs currently executing on runner threads.
    pub fn running(&self) -> usize {
        self.inner.counters.running.load(Ordering::Relaxed)
    }

    /// The number of runner threads.
    pub fn runners(&self) -> usize {
        self.runners.len()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> SchedulerStats {
        let c = &self.inner.counters;
        SchedulerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            succeeded: c.succeeded.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            retried: c.retried.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            cross_tenant_coalesced: c.cross_tenant_coalesced.load(Ordering::Relaxed),
            warm_started: c.warm_started.load(Ordering::Relaxed),
        }
    }

    /// Counters and occupancy of the content-addressed matrix registry.
    pub fn registry_stats(&self) -> RegistryStats {
        self.inner.registry().stats()
    }

    /// What the registry holds for a registered fingerprint: the
    /// canonical CSR every deduped job runs against, and the solver-policy
    /// decision once an auto job or [`Self::policy_preview`] resolved one.
    /// `None` if the fingerprint was never registered or has been evicted.
    pub fn artifacts(&self, fp: MatrixFingerprint) -> Option<MatrixArtifacts> {
        self.inner.registry().artifacts(fp)
    }

    /// The [`PolicyDecision`] an auto job for this matrix would run under,
    /// without submitting anything. Served from the registry's
    /// per-fingerprint cache when available; otherwise the probe runs here,
    /// outside the registry lock, and the decision is cached if the
    /// fingerprint is registered (a never-registered matrix is profiled
    /// fresh each call — identical bits still yield an identical decision,
    /// the probe being fixed-seed).
    ///
    /// # Errors
    /// The structural-profiling errors of [`asyrgs::policy::decide_for`]:
    /// empty, non-finite, underdetermined, or zero-diagonal inputs that no
    /// policy-selectable solver could accept.
    pub fn policy_preview(&self, a: &CsrMatrix) -> Result<Arc<PolicyDecision>, SolveError> {
        let fp = MatrixFingerprint::of(a);
        let cached = self.inner.registry().cached_policy(fp, a);
        if let Some(decision) = cached {
            return Ok(decision);
        }
        let decision = Arc::new(asyrgs::policy::decide_for(a)?);
        Ok(self.inner.registry().store_policy(fp, a, decision))
    }

    /// A queue-routed counterpart of
    /// [`SolveSession`](asyrgs::session::SolveSession): same builder, same
    /// `solve(a, b, x)` shape, but every call travels through this
    /// scheduler's admission queue and fair dispatch. See the crate docs
    /// for the migration story.
    pub fn session(&self, builder: SolverBuilder) -> ScheduledSession<'_> {
        ScheduledSession {
            scheduler: self,
            builder,
            tenant: TenantId::ANON,
            weight: 1,
            deadline: None,
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut st = self
                .inner
                .dispatch
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
        // Runners are gone; cancel everything still queued so waiting
        // handles observe a typed outcome instead of blocking forever.
        let mut st = self
            .inner
            .dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut leftovers: Vec<Submission> = st
            .tenants
            .values_mut()
            .flat_map(|t| t.fifo.drain(..))
            .collect();
        leftovers.append(&mut st.parked);
        st.queued = 0;
        drop(st);
        for sub in leftovers {
            let x0 = sub.job.x0.clone();
            publish(&self.inner, sub, x0, Err(SolveError::Cancelled), None);
        }
    }
}

/// What a dispatch adds to a job's [`JobStats`].
struct Dispatch {
    seq: u64,
    queued: Duration,
    started: Instant,
    threads: usize,
    batch_size: usize,
}

/// End a job in any terminal state: never dispatched (`dispatch` is
/// `None`: cancelled or expired while queued, or orphaned at drop),
/// solved, failed, or quarantined. Releases the registry pin exactly
/// once, recording the solution for warm-starting on success and
/// dropping the tenant's stored solution on quarantine (a quarantined
/// operator's iterate is no longer trusted — the next submission falls
/// back to its own x0); counts the outcome; stamps [`JobStats`], whose
/// `service` ends here, after the registry publish; and completes the
/// handle.
fn publish(
    inner: &Inner,
    sub: Submission,
    x: Vec<f64>,
    result: Result<SolveReport, SolveError>,
    dispatch: Option<&Dispatch>,
) {
    if let Some(fp) = sub.fingerprint {
        let mut reg = inner.registry();
        match &result {
            Ok(_) if sub.job.warm_start => reg.record_solution(fp, sub.job.tenant, &x),
            Err(SolveError::Quarantined { .. }) => reg.invalidate_warm(fp, sub.job.tenant),
            _ => {}
        }
        reg.release(fp);
    }
    let c = &inner.counters;
    c.completed.fetch_add(1, Ordering::Relaxed);
    match &result {
        Ok(_) => c.succeeded.fetch_add(1, Ordering::Relaxed),
        Err(SolveError::Cancelled) => c.cancelled.fetch_add(1, Ordering::Relaxed),
        Err(SolveError::DeadlineExceeded { .. }) => {
            c.deadline_exceeded.fetch_add(1, Ordering::Relaxed)
        }
        Err(SolveError::Quarantined { .. }) => c.quarantined.fetch_add(1, Ordering::Relaxed),
        Err(_) => 0,
    };
    let stats = match dispatch {
        Some(d) => JobStats {
            queued: d.queued,
            service: d.started.elapsed(),
            dispatch_seq: Some(d.seq),
            threads_used: d.threads,
            batch_size: d.batch_size,
            retries: sub.retries,
            warm_started: sub.warm_started,
        },
        None => JobStats {
            queued: sub.submitted_at.elapsed(),
            service: Duration::ZERO,
            dispatch_seq: None,
            threads_used: 0,
            batch_size: 0,
            retries: sub.retries,
            warm_started: sub.warm_started,
        },
    };
    sub.shared.complete(JobOutcome { x, result, stats });
}

/// The runner body: wait for dispatchable work, run it, publish the
/// outcome, repeat until shutdown.
fn runner_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut st = inner.dispatch.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                st.release_parked();
                if st.shutdown {
                    return;
                }
                if !st.paused {
                    if let Some(batch) = st.pick_batch(inner.coalesce) {
                        break batch;
                    }
                }
                // A parked retry bounds the sleep: wake when the earliest
                // backoff elapses even if no new work is submitted.
                if let Some(due) = st.earliest_parked() {
                    let wait = due
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    st = inner
                        .work
                        .wait_timeout(st, wait)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                } else {
                    st = inner.work.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        };
        inner.counters.running.fetch_add(1, Ordering::Relaxed);
        run_batch(inner, batch);
        inner.counters.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Map a contained solver panic to a typed error the caller can observe
/// (instead of the panic killing the runner thread and hanging every
/// waiter on the dispatch).
fn panic_to_error(payload: Box<dyn std::any::Any + Send>) -> SolveError {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    SolveError::DispatchPanic { detail }
}

/// Execute one dispatch. A lone job solves through `SolveSession::solve`
/// with its own cancel, progress and deadline plumbing; two or more share
/// one block solve (`solve_many`), bitwise identical to running them back
/// to back.
fn run_batch(inner: &Inner, batch: Vec<Submission>) {
    // Pre-dispatch gates: a job cancelled or expired while queued never
    // runs (and never touches its output buffer). `pick_batch` keeps
    // cancelled riders out under the dispatch lock, but a token can fire
    // between it and this point; such a job must end cancelled —
    // "cancellation before dispatch always works" — not run to Ok inside
    // a block solve that cannot observe its token.
    let batch: Vec<Submission> = batch
        .into_iter()
        .filter_map(|sub| {
            let error = if sub.shared.cancel.is_cancelled() {
                SolveError::Cancelled
            } else if sub.expired() {
                sub.deadline_exceeded()
            } else {
                return Some(sub);
            };
            let x0 = sub.job.x0.clone();
            publish(inner, sub, x0, Err(error), None);
            None
        })
        .collect();
    if batch.is_empty() {
        return;
    }
    let batch_size = batch.len();
    let dispatched: Vec<(u64, Duration)> = batch
        .iter()
        .map(|s| {
            let seq = inner.counters.dispatch_seq.fetch_add(1, Ordering::Relaxed);
            (seq, s.submitted_at.elapsed())
        })
        .collect();
    let anchor = &batch[0];
    if batch_size > 1 {
        let cross_tenant = batch
            .iter()
            .filter(|s| s.job.tenant != anchor.job.tenant)
            .count() as u64;
        let c = &inner.counters;
        c.coalesced.fetch_add(batch_size as u64, Ordering::Relaxed);
        c.cross_tenant_coalesced
            .fetch_add(cross_tenant, Ordering::Relaxed);
    }
    for sub in &batch {
        sub.shared.mark_running();
    }
    let started = Instant::now();

    // Lease concurrency slots: parallel families get up to their
    // configured thread count, everything else runs single-slot. Elastic
    // shrink under load is safe — the paper's whole point is that the
    // asynchronous solvers converge at any thread count.
    let family = anchor.job.builder.configured_family();
    let want = if family.is_parallel() {
        anchor.job.builder.configured_threads().max(1)
    } else {
        1
    };
    let lease = inner.slots.lease_up_to(want);
    let threads = lease.granted();

    let mut builder = anchor.job.builder.clone().threads(threads);
    if batch_size == 1 {
        // Compose the scheduler's plumbing with the caller's stopping
        // rules: cancellation token, progress probe, and the tighter of
        // (caller wall-clock budget, time remaining until the deadline).
        let mut term = anchor
            .job
            .builder
            .configured_term()
            .clone()
            .with_cancel(anchor.shared.cancel.clone())
            .with_progress(anchor.shared.progress.clone());
        if let Some(deadline_at) = anchor.deadline_at {
            let remaining = deadline_at.saturating_duration_since(Instant::now());
            term.wall_clock = Some(term.wall_clock.map_or(remaining, |w| w.min(remaining)));
        }
        builder = builder.term(term);
    }

    // Solve on scratch iterates: a submitted x0 is only replaced by a
    // *successful* solve, so every error path returns it untouched. The
    // catch_unwind contains solver panics as typed errors — a runner
    // thread must survive any job, or its waiters hang forever.
    let mut xs: Vec<Vec<f64>> = batch.iter().map(|s| s.job.x0.clone()).collect();
    let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<Vec<SolveReport>, SolveError> {
            let mut session = builder.build()?;
            let a = anchor.job.a.as_ref();
            if let [x] = xs.as_mut_slice() {
                return Ok(vec![session.solve(a, &anchor.job.b, x)?]);
            }
            let bs: Vec<&[f64]> = batch.iter().map(|s| s.job.b.as_slice()).collect();
            let mut xrefs: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
            session.solve_many(a, &bs, &mut xrefs)
        },
    ))
    .unwrap_or_else(|payload| Err(panic_to_error(payload)));
    drop(lease);
    // A dispatch error fails every job in it.
    let results: Vec<Result<SolveReport, SolveError>> = match solved {
        Ok(reports) => reports.into_iter().map(Ok).collect(),
        Err(e) => vec![Err(e); batch_size],
    };

    for ((sub, x), (result, (seq, queued))) in batch
        .into_iter()
        .zip(xs)
        .zip(results.into_iter().zip(dispatched))
    {
        let dispatch = Dispatch {
            seq,
            queued,
            started,
            threads,
            batch_size,
        };
        // A cancelled run maps to Cancelled with x0 handed back, so no
        // partial iterate leaks; a batch can only observe a token the
        // caller put on the shared builder (batchability requires
        // identical builders).
        let expired = sub.expired();
        let (x, result) = match result {
            Ok(rep) if rep.cancelled => (sub.job.x0.clone(), Err(SolveError::Cancelled)),
            Ok(rep) if rep.stopped_on_budget && expired => {
                (sub.job.x0.clone(), Err(sub.deadline_exceeded()))
            }
            Ok(rep) => (x, Ok(rep)),
            Err(e) => (sub.job.x0.clone(), Err(e)),
        };

        // A watchdog trip that survived the session's own recovery
        // ladder is retried at the scheduling layer: re-enqueue with
        // exponential backoff until the per-job cap or the tenant's retry
        // budget runs out, then quarantine with a typed terminal error.
        // Only a health-armed job can trip, and such a job never
        // coalesces. An expired deadline wins over a retry.
        let trip = match result {
            Err(e) if asyrgs_core::health::is_watchdog_trip(&e) => e,
            result => {
                publish(inner, sub, x, result, Some(&dispatch));
                continue;
            }
        };
        if inner.retry_max == 0 || expired {
            publish(inner, sub, x, Err(trip), Some(&dispatch));
        } else if let Some(back) = try_requeue(inner, sub) {
            let result = Err(SolveError::Quarantined {
                attempts: back.retries.saturating_add(1),
                last_error: Box::new(trip),
            });
            publish(inner, back, x, result, Some(&dispatch));
        }
    }
}

/// Re-enqueue a tripped job with exponential backoff, charging the
/// tenant's retry budget. Returns the submission back when the per-job
/// cap or the tenant budget is exhausted (or the scheduler is shutting
/// down) — the caller quarantines it.
fn try_requeue(inner: &Inner, mut sub: Submission) -> Option<Submission> {
    let mut st = inner.dispatch.lock().unwrap_or_else(|e| e.into_inner());
    if st.shutdown || sub.retries >= inner.retry_max {
        return Some(sub);
    }
    let spent = st.retry_spent.entry(sub.job.tenant).or_insert(0);
    if *spent >= TENANT_RETRY_BUDGET {
        return Some(sub);
    }
    *spent += 1;
    sub.retries += 1;
    let backoff = inner
        .retry_backoff_ms
        .saturating_mul(1u64 << (sub.retries - 1).min(16));
    sub.not_before = Some(Instant::now() + Duration::from_millis(backoff));
    st.parked.push(sub);
    drop(st);
    inner.counters.retried.fetch_add(1, Ordering::Relaxed);
    inner.work.notify_all();
    None
}

/// A [`Scheduler`]-routed solve session: the drop-in migration target from
/// direct [`SolveSession`](asyrgs::session::SolveSession) use. Built by
/// [`Scheduler::session`]; every `solve` travels the admission queue and
/// weighted-fair dispatch, so many `ScheduledSession`s across threads
/// share the machine instead of each assuming exclusive ownership.
///
/// ```
/// use asyrgs::session::{SolverBuilder, SolverFamily};
/// use asyrgs_serve::{Scheduler, TenantId};
/// use std::sync::Arc;
///
/// let scheduler = Scheduler::with_defaults();
/// let a = Arc::new(asyrgs::workloads::laplace2d(6, 6));
/// let b = a.matvec(&vec![1.0; a.n_rows()]);
///
/// // Migration: builder.build()?.solve(&a, &b, &mut x) becomes
/// let session = scheduler
///     .session(SolverBuilder::new(SolverFamily::Cg))
///     .tenant(TenantId(9));
/// let mut x = vec![0.0; a.n_rows()];
/// let report = session.solve(&a, &b, &mut x).expect("cg converges");
/// assert!(report.converged_early);
/// ```
#[derive(Debug)]
pub struct ScheduledSession<'s> {
    scheduler: &'s Scheduler,
    builder: SolverBuilder,
    tenant: TenantId,
    weight: u32,
    deadline: Option<Duration>,
}

impl ScheduledSession<'_> {
    /// Account this session's jobs to the given tenant.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Fair-share weight for this session's jobs (clamped to at least 1).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Per-solve deadline applied to every job this session submits.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Solve `A x = b` through the scheduler, blocking until the job
    /// completes. `x` supplies the initial iterate and receives the
    /// solution; on any error it is left bitwise untouched. A full
    /// admission queue is retried with backoff (this is the blocking
    /// convenience path; use [`Scheduler::submit`] directly for
    /// non-blocking admission control).
    ///
    /// # Errors
    /// The configured family's usual [`SolveError`]s, plus
    /// [`SolveError::DeadlineExceeded`] /
    /// [`SolveError::Cancelled`] from the scheduling layer.
    pub fn solve(
        &self,
        a: &Arc<CsrMatrix>,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<SolveReport, SolveError> {
        let mut job = SolveJob::new(self.builder.clone(), Arc::clone(a), b.to_vec())
            .with_x0(x.to_vec())
            .with_tenant(self.tenant)
            .with_weight(self.weight);
        if let Some(d) = self.deadline {
            job = job.with_deadline(d);
        }
        let handle = loop {
            match self.scheduler.submit(job) {
                Ok(handle) => break handle,
                Err(SubmitError::Rejected { error, .. }) => return Err(error),
                Err(SubmitError::QueueFull { job: back }) => {
                    job = *back;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        let outcome = handle.wait();
        let report = outcome.result?;
        x.copy_from_slice(&outcome.x);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs::session::SolverFamily;
    use asyrgs_core::driver::Termination;
    use asyrgs_workloads::laplace2d;

    fn problem(side: usize) -> (Arc<CsrMatrix>, Vec<f64>) {
        let a = laplace2d(side, side);
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let b = a.matvec(&x_true);
        (Arc::new(a), b)
    }

    fn cg_builder() -> SolverBuilder {
        SolverBuilder::new(SolverFamily::Cg).term(Termination::sweeps(500).with_target(1e-10))
    }

    #[test]
    fn submit_wait_roundtrip_solves() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 2,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(8);
        let h = sched
            .submit(SolveJob::new(cg_builder(), Arc::clone(&a), b.clone()))
            .unwrap();
        let out = h.wait();
        let rep = out.result.expect("cg converges");
        assert!(rep.converged_early);
        assert!(out.stats.dispatch_seq.is_some());
        assert!(out.stats.threads_used >= 1);
        let stats = sched.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.succeeded, 1);
    }

    #[test]
    fn submit_rejects_bad_shapes_and_lsq_families() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        });
        let (a, _) = problem(4);
        let err = sched
            .submit(SolveJob::new(cg_builder(), Arc::clone(&a), vec![1.0; 3]))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected {
                error: SolveError::DimensionMismatch { .. },
                ..
            }
        ));
        let err = sched
            .submit(SolveJob::new(
                SolverBuilder::new(SolverFamily::Rcd),
                Arc::clone(&a),
                vec![1.0; a.n_rows()],
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected {
                error: SolveError::MethodMismatch { .. },
                ..
            }
        ));
        // Builder knobs are validated at admission, not dispatch.
        let err = sched
            .submit(SolveJob::new(
                SolverBuilder::new(SolverFamily::AsyRgs).beta(5.0),
                Arc::clone(&a),
                vec![1.0; a.n_rows()],
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected {
                error: SolveError::InvalidBeta { .. },
                ..
            }
        ));
    }

    #[test]
    fn auto_jobs_resolve_policy_once_per_fingerprint() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(8);
        let h = sched
            .submit(SolveJob::auto(Arc::clone(&a), b.clone()))
            .unwrap();
        let rep = h.wait().result.expect("policy-picked solver converges");
        assert!(rep.final_rel_residual < 1e-8);
        let stats = sched.registry_stats();
        assert_eq!(stats.policy_probes, 1);
        assert_eq!(stats.policy_hits, 0);
        // Resubmission and preview reuse the cached decision bit-for-bit:
        // one probe ever, everything after is a hit.
        let d1 = sched.policy_preview(&a).unwrap();
        let h2 = sched.submit(SolveJob::auto(Arc::clone(&a), b)).unwrap();
        h2.wait().result.expect("cached decision still converges");
        let d2 = sched.policy_preview(&a).unwrap();
        assert_eq!(*d1, *d2);
        assert_eq!(d1.family, SolverFamily::Cg);
        let stats = sched.registry_stats();
        assert_eq!(stats.policy_probes, 1);
        assert_eq!(stats.policy_hits, 3);
    }

    #[test]
    fn explicit_jobs_never_touch_the_policy() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(8);
        let h = sched
            .submit(SolveJob::new(cg_builder(), Arc::clone(&a), b))
            .unwrap();
        h.wait().result.expect("cg converges");
        let stats = sched.registry_stats();
        assert_eq!(stats.policy_probes, 0);
        assert_eq!(stats.policy_hits, 0);
    }

    #[test]
    fn auto_rejects_what_no_solver_accepts() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        });
        let a = Arc::new(CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 2.0]));
        let err = sched
            .submit(SolveJob::auto(Arc::clone(&a), vec![1.0; 2]))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected {
                error: SolveError::ZeroDiagonal { .. },
                ..
            }
        ));
        // The failed resolution charged no probe and left no cache entry.
        let stats = sched.registry_stats();
        assert_eq!(stats.policy_probes, 0);
        assert_eq!(stats.policy_hits, 0);
    }

    #[test]
    fn submit_rejects_nonsymmetric_for_symmetric_families_and_routes_krylov() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        });
        // Upwind-style nonsymmetric but diagonally dominant operator.
        let n = 24;
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
        let a = Arc::new(coo.to_csr());
        let b = a.matvec(&vec![1.0; n]);
        // A symmetric-theory family is rejected at admission.
        let err = sched
            .submit(SolveJob::new(cg_builder(), Arc::clone(&a), b.clone()))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected {
                error: SolveError::DimensionMismatch { .. },
                ..
            }
        ));
        // The same system is served through the bicgstab family.
        let h = sched
            .submit(SolveJob::new(
                SolverBuilder::new(SolverFamily::Bicgstab)
                    .term(Termination::sweeps(500).with_target(1e-10)),
                Arc::clone(&a),
                b,
            ))
            .unwrap();
        let rep = h.wait().result.expect("bicgstab converges");
        assert!(rep.converged_early);
    }

    #[test]
    fn weighted_fair_dispatch_interleaves_tenants() {
        // Paused single-runner scheduler: dispatch order is deterministic,
        // so stride scheduling is directly observable via dispatch_seq.
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            paused: true,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(4);
        let quick = || {
            SolveJob::new(
                SolverBuilder::new(SolverFamily::Cg).term(Termination::sweeps(3)),
                Arc::clone(&a),
                b.clone(),
            )
        };
        let hi: Vec<JobHandle> = (0..8)
            .map(|_| {
                sched
                    .submit(quick().with_tenant(TenantId(1)).with_weight(4))
                    .unwrap()
            })
            .collect();
        let lo: Vec<JobHandle> = (0..2)
            .map(|_| {
                sched
                    .submit(quick().with_tenant(TenantId(2)).with_weight(1))
                    .unwrap()
            })
            .collect();
        sched.resume();
        let hi_seqs: Vec<u64> = hi
            .into_iter()
            .map(|h| h.wait().stats.dispatch_seq.unwrap())
            .collect();
        let lo_seqs: Vec<u64> = lo
            .into_iter()
            .map(|h| h.wait().stats.dispatch_seq.unwrap())
            .collect();
        // 4:1 weights over 10 jobs: the low tenant's first job must
        // dispatch in the first half, not after the high tenant drains.
        assert!(
            lo_seqs[0] < 5,
            "low-weight tenant starved: hi={hi_seqs:?} lo={lo_seqs:?}"
        );
        assert!(
            hi_seqs.iter().filter(|&&s| s < lo_seqs[1]).count() >= 4,
            "weights ignored: hi={hi_seqs:?} lo={lo_seqs:?}"
        );
    }

    #[test]
    fn scheduled_session_matches_direct_session() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 2,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(6);
        let mut x_direct = vec![0.0; a.n_rows()];
        cg_builder()
            .build()
            .unwrap()
            .solve(a.as_ref(), &b, &mut x_direct)
            .unwrap();
        let session = sched.session(cg_builder());
        let mut x_served = vec![0.0; a.n_rows()];
        session.solve(&a, &b, &mut x_served).unwrap();
        assert_eq!(x_direct, x_served, "queue routing must not change math");
    }

    #[test]
    fn panic_payloads_map_to_typed_errors() {
        let e = panic_to_error(Box::new("boom"));
        assert_eq!(
            e,
            SolveError::DispatchPanic {
                detail: "boom".into()
            }
        );
        let e = panic_to_error(Box::new(String::from("owned boom")));
        assert!(matches!(e, SolveError::DispatchPanic { detail } if detail == "owned boom"));
        let e = panic_to_error(Box::new(42u32));
        assert!(matches!(e, SolveError::DispatchPanic { detail } if detail.contains("non-string")));
    }

    #[test]
    fn caller_supplied_cancel_token_is_adopted_not_replaced() {
        use asyrgs_core::driver::CancelToken;
        // A token the caller put on the builder's own Termination must
        // keep working through the scheduler: cancelling it (never the
        // handle) stops the queued job.
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            paused: true,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(4);
        let token = CancelToken::new();
        let builder = SolverBuilder::new(SolverFamily::Rgs)
            .term(Termination::sweeps(1_000_000).with_cancel(token.clone()));
        let x0 = vec![9.5; a.n_rows()];
        let handle = sched
            .submit(SolveJob::new(builder, Arc::clone(&a), b).with_x0(x0.clone()))
            .unwrap();
        token.cancel();
        sched.resume();
        let out = handle.wait();
        assert_eq!(out.result.unwrap_err(), SolveError::Cancelled);
        assert_eq!(out.x, x0);
    }

    #[test]
    fn drop_cancels_queued_jobs() {
        let sched = Scheduler::new(SchedulerConfig {
            runners: 1,
            paused: true,
            ..SchedulerConfig::default()
        });
        let (a, b) = problem(4);
        let h = sched
            .submit(SolveJob::new(cg_builder(), Arc::clone(&a), b))
            .unwrap();
        drop(sched);
        let out = h.wait();
        assert_eq!(out.result.unwrap_err(), SolveError::Cancelled);
    }
}
