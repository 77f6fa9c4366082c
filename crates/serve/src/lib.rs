//! # asyrgs-serve
//!
//! A multi-tenant solve scheduler over the AsyRGS workspace: many
//! independent callers share one machine's worker pool instead of each
//! assuming exclusive ownership of a
//! [`SolveSession`](asyrgs::session::SolveSession).
//!
//! The source paper's result — asynchronous randomized Gauss–Seidel
//! converges despite stale, concurrently-updated state — is exactly the
//! property that makes solves *servable*: a solve does not need a quiet
//! machine, a fixed thread count, or exclusive pool ownership, so a
//! scheduler is free to pack many of them onto one set of long-lived
//! workers, shrink a job's parallelism under load, and stop any job
//! cooperatively at an epoch boundary.
//!
//! The moving parts:
//!
//! * [`SolveJob`] — one unit of servable work: a validated
//!   [`SolverBuilder`](asyrgs::session::SolverBuilder) configuration, the
//!   system (`Arc<CsrMatrix>` + right-hand side + initial iterate), a
//!   [`TenantId`], a fair-share weight, and an optional deadline;
//! * [`Scheduler`] — admission puts each job straight into its tenant's
//!   FIFO under the dispatch lock and refuses it with
//!   [`SubmitError::QueueFull`] once
//!   [`queue_capacity`](SchedulerConfig::queue_capacity) jobs are queued,
//!   so the backlog is bounded; runner threads dispatch by **stride
//!   scheduling** (weighted-fair across tenants, starvation-free) and
//!   lease concurrency slots from a shared
//!   [`SlotAccountant`](asyrgs_parallel::SlotAccountant) so co-scheduled
//!   solves never oversubscribe the cores;
//! * [`JobHandle`] — the caller's end: cancellation (cooperative, checked
//!   at sweep/epoch boundaries inside the solver driver), live
//!   [`progress`](JobHandle::progress) snapshots, and a blocking
//!   [`wait`](JobHandle::wait) for the [`JobOutcome`];
//! * [`ScheduledSession`] — the migration path from direct
//!   `SolveSession` use: same `solve(a, b, x)` shape, every call routed
//!   through the queue;
//! * the **matrix registry** ([`MatrixFingerprint`], [`MatrixArtifacts`])
//!   — admission content-addresses every submitted CSR,
//!   dedups bitwise-identical matrices across tenants onto one canonical
//!   `Arc` (which is what lets job coalescing merge same-matrix/same-config
//!   jobs *across* tenants), keeps those matrices and their lazily resolved
//!   solver-policy decisions under an LRU byte budget, and stores
//!   per-tenant warm-start solutions ([`SolveJob::with_warm_start`]).
//!   Admission hashes the matrix and runs any policy probe outside the
//!   registry lock.
//!
//! A job without an explicit family — [`SolveJob::auto`] — is routed by
//! the **solver policy** ([`asyrgs::policy`]): admission profiles the
//! matrix, runs a fixed-seed spectral probe on the submitting thread where
//! the probe can change the pick (a Gershgorin bound certifies strictly
//! diagonally dominant SPD matrices without one), and configures the job
//! from the resulting [`PolicyDecision`](asyrgs::policy::PolicyDecision).
//! The registry caches the finished decision on the registered matrix, so
//! repeat tenants of the same matrix skip the probe; a matrix that only
//! shares a fingerprint with it (a hash collision) gets neither its
//! decision nor its warm starts ([`Scheduler::policy_preview`] inspects
//! the decision without submitting; explicit-family jobs bypass the
//! policy entirely).
//!
//! Failed jobs (cancelled, deadline-expired, rejected) never expose a
//! partially-updated iterate: the outcome's `x` is bitwise the submitted
//! initial iterate unless the solve succeeded.
//!
//! ## Example
//!
//! ```
//! use asyrgs::session::{SolverBuilder, SolverFamily};
//! use asyrgs_core::driver::Termination;
//! use asyrgs_serve::{Scheduler, SchedulerConfig, SolveJob, TenantId};
//! use std::sync::Arc;
//!
//! let scheduler = Scheduler::new(SchedulerConfig {
//!     runners: 2,
//!     ..SchedulerConfig::default()
//! });
//!
//! // One shared system, two tenants submitting concurrently-runnable jobs.
//! let a = Arc::new(asyrgs::workloads::laplace2d(8, 8));
//! let b = a.matvec(&vec![1.0; a.n_rows()]);
//! let builder = SolverBuilder::new(SolverFamily::Cg)
//!     .term(Termination::sweeps(500).with_target(1e-10));
//!
//! let jobs: Vec<_> = (0..4)
//!     .map(|i| {
//!         let job = SolveJob::new(builder.clone(), Arc::clone(&a), b.clone())
//!             .with_tenant(TenantId(i % 2))
//!             .with_weight(if i % 2 == 0 { 4 } else { 1 });
//!         scheduler.submit(job).expect("valid job")
//!     })
//!     .collect();
//!
//! for handle in jobs {
//!     let outcome = handle.wait();
//!     let report = outcome.result.expect("cg converges on a Laplacian");
//!     assert!(report.converged_early);
//! }
//! assert_eq!(scheduler.stats().succeeded, 4);
//! ```

#![warn(missing_docs)]

mod job;
mod registry;
mod scheduler;

pub use job::{JobHandle, JobOutcome, JobStats, SolveJob, TenantId};
pub use registry::{MatrixArtifacts, MatrixFingerprint, RegistryStats};
pub use scheduler::{ScheduledSession, Scheduler, SchedulerConfig, SchedulerStats, SubmitError};
