//! The shared solve driver: one implementation of stopping, recording, and
//! report assembly, consumed by **every** solver entry point in the
//! workspace.
//!
//! Before this layer existed, each of the twelve `*_solve` functions
//! re-implemented its own options fields, termination check, residual
//! cadence, and [`SweepRecord`] bookkeeping. The driver centralizes that
//! logic in three pieces:
//!
//! * [`Termination`] — when a solve must stop: a sweep budget, an optional
//!   relative-residual target, and an optional wall-clock budget;
//! * [`Recording`] — how often the (possibly expensive) residual is
//!   evaluated and recorded;
//! * [`Driver`] — the per-solve state machine: solvers call
//!   [`Driver::observe_lazy`] (residual computed only when this boundary
//!   records — the `Theta(nnz)` case of the Gauss-Seidel family) or
//!   [`Driver::observe`] (residual already maintained, as in CG) at each
//!   sweep boundary, then [`Driver::finish`] / [`Driver::finish_computed`]
//!   to assemble the [`SolveReport`].
//!
//! The module also hosts the shared input-validation helpers every public
//! entry point calls.
//!
//! # Worked example
//!
//! The driver is what a solver's main loop talks to — this is the whole
//! protocol:
//!
//! ```
//! use asyrgs_core::driver::{Driver, Recording, Termination};
//!
//! // Stop at 100 sweeps, a 1e-3 relative residual, or cancellation —
//! // whichever comes first; record every 2nd sweep.
//! let term = Termination::sweeps(100).with_target(1e-3);
//! let mut driver = Driver::new(&term, Recording::every(2));
//!
//! let mut residual: f64 = 1.0;
//! let mut sweep = 0;
//! loop {
//!     sweep += 1;
//!     residual *= 0.1; // stand-in for one sweep of real work
//!     // The closure only runs when this boundary records, so an
//!     // expensive residual is evaluated as rarely as the cadence allows.
//!     if driver.observe_lazy(sweep, sweep as u64 * 10, || (residual, None)) {
//!         break;
//!     }
//! }
//!
//! let report = driver.finish(sweep as u64 * 10, 1, || residual);
//! assert!(report.converged_early);
//! assert_eq!(report.sweeps_run(), 4); // cadence-2: target seen at sweep 4
//! assert!(report.final_rel_residual <= 1e-3);
//! ```

use crate::error::SolveError;
use crate::report::{SolveReport, SweepRecord};
use asyrgs_sparse::RowAccess;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A shareable cooperative-cancellation flag, checked by the [`Driver`] at
/// every sweep/epoch boundary.
///
/// Cloning the token shares the flag: any clone can
/// [`cancel`](CancelToken::cancel) and every solve holding a clone (via
/// [`Termination::with_cancel`]) stops at its next boundary with
/// [`SolveReport::cancelled`] set. The check is a single relaxed atomic
/// load, so threading a token through a solve costs nothing measurable and
/// changes no arithmetic: a solve that is never cancelled produces bitwise
/// identical output with or without a token.
///
/// ```
/// use asyrgs_core::driver::{CancelToken, Driver, Recording, Termination};
///
/// let token = CancelToken::new();
/// let term = Termination::sweeps(1_000_000).with_cancel(token.clone());
/// let mut driver = Driver::new(&term, Recording::end_only());
///
/// token.cancel(); // e.g. from another thread
/// assert!(driver.observe_lazy(1, 1, || (0.5, None)), "stops at the boundary");
/// assert!(driver.cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raise the flag: every solve observing this token stops at its next
    /// sweep/epoch boundary. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Tokens compare equal when they share one flag (clones of each other).
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

// ---------------------------------------------------------------------------
// Progress streaming
// ---------------------------------------------------------------------------

/// A point-in-time view of a running solve, read through a
/// [`ProgressProbe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Last sweep boundary that recorded.
    pub sweep: usize,
    /// Single-coordinate iterations applied up to that boundary.
    pub iterations: u64,
    /// Relative residual at that boundary (`None` until the first record).
    pub rel_residual: Option<f64>,
}

#[derive(Debug)]
struct ProgressState {
    sweep: AtomicUsize,
    iterations: AtomicU64,
    /// `f64::to_bits` of the last relative residual; `u64::MAX` = none yet
    /// (a NaN pattern no `f64::to_bits` of a recorded value produces).
    rel_bits: AtomicU64,
}

/// A shareable live-telemetry channel: the [`Driver`] publishes every
/// record it pushes, and any clone of the probe can
/// [`snapshot`](ProgressProbe::snapshot) the latest one without touching
/// the solve.
///
/// The three fields are individually atomic, so a snapshot taken mid-store
/// may mix two adjacent records; each field is always a value some record
/// actually had. That is the right trade for streaming progress — no lock
/// on the solver's hot path.
///
/// ```
/// use asyrgs_core::driver::{Driver, ProgressProbe, Recording, Termination};
///
/// let probe = ProgressProbe::new();
/// let term = Termination::sweeps(3).with_progress(probe.clone());
/// let mut driver = Driver::new(&term, Recording::every(1));
/// driver.observe_lazy(1, 64, || (0.25, None));
///
/// let snap = probe.snapshot(); // e.g. from another thread
/// assert_eq!(snap.sweep, 1);
/// assert_eq!(snap.iterations, 64);
/// assert_eq!(snap.rel_residual, Some(0.25));
/// ```
#[derive(Debug, Clone)]
pub struct ProgressProbe {
    state: Arc<ProgressState>,
}

/// `Default` must go through [`ProgressProbe::new`]: a derived default
/// would zero `rel_bits`, making a fresh probe report `Some(0.0)` instead
/// of "no record yet".
impl Default for ProgressProbe {
    fn default() -> Self {
        ProgressProbe::new()
    }
}

/// Sentinel for "no record published yet" in `ProgressState::rel_bits`.
const REL_BITS_NONE: u64 = u64::MAX;

impl ProgressProbe {
    /// A fresh probe with no records published.
    pub fn new() -> Self {
        ProgressProbe {
            state: Arc::new(ProgressState {
                sweep: AtomicUsize::new(0),
                iterations: AtomicU64::new(0),
                rel_bits: AtomicU64::new(REL_BITS_NONE),
            }),
        }
    }

    /// The latest published record (see the type docs for the tearing
    /// caveat).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let bits = self.state.rel_bits.load(Ordering::Acquire);
        ProgressSnapshot {
            sweep: self.state.sweep.load(Ordering::Acquire),
            iterations: self.state.iterations.load(Ordering::Acquire),
            rel_residual: (bits != REL_BITS_NONE).then(|| f64::from_bits(bits)),
        }
    }

    fn publish(&self, sweep: usize, iterations: u64, rel: f64) {
        self.state.sweep.store(sweep, Ordering::Release);
        self.state.iterations.store(iterations, Ordering::Release);
        self.state.rel_bits.store(rel.to_bits(), Ordering::Release);
    }
}

/// Probes compare equal when they share one state block (clones of each
/// other).
impl PartialEq for ProgressProbe {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

// ---------------------------------------------------------------------------
// Termination
// ---------------------------------------------------------------------------

/// When a solve must stop.
///
/// Exactly one of these is embedded in every solver's options struct. The
/// three criteria compose; precedence when several fire at the same sweep
/// boundary is **target before wall-clock before sweep budget**, so a
/// solve that reaches its residual target in its final allotted second
/// still reports `converged_early`.
#[derive(Debug, Clone, PartialEq)]
pub struct Termination {
    /// Hard sweep/iteration cap (one sweep = `n` coordinate updates for
    /// the Gauss-Seidel family, one iteration for Krylov methods).
    pub max_sweeps: usize,
    /// Stop once the relative residual drops to this value (checked at
    /// record points for lazily-evaluated residuals, every sweep for
    /// maintained ones and under end-only recording).
    pub target_rel_residual: Option<f64>,
    /// Stop at the first sweep boundary after this much wall-clock time.
    pub wall_clock: Option<Duration>,
    /// Stop at the first sweep boundary after this token is cancelled
    /// (cooperative cancellation; the check is one relaxed atomic load).
    pub cancel: Option<CancelToken>,
    /// Publish every pushed record to this probe (live progress streaming
    /// for schedulers and dashboards).
    pub progress: Option<ProgressProbe>,
}

impl Termination {
    /// Run for exactly `n` sweeps (no residual target, no time budget).
    pub fn sweeps(n: usize) -> Self {
        Termination {
            max_sweeps: n,
            target_rel_residual: None,
            wall_clock: None,
            cancel: None,
            progress: None,
        }
    }

    /// Add a relative-residual target.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target_rel_residual = Some(target);
        self
    }

    /// Add a wall-clock budget.
    pub fn with_wall_clock(mut self, budget: Duration) -> Self {
        self.wall_clock = Some(budget);
        self
    }

    /// Observe a cooperative-cancellation token at every sweep boundary.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Stream every pushed record to a [`ProgressProbe`].
    pub fn with_progress(mut self, probe: ProgressProbe) -> Self {
        self.progress = Some(probe);
        self
    }
}

impl Default for Termination {
    fn default() -> Self {
        Termination::sweeps(10)
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Residual-recording cadence.
///
/// `every = 0` means "record only at the stopping boundary" — the cheapest
/// setting: one residual evaluation per solve, or, with a residual target,
/// one per sweep boundary until the target is met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recording {
    /// Record every this-many sweeps (`0` = stopping boundary only).
    pub every: usize,
}

impl Recording {
    /// Record every `k` sweeps.
    pub fn every(k: usize) -> Self {
        Recording { every: k }
    }

    /// Record only at the stopping boundary.
    pub fn end_only() -> Self {
        Recording { every: 0 }
    }

    /// Whether the cadence makes sweep `sweep` a record point.
    pub fn due(&self, sweep: usize) -> bool {
        self.every != 0 && sweep.is_multiple_of(self.every)
    }
}

impl Default for Recording {
    fn default() -> Self {
        Recording::every(1)
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Per-solve stopping/recording state machine.
pub struct Driver {
    term: Termination,
    record: Recording,
    start: Instant,
    records: Vec<SweepRecord>,
    converged: bool,
    out_of_time: bool,
    diverged: bool,
    cancelled: bool,
}

impl Driver {
    /// Start a solve under the given termination and recording rules. The
    /// wall clock starts now.
    pub fn new(term: &Termination, record: Recording) -> Self {
        Driver {
            term: term.clone(),
            record,
            start: Instant::now(),
            records: Vec::new(),
            converged: false,
            out_of_time: false,
            diverged: false,
            cancelled: false,
        }
    }

    /// The sweep budget (loop bound for the solver).
    pub fn max_sweeps(&self) -> usize {
        self.term.max_sweeps
    }

    /// Whether the residual target has been reached.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Whether the wall-clock budget expired before convergence.
    pub fn stopped_on_budget(&self) -> bool {
        self.out_of_time
    }

    /// Whether the [`CancelToken`] fired before convergence.
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    fn budget_spent(&self) -> bool {
        self.term
            .wall_clock
            .is_some_and(|d| self.start.elapsed() >= d)
    }

    fn cancel_requested(&self) -> bool {
        self.term.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    fn push(&mut self, sweep: usize, iterations: u64, rel: f64, err: Option<f64>) {
        if let Some(probe) = &self.term.progress {
            probe.publish(sweep, iterations, rel);
        }
        self.records.push(SweepRecord {
            sweep,
            iterations,
            rel_residual: rel,
            rel_error_anorm: err,
        });
        if let Some(t) = self.term.target_rel_residual {
            if rel <= t {
                self.converged = true;
            }
        }
        if !rel.is_finite() {
            self.diverged = true;
        }
    }

    /// Sweep boundary for solvers whose residual is **expensive**
    /// (`Theta(nnz)`): the observation closure runs only when this
    /// boundary records (cadence due, stopping boundary, or expired time
    /// budget), returning `(rel_residual, rel_error_anorm)`. The residual
    /// target is therefore checked at record points only — the
    /// Gauss-Seidel family's historical semantics.
    ///
    /// The exception is [`Recording::end_only`] with a residual target:
    /// there the only record point is the stopping boundary, which the
    /// target itself must find, so the closure runs at every boundary
    /// and the first one that meets the target records and stops, as in
    /// [`observe`](Self::observe). A cancelled boundary still skips it.
    ///
    /// A single closure produces both values so solvers can thread one
    /// set of `&mut` scratch buffers (snapshot, residual, error diff)
    /// through it without allocating per observation.
    ///
    /// Returns `true` when the solve must stop.
    pub fn observe_lazy(
        &mut self,
        sweep: usize,
        iterations: u64,
        observe: impl FnOnce() -> (f64, Option<f64>),
    ) -> bool {
        let last = sweep >= self.term.max_sweeps;
        let timeup = self.budget_spent();
        let cancel = self.cancel_requested();
        if self.record.due(sweep) || last || timeup {
            let (rel, err) = observe();
            self.push(sweep, iterations, rel, err);
        } else if self.record.every == 0 && !cancel {
            if let Some(target) = self.term.target_rel_residual {
                let (rel, err) = observe();
                if rel <= target {
                    self.push(sweep, iterations, rel, err);
                } else if !rel.is_finite() {
                    self.diverged = true;
                }
            }
        }
        self.out_of_time = timeup && !self.converged;
        // Cancellation does not force a (possibly Theta(nnz)) residual
        // evaluation: a cancelled solve's output is discarded, so the stop
        // must be as cheap as the atomic load that detected it.
        self.cancelled = cancel && !self.converged;
        self.converged || self.diverged || timeup || cancel || last
    }

    /// Sweep boundary for solvers that **maintain** their residual (CG's
    /// scalar recurrence, RCD's incremental residual): the target is
    /// checked every sweep; a record is emitted on cadence, at the
    /// stopping boundary, and at the moment of convergence.
    ///
    /// Returns `true` when the solve must stop.
    pub fn observe(
        &mut self,
        sweep: usize,
        iterations: u64,
        rel: f64,
        rel_error: Option<f64>,
    ) -> bool {
        let last = sweep >= self.term.max_sweeps;
        let timeup = self.budget_spent();
        let cancel = self.cancel_requested();
        let target_hit = self.term.target_rel_residual.is_some_and(|t| rel <= t);
        if self.record.due(sweep) || last || timeup || target_hit {
            self.push(sweep, iterations, rel, rel_error);
        } else if !rel.is_finite() {
            self.diverged = true;
        }
        self.out_of_time = timeup && !self.converged;
        self.cancelled = cancel && !self.converged;
        self.converged || self.diverged || timeup || cancel || last
    }

    /// Record this boundary unconditionally, regardless of cadence — for
    /// solver-specific stopping events (e.g. block CG freezing its last
    /// active column) that must appear in the trace. The residual target
    /// and divergence checks still apply.
    pub fn record_now(&mut self, sweep: usize, iterations: u64, rel: f64, err: Option<f64>) {
        self.push(sweep, iterations, rel, err);
    }

    /// Assemble the report, taking the final residual from the last record
    /// (every stopping boundary records except cancellation), or from
    /// `fallback` if the solve never reached a boundary
    /// (`max_sweeps == 0`). A cancelled solve with no records reports
    /// `NaN` instead of invoking `fallback`: the fallback is a
    /// `Theta(nnz)` residual computation in every solver, and a cancelled
    /// result is discarded anyway — the cancel path stays as cheap as the
    /// atomic load that detected it.
    pub fn finish(
        self,
        iterations: u64,
        threads: usize,
        fallback: impl FnOnce() -> f64,
    ) -> SolveReport {
        let final_rel = match self.records.last() {
            Some(r) => r.rel_residual,
            None if self.cancelled => f64::NAN,
            None => fallback(),
        };
        self.into_report(iterations, threads, final_rel)
    }

    /// Assemble the report with an independently computed final residual
    /// (solvers whose maintained residual drifts from the true one).
    pub fn finish_computed(self, iterations: u64, threads: usize, final_rel: f64) -> SolveReport {
        self.into_report(iterations, threads, final_rel)
    }

    fn into_report(self, iterations: u64, threads: usize, final_rel: f64) -> SolveReport {
        let mut report = SolveReport::empty();
        report.records = self.records;
        report.iterations = iterations;
        report.final_rel_residual = final_rel;
        report.wall_seconds = self.start.elapsed().as_secs_f64();
        report.threads = threads;
        report.converged_early = self.converged;
        report.stopped_on_budget = self.out_of_time;
        report.cancelled = self.cancelled;
        report
    }
}

// ---------------------------------------------------------------------------
// Shared input validation
// ---------------------------------------------------------------------------

/// Validate the shapes of a square-system solve `A x = b`.
///
/// The checks run in the historical order (square, `b`, `x`, emptiness),
/// so the first violated rule determines the returned variant.
pub fn ensure_square_system(
    solver: &'static str,
    n_rows: usize,
    n_cols: usize,
    b_len: usize,
    x_len: usize,
) -> Result<(), SolveError> {
    if n_rows != n_cols {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!("matrix must be square, got {n_rows} x {n_cols}"),
        });
    }
    if b_len != n_rows {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "right-hand side b has length {b_len} but the system has {n_rows} rows"
            ),
        });
    }
    if x_len != n_cols {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "solution vector x has length {x_len} but the system has {n_cols} unknowns"
            ),
        });
    }
    if n_rows == 0 {
        return Err(SolveError::EmptySystem { solver });
    }
    Ok(())
}

/// Validate the shapes of a multi-RHS square-system solve `A X = B`.
pub fn ensure_square_block_system(
    solver: &'static str,
    n_rows: usize,
    n_cols: usize,
    b_rows: usize,
    b_cols: usize,
    x_rows: usize,
    x_cols: usize,
) -> Result<(), SolveError> {
    if n_rows != n_cols {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!("matrix must be square, got {n_rows} x {n_cols}"),
        });
    }
    if b_rows != n_rows {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "right-hand-side block B has {b_rows} rows but the system has {n_rows}"
            ),
        });
    }
    if x_rows != n_cols {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!(
                "solution block X has {x_rows} rows but the system has {n_cols} unknowns"
            ),
        });
    }
    if b_cols != x_cols {
        return Err(SolveError::DimensionMismatch {
            solver,
            detail: format!("B has {b_cols} right-hand sides but X has {x_cols} columns"),
        });
    }
    if n_rows == 0 {
        return Err(SolveError::EmptySystem { solver });
    }
    Ok(())
}

/// Validate the step size `beta in (0, 2)`.
pub fn ensure_beta(beta: f64) -> Result<(), SolveError> {
    if beta > 0.0 && beta < 2.0 {
        Ok(())
    } else {
        Err(SolveError::InvalidBeta { beta })
    }
}

/// Validate the Jacobi damping factor `damping in (0, 1]`.
pub fn ensure_damping(damping: f64) -> Result<(), SolveError> {
    if damping > 0.0 && damping <= 1.0 {
        Ok(())
    } else {
        Err(SolveError::InvalidDamping { damping })
    }
}

/// Validate the worker thread count.
pub fn ensure_threads(threads: usize) -> Result<(), SolveError> {
    if threads >= 1 {
        Ok(())
    } else {
        Err(SolveError::ZeroThreads)
    }
}

/// Reject the first non-finite (NaN/Inf) entry of a dense input vector at
/// a solve boundary. `what` names the argument in the error's location
/// string, e.g. `"right-hand side b"`.
pub fn ensure_finite_slice(
    solver: &'static str,
    what: &'static str,
    v: &[f64],
) -> Result<(), SolveError> {
    for (i, &val) in v.iter().enumerate() {
        if !val.is_finite() {
            return Err(SolveError::NonFiniteInput {
                location: format!("{solver}: {what}"),
                index: i,
                value: val,
            });
        }
    }
    Ok(())
}

/// Reject non-finite stored matrix values at a solve boundary. The
/// reported index is the row holding the first offending entry.
pub fn ensure_finite_matrix<O: RowAccess>(solver: &'static str, a: &O) -> Result<(), SolveError> {
    for i in 0..a.n_rows() {
        let mut bad: Option<f64> = None;
        a.visit_row(i, |_, v| {
            if bad.is_none() && !v.is_finite() {
                bad = Some(v);
            }
        });
        if let Some(value) = bad {
            return Err(SolveError::NonFiniteInput {
                location: format!("{solver}: matrix values"),
                index: i,
                value,
            });
        }
    }
    Ok(())
}

/// All finite-input checks of a square-system solve in one call: matrix
/// values, right-hand side, then the initial iterate. Runs before any
/// output buffer is touched, preserving the rejected-iterate invariant.
pub fn ensure_finite_system<O: RowAccess>(
    solver: &'static str,
    a: &O,
    b: &[f64],
    x: &[f64],
) -> Result<(), SolveError> {
    ensure_finite_matrix(solver, a)?;
    ensure_finite_slice(solver, "right-hand side b", b)?;
    ensure_finite_slice(solver, "initial iterate x", x)
}

/// Invert a strictly positive diagonal into `out` (resized to match), the
/// allocation-amortized form the workspace entry points use. Positive
/// diagonals are what the SPD solvers require.
pub fn inverse_diag_into(diag: &[f64], out: &mut Vec<f64>) -> Result<(), SolveError> {
    out.clear();
    out.reserve(diag.len());
    for (i, &d) in diag.iter().enumerate() {
        if d <= 0.0 {
            return Err(SolveError::ZeroDiagonal {
                index: i,
                value: d,
                needs_positive: true,
            });
        }
        out.push(1.0 / d);
    }
    Ok(())
}

/// Invert a nonzero diagonal into `out` (Jacobi only needs invertibility,
/// not positivity).
pub fn inverse_diag_nonzero_into(diag: &[f64], out: &mut Vec<f64>) -> Result<(), SolveError> {
    out.clear();
    out.reserve(diag.len());
    for (i, &d) in diag.iter().enumerate() {
        if d == 0.0 {
            return Err(SolveError::ZeroDiagonal {
                index: i,
                value: d,
                needs_positive: false,
            });
        }
        out.push(1.0 / d);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(every: usize) -> Recording {
        Recording::every(every)
    }

    #[test]
    fn cadence_due_points() {
        let r = rec(3);
        assert!(!r.due(1) && !r.due(2) && r.due(3) && !r.due(4) && r.due(6));
        let end = Recording::end_only();
        for s in 1..100 {
            assert!(!end.due(s));
        }
        assert_eq!(Recording::default(), rec(1));
    }

    #[test]
    fn records_on_cadence_and_final_boundary() {
        let term = Termination::sweeps(10);
        let mut d = Driver::new(&term, rec(4));
        for sweep in 1..=10 {
            let stop = d.observe_lazy(sweep, sweep as u64, || (1.0 / sweep as f64, None));
            assert_eq!(stop, sweep == 10);
        }
        let rep = d.finish(10, 1, || unreachable!("records exist"));
        let sweeps: Vec<usize> = rep.records.iter().map(|r| r.sweep).collect();
        assert_eq!(sweeps, vec![4, 8, 10]);
        assert!((rep.final_rel_residual - 0.1).abs() < 1e-15);
        assert!(!rep.converged_early && !rep.stopped_on_budget);
    }

    #[test]
    fn record_every_zero_records_stopping_boundary_only() {
        let term = Termination::sweeps(7);
        let mut d = Driver::new(&term, Recording::end_only());
        let mut evaluations = 0usize;
        for sweep in 1..=7 {
            d.observe_lazy(sweep, sweep as u64, || {
                evaluations += 1;
                (0.5, None)
            });
        }
        assert_eq!(
            evaluations, 1,
            "lazy residual must be computed exactly once"
        );
        let rep = d.finish(7, 1, || unreachable!());
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].sweep, 7);
    }

    #[test]
    fn zero_sweep_budget_uses_fallback_residual() {
        let term = Termination::sweeps(0);
        let d = Driver::new(&term, rec(1));
        let rep = d.finish(0, 1, || 0.25);
        assert!(rep.records.is_empty());
        assert_eq!(rep.final_rel_residual, 0.25);
    }

    #[test]
    fn target_stops_early_and_marks_convergence() {
        let term = Termination::sweeps(100).with_target(1e-3);
        let mut d = Driver::new(&term, rec(1));
        let mut stopped_at = 0;
        for sweep in 1..=100 {
            if d.observe_lazy(sweep, sweep as u64, || (10f64.powi(-(sweep as i32)), None)) {
                stopped_at = sweep;
                break;
            }
        }
        assert_eq!(stopped_at, 3);
        assert!(d.converged());
        let rep = d.finish(3, 1, || unreachable!());
        assert!(rep.converged_early);
        assert!(!rep.stopped_on_budget);
        assert_eq!(rep.sweeps_run(), 3);
    }

    #[test]
    fn target_checked_only_at_record_points_when_lazy() {
        // Cadence 5: residual crosses the target at sweep 2, but the lazy
        // driver only sees it at sweep 5.
        let term = Termination::sweeps(100).with_target(1e-3);
        let mut d = Driver::new(&term, rec(5));
        let mut stopped_at = 0;
        for sweep in 1..=100 {
            if d.observe_lazy(sweep, sweep as u64, || (1e-6, None)) {
                stopped_at = sweep;
                break;
            }
        }
        assert_eq!(stopped_at, 5);
    }

    #[test]
    fn end_only_lazy_checks_target_every_sweep_and_records_the_stop() {
        // End-only cadence: no record point before the budget, so the
        // target is evaluated at every boundary instead. It is first met
        // at sweep 3, which is recorded and stops the solve.
        let term = Termination::sweeps(100).with_target(1e-3);
        let mut d = Driver::new(&term, Recording::end_only());
        let mut evaluations = 0usize;
        let mut stopped_at = 0;
        for sweep in 1..=100 {
            if d.observe_lazy(sweep, sweep as u64, || {
                evaluations += 1;
                (10f64.powi(-(sweep as i32)), None)
            }) {
                stopped_at = sweep;
                break;
            }
        }
        assert_eq!(stopped_at, 3);
        assert_eq!(evaluations, 3);
        let rep = d.finish(3, 1, || unreachable!("the stop was recorded"));
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].sweep, 3);
        assert!(rep.converged_early);
        // A non-finite residual on the way stops it as diverged, unrecorded.
        let mut d = Driver::new(&term, Recording::end_only());
        assert!(!d.observe_lazy(1, 1, || (1.0, None)));
        assert!(d.observe_lazy(2, 2, || (f64::NAN, None)));
        assert!(!d.converged());
        assert!(d.finish(2, 1, || f64::NAN).records.is_empty());
    }

    #[test]
    fn eager_observe_checks_target_every_sweep() {
        let term = Termination::sweeps(100).with_target(1e-3);
        let mut d = Driver::new(&term, Recording::end_only());
        let mut stopped_at = 0;
        for sweep in 1..=100 {
            if d.observe(
                sweep,
                sweep as u64,
                if sweep >= 2 { 1e-6 } else { 1.0 },
                None,
            ) {
                stopped_at = sweep;
                break;
            }
        }
        assert_eq!(stopped_at, 2);
        // Convergence forces a record even at cadence 0.
        let rep = d.finish(2, 1, || unreachable!());
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.records[0].sweep, 2);
        assert!(rep.converged_early);
    }

    #[test]
    fn wall_clock_budget_stops_and_is_reported() {
        let term = Termination::sweeps(1_000_000).with_wall_clock(Duration::from_millis(10));
        let mut d = Driver::new(&term, Recording::end_only());
        let mut sweeps = 0usize;
        loop {
            sweeps += 1;
            std::thread::sleep(Duration::from_millis(2));
            if d.observe_lazy(sweeps, sweeps as u64, || (0.5, None)) {
                break;
            }
        }
        assert!(sweeps < 1_000_000, "budget must fire long before the cap");
        let rep = d.finish(sweeps as u64, 1, || unreachable!());
        assert!(rep.stopped_on_budget);
        assert!(!rep.converged_early);
        // The budget boundary records even at cadence 0.
        assert_eq!(rep.records.len(), 1);
    }

    #[test]
    fn target_takes_precedence_over_wall_clock() {
        // Both fire at the same boundary: convergence wins.
        let term = Termination::sweeps(10)
            .with_target(1.0)
            .with_wall_clock(Duration::from_millis(1));
        let mut d = Driver::new(&term, rec(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.observe_lazy(1, 1, || (1e-9, None)));
        let rep = d.finish(1, 1, || unreachable!());
        assert!(rep.converged_early);
        assert!(!rep.stopped_on_budget, "convergence outranks the budget");
    }

    #[test]
    fn cancel_token_stops_at_the_next_boundary_without_observing() {
        let token = CancelToken::new();
        let term = Termination::sweeps(1000).with_cancel(token.clone());
        let mut d = Driver::new(&term, Recording::end_only());
        assert!(!d.observe_lazy(1, 1, || (0.9, None)));
        token.cancel();
        let mut evaluated = false;
        assert!(d.observe_lazy(2, 2, || {
            evaluated = true;
            (0.8, None)
        }));
        assert!(
            !evaluated,
            "cancellation must not force a lazy residual evaluation"
        );
        assert!(d.cancelled());
        // With no records, a cancelled finish must not run the (expensive)
        // fallback either — the result is discarded by the caller.
        let rep = d.finish(2, 1, || {
            unreachable!("fallback must not run when cancelled")
        });
        assert!(rep.final_rel_residual.is_nan());
        assert!(rep.cancelled);
        assert!(!rep.converged_early && !rep.stopped_on_budget);
    }

    #[test]
    fn convergence_outranks_cancellation_at_the_same_boundary() {
        let token = CancelToken::new();
        token.cancel();
        let term = Termination::sweeps(10).with_target(1.0).with_cancel(token);
        let mut d = Driver::new(&term, rec(1));
        assert!(d.observe_lazy(1, 1, || (1e-9, None)));
        assert!(d.converged() && !d.cancelled());
        let rep = d.finish(1, 1, || unreachable!());
        assert!(rep.converged_early && !rep.cancelled);
    }

    #[test]
    fn eager_observe_honors_cancellation() {
        let token = CancelToken::new();
        let term = Termination::sweeps(1000).with_cancel(token.clone());
        let mut d = Driver::new(&term, Recording::end_only());
        assert!(!d.observe(1, 1, 0.9, None));
        token.cancel();
        assert!(d.observe(2, 2, 0.8, None));
        assert!(d.cancelled());
    }

    #[test]
    fn cancel_token_clones_share_the_flag_and_compare_equal() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
        b.cancel();
        assert!(a.is_cancelled());
        assert!(!c.is_cancelled());
    }

    #[test]
    fn progress_probe_streams_the_latest_record() {
        let probe = ProgressProbe::new();
        assert_eq!(probe.snapshot().rel_residual, None);
        let term = Termination::sweeps(10).with_progress(probe.clone());
        let mut d = Driver::new(&term, rec(1));
        d.observe_lazy(1, 100, || (0.5, None));
        d.observe_lazy(2, 200, || (0.25, None));
        let snap = probe.snapshot();
        assert_eq!(snap.sweep, 2);
        assert_eq!(snap.iterations, 200);
        assert_eq!(snap.rel_residual, Some(0.25));
        // Clones share state; fresh probes do not compare equal.
        assert_eq!(probe, probe.clone());
        assert_ne!(probe, ProgressProbe::new());
    }

    #[test]
    fn non_finite_residual_stops_the_solve() {
        let term = Termination::sweeps(100);
        let mut d = Driver::new(&term, rec(1));
        assert!(!d.observe_lazy(1, 1, || (0.5, None)));
        assert!(d.observe_lazy(2, 2, || (f64::INFINITY, None)));
        let rep = d.finish(2, 1, || unreachable!());
        assert!(!rep.converged_early);
        assert!(rep.final_rel_residual.is_infinite());
    }

    #[test]
    fn error_closure_is_forwarded() {
        let term = Termination::sweeps(2);
        let mut d = Driver::new(&term, rec(1));
        d.observe_lazy(1, 1, || (0.5, Some(0.7)));
        d.observe_lazy(2, 2, || (0.25, None));
        let rep = d.finish(2, 4, || unreachable!());
        assert_eq!(rep.records[0].rel_error_anorm, Some(0.7));
        assert_eq!(rep.records[1].rel_error_anorm, None);
        assert_eq!(rep.threads, 4);
    }

    #[test]
    fn rejects_rectangular() {
        let err = ensure_square_system("t", 3, 4, 3, 4).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        assert!(err.to_string().contains("matrix must be square"));
    }

    #[test]
    fn rejects_bad_b() {
        let err = ensure_square_system("t", 4, 4, 5, 4).unwrap_err();
        assert!(err.to_string().contains("right-hand side b has length 5"));
    }

    #[test]
    fn rejects_bad_x() {
        let err = ensure_square_system("t", 4, 4, 4, 2).unwrap_err();
        assert!(err.to_string().contains("solution vector x has length 2"));
    }

    #[test]
    fn rejects_empty_system() {
        let err = ensure_square_system("t", 0, 0, 0, 0).unwrap_err();
        assert_eq!(err, SolveError::EmptySystem { solver: "t" });
    }

    #[test]
    fn rejects_block_mismatch() {
        let err = ensure_square_block_system("t", 4, 4, 4, 3, 4, 2).unwrap_err();
        assert!(err
            .to_string()
            .contains("B has 3 right-hand sides but X has 2"));
    }

    #[test]
    fn rejects_beta() {
        assert_eq!(
            ensure_beta(2.0).unwrap_err(),
            SolveError::InvalidBeta { beta: 2.0 }
        );
        assert_eq!(
            ensure_beta(0.0).unwrap_err(),
            SolveError::InvalidBeta { beta: 0.0 }
        );
        assert!(ensure_beta(1.0).is_ok());
    }

    #[test]
    fn rejects_damping_and_threads() {
        assert_eq!(
            ensure_damping(1.5).unwrap_err(),
            SolveError::InvalidDamping { damping: 1.5 }
        );
        assert!(ensure_damping(1.0).is_ok());
        assert_eq!(ensure_threads(0).unwrap_err(), SolveError::ZeroThreads);
        assert!(ensure_threads(1).is_ok());
    }

    #[test]
    fn rejects_non_finite_inputs() {
        let err = ensure_finite_slice("t", "right-hand side b", &[1.0, f64::NAN]).unwrap_err();
        assert!(matches!(err, SolveError::NonFiniteInput { index: 1, .. }));
        assert_eq!(
            err.to_string(),
            "t: right-hand side b: non-finite value NaN at index 1"
        );
        assert!(ensure_finite_slice("t", "x", &[0.0, -1.0, 1e300]).is_ok());

        let a = asyrgs_sparse::CsrMatrix::from_dense(2, 2, &[1.0, f64::INFINITY, 0.0, 1.0]);
        let err = ensure_finite_matrix("t", &a).unwrap_err();
        assert!(matches!(err, SolveError::NonFiniteInput { index: 0, .. }));
        assert_eq!(
            err.to_string(),
            "t: matrix values: non-finite value inf at index 0"
        );

        let good = asyrgs_sparse::CsrMatrix::identity(3);
        assert!(ensure_finite_system("t", &good, &[1.0; 3], &[0.0; 3]).is_ok());
        let err = ensure_finite_system("t", &good, &[1.0; 3], &[0.0, f64::NAN, 0.0]).unwrap_err();
        assert!(err.to_string().contains("initial iterate x"));
    }

    #[test]
    fn inverse_diag_reuses_and_reports_index() {
        let mut out = vec![9.0; 3];
        inverse_diag_into(&[2.0, 4.0], &mut out).unwrap();
        assert_eq!(out, vec![0.5, 0.25]);
        let err = inverse_diag_into(&[1.0, -2.0], &mut out).unwrap_err();
        assert_eq!(
            err,
            SolveError::ZeroDiagonal {
                index: 1,
                value: -2.0,
                needs_positive: true
            }
        );
        inverse_diag_nonzero_into(&[-2.0], &mut out).unwrap();
        assert_eq!(out, vec![-0.5]);
        let err = inverse_diag_nonzero_into(&[1.0, 0.0], &mut out).unwrap_err();
        assert!(matches!(err, SolveError::ZeroDiagonal { index: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "beta must lie in (0, 2)")]
    fn ensure_beta_display_preserves_historical_panic_text() {
        // Callers that turn a rejection into a panic with
        // `unwrap_or_else(|e| panic!("{e}"))` see exactly this Display text,
        // the message the panicking validators printed before typed errors.
        ensure_beta(2.0).unwrap_or_else(|e| panic!("{e}"));
    }
}
