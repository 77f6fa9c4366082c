//! The epoch loop of the stationary solvers (AsyRGS, RGS as its one-thread
//! case, both Jacobis, partitioned AsyRGS, asynchronous RCD): updates run
//! between quiescent points where the residual is observed, the
//! synchronize-and-restart scheme after Theorem 2. A solver validates its
//! input and builds its update body ([`Update`]); [`run`] owns the epoch
//! length, the round (inline or on the pool) with its fault hooks and a
//! killed worker's degrade, the observation (snapshot, pooled residual,
//! watchdog, last healthy snapshot, A-norm error when the [`Driver`]
//! records), the write-back and the report.

use crate::atomic::SharedVec;
use crate::driver::{Driver, Recording, Termination};
use crate::error::SolveError;
use crate::health::{HealthConfig, HealthMonitor};
use crate::report::SolveReport;
use crate::workspace::{resize_scratch, SolveWorkspace};
use asyrgs_parallel::{FaultPlan, WorkerPool};
use asyrgs_sparse::{dense, RowAccess};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// One epoch of updates, as an update body sees it.
pub(crate) struct Epoch {
    /// The claims the epoch covers, `start..limit`, counted in
    /// [`Plan::claims_per_sweep`] units per sweep.
    pub range: (u64, u64),
    /// Workers in this round.
    pub threads: usize,
    /// The round's claim counter, at `range.0` when the round starts.
    pub claims: AtomicU64,
}

/// A solver's update body: what runs between two quiescent points.
pub(crate) enum Update<'u> {
    /// The whole epoch on the caller's thread, over the plain iterate.
    Inline(&'u mut dyn FnMut(&mut [f64], &Epoch)),
    /// Worker `w`'s share of the epoch on the pool, over the shared iterate.
    Pool(&'u (dyn Fn(usize, &SharedVec, &Epoch) + Sync)),
}

/// What a solver hands the loop besides its update body.
pub(crate) struct Plan<'p> {
    /// The pool the rounds and the residual run on.
    pub pool: &'p WorkerPool,
    /// Workers asked for.
    pub threads: usize,
    /// The family's sweeps per epoch, if it fixes them ([`epoch_len`]).
    pub cadence: Option<usize>,
    /// Claim units per sweep: rows, row blocks, or the sweep itself.
    pub claims_per_sweep: u64,
    /// When to stop.
    pub term: &'p Termination,
    /// Recording cadence.
    pub record: Recording,
    /// Optional watchdog, checked at every epoch boundary, with the entry
    /// point its errors name.
    pub health: Option<(&'static str, &'p HealthConfig)>,
    /// Optional fault schedule, fired at each worker's round start.
    pub faults: Option<&'p FaultPlan>,
}

/// The loop's observation scratch, borrowed from a [`SolveWorkspace`]:
/// `[snap, resid, diff, healthy]`, then `shared`.
pub(crate) struct Scratch<'w>([&'w mut Vec<f64>; 4], &'w mut SharedVec);

impl<'w> Scratch<'w> {
    /// Split `ws` into the loop's scratch and the buffers update bodies
    /// borrow: the inverted diagonal, `aux` and the draw batch.
    pub fn split(
        ws: &'w mut SolveWorkspace,
    ) -> (Self, &'w [f64], &'w mut Vec<f64>, &'w mut Vec<usize>) {
        let vecs = [&mut ws.snap, &mut ws.resid, &mut ws.diff, &mut ws.healthy];
        let scratch = Scratch(vecs, &mut ws.shared);
        (scratch, &ws.dinv, &mut ws.aux, &mut ws.draws)
    }
}

/// A one-worker pool, which spawns no thread, for a solver that takes none.
pub(crate) fn inline_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(1))
}

/// Sweeps per epoch: the family's `cadence` when it fixes one (AsyRGS's
/// `epoch_sweeps`, the other asynchronous families' recording cadence, one
/// for synchronous Jacobi), else one sweep when a residual target or
/// wall-clock budget needs sweep boundaries, else the whole budget; at
/// least one. A watchdog checks only at quiescent points, so it forces one.
pub(crate) fn epoch_len(cadence: Option<usize>, term: &Termination, watched: bool) -> usize {
    let timed = term.target_rel_residual.is_some() || term.wall_clock.is_some();
    match cadence {
        _ if watched => 1,
        Some(k) => k.max(1),
        None if timed => 1,
        None => term.max_sweeps.max(1),
    }
}

/// Fire `faults`' pool-level faults for worker `w` at `round` (a kill
/// panics here) and return the slot below `n` it poisons, if any.
fn inject(faults: Option<&FaultPlan>, w: usize, round: u64, n: usize) -> Option<usize> {
    let plan = faults?;
    plan.apply_pool_faults(w, round);
    plan.poison_for(w, round).filter(|&i| i < n)
}

/// Run `update` epoch by epoch from the iterate `x` until `plan.term`
/// stops it, observing at every epoch boundary, then write the final
/// iterate into `x`. If `x_star` is supplied, A-norm errors are recorded.
///
/// # Errors
/// A watchdog trip returns its typed [`SolveError`] with `x` untouched.
pub(crate) fn run<O: RowAccess>(
    plan: &Plan<'_>,
    scratch: Scratch<'_>,
    a: &O,
    b: &[f64],
    x: &mut [f64],
    x_star: Option<&[f64]>,
    mut update: Update<'_>,
) -> Result<SolveReport, SolveError> {
    let Scratch([snap, resid, diff, healthy], shared) = scratch;
    let n = x.len();
    let norm_b = dense::norm2(b).max(f64::MIN_POSITIVE);
    // The pooled residual gives the serial residual's bits at every width.
    let rel_residual = |threads: usize, x: &[f64], resid: &mut [f64]| {
        a.par_residual_into_on(plan.pool, threads, b, x, resid);
        dense::norm2(resid) / norm_b
    };
    let reference = x_star.map(|xs| (xs, a.a_norm(xs).max(f64::MIN_POSITIVE)));
    // An inline update iterates on the snapshot buffer and a pooled one on
    // the shared vector, so `x` is written only at the end and a watchdog
    // trip leaves it untouched.
    let inline = matches!(update, Update::Inline(_));
    resize_scratch(snap, n);
    resize_scratch(resid, b.len());
    if x_star.is_some() {
        resize_scratch(diff, n);
    }
    if inline {
        snap.copy_from_slice(x);
    } else {
        shared.reset_from(x);
    }
    let epoch_sweeps = epoch_len(plan.cadence, plan.term, plan.health.is_some());
    let faults = plan.faults.filter(|f| !f.is_empty());
    let mut monitor = plan
        .health
        .map(|(solver, c)| (solver, HealthMonitor::new(c.clone())));
    let mut driver = Driver::new(plan.term, plan.record);
    let (mut threads, mut sweeps, mut round) = (plan.threads, 0, 0);

    while sweeps < driver.max_sweeps() {
        let start = sweeps as u64 * plan.claims_per_sweep;
        sweeps += epoch_sweeps.min(driver.max_sweeps() - sweeps);
        let epoch = Epoch {
            range: (start, sweeps as u64 * plan.claims_per_sweep),
            threads,
            claims: AtomicU64::new(start),
        };
        let mut run_round = || match &mut update {
            Update::Inline(body) => {
                if let Some(i) = inject(faults, 0, round, n) {
                    snap[i] = f64::NAN;
                }
                body(snap, &epoch);
            }
            Update::Pool(body) => plan.pool.run(threads, |w| {
                if let Some(i) = inject(faults, w, round, n) {
                    shared.store(i, f64::NAN);
                }
                body(w, shared, &epoch);
            }),
        };
        // Under a watchdog a killed worker degrades the solve to fewer
        // threads: the pool survives the panic and the surviving workers
        // drain the epoch's claims. Without one the panic propagates.
        if monitor.is_none() {
            run_round();
        } else if std::panic::catch_unwind(AssertUnwindSafe(run_round)).is_err() {
            threads = threads.saturating_sub(1).max(1);
        }

        // Quiescent: snapshot and measure, reusing the scratch.
        let measure = |snap: &mut [f64], resid: &mut [f64]| {
            if !inline {
                shared.snapshot_into(snap);
            }
            rel_residual(threads, snap, resid)
        };
        let mut rel = None;
        if let Some((solver, mon)) = monitor.as_mut() {
            let r = measure(snap, resid);
            mon.check_iterate(solver, round as usize, snap)?;
            mon.observe_residual(round as usize, r)?;
            healthy.clear();
            healthy.extend_from_slice(snap);
            rel = Some(r);
        }
        let stop = driver.observe_lazy(sweeps, (sweeps * n) as u64, || {
            let rel = rel.unwrap_or_else(|| measure(snap, resid));
            let err = reference.map(|(xs, norm)| {
                for ((d, s), xs) in diff.iter_mut().zip(snap.iter()).zip(xs) {
                    *d = s - xs;
                }
                a.a_norm_into(diff, resid) / norm
            });
            (rel, err)
        });
        if stop {
            break;
        }
        round += 1;
    }

    if inline {
        x.copy_from_slice(snap);
    } else {
        shared.snapshot_into(x);
    }
    let iterations = (sweeps * n) as u64;
    Ok(driver.finish(iterations, threads, || rel_residual(threads, x, resid)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_workloads::laplace2d;

    #[test]
    fn inline_and_pooled_rounds_observe_the_same_bits() {
        // In-order Gauss-Seidel sweeps, once over the plain iterate and
        // once by one pool worker over the shared one: the loop must
        // observe, record, stop and keep its healthy snapshot on the same
        // bits either way, with a watchdog and without.
        let a = laplace2d(6, 6);
        let n = a.n_rows();
        let x_star: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let b = a.matvec(&x_star);
        let pool = WorkerPool::new(1);
        let term = Termination::sweeps(40).with_target(1e-4);
        for health in [None, Some(HealthConfig::default())] {
            let plan = Plan {
                pool: &pool,
                threads: 1,
                cadence: Some(2),
                claims_per_sweep: 1,
                term: &term,
                record: Recording::every(3),
                health: health.as_ref().map(|h| ("test", h)),
                faults: None,
            };
            let mut runs = Vec::new();
            for pooled in [false, true] {
                let mut plain = |x: &mut [f64], e: &Epoch| {
                    for i in (e.range.0..e.range.1).flat_map(|_| 0..n) {
                        let r = b[i] - a.row_dot(i, x);
                        x[i] += r / 4.0;
                    }
                };
                let shared = |_: usize, x: &SharedVec, e: &Epoch| {
                    for i in (e.range.0..e.range.1).flat_map(|_| 0..n) {
                        let r = b[i] - a.row_dot_with(i, |c| x.load(c));
                        x.store(i, x.load(i) + r / 4.0);
                    }
                };
                let update = if pooled {
                    Update::Pool(&shared)
                } else {
                    Update::Inline(&mut plain)
                };
                let mut ws = SolveWorkspace::new();
                let (scratch, ..) = Scratch::split(&mut ws);
                let mut x = vec![0.0; n];
                let rep = run(&plan, scratch, &a, &b, &mut x, Some(&x_star), update).unwrap();
                let bits: Vec<u64> = x.iter().chain(&ws.healthy).map(|v| v.to_bits()).collect();
                runs.push((bits, rep.records, rep.final_rel_residual.to_bits()));
            }
            assert!(runs[0].1.len() > 2 && runs[0].1.iter().all(|r| r.rel_error_anorm.is_some()));
            assert!(runs[0] == runs[1], "watchdog {}", health.is_some());
        }
    }

    #[test]
    fn epoch_len_keeps_both_former_rules() {
        let budget = Termination::sweeps(40);
        let target = Termination::sweeps(40).with_target(1e-6);
        let clock = Termination::sweeps(40).with_wall_clock(std::time::Duration::from_secs(1));
        // A cadence wins; `Some(0)` (AsyRGS's `epoch_sweeps`) is one sweep.
        assert_eq!(epoch_len(Some(5), &target, false), 5);
        assert_eq!(epoch_len(Some(0), &budget, false), 1);
        // No cadence: one sweep when a target or a clock needs checking,
        // else the whole budget in one epoch.
        assert_eq!(epoch_len(None, &target, false), 1);
        assert_eq!(epoch_len(None, &clock, false), 1);
        assert_eq!(epoch_len(None, &budget, false), 40);
        assert_eq!(epoch_len(None, &Termination::sweeps(0), false), 1);
        // A watchdog forces one-sweep epochs whatever the cadence.
        assert_eq!(epoch_len(Some(5), &budget, true), 1);
        assert_eq!(epoch_len(None, &budget, true), 1);
    }
}
