//! Scheduler edge cases: cancellation before dispatch, cancellation
//! mid-epoch, deadlines shorter than one epoch, and queue fairness under a
//! starved low-priority tenant.
//!
//! These tests drive `asyrgs-serve` end to end through the facade's
//! session builder, pinning the service-boundary guarantees: a job that
//! fails for *any* scheduling reason (cancel, deadline, rejection) hands
//! back its initial iterate bitwise untouched.

use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs::sparse::CsrMatrix;
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::error::SolveError;
use asyrgs_serve::{Scheduler, SchedulerConfig, SolveJob, TenantId};
use asyrgs_workloads::laplace2d;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn problem(side: usize) -> (Arc<CsrMatrix>, Vec<f64>) {
    let a = laplace2d(side, side);
    let x_true: Vec<f64> = (0..a.n_rows())
        .map(|i| ((i * 7) % 11) as f64 / 11.0)
        .collect();
    let b = a.matvec(&x_true);
    (Arc::new(a), b)
}

/// A sentinel-valued initial iterate to detect any write on failure paths.
fn sentinel(n: usize) -> Vec<f64> {
    vec![42.25; n]
}

#[test]
fn cancellation_before_dispatch_returns_untouched_x0() {
    // Paused scheduler: the job sits in the queue; cancelling it there
    // must complete it without ever running the solver.
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(6);
    let x0 = sentinel(a.n_rows());
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(50)),
        Arc::clone(&a),
        b,
    )
    .with_x0(x0.clone());
    let handle = sched.submit(job).unwrap();
    handle.cancel();
    sched.resume();
    let out = handle.wait();
    assert_eq!(out.result.unwrap_err(), SolveError::Cancelled);
    assert_eq!(out.x, x0, "queued-then-cancelled job must not touch x");
    assert_eq!(out.stats.dispatch_seq, None, "must never have dispatched");
    assert_eq!(out.stats.threads_used, 0);
    assert_eq!(sched.stats().cancelled, 1);
}

#[test]
fn cancellation_mid_epoch_leaves_output_untouched() {
    // A huge sweep budget with per-sweep recording: the job runs long
    // enough that cancel() lands mid-solve, and the cooperative check at
    // the next sweep boundary stops it. The outcome must carry the
    // original iterate even though the solver had been updating a scratch
    // copy for thousands of sweeps.
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(24);
    let x0 = sentinel(a.n_rows());
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::Rgs)
            .term(Termination::sweeps(50_000_000))
            .record(Recording::every(1)),
        Arc::clone(&a),
        b,
    )
    .with_x0(x0.clone());
    let handle = sched.submit(job).unwrap();
    // Wait until the solve has demonstrably started, then cancel.
    let start = Instant::now();
    while handle.progress().sweep == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "solve never published progress"
        );
        std::thread::yield_now();
    }
    handle.cancel();
    let out = handle.wait();
    assert_eq!(out.result.unwrap_err(), SolveError::Cancelled);
    assert_eq!(out.x, x0, "cancelled mid-epoch: x must be bitwise x0");
    assert!(out.stats.dispatch_seq.is_some(), "this one did dispatch");
}

#[test]
fn deadline_shorter_than_one_epoch_expires_with_untouched_x0() {
    // A zero-length deadline is unmeetable no matter how fast the solver
    // is: whether it expires while queued or at the first sweep boundary,
    // the typed outcome and the untouched buffer are the same.
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(16);
    let x0 = sentinel(a.n_rows());
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(1_000_000)),
        Arc::clone(&a),
        b,
    )
    .with_x0(x0.clone())
    .with_deadline(Duration::ZERO);
    let handle = sched.submit(job).unwrap();
    let out = handle.wait();
    assert!(
        matches!(out.result, Err(SolveError::DeadlineExceeded { .. })),
        "got {:?}",
        out.result
    );
    assert_eq!(out.x, x0, "expired job must not touch x");
    assert_eq!(sched.stats().deadline_exceeded, 1);
}

#[test]
fn generous_deadline_does_not_fail_a_fast_job() {
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(6);
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::Cg).term(Termination::sweeps(500).with_target(1e-10)),
        Arc::clone(&a),
        b,
    )
    .with_deadline(Duration::from_secs(60));
    let out = sched.submit(job).unwrap().wait();
    let rep = out.result.expect("well within deadline");
    assert!(rep.converged_early);
}

#[test]
fn queue_capacity_bounds_the_backlog() {
    // A paused scheduler dispatches nothing, so every accepted job stays
    // queued: the bound must refuse the fifth and sixth job, hand each
    // back intact, and leave no registry pin behind for them.
    let sched = Scheduler::new(SchedulerConfig {
        runners: 2,
        paused: true,
        queue_capacity: 4,
        registry_max_bytes: 0,
        ..SchedulerConfig::default()
    });
    let builder =
        SolverBuilder::new(SolverFamily::Cg).term(Termination::sweeps(200).with_target(1e-10));
    let mut accepted = Vec::new();
    let mut refused = 0;
    for side in 3..9 {
        let (a, b) = problem(side);
        match sched.submit(SolveJob::new(builder.clone(), a, b.clone())) {
            Ok(handle) => accepted.push(handle),
            Err(asyrgs_serve::SubmitError::QueueFull { job }) => {
                assert_eq!(job.b(), b.as_slice(), "the refused job comes back intact");
                refused += 1;
            }
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    assert_eq!(accepted.len(), 4);
    assert_eq!(refused, 2);
    assert_eq!(sched.queued(), 4);
    assert_eq!(
        sched.registry_stats().entries,
        4,
        "a refused job must not hold a registry pin"
    );
    sched.resume();
    for handle in accepted {
        handle.wait().result.expect("cg converges");
    }
    assert_eq!(sched.registry_stats().entries, 0);
}

#[test]
fn starved_low_priority_tenant_still_dispatches_fairly() {
    // One paused runner, 12 weight-6 jobs from a heavy tenant, 3 weight-1
    // jobs from a light one. Strict priority would run all 12 heavy jobs
    // first; stride scheduling must interleave the light tenant at ~1/6
    // of the dispatch rate instead of starving it. Coalescing is disabled
    // so per-dispatch ordering is observable (batched dispatches would
    // merge all 15 identical jobs into one).
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        coalesce: 1,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(4);
    let quick = || {
        SolveJob::new(
            SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(2)),
            Arc::clone(&a),
            b.clone(),
        )
    };
    let heavy: Vec<_> = (0..12)
        .map(|_| {
            sched
                .submit(quick().with_tenant(TenantId(10)).with_weight(6))
                .unwrap()
        })
        .collect();
    let light: Vec<_> = (0..3)
        .map(|_| {
            sched
                .submit(quick().with_tenant(TenantId(20)).with_weight(1))
                .unwrap()
        })
        .collect();
    sched.resume();
    let heavy_seqs: Vec<u64> = heavy
        .into_iter()
        .map(|h| h.wait().stats.dispatch_seq.unwrap())
        .collect();
    let light_seqs: Vec<u64> = light
        .into_iter()
        .map(|h| h.wait().stats.dispatch_seq.unwrap())
        .collect();
    // Not starved: the light tenant's first job lands before the heavy
    // tenant's queue drains, and each light job arrives roughly one per
    // six heavy dispatches rather than bunched at the end.
    let last_heavy = *heavy_seqs.iter().max().unwrap();
    assert!(
        light_seqs[0] < last_heavy,
        "light tenant starved: heavy={heavy_seqs:?} light={light_seqs:?}"
    );
    assert!(
        light_seqs[1] < last_heavy,
        "light tenant only served once the queue drained: {light_seqs:?}"
    );
    // Weighted share respected: at least 4 heavy dispatches happen before
    // the light tenant's second job (6:1 weights ⇒ ideally 6).
    assert!(
        heavy_seqs.iter().filter(|&&s| s < light_seqs[1]).count() >= 4,
        "heavy tenant under-served: heavy={heavy_seqs:?} light={light_seqs:?}"
    );
}

#[test]
fn concurrent_tenants_all_complete_through_shared_pool() {
    // Smoke the real concurrent path: 4 runners, 16 jobs from 4 tenants,
    // every job solves the same system; all must succeed with the same
    // answer while sharing one slot budget.
    let sched = Scheduler::new(SchedulerConfig {
        runners: 4,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(10);
    let builder =
        SolverBuilder::new(SolverFamily::Cg).term(Termination::sweeps(800).with_target(1e-10));
    let handles: Vec<_> = (0..16)
        .map(|i| {
            sched
                .submit(
                    SolveJob::new(builder.clone(), Arc::clone(&a), b.clone())
                        .with_tenant(TenantId(i % 4))
                        .with_weight(1 + (i % 4) as u32),
                )
                .unwrap()
        })
        .collect();
    let mut solutions = Vec::new();
    for h in handles {
        let out = h.wait();
        let rep = out.result.expect("cg converges");
        assert!(rep.converged_early);
        solutions.push(out.x);
    }
    for s in &solutions[1..] {
        assert_eq!(
            s, &solutions[0],
            "same deterministic job must give one answer regardless of scheduling"
        );
    }
    let stats = sched.stats();
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.succeeded, 16);
}

#[test]
fn coalesced_batches_are_bitwise_identical_to_solo_dispatches() {
    // Same matrix + same configuration from three tenants, submitted to a
    // paused scheduler: the runner must coalesce them into one block
    // dispatch (batch_size > 1) and, per the PR 4 block-kernel alignment,
    // every job's solution must be bitwise what a solo dispatch produces.
    let (a, b) = problem(8);
    let builder = SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(30));

    let solo_sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        coalesce: 1,
        ..SchedulerConfig::default()
    });
    let solo = solo_sched
        .submit(SolveJob::new(builder.clone(), Arc::clone(&a), b.clone()))
        .unwrap()
        .wait();
    let x_solo = solo.x;
    assert_eq!(solo.stats.batch_size, 1);

    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        ..SchedulerConfig::default()
    });
    let handles: Vec<_> = (0..6)
        .map(|i| {
            sched
                .submit(
                    SolveJob::new(builder.clone(), Arc::clone(&a), b.clone())
                        .with_tenant(TenantId(1 + i % 3)),
                )
                .unwrap()
        })
        .collect();
    sched.resume();
    for h in handles {
        let out = h.wait();
        assert!(
            out.stats.batch_size > 1,
            "identical queued jobs must coalesce, got batch_size {}",
            out.stats.batch_size
        );
        out.result.expect("fixed-sweep rgs cannot fail");
        assert_eq!(
            out.x, x_solo,
            "batched solve must be bitwise the solo solve"
        );
    }
}

#[test]
fn jobs_with_deadlines_never_coalesce() {
    // A deadline job cannot share a block driver: its outcome must come
    // from a solo dispatch (batch_size 1) even when identical jobs are
    // queued around it.
    let (a, b) = problem(6);
    let builder = SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(10));
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        ..SchedulerConfig::default()
    });
    let plain: Vec<_> = (0..3)
        .map(|_| {
            sched
                .submit(SolveJob::new(builder.clone(), Arc::clone(&a), b.clone()))
                .unwrap()
        })
        .collect();
    let with_deadline = sched
        .submit(
            SolveJob::new(builder.clone(), Arc::clone(&a), b.clone())
                .with_deadline(Duration::from_secs(120)),
        )
        .unwrap();
    sched.resume();
    for h in plain {
        assert!(h.wait().stats.batch_size > 1, "plain jobs should coalesce");
    }
    let out = with_deadline.wait();
    assert_eq!(out.stats.batch_size, 1, "deadline job must dispatch solo");
    out.result.expect("generous deadline");
}

#[test]
fn poisoned_job_is_quarantined_after_retry_budget() {
    // A deterministic poison refires on every re-dispatch (the fault
    // plan keys off the per-attempt epoch counter), so retries cannot
    // save this job: the scheduler must park it with backoff, burn the
    // retry budget, and surface a Quarantined terminal error carrying
    // the attempt count — with x0 handed back untouched.
    use asyrgs::prelude::{FaultPlan, FaultSpec, HealthConfig};
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        retry_max: 2,
        retry_backoff_ms: 1,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(5);
    let x0 = sentinel(a.n_rows());
    let plan = FaultPlan::new(41).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 0,
    });
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::AsyRgs)
            .threads(2)
            .term(Termination::sweeps(20))
            .health(HealthConfig::non_finite_only())
            .fault_plan(plan),
        Arc::clone(&a),
        b,
    )
    .with_x0(x0.clone());
    let handle = sched.submit(job).unwrap();
    let out = handle.wait();
    match out.result.unwrap_err() {
        SolveError::Quarantined {
            attempts,
            last_error,
        } => {
            assert_eq!(attempts, 3, "retry_max 2 ⇒ 3 total attempts");
            assert!(
                matches!(*last_error, SolveError::NonFiniteDetected { .. }),
                "{last_error:?}"
            );
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert_eq!(out.x, x0, "quarantined job must hand back x0 untouched");
    assert_eq!(out.stats.retries, 2, "both retries consumed");
    let stats = sched.stats();
    assert_eq!(stats.retried, 2);
    assert_eq!(stats.quarantined, 1);
}

#[test]
fn retry_disabled_surfaces_raw_trip_error() {
    // With retry_max 0 the scheduler must not park the job: the first
    // watchdog trip surfaces as-is, not wrapped in Quarantined.
    use asyrgs::prelude::{FaultPlan, FaultSpec, HealthConfig};
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        retry_max: 0,
        ..SchedulerConfig::default()
    });
    let (a, b) = problem(5);
    let x0 = sentinel(a.n_rows());
    let plan = FaultPlan::new(43).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 0,
    });
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::AsyRgs)
            .threads(2)
            .term(Termination::sweeps(20))
            .health(HealthConfig::non_finite_only())
            .fault_plan(plan),
        Arc::clone(&a),
        b,
    )
    .with_x0(x0.clone());
    let out = sched.submit(job).unwrap().wait();
    assert!(
        matches!(out.result, Err(SolveError::NonFiniteDetected { .. })),
        "got {:?}",
        out.result
    );
    assert_eq!(out.x, x0);
    assert_eq!(out.stats.retries, 0);
    assert_eq!(sched.stats().retried, 0);
    assert_eq!(sched.stats().quarantined, 0);
}

#[test]
fn admission_rejects_non_finite_right_hand_side() {
    // Bad numerics are refused at the front door, before a runner ever
    // sees the job — the typed cause and the job both come back.
    let sched = Scheduler::with_defaults();
    let (a, mut b) = problem(5);
    b[3] = f64::NAN;
    let job = SolveJob::new(
        SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(10)),
        Arc::clone(&a),
        b,
    );
    match sched.submit(job) {
        Err(asyrgs_serve::SubmitError::Rejected { error, .. }) => {
            assert!(
                matches!(error, SolveError::NonFiniteInput { .. }),
                "{error:?}"
            );
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
}

#[test]
fn health_armed_jobs_never_coalesce() {
    // The block kernels have no watchdog path, so a health- or
    // recovery-armed job must dispatch solo even among identical peers.
    use asyrgs::prelude::{HealthConfig, RecoveryPolicy};
    let (a, b) = problem(6);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        ..SchedulerConfig::default()
    });
    let armed_builder = SolverBuilder::new(SolverFamily::Rgs)
        .term(Termination::sweeps(10))
        .health(HealthConfig::default());
    let recovery_builder = SolverBuilder::new(SolverFamily::Rgs)
        .term(Termination::sweeps(10))
        .recovery(RecoveryPolicy::SynchronizeRestart { max_attempts: 1 });
    let armed: Vec<_> = (0..3)
        .map(|_| {
            sched
                .submit(SolveJob::new(
                    armed_builder.clone(),
                    Arc::clone(&a),
                    b.clone(),
                ))
                .unwrap()
        })
        .collect();
    let recovering = sched
        .submit(SolveJob::new(recovery_builder, Arc::clone(&a), b.clone()))
        .unwrap();
    sched.resume();
    for h in armed {
        let out = h.wait();
        assert_eq!(
            out.stats.batch_size, 1,
            "health-armed jobs must not share a block driver"
        );
        out.result.expect("healthy solve");
    }
    let out = recovering.wait();
    assert_eq!(out.stats.batch_size, 1, "recovery-armed jobs dispatch solo");
    out.result.expect("healthy solve");
}

#[test]
fn scheduled_session_migration_path_round_trips() {
    // The README migration story: take an existing SolverBuilder, route it
    // through Scheduler::session, and get the same x as the direct path.
    let sched = Scheduler::with_defaults();
    let (a, b) = problem(8);
    let builder = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(1)
        .term(Termination::sweeps(40));

    let mut x_direct = vec![0.0; a.n_rows()];
    builder
        .clone()
        .build()
        .unwrap()
        .solve(a.as_ref(), &b, &mut x_direct)
        .unwrap();

    let served = sched.session(builder).tenant(TenantId(5)).weight(2);
    let mut x_served = vec![0.0; a.n_rows()];
    served.solve(&a, &b, &mut x_served).unwrap();
    assert_eq!(x_direct, x_served);
}
