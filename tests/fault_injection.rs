//! Fault-injection integration tests: every fault kind the
//! [`FaultPlan`] harness can produce is either detected by the watchdog
//! (typed error, caller's iterate untouched) or absorbed by the
//! configured [`RecoveryPolicy`] — and cancellation/deadlines win races
//! against the recovery ladder.

use asyrgs::core::driver::CancelToken;
use asyrgs::prelude::*;
use asyrgs::workloads::{diag_dominant, laplace2d};
use std::time::Duration;

fn problem(side: usize) -> (CsrMatrix, Vec<f64>) {
    let a = laplace2d(side, side);
    let x_star = vec![1.0; a.n_rows()];
    let b = a.matvec(&x_star);
    (a, b)
}

/// A small SPD matrix whose undamped Jacobi iteration diverges
/// (`lambda_max(D^{-1}A) = 2.8 > 2`) but converges once damped below
/// `2 / 2.8`.
fn jacobi_divergent() -> (CsrMatrix, Vec<f64>) {
    let a = CsrMatrix::from_dense(3, 3, &[1.0, 0.9, 0.9, 0.9, 1.0, 0.9, 0.9, 0.9, 1.0]);
    let b = a.matvec(&[1.0, -1.0, 0.5]);
    (a, b)
}

// ---------------------------------------------------------------------------
// Detection: each fault kind produces a typed error (or degrades
// gracefully), and the caller's iterate is bitwise untouched on error.
// ---------------------------------------------------------------------------

#[test]
fn poisoned_update_is_detected_with_x_untouched() {
    let (a, b) = problem(6);
    let n = a.n_rows();
    let plan = FaultPlan::new(7).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 1,
        index: 5,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(2)
        .term(Termination::sweeps(20))
        .health(HealthConfig::non_finite_only())
        .fault_plan(plan)
        .build()
        .unwrap();
    let x0 = vec![1.25; n];
    let mut x = x0.clone();
    let err = session.solve(&a, &b, &mut x).unwrap_err();
    assert!(
        matches!(
            err,
            SolveError::NonFiniteDetected {
                solver: "asyrgs_solve",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(is_watchdog_trip(&err));
    assert_eq!(x, x0, "a tripped watchdog must leave x bitwise untouched");
}

#[test]
fn killed_worker_degrades_to_fewer_threads_and_completes() {
    let a = diag_dominant(150, 4, 2.5, 3);
    let b = a.matvec(&vec![1.0; 150]);
    let plan = FaultPlan::new(11).with_fault(FaultSpec::KillWorker {
        worker: 2,
        round: 1,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(4)
        .term(Termination::sweeps(60))
        .health(HealthConfig::non_finite_only())
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut x = vec![0.0; 150];
    let rep = session
        .solve(&a, &b, &mut x)
        .expect("kill must degrade, not fail");
    assert!(
        rep.threads < 4,
        "a killed worker must reduce the effective thread count, got {}",
        rep.threads
    );
    assert!(rep.final_rel_residual < 1e-4, "{}", rep.final_rel_residual);
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn stalled_worker_still_converges() {
    let a = diag_dominant(120, 4, 2.5, 5);
    let b = a.matvec(&vec![1.0; 120]);
    let plan = FaultPlan::new(13).with_fault(FaultSpec::StallWorker {
        worker: 1,
        round: 0,
        span: 10,
        millis: 2,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(3)
        .term(Termination::sweeps(50))
        .health(HealthConfig::default())
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut x = vec![0.0; 120];
    let rep = session.solve(&a, &b, &mut x).expect("a stall only delays");
    assert!(rep.final_rel_residual < 1e-6, "{}", rep.final_rel_residual);
}

#[test]
fn slow_clock_worker_still_converges() {
    let a = diag_dominant(100, 4, 2.5, 9);
    let b = a.matvec(&vec![1.0; 100]);
    let plan = FaultPlan::new(17).with_fault(FaultSpec::SlowClock {
        worker: 1,
        millis: 1,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyncJacobi)
        .threads(3)
        .term(Termination::sweeps(80))
        .health(HealthConfig::default())
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut x = vec![0.0; 100];
    let rep = session
        .solve(&a, &b, &mut x)
        .expect("a slow clock only delays");
    assert!(rep.final_rel_residual < 1e-4, "{}", rep.final_rel_residual);
}

// ---------------------------------------------------------------------------
// Recovery: the ladder restarts, dampens, or swaps families — and reports
// the attempt history.
// ---------------------------------------------------------------------------

#[test]
fn dampen_and_restart_recovers_divergent_jacobi() {
    let (a, b) = jacobi_divergent();
    let mut session = SolverBuilder::new(SolverFamily::Jacobi)
        .damping(1.0)
        .term(Termination::sweeps(2000).with_target(1e-8))
        .health(HealthConfig::default().with_divergence(50.0, 4))
        .recovery(RecoveryPolicy::DampenAndRestart {
            factor: 0.5,
            max_attempts: 3,
        })
        .build()
        .unwrap();
    let mut x = vec![0.0; 3];
    let rep = session
        .solve(&a, &b, &mut x)
        .expect("damping 0.5 converges on this matrix");
    assert!(
        !rep.recovery_attempts.is_empty(),
        "must have tripped at least once"
    );
    let first = &rep.recovery_attempts[0];
    assert_eq!(first.attempt, 1);
    assert_eq!(first.action, "dampen_and_restart");
    assert!(
        matches!(first.error, SolveError::Diverged { .. }),
        "{:?}",
        first.error
    );
    assert!(
        first.step < 1.0,
        "step must have been dampened, got {}",
        first.step
    );
    assert!(rep.final_rel_residual < 1e-6, "{}", rep.final_rel_residual);
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn fallback_sequential_escapes_poisoned_async_path() {
    // The poison refires on every async restart (the plan is
    // deterministic in the epoch counter), so the only ladder that
    // escapes is the one that leaves the async path entirely.
    let (a, b) = problem(6);
    let n = a.n_rows();
    let plan = FaultPlan::new(19).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 2,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(2)
        .term(Termination::sweeps(60))
        .health(HealthConfig::non_finite_only())
        .recovery(RecoveryPolicy::FallbackSequential)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut x = vec![0.0; n];
    let rep = session
        .solve(&a, &b, &mut x)
        .expect("the sequential sibling does not honor pool faults");
    assert_eq!(rep.recovery_attempts.len(), 1);
    assert_eq!(rep.recovery_attempts[0].action, "fallback_sequential");
    assert!(rep.final_rel_residual < 1e-2, "{}", rep.final_rel_residual);
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn exhausted_ladder_surfaces_typed_error_with_x_untouched() {
    // SynchronizeRestart cannot outrun a poison that refires every
    // attempt: the ladder exhausts and the last trip surfaces typed.
    let (a, b) = problem(5);
    let n = a.n_rows();
    let plan = FaultPlan::new(23).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 0,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(2)
        .term(Termination::sweeps(20))
        .health(HealthConfig::non_finite_only())
        .recovery(RecoveryPolicy::SynchronizeRestart { max_attempts: 2 })
        .fault_plan(plan)
        .build()
        .unwrap();
    let x0 = vec![3.5; n];
    let mut x = x0.clone();
    let err = session.solve(&a, &b, &mut x).unwrap_err();
    assert!(
        matches!(err, SolveError::NonFiniteDetected { .. }),
        "{err:?}"
    );
    assert_eq!(x, x0, "terminal recovery failure must leave x untouched");
}

#[test]
fn recovery_disabled_session_reports_no_attempts() {
    // A clean solve with recovery armed reports an empty attempt history.
    let a = diag_dominant(80, 4, 2.5, 7);
    let b = a.matvec(&vec![1.0; 80]);
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(2)
        .term(Termination::sweeps(40))
        .recovery(RecoveryPolicy::DampenAndRestart {
            factor: 0.5,
            max_attempts: 2,
        })
        .build()
        .unwrap();
    let mut x = vec![0.0; 80];
    let rep = session.solve(&a, &b, &mut x).unwrap();
    assert!(rep.recovery_attempts.is_empty());
    assert!(rep.final_rel_residual < 1e-6);
}

// ---------------------------------------------------------------------------
// Races: cancellation and deadlines beat the recovery ladder.
// ---------------------------------------------------------------------------

#[test]
fn cancellation_wins_over_recovery_retry() {
    let (a, b) = problem(5);
    let n = a.n_rows();
    let token = CancelToken::new();
    token.cancel();
    let plan = FaultPlan::new(29).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 0,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(2)
        .term(Termination::sweeps(1000).with_cancel(token))
        .health(HealthConfig::non_finite_only())
        .recovery(RecoveryPolicy::SynchronizeRestart { max_attempts: 5 })
        .fault_plan(plan)
        .build()
        .unwrap();
    let x0 = vec![0.5; n];
    let mut x = x0.clone();
    let err = session.solve(&a, &b, &mut x).unwrap_err();
    assert_eq!(
        err,
        SolveError::Cancelled,
        "cancel must pre-empt the retry ladder"
    );
    assert_eq!(x, x0);
}

#[test]
fn deadline_wins_over_recovery_retry() {
    let (a, b) = problem(5);
    let n = a.n_rows();
    let plan = FaultPlan::new(31).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 0,
    });
    let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(2)
        .term(Termination::sweeps(1000).with_wall_clock(Duration::ZERO))
        .health(HealthConfig::non_finite_only())
        .recovery(RecoveryPolicy::SynchronizeRestart { max_attempts: 5 })
        .fault_plan(plan)
        .build()
        .unwrap();
    let x0 = vec![0.5; n];
    let mut x = x0.clone();
    let err = session.solve(&a, &b, &mut x).unwrap_err();
    assert!(
        matches!(err, SolveError::DeadlineExceeded { .. }),
        "an exhausted budget must stop the ladder, got {err:?}"
    );
    assert_eq!(x, x0);
}

// ---------------------------------------------------------------------------
// Input hygiene: non-finite systems are rejected at every boundary with
// the iterate untouched.
// ---------------------------------------------------------------------------

#[test]
fn non_finite_inputs_rejected_across_families() {
    let (a, b) = problem(4);
    let n = a.n_rows();
    let mut bad_b = b.clone();
    bad_b[3] = f64::NAN;
    // A NaN on one side of a stored off-diagonal pair: the symmetry
    // admission never counts NaN as a violation, so the symmetric-theory
    // families must still reach the finite check and report it as such.
    let mut bad_a = a.clone();
    let k = (a.row_ptr()[1]..a.row_ptr()[2])
        .find(|&k| a.col_idx()[k] != 1)
        .expect("row 1 has an off-diagonal entry");
    bad_a.values_mut()[k] = f64::NAN;
    for (input, a, b) in [("b", &a, &bad_b), ("A", &bad_a, &b)] {
        for family in [
            SolverFamily::Rgs,
            SolverFamily::AsyRgs,
            SolverFamily::Jacobi,
            SolverFamily::AsyncJacobi,
            SolverFamily::Partitioned,
            SolverFamily::Cg,
            SolverFamily::Fcg,
        ] {
            assert!(family.requires_symmetric(), "{}", family.name());
            let mut session = SolverBuilder::new(family).threads(2).build().unwrap();
            let x0 = vec![2.0; n];
            let mut x = x0.clone();
            let err = session.solve(a, b, &mut x).unwrap_err();
            assert!(
                matches!(err, SolveError::NonFiniteInput { .. }),
                "{} with NaN in {input}: {err:?}",
                family.name()
            );
            assert_eq!(
                x,
                x0,
                "{} with NaN in {input}: x touched on rejected input",
                family.name()
            );
        }
    }
}

#[test]
fn non_finite_x0_rejected_with_message_locating_it() {
    let (a, b) = problem(4);
    let n = a.n_rows();
    let mut session = SolverBuilder::new(SolverFamily::Rgs).build().unwrap();
    let mut x = vec![0.0; n];
    x[1] = f64::INFINITY;
    let err = session.solve(&a, &b, &mut x).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("initial iterate x"), "{msg}");
    assert!(msg.contains("index 1"), "{msg}");
}

// ---------------------------------------------------------------------------
// Default-path purity: arming nothing changes nothing.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_off_is_bitwise_identical_to_default() {
    // The watchdog-off path must be branch-identical to a build without
    // the feature: an empty fault plan changes nothing. Bitwise where the
    // result is deterministic (RGS, Jacobi, and AsyRGS on one thread);
    // AsyRGS on two threads races by design, so there the two runs must
    // take the same sweeps to finite iterates whose relative residuals
    // agree within a factor of 2 (a 15-sweep run on this system lands in
    // 0.11–0.18).
    let (a, b) = problem(6);
    let n = a.n_rows();
    let solve_with = |builder: SolverBuilder, threads: usize| {
        let mut x = vec![0.0; n];
        let report = builder
            .threads(threads)
            .term(Termination::sweeps(15))
            .build()
            .unwrap()
            .solve(&a, &b, &mut x)
            .unwrap();
        (x, report)
    };
    for (family, threads) in [
        (SolverFamily::Rgs, 2),
        (SolverFamily::AsyRgs, 1),
        (SolverFamily::Jacobi, 2),
    ] {
        let (plain, _) = solve_with(SolverBuilder::new(family), threads);
        let (empty_plan, _) = solve_with(
            SolverBuilder::new(family).fault_plan(FaultPlan::new(1)),
            threads,
        );
        assert_eq!(
            plain,
            empty_plan,
            "{} at threads({threads}): empty fault plan changed bits",
            family.name()
        );
    }
    let runs = [
        solve_with(SolverBuilder::new(SolverFamily::AsyRgs), 2),
        solve_with(
            SolverBuilder::new(SolverFamily::AsyRgs).fault_plan(FaultPlan::new(1)),
            2,
        ),
    ];
    for (x, report) in &runs {
        assert!(x.iter().all(|v| v.is_finite()), "non-finite iterate");
        assert_eq!(report.records.last().map(|r| r.sweep), Some(15));
        assert_eq!(report.iterations, runs[0].1.iterations);
    }
    let (plain, empty_plan) = (runs[0].1.final_rel_residual, runs[1].1.final_rel_residual);
    assert!(
        plain.max(empty_plan) <= 2.0 * plain.min(empty_plan),
        "asyrgs at threads(2): relative residuals {plain:e} and {empty_plan:e} differ by more than 2x"
    );
}
