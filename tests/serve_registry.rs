//! Content-addressed matrix registry, end to end through the scheduler:
//! fingerprint stability, cross-tenant dedup and coalescing, eviction
//! pinning, warm-start semantics (including the quarantine fallback), and
//! the per-fingerprint policy cache under racing first submissions.
//!
//! Everything here drives the public `asyrgs-serve` surface — jobs go
//! through `Scheduler::submit` exactly as tenants would, and the registry
//! is observed only via `registry_stats`, `artifacts`, and job outcomes.

use asyrgs::policy::KAPPA_FLEX;
use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs::sparse::dense::norm2;
use asyrgs::sparse::CsrMatrix;
use asyrgs_core::atomic::SharedVec;
use asyrgs_core::driver::Termination;
use asyrgs_core::error::SolveError;
use asyrgs_serve::{MatrixFingerprint, Scheduler, SchedulerConfig, SolveJob, TenantId};
use asyrgs_workloads::{diag_dominant, laplace2d};
use std::sync::{Arc, Barrier};

fn problem(side: usize) -> (CsrMatrix, Vec<f64>) {
    let a = laplace2d(side, side);
    let x_true: Vec<f64> = (0..a.n_rows())
        .map(|i| ((i * 7) % 11) as f64 / 11.0)
        .collect();
    let b = a.matvec(&x_true);
    (a, b)
}

/// `||b - A x|| / ||b||`, recomputed outside the solver.
fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let r: Vec<f64> = a.matvec(x).iter().zip(b).map(|(ax, b)| b - ax).collect();
    norm2(&r) / norm2(b)
}

fn rgs(sweeps: usize) -> SolverBuilder {
    SolverBuilder::new(SolverFamily::Rgs).term(Termination::sweeps(sweeps))
}

#[test]
fn fingerprint_stable_across_clones_and_sharedvec_striping() {
    // The fingerprint is a function of matrix *content*: a clone hashes
    // identically, and values round-tripped through `SharedVec`'s
    // cache-line-striped storage (the solver's shared-iterate path) come
    // back bitwise and so re-fingerprint identically.
    let (a, _) = problem(7);
    let fp = MatrixFingerprint::of(&a);
    assert_eq!(fp, MatrixFingerprint::of(&a.clone()));

    let striped = SharedVec::from_slice(a.values());
    let mut roundtrip = a.clone();
    roundtrip.values_mut().copy_from_slice(&striped.snapshot());
    assert_eq!(
        fp,
        MatrixFingerprint::of(&roundtrip),
        "SharedVec striping must not perturb value bits"
    );

    // And it is content-addressed, not allocation-addressed: a one-ulp
    // nudge changes it.
    let mut nudged = a.clone();
    let v = nudged.values()[0];
    nudged.values_mut()[0] = f64::from_bits(v.to_bits() + 1);
    assert_ne!(fp, MatrixFingerprint::of(&nudged));
}

#[test]
fn identical_matrices_from_two_tenants_dedup_to_one_entry() {
    // Two tenants materialize their own copies of the same operator; the
    // registry must admit one canonical entry and count the second
    // submission as a hit.
    let (a, b) = problem(6);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let h1 = sched
        .submit(SolveJob::new(rgs(20), Arc::new(a.clone()), b.clone()).with_tenant(TenantId(1)))
        .unwrap();
    let h2 = sched
        .submit(SolveJob::new(rgs(20), Arc::new(a.clone()), b).with_tenant(TenantId(2)))
        .unwrap();
    h1.wait().result.expect("valid solve");
    h2.wait().result.expect("valid solve");

    let reg = sched.registry_stats();
    assert_eq!(reg.misses, 1, "first submission registers the matrix");
    assert_eq!(reg.hits, 1, "second submission dedups onto it");
    assert_eq!(reg.entries, 1);
    assert_eq!(reg.collisions, 0);
    assert!(sched.artifacts(MatrixFingerprint::of(&a)).is_some());
}

#[test]
fn eviction_respects_in_flight_pins_then_reclaims() {
    // A 1-byte budget makes every entry instantly over-budget — but
    // eviction must never drop a matrix whose job is still in flight.
    // With the scheduler paused, both queued jobs pin their entries, so
    // the registry stays (over budget) intact; once the jobs complete and
    // release their pins, the LRU sweep reclaims.
    let (a, b) = problem(6);
    let (a2, b2) = {
        let a2 = laplace2d(5, 5);
        let b2 = a2.matvec(&vec![1.0; a2.n_rows()]);
        (a2, b2)
    };
    let fp_a = MatrixFingerprint::of(&a);
    let fp_a2 = MatrixFingerprint::of(&a2);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        registry_max_bytes: 1,
        ..SchedulerConfig::default()
    });
    let h1 = sched
        .submit(SolveJob::new(rgs(20), Arc::new(a), b).with_tenant(TenantId(1)))
        .unwrap();
    let h2 = sched
        .submit(SolveJob::new(rgs(20), Arc::new(a2), b2).with_tenant(TenantId(2)))
        .unwrap();

    // Queued ⇒ pinned ⇒ present, no matter how far over budget.
    assert!(sched.artifacts(fp_a).is_some(), "pinned entry must survive");
    assert!(
        sched.artifacts(fp_a2).is_some(),
        "pinned entry must survive"
    );
    assert_eq!(sched.registry_stats().evictions, 0);

    sched.resume();
    h1.wait().result.expect("valid solve");
    h2.wait().result.expect("valid solve");

    let reg = sched.registry_stats();
    assert_eq!(reg.evictions, 2, "released entries reclaimed under budget");
    assert_eq!(reg.entries, 0);
    assert!(sched.artifacts(fp_a).is_none());
    assert!(sched.artifacts(fp_a2).is_none());
}

#[test]
fn cross_tenant_coalesced_solves_are_bitwise_equal_to_solo_dispatch() {
    // The PR 4 invariant, extended across tenants: jobs whose matrices
    // are bitwise identical but separately allocated get deduped onto one
    // canonical Arc at admission, which is exactly what lets the
    // coalescer merge them into one block dispatch — and every member's
    // solution must still equal the solo dispatch bit for bit.
    let (a, b) = problem(8);
    let builder = rgs(30);

    let solo_sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        coalesce: 1,
        ..SchedulerConfig::default()
    });
    let solo = solo_sched
        .submit(SolveJob::new(
            builder.clone(),
            Arc::new(a.clone()),
            b.clone(),
        ))
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
            // Every tenant brings its own allocation: without the
            // registry's canonicalization, none of these could coalesce.
            sched
                .submit(
                    SolveJob::new(builder.clone(), Arc::new(a.clone()), b.clone())
                        .with_tenant(TenantId(1 + i)),
                )
                .unwrap()
        })
        .collect();
    sched.resume();
    for h in handles {
        let out = h.wait();
        assert!(
            out.stats.batch_size > 1,
            "deduped identical jobs must coalesce, got batch_size {}",
            out.stats.batch_size
        );
        out.result.expect("fixed-sweep rgs cannot fail");
        assert_eq!(
            out.x, x_solo,
            "cross-tenant batched solve must be bitwise the solo solve"
        );
    }
    let stats = sched.stats();
    assert!(stats.coalesced >= 6);
    assert!(
        stats.cross_tenant_coalesced >= 5,
        "five of six batch members rode another tenant's anchor, got {}",
        stats.cross_tenant_coalesced
    );
    let reg = sched.registry_stats();
    assert_eq!((reg.misses, reg.hits), (1, 5));
}

#[test]
fn warm_start_seeds_resubmission_and_quarantine_falls_back_to_x0() {
    use asyrgs::prelude::{FaultPlan, FaultSpec, HealthConfig};
    let (a, b) = problem(7);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        retry_max: 1,
        retry_backoff_ms: 1,
        ..SchedulerConfig::default()
    });

    // First solve: opts into warm-start, so its solution is recorded for
    // this (fingerprint, tenant) pair.
    let out1 = sched
        .submit(
            SolveJob::new(rgs(10), Arc::new(a.clone()), b.clone())
                .with_tenant(TenantId(3))
                .with_warm_start(true),
        )
        .unwrap()
        .wait();
    out1.result.expect("valid solve");
    assert!(!out1.stats.warm_started, "nothing recorded yet");
    let x1 = out1.x;

    // Resubmission: default-zero x0 gets seeded from x1, and the result
    // is bitwise what a direct solve continuing from x1 produces.
    let out2 = sched
        .submit(
            SolveJob::new(rgs(10), Arc::new(a.clone()), b.clone())
                .with_tenant(TenantId(3))
                .with_warm_start(true),
        )
        .unwrap()
        .wait();
    out2.result.expect("valid solve");
    assert!(out2.stats.warm_started, "second solve must seed from x1");
    let mut expected = x1.clone();
    let mut session = rgs(10).build().expect("valid config");
    session.solve(&a, &b, &mut expected).expect("valid solve");
    assert_eq!(out2.x, expected, "warm-started solve continues from x1");
    assert_eq!(sched.registry_stats().warm_starts, 1);

    // A poisoned solve against the same fingerprint gets quarantined by
    // the watchdog/retry policy — which must invalidate this tenant's
    // stored solution (it is no longer trustworthy).
    let plan = FaultPlan::new(41).with_fault(FaultSpec::PoisonUpdate {
        worker: 0,
        round: 0,
        index: 0,
    });
    let out3 = sched
        .submit(
            SolveJob::new(
                SolverBuilder::new(SolverFamily::AsyRgs)
                    .threads(2)
                    .term(Termination::sweeps(20))
                    .health(HealthConfig::non_finite_only())
                    .fault_plan(plan),
                Arc::new(a.clone()),
                b.clone(),
            )
            .with_tenant(TenantId(3))
            .with_warm_start(true),
        )
        .unwrap()
        .wait();
    assert!(
        matches!(out3.result, Err(SolveError::Quarantined { .. })),
        "poison must quarantine: {:?}",
        out3.result
    );
    // The poisoned job was itself warm-seeded (out2's solution had been
    // recorded), and a quarantined job hands back its initial iterate —
    // which here is that seed, untouched.
    assert!(out3.stats.warm_started);
    assert_eq!(out3.x, out2.x, "quarantined job hands back its seeded x0");

    // After quarantine the tenant falls back to a cold start: no warm
    // seed, result bitwise identical to the very first cold solve.
    let out4 = sched
        .submit(
            SolveJob::new(rgs(10), Arc::new(a.clone()), b.clone())
                .with_tenant(TenantId(3))
                .with_warm_start(true),
        )
        .unwrap()
        .wait();
    out4.result.expect("valid solve");
    assert!(
        !out4.stats.warm_started,
        "quarantine must invalidate the stored warm solution"
    );
    assert_eq!(out4.x, x1, "cold restart reproduces the first solve");
}

#[test]
fn health_armed_jobs_stay_solo_even_when_deduped() {
    // PR 7 excluded health/recovery-armed jobs from coalescing (the block
    // kernels have no watchdog path). Registry dedup must not re-open
    // that door: identical health-armed jobs from different tenants share
    // a canonical Arc after admission, yet still dispatch solo.
    use asyrgs::prelude::HealthConfig;
    let (a, b) = problem(6);
    let builder = SolverBuilder::new(SolverFamily::Rgs)
        .term(Termination::sweeps(20))
        .health(HealthConfig::default());
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        paused: true,
        ..SchedulerConfig::default()
    });
    let handles: Vec<_> = (0..3)
        .map(|i| {
            sched
                .submit(
                    SolveJob::new(builder.clone(), Arc::new(a.clone()), b.clone())
                        .with_tenant(TenantId(1 + i)),
                )
                .unwrap()
        })
        .collect();
    sched.resume();
    for h in handles {
        let out = h.wait();
        out.result.expect("healthy solve");
        assert_eq!(
            out.stats.batch_size, 1,
            "health-armed jobs must not share a block driver"
        );
    }
    // The dedup itself still happened — exclusion is at dispatch, not
    // admission.
    let reg = sched.registry_stats();
    assert_eq!((reg.misses, reg.hits), (1, 2));
    assert_eq!(sched.stats().cross_tenant_coalesced, 0);
}

#[test]
fn racing_first_auto_submissions_share_one_entry_and_one_decision() {
    // Two tenants submit `auto` jobs for the same fresh matrix at once,
    // each with its own copy. Admission probes the policy with the
    // registry unlocked, so both may probe; whichever way the race goes,
    // one admission registers the matrix, the other dedups onto it, and
    // every auto resolution is counted exactly once as a probe or a hit.
    let (a, b) = problem(9);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 2,
        ..SchedulerConfig::default()
    });
    let start = Barrier::new(2);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let submitters: Vec<_> = (1..=2u64)
            .map(|tenant| {
                let (a, b, sched, start) = (a.clone(), b.clone(), &sched, &start);
                s.spawn(move || {
                    start.wait();
                    sched
                        .submit(SolveJob::auto(Arc::new(a), b).with_tenant(TenantId(tenant)))
                        .expect("an spd system is servable")
                        .wait()
                })
            })
            .collect();
        submitters
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    for out in outcomes {
        out.result.expect("the policy's pick converges");
        let rel = rel_residual(&a, &b, &out.x);
        assert!(rel < 1e-8, "relative residual {rel:e}");
    }
    let reg = sched.registry_stats();
    assert_eq!((reg.misses, reg.hits), (1, 1));
    assert_eq!(reg.policy_probes + reg.policy_hits, 2);
    assert!(reg.policy_probes >= 1);
    // The cached decision is the fresh probe's, served as a hit.
    let decision = sched.policy_preview(&a).expect("cached");
    assert_eq!(*decision, asyrgs::policy::decide_for(&a).expect("spd"));
    let after = sched.registry_stats();
    assert_eq!(after.policy_hits, reg.policy_hits + 1);
    assert_eq!(after.policy_probes, reg.policy_probes);
}

#[test]
fn rejected_auto_job_unpins_its_entry_and_keeps_its_x0() {
    // An auto job whose matrix no policy-selectable solver accepts is
    // rejected after its probe ran unlocked; the second registry hold must
    // release the admission pin, or a 1-byte budget could never evict it.
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        registry_max_bytes: 1,
        ..SchedulerConfig::default()
    });
    let a = Arc::new(CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 2.0]));
    let x0 = vec![3.25, -1.5];
    let err = sched
        .submit(SolveJob::auto(a, vec![1.0; 2]).with_x0(x0.clone()))
        .unwrap_err();
    let asyrgs_serve::SubmitError::Rejected { error, job } = err else {
        panic!("expected a typed rejection, got {err}");
    };
    assert!(matches!(error, SolveError::ZeroDiagonal { .. }));
    assert_eq!(job.x0(), &x0[..], "the rejected job keeps its x0 bitwise");
    let reg = sched.registry_stats();
    assert_eq!((reg.misses, reg.entries, reg.evictions), (1, 0, 1));
    assert_eq!(
        (reg.policy_probes, reg.policy_hits, reg.warm_starts),
        (0, 0, 0)
    );
}

#[test]
fn certified_auto_job_resolves_its_decision_without_a_probe() {
    // A strictly diagonally dominant SPD matrix: its Gershgorin bound
    // already fixes the `spd` pick, so admission resolves the decision
    // without a matvec. The resolution still counts once in
    // `policy_probes`, the count of decisions resolved.
    let a = Arc::new(diag_dominant(512, 8, 2.0, 7));
    let x_true: Vec<f64> = (0..a.n_rows()).map(|i| (i % 13) as f64 - 6.0).collect();
    let b = a.matvec(&x_true);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let out = sched
        .submit(SolveJob::auto(Arc::clone(&a), b.clone()))
        .expect("an spd system is servable")
        .wait();
    out.result.expect("the policy's pick converges");
    let rel = rel_residual(&a, &b, &out.x);
    assert!(rel < 1e-8, "relative residual {rel:e}");

    let decision = sched
        .artifacts(MatrixFingerprint::of(&a))
        .expect("registered")
        .policy
        .expect("resolved at admission");
    assert_eq!((decision.family, decision.rule), (SolverFamily::Cg, "spd"));
    assert_eq!(decision.profile.spectral.probe_matvecs, 0);
    assert_eq!(decision.profile.spectral.kappa, None);
    assert!(
        decision.profile.kappa_bound.is_some_and(|k| k < KAPPA_FLEX),
        "bound {:?}",
        decision.profile.kappa_bound
    );
    let reg = sched.registry_stats();
    assert_eq!((reg.policy_probes, reg.policy_hits), (1, 0));
}
