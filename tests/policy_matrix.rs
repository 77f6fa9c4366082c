//! The solver-policy conformance matrix: for every registered scenario of
//! the corpus, the automatic policy (`asyrgs::policy::decide_for`, the
//! engine behind `SolverBuilder::auto` and `SolveJob::auto`) must
//!
//! * pick a family whose registered expectation tag is the **best
//!   available** among the policy-selectable candidates (`Converges`
//!   wherever any candidate converges — 19 of the 21 scenarios; the two
//!   scenarios with no converging cell at all, `skew_dominant` and
//!   `tall_lsq_noisy`, get their best `Progress` cell instead);
//! * land within **2x of the best candidate's iterations-to-tolerance**,
//!   measured under the exact `scenario_runner` harness the committed
//!   `BENCH_scenarios.json` numbers come from;
//! * be **bitwise deterministic**: the same matrix bits produce the same
//!   `PolicyDecision` on every call, at every pool width, and whether the
//!   decision came fresh from the probe or out of the serve registry's
//!   per-fingerprint cache;
//! * pick exactly what the **always-probe pipeline** (`probe_spectral`
//!   then `decide`) picks, although it skips the probe wherever
//!   `needs_probe` is false.
//!
//! Set `ASYRGS_SCENARIO_SMOKE=1` to restrict to the small-`n` subset (the
//! CI smoke job runs that under 1- and 2-wide global pools).

use asyrgs::policy::{decide, decide_for, needs_probe, probe_spectral, FAMILIES, KAPPA_FLEX};
use asyrgs::prelude::*;
use asyrgs::workloads::diag_dominant;
use asyrgs::workloads::scenarios::{
    all_scenarios, find, smoke_scenarios, Expectation, Scenario, ScenarioClass,
};
use asyrgs_serve::{Scheduler, SchedulerConfig, SolveJob};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The corpus scenarios whose Gershgorin bound certifies the `spd` pick,
/// so `decide_for` runs no spectral probe on them.
const CERTIFIED: [&str; 6] = [
    "diag_dominant_easy",
    "barely_spd",
    "banded_b4",
    "random_sparse_spd",
    "kappa_1e2",
    "reference_unit_diag",
];

fn scenarios_under_test() -> Vec<Scenario> {
    if std::env::var("ASYRGS_SCENARIO_SMOKE").as_deref() == Ok("1") {
        smoke_scenarios()
    } else {
        all_scenarios()
    }
}

/// Rank an expectation tag: higher is better.
fn rank(e: Expectation) -> u8 {
    match e {
        Expectation::Converges => 3,
        Expectation::Progress => 2,
        Expectation::MayDiverge => 1,
        Expectation::Rejects => 0,
    }
}

/// The best expectation tag any policy-selectable family carries on this
/// scenario.
fn best_available(sc: &Scenario) -> Expectation {
    FAMILIES
        .iter()
        .map(|f| sc.expectation(f.name()))
        .max_by_key(|&e| rank(e))
        .unwrap()
}

/// Run one `scenario x family` cell under the exact harness
/// `scenario_runner` uses for `BENCH_scenarios.json` (threads 2, record
/// every iteration, non-finite-only watchdog, `tol * 0.5` target) and
/// return (iterations-to-tolerance, final relative residual).
fn run_cell(sc: &Scenario, family: SolverFamily) -> (Option<u64>, f64) {
    let family_name = family.name();
    let built = sc.build();
    let mut session = SolverBuilder::new(family)
        .threads(2)
        .term(Termination::sweeps(sc.sweeps).with_target(sc.tol * 0.5))
        .record(Recording::every(1))
        .health(HealthConfig::non_finite_only())
        .build()
        .unwrap_or_else(|e| panic!("{}/{family_name}: bad config: {e}", sc.name));
    let mut x = vec![0.0; built.a.n_cols()];
    let rep = if matches!(family, SolverFamily::Rcd) {
        let op = LsqOperator::new(built.a.clone());
        session.solve_lsq(&op, &built.b, &mut x)
    } else {
        session.solve(&built.a, &built.b, &mut x)
    }
    .unwrap_or_else(|e| panic!("{}/{family_name}: rejected: {e}", sc.name));
    let to_tol = rep
        .records
        .iter()
        .find(|r| r.rel_residual.is_finite() && r.rel_residual <= sc.tol)
        .map(|r| r.iterations);
    (to_tol, rep.final_rel_residual)
}

/// The headline: on every scenario the policy picks a cell carrying the
/// best expectation tag any selectable family offers, with the evidence
/// trail (probe values, rule name) populated for its class.
#[test]
fn policy_picks_the_best_available_cell_on_every_scenario() {
    for sc in scenarios_under_test() {
        let built = sc.build();
        let d = decide_for(&built.a)
            .unwrap_or_else(|e| panic!("{}: policy rejected the scenario: {e}", sc.name));
        let picked = d.family.name();
        assert!(
            FAMILIES.contains(&d.family),
            "{}: policy picked non-candidate family {picked}",
            sc.name
        );
        assert_eq!(
            sc.expectation(picked),
            best_available(&sc),
            "{}: policy picked {picked} (rule {:?}), tag below the best available",
            sc.name,
            d.rule
        );
        // Evidence: the probe that justified the pick must be on record.
        match sc.class {
            ScenarioClass::LeastSquares => {
                assert_eq!(d.rule, "lsq-tall", "{}", sc.name);
                assert_eq!(
                    d.profile.spectral.probe_matvecs, 0,
                    "{}: the shape rule needs no probe",
                    sc.name
                );
            }
            ScenarioClass::SquareSpd => {
                // A probe, or the Gershgorin certificate that made it
                // unnecessary.
                assert!(d.profile.symmetric, "{}", sc.name);
                let s = d.profile.spectral;
                let probed = s.kappa.is_some() && s.probe_matvecs > 0;
                let certified = s.kappa.is_none()
                    && s.probe_matvecs == 0
                    && d.profile.kappa_bound.is_some_and(|k| k < KAPPA_FLEX);
                assert!(
                    probed || certified,
                    "{}: neither probed nor certified: {:?} (bound {:?})",
                    sc.name,
                    s,
                    d.profile.kappa_bound
                );
            }
            ScenarioClass::SquareNonsym => {
                assert!(!d.profile.symmetric, "{}", sc.name);
                assert!(d.profile.spectral.rho_jacobi.is_some(), "{}", sc.name);
            }
        }
        assert_eq!(
            d.profile.dominance_margin,
            sc.dominance_margin(&built),
            "{}: policy and scenario must agree on the canonical margin",
            sc.name
        );
    }
}

/// What a decision picks: family, rule, preconditioner, threads and
/// fallback chain, without the evidence.
type Pick = (
    SolverFamily,
    &'static str,
    PrecondSpec,
    usize,
    Vec<SolverFamily>,
);

fn pick(d: &PolicyDecision) -> Pick {
    (d.family, d.rule, d.precond, d.threads, d.fallback.clone())
}

/// The always-probe reference: `probe_spectral` forced, then the rules.
fn forced_probe(a: &CsrMatrix) -> PolicyDecision {
    let profile = MatrixProfile::structural(a).expect("profilable");
    decide(&profile.with_spectral(probe_spectral(a, &profile)))
}

/// Hold `decide_for` to the always-probe pipeline on one matrix: the same
/// family, rule, preconditioner, threads and fallback everywhere, the
/// whole decision bitwise wherever the probe still runs, and no evidence
/// at all where it does not. Returns whether the pick was certified by
/// the Gershgorin bound.
fn assert_matches_forced_probe(name: &str, a: &CsrMatrix) -> bool {
    let d = decide_for(a).expect("profilable");
    let forced = forced_probe(a);
    assert_eq!(
        pick(&d),
        pick(&forced),
        "{name}: the skipped probe changed the pick"
    );
    if needs_probe(&d.profile) {
        assert_eq!(
            d, forced,
            "{name}: a probed decision must be bitwise the forced one"
        );
        return false;
    }
    assert_eq!(
        d.profile,
        MatrixProfile {
            spectral: SpectralEvidence::default(),
            ..forced.profile
        },
        "{name}: a skipped probe leaves the structural profile alone"
    );
    let Some(bound) = d.profile.kappa_bound.filter(|&k| k < KAPPA_FLEX) else {
        return false; // `lsq-tall` or `sym-indefinite`: shape and sign decide.
    };
    // Why the certificate cannot change the pick: the estimate it skips
    // never exceeds the bound (up to rounding).
    let kappa = forced
        .profile
        .spectral
        .kappa
        .expect("a symmetric input probes");
    assert!(
        kappa <= bound * (1.0 + 1e-9),
        "{name}: estimate {kappa} above bound {bound}"
    );
    true
}

/// Skipping the probe never changes a pick: on every corpus scenario and
/// on strictly diagonally dominant matrices from weak (1.05) to strong (4)
/// dominance, `decide_for` agrees with the forced-probe pipeline, and the
/// certified corpus set is exactly [`CERTIFIED`].
#[test]
fn skipping_the_probe_never_changes_a_pick() {
    let scenarios = scenarios_under_test();
    let mut certified = BTreeSet::new();
    for sc in &scenarios {
        if assert_matches_forced_probe(sc.name, &sc.build().a) {
            certified.insert(sc.name);
        }
    }
    let expected: BTreeSet<_> = scenarios
        .iter()
        .map(|sc| sc.name)
        .filter(|name| CERTIFIED.contains(name))
        .collect();
    assert_eq!(certified, expected, "the certified corpus set moved");

    for n in [64, 512] {
        for dominance in [1.05, 1.5, 2.0, 4.0] {
            for seed in 0..8 {
                let a = diag_dominant(n, 8, dominance, seed);
                let name = format!("diag_dominant({n}, 8, {dominance}, {seed})");
                assert_matches_forced_probe(&name, &a);
            }
        }
    }
}

/// The efficiency bound behind `BENCH_policy.json`'s CI gate: on every
/// scenario with a converging candidate, the picked cell reaches the
/// scenario tolerance within 2x the iterations of the best candidate cell
/// (measured here, same harness, not read from the committed JSON). The
/// two scenarios with no converging cell must still make progress.
#[test]
fn policy_pick_is_within_2x_of_the_best_candidate() {
    for sc in scenarios_under_test() {
        let built = sc.build();
        let picked = decide_for(&built.a).unwrap().family;
        if best_available(&sc) != Expectation::Converges {
            let (_, residual) = run_cell(&sc, picked);
            assert!(
                residual.is_finite() && residual <= 1.0 + 1e-9,
                "{}: no converging candidate, picked {picked:?} must progress \
                 (residual {residual:.3e})",
                sc.name
            );
            continue;
        }
        let picked_to_tol = run_cell(&sc, picked)
            .0
            .unwrap_or_else(|| panic!("{}: picked {picked:?} never reached tolerance", sc.name));
        let best = FAMILIES
            .into_iter()
            .filter(|f| sc.expectation(f.name()) == Expectation::Converges)
            .filter_map(|f| {
                if f == picked {
                    Some(picked_to_tol)
                } else {
                    run_cell(&sc, f).0
                }
            })
            .min()
            .expect("a Converges-tagged candidate exists");
        assert!(
            picked_to_tol <= 2 * best,
            "{}: picked {picked:?} took {picked_to_tol} iterations to tolerance, \
             best candidate took {best} (2x bound exceeded)",
            sc.name
        );
    }
}

/// Determinism, and the pick of every corpus scenario: repeated calls on
/// the same matrix bits return bitwise-identical decisions, and each
/// scenario lands on the family, rule, preconditioner, threads and
/// fallback chain that `BENCH_policy.json` records for it.
#[test]
fn policy_decisions_are_bitwise_deterministic_with_documented_picks() {
    use SolverFamily::{Bicgstab, Cg, Fcg, Gmres, Rcd};
    let identity = PrecondSpec::Identity;
    let spd: Pick = (Cg, "spd", identity, 1, vec![Fcg, Gmres]);
    let illcond: Pick = (Fcg, "spd-illcond", identity, 1, vec![Cg, Gmres]);
    let asyrgs = PrecondSpec::AsyRgs { inner_sweeps: 2 };
    let dominant: Pick = (Bicgstab, "nonsym-dominant", asyrgs, 2, vec![Gmres]);
    let stiff: Pick = (Gmres, "nonsym-stiff", identity, 1, vec![]);
    let tall: Pick = (Rcd, "lsq-tall", identity, 1, vec![]);
    let documented = [
        ("laplace2d_16", &spd),
        ("laplace2d_32", &spd),
        ("laplace3d_8", &spd),
        ("gram_social", &illcond),
        ("diag_dominant_easy", &spd),
        ("barely_spd", &spd),
        ("banded_b4", &spd),
        ("random_sparse_spd", &spd),
        ("kappa_1e2", &spd),
        ("kappa_1e4", &illcond),
        ("kappa_1e6", &illcond),
        ("beyond_chazan_miranker", &spd),
        ("reference_unit_diag", &spd),
        ("conv_diff_pe_low", &dominant),
        ("conv_diff_pe_mid", &dominant),
        ("conv_diff_pe_high", &dominant),
        ("pagerank_style", &dominant),
        ("skew_perturbed_laplace", &dominant),
        ("skew_dominant", &stiff),
        ("tall_lsq", &tall),
        ("tall_lsq_noisy", &tall),
    ];
    let corpus: Vec<_> = all_scenarios().iter().map(|sc| sc.name).collect();
    let names: Vec<_> = documented.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, corpus, "every corpus scenario has a documented pick");
    for (name, expected) in documented {
        let sc = find(name).expect("registered");
        let built = sc.build();
        let d1 = decide_for(&built.a).unwrap();
        assert_eq!(&pick(&d1), expected, "{name}");
        // Bitwise-repeatable: same bits in, same decision out — including
        // the float evidence, which PartialEq compares exactly.
        let d2 = decide_for(&built.a).unwrap();
        assert_eq!(d1, d2, "{name}: decision must not vary across calls");
        // A bit-identical rebuild of the matrix decides identically too.
        let rebuilt = sc.build();
        assert_eq!(d1, decide_for(&rebuilt.a).unwrap(), "{name}");
    }
}

/// Pool-width independence and cache transparency: schedulers with 1, 2,
/// and ncpu runners serve the same decision, and the registry-cached copy
/// (second lookup) is bitwise the fresh probe's result.
#[test]
fn scheduler_decisions_match_fresh_probes_at_every_pool_width() {
    let sc = find("laplace2d_16").expect("registered");
    let built = sc.build();
    let a = Arc::new(built.a.clone());
    let fresh = decide_for(&built.a).unwrap();
    let ncpu = std::thread::available_parallelism().map_or(4, |n| n.get());
    for runners in [1, 2, ncpu] {
        let sched = Scheduler::new(SchedulerConfig {
            runners,
            ..SchedulerConfig::default()
        });
        let h = sched
            .submit(SolveJob::auto(Arc::clone(&a), built.b.clone()))
            .unwrap();
        let rep = h.wait().result.unwrap_or_else(|e| {
            panic!("runners={runners}: policy-routed job failed: {e}");
        });
        assert!(rep.final_rel_residual <= sc.tol, "runners={runners}");
        // First resolution probed; this preview is the cached copy.
        let cached = sched.policy_preview(&a).unwrap();
        assert_eq!(*cached, fresh, "runners={runners}: cached != fresh");
        let stats = sched.registry_stats();
        assert_eq!(stats.policy_probes, 1, "runners={runners}");
        assert_eq!(stats.policy_hits, 1, "runners={runners}");
    }
}

/// Explicit-family submissions bypass the policy entirely: no probe runs,
/// and the solve is bitwise identical on a scheduler whose registry holds
/// a cached policy decision and on one that never saw an auto job.
#[test]
fn explicit_submissions_bypass_the_policy_bitwise() {
    let sc = find("banded_b4").expect("registered");
    let built = sc.build();
    let a = Arc::new(built.a.clone());
    let explicit = || {
        SolveJob::new(
            SolverBuilder::new(SolverFamily::Cg)
                .term(Termination::sweeps(sc.sweeps).with_target(sc.tol * 0.5)),
            Arc::clone(&a),
            built.b.clone(),
        )
    };
    let run = |sched: &Scheduler| {
        let out = sched.submit(explicit()).unwrap().wait();
        out.result.expect("cg converges");
        out.x
    };

    let plain = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let x_plain = run(&plain);
    assert_eq!(plain.registry_stats().policy_probes, 0);
    assert_eq!(plain.registry_stats().policy_hits, 0);

    let warmed = Scheduler::new(SchedulerConfig {
        runners: 1,
        ..SchedulerConfig::default()
    });
    let h = warmed
        .submit(SolveJob::auto(Arc::clone(&a), built.b.clone()))
        .unwrap();
    h.wait().result.expect("auto job converges");
    assert_eq!(warmed.registry_stats().policy_probes, 1);
    let x_warmed = run(&warmed);
    assert_eq!(
        x_plain, x_warmed,
        "a cached policy decision must not perturb explicit jobs"
    );
    // The explicit run on the warmed scheduler charged no further probe.
    assert_eq!(warmed.registry_stats().policy_probes, 1);
}

/// A nonsymmetric matrix with a negative diagonal entry: the AsyRGS
/// preconditioner of `nonsym-dominant` would reject it, so the sign alone
/// routes it to GMRES without a probe, and the auto paths solve it. The
/// 40 x 40 tridiagonal has diagonal 4 (except `a_00 = -4`), superdiagonal
/// 1 and subdiagonal 0.5, a Jacobi spectral radius of about 0.35.
#[test]
fn nonsym_negative_diagonal_routes_to_gmres_without_a_probe() {
    let n = 40;
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        dense[i * n + i] = if i == 0 { -4.0 } else { 4.0 };
        if i + 1 < n {
            dense[i * n + i + 1] = 1.0;
            dense[(i + 1) * n + i] = 0.5;
        }
    }
    let a = CsrMatrix::from_dense(n, n, &dense);
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 / 13.0 - 0.4).collect();
    let b = a.matvec(&x_true);

    let d = decide_for(&a).expect("profilable");
    assert_eq!(
        (d.family, d.rule),
        (SolverFamily::Gmres, "nonsym-indefinite")
    );
    assert_eq!(d.precond, PrecondSpec::Identity);
    assert_eq!(d.profile.spectral.probe_matvecs, 0);
    assert_matches_forced_probe("nonsym_negative_diagonal", &a);

    let mut x = vec![0.0; n];
    let rep = SolverBuilder::auto(&a)
        .and_then(|builder| builder.build())
        .and_then(|mut session| session.solve(&a, &b, &mut x))
        .expect("auto solves it");
    assert!(rep.converged_early, "residual {}", rep.final_rel_residual);

    let sched = Scheduler::new(SchedulerConfig::default());
    let served = sched
        .submit(SolveJob::auto(Arc::new(a), b))
        .unwrap()
        .wait()
        .result
        .expect("served auto job");
    assert!(served.converged_early);
}
