//! Per-scenario solver-policy trajectory: runs the automatic policy
//! (`asyrgs::policy::decide_for`, the engine behind `SolverBuilder::auto`
//! and `SolveJob::auto`) over the whole scenario corpus and writes
//! `BENCH_policy.json` — per scenario: the decision (family, rule,
//! preconditioner, threads, fallback chain), the probe evidence and its
//! cost in matvecs (zero where the Gershgorin bound `kappa_bound`
//! certified the pick without a probe), and the picked cell's iterations-to-tolerance against
//! the best policy-selectable cell's.
//!
//! Self-gating: the process exits nonzero if any scenario's pick misses
//! the best available expectation tag, fails to honour it at runtime, or
//! needs more than 2x the best converging cell's iterations; if a probe
//! exceeds the 600-matvec budget; or if an SPD pick rests on neither a
//! probe nor a Gershgorin certificate below 1e3.
//!
//! Usage:
//! ```text
//! policy_runner [OUTPUT_PATH]        (default: BENCH_policy.json)
//! ```
//! Environment:
//! `ASYRGS_BENCH_SMOKE=1` — small-`n` scenario subset (CI);
//! `ASYRGS_THREADS=N` — global pool width.

use asyrgs::policy::{decide_for, FAMILIES};
use asyrgs::session::{PrecondSpec, SolverBuilder, SolverFamily};
use asyrgs_bench::obj;
use asyrgs_bench::report::{residual_status, Json, Report};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::lsq::LsqOperator;
use asyrgs_workloads::scenarios::{
    all_scenarios, smoke_scenarios, Expectation, Scenario, ScenarioClass,
};
use std::process::ExitCode;
use std::time::Instant;

fn rank(e: Expectation) -> u8 {
    match e {
        Expectation::Converges => 3,
        Expectation::Progress => 2,
        Expectation::MayDiverge => 1,
        Expectation::Rejects => 0,
    }
}

fn best_available(sc: &Scenario) -> Expectation {
    FAMILIES
        .iter()
        .map(|f| sc.expectation(f.name()))
        .max_by_key(|&e| rank(e))
        .unwrap()
}

/// Run one `scenario x family` cell under the exact `scenario_runner`
/// harness (threads 2, record every iteration, non-finite-only watchdog)
/// and return (iterations-to-tolerance, final relative residual).
fn run_cell(sc: &Scenario, family: SolverFamily) -> (Option<u64>, f64) {
    let built = sc.build();
    let mut session = SolverBuilder::new(family)
        .threads(2)
        .term(Termination::sweeps(sc.sweeps).with_target(sc.tol * 0.5))
        .record(Recording::every(1))
        .health(asyrgs_core::health::HealthConfig::non_finite_only())
        .build()
        .expect("registry configurations are valid");
    let mut x = vec![0.0; built.a.n_cols()];
    let result = if matches!(family, SolverFamily::Rcd) {
        let op = LsqOperator::new(built.a.clone());
        session.solve_lsq(&op, &built.b, &mut x)
    } else {
        session.solve(&built.a, &built.b, &mut x)
    };
    match result {
        Ok(rep) => {
            let to_tol = rep
                .records
                .iter()
                .find(|r| r.rel_residual.is_finite() && r.rel_residual <= sc.tol)
                .map(|r| r.iterations);
            (to_tol, rep.final_rel_residual)
        }
        Err(e) => panic!("{}/{}: rejected: {e}", sc.name, family.name()),
    }
}

fn precond_name(precond: PrecondSpec) -> String {
    match precond {
        PrecondSpec::Identity => "identity".to_string(),
        PrecondSpec::AsyRgs { inner_sweeps } => format!("asyrgs(inner_sweeps={inner_sweeps})"),
        other => format!("{other:?}"),
    }
}

/// Decide and run one scenario, check its gates, and return its row with
/// whether the row is `ok`.
fn evaluate(report: &mut Report, sc: &Scenario) -> (Json, bool) {
    let built = sc.build();
    let t = Instant::now();
    let d = decide_for(&built.a)
        .unwrap_or_else(|e| panic!("{}: policy rejected the scenario: {e}", sc.name));
    let picked = d.family;
    let expectation = sc.expectation(picked.name());
    let best_tag = best_available(sc);
    let (picked_to_tol, final_rel_residual) = run_cell(sc, picked);
    // The comparison pool: every candidate cell tagged Converges.
    let best_to_tol = FAMILIES
        .into_iter()
        .filter(|f| sc.expectation(f.name()) == Expectation::Converges)
        .filter_map(|f| {
            if f == picked {
                picked_to_tol
            } else {
                run_cell(sc, f).0
            }
        })
        .min();
    let seconds = t.elapsed().as_secs_f64();
    let status = residual_status(final_rel_residual, sc.tol);
    let within_2x = match (picked_to_tol, best_to_tol) {
        (Some(p), Some(b)) => Some(p <= 2 * b),
        _ => None,
    };
    // The gate: best-available tag, plus the 2x bound wherever a
    // converging candidate exists, plus the tag actually holding at
    // runtime.
    let tag_holds = match expectation {
        Expectation::Converges => status == "converged",
        Expectation::Progress => status == "converged" || status == "completed",
        _ => false,
    };
    let ok = expectation == best_tag && tag_holds && within_2x != Some(false);
    let (name, probe) = (sc.name, &d.profile.spectral);
    eprintln!(
        "  {name:>24}: {} via {} ({} probe matvecs), to-tol {picked_to_tol:?} vs best \
         {best_to_tol:?}{}",
        picked.name(),
        d.rule,
        probe.probe_matvecs,
        if ok { "" } else { "  << GATE VIOLATION" }
    );

    let got = (name, expectation.name(), best_tag.name(), status);
    report.gate(
        "policy: expectation == best_tag",
        expectation == best_tag,
        got,
    );
    if expectation == Expectation::Converges {
        report.gate(
            "policy: a converges pick converged, within 2x of the best cell",
            status == "converged" && within_2x == Some(true),
            (name, status, picked_to_tol, best_to_tol),
        );
    } else {
        report.gate(
            "policy: any other pick converged or completed",
            matches!(status, "converged" | "completed"),
            got,
        );
    }
    report.gate("policy: row ok", ok, got);
    report.gate(
        "policy: probe_matvecs <= 600",
        probe.probe_matvecs <= 600,
        (name, probe.probe_matvecs),
    );
    // Every SPD pick rests on evidence: a spectral probe, or the
    // Gershgorin certificate that made the probe unnecessary.
    if sc.class == ScenarioClass::SquareSpd {
        let probed = probe.kappa.is_some() && probe.probe_matvecs > 0;
        let certified = probe.kappa.is_none()
            && probe.probe_matvecs == 0
            && d.profile.kappa_bound.is_some_and(|k| k < 1e3);
        report.gate(
            "policy: an SPD pick is probed or certified",
            probed || certified,
            (
                name,
                probe.kappa,
                probe.probe_matvecs,
                d.profile.kappa_bound,
            ),
        );
    }

    let row = obj! {
        "scenario": name,
        "class": match sc.class {
            ScenarioClass::SquareSpd => "square_spd",
            ScenarioClass::SquareNonsym => "square_nonsym",
            ScenarioClass::LeastSquares => "least_squares",
        },
        "family": picked.name(),
        "rule": d.rule,
        "precond": precond_name(d.precond),
        "threads": d.threads,
        "fallback": d.fallback.iter().map(|f| f.name()).collect::<Vec<_>>(),
        "kappa": probe.kappa,
        "rho_jacobi": probe.rho_jacobi,
        "dominance_margin": d.profile.dominance_margin,
        "kappa_bound": d.profile.kappa_bound,
        "probe_matvecs": probe.probe_matvecs,
        "expectation": expectation.name(),
        "best_tag": best_tag.name(),
        "status": status,
        "picked_to_tol": picked_to_tol,
        "best_to_tol": best_to_tol,
        "within_2x": within_2x,
        "seconds": seconds,
        "final_rel_residual": final_rel_residual,
        "ok": ok,
    };
    (row, ok)
}

fn main() -> ExitCode {
    let mut report = Report::from_env("BENCH_policy.json");
    let smoke = report.smoke;
    let scenarios = if smoke {
        smoke_scenarios()
    } else {
        all_scenarios()
    };
    eprintln!(
        "policy_runner: {} scenarios{}",
        scenarios.len(),
        if smoke { " (smoke)" } else { "" }
    );
    report.gate(
        "policy: rows nonempty",
        !scenarios.is_empty(),
        scenarios.len(),
    );
    let mut unexpected = 0;
    let rows: Vec<Json> = scenarios
        .iter()
        .map(|sc| {
            let (row, ok) = evaluate(&mut report, sc);
            unexpected += usize::from(!ok);
            row
        })
        .collect();
    report.finish(&obj! {
        "schema": "asyrgs-policy-v1",
        "smoke": smoke,
        "unexpected_rows": unexpected,
        "rows": rows,
    })
}
