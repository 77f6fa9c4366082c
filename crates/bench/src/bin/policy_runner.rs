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
//! the best available expectation tag, or a picked cell with a converging
//! alternative needs more than 2x the best cell's iterations. The CI
//! schema validator re-checks both from the JSON.
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
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::lsq::LsqOperator;
use asyrgs_workloads::scenarios::{
    all_scenarios, smoke_scenarios, Expectation, Scenario, ScenarioClass,
};
use std::fmt::Write as _;
use std::time::Instant;

/// One per-scenario policy row.
struct Row {
    scenario: &'static str,
    class: &'static str,
    family: &'static str,
    rule: &'static str,
    precond: String,
    threads: usize,
    fallback: Vec<&'static str>,
    kappa: Option<f64>,
    rho_jacobi: Option<f64>,
    dominance_margin: Option<f64>,
    kappa_bound: Option<f64>,
    probe_matvecs: usize,
    expectation: &'static str,
    best_tag: &'static str,
    status: &'static str,
    picked_to_tol: Option<u64>,
    best_to_tol: Option<u64>,
    within_2x: Option<bool>,
    seconds: f64,
    final_rel_residual: f64,
    ok: bool,
}

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

fn evaluate(sc: &Scenario) -> Row {
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
    let status = if final_rel_residual.is_finite() && final_rel_residual <= sc.tol {
        "converged"
    } else if final_rel_residual.is_finite() && final_rel_residual <= 1.0 + 1e-9 {
        "completed"
    } else {
        "diverged"
    };
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
    Row {
        scenario: sc.name,
        class: match sc.class {
            ScenarioClass::SquareSpd => "square_spd",
            ScenarioClass::SquareNonsym => "square_nonsym",
            ScenarioClass::LeastSquares => "least_squares",
        },
        family: picked.name(),
        rule: d.rule,
        precond: precond_name(d.precond),
        threads: d.threads,
        fallback: d.fallback.iter().map(|f| f.name()).collect(),
        kappa: d.profile.spectral.kappa,
        rho_jacobi: d.profile.spectral.rho_jacobi,
        dominance_margin: d.profile.dominance_margin,
        kappa_bound: d.profile.kappa_bound,
        probe_matvecs: d.profile.spectral.probe_matvecs,
        expectation: expectation.name(),
        best_tag: best_tag.name(),
        status,
        picked_to_tol,
        best_to_tol,
        within_2x,
        seconds,
        final_rel_residual,
        ok,
    }
}

fn json_f64_opt(v: Option<f64>) -> String {
    v.filter(|x| x.is_finite())
        .map(|x| format!("{x:.6e}"))
        .unwrap_or_else(|| "null".to_string())
}

fn json_u64_opt(v: Option<u64>) -> String {
    v.map(|x| x.to_string())
        .unwrap_or_else(|| "null".to_string())
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_policy.json".to_string());
    let smoke = std::env::var("ASYRGS_BENCH_SMOKE").as_deref() == Ok("1");
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

    let rows: Vec<Row> = scenarios.iter().map(evaluate).collect();
    for r in &rows {
        eprintln!(
            "  {:>24}: {} via {} ({} probe matvecs), to-tol {} vs best {}{}",
            r.scenario,
            r.family,
            r.rule,
            r.probe_matvecs,
            json_u64_opt(r.picked_to_tol),
            json_u64_opt(r.best_to_tol),
            if r.ok { "" } else { "  << GATE VIOLATION" }
        );
    }
    let unexpected = rows.iter().filter(|r| !r.ok).count();

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"asyrgs-policy-v1\",");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"unexpected_rows\": {unexpected},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"scenario\": \"{}\", \"class\": \"{}\", \"family\": \"{}\", \
             \"rule\": \"{}\", \"precond\": \"{}\", \"threads\": {}, \
             \"fallback\": [{}], \"kappa\": {}, \"rho_jacobi\": {}, \
             \"dominance_margin\": {}, \"kappa_bound\": {}, \"probe_matvecs\": {}, \
             \"expectation\": \"{}\", \"best_tag\": \"{}\", \"status\": \"{}\", \
             \"picked_to_tol\": {}, \"best_to_tol\": {}, \"within_2x\": {}, \
             \"seconds\": {:.6e}, \"final_rel_residual\": {}, \"ok\": {}}}{}",
            r.scenario,
            r.class,
            r.family,
            r.rule,
            r.precond,
            r.threads,
            r.fallback
                .iter()
                .map(|f| format!("\"{f}\""))
                .collect::<Vec<_>>()
                .join(", "),
            json_f64_opt(r.kappa),
            json_f64_opt(r.rho_jacobi),
            json_f64_opt(r.dominance_margin),
            json_f64_opt(r.kappa_bound),
            r.probe_matvecs,
            r.expectation,
            r.best_tag,
            r.status,
            json_u64_opt(r.picked_to_tol),
            json_u64_opt(r.best_to_tol),
            r.within_2x
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_string()),
            r.seconds,
            json_f64_opt(Some(r.final_rel_residual)),
            r.ok,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&out_path, &j).expect("failed to write bench output");
    eprintln!(
        "policy_runner: wrote {out_path} ({} rows, {unexpected} gate violations)",
        rows.len()
    );

    // Structural self-check, then the hard gate: a policy that misses the
    // best available cell (or overshoots 2x of it) fails this process.
    let parsed = std::fs::read_to_string(&out_path).expect("reread failed");
    assert!(
        parsed.matches('{').count() == parsed.matches('}').count() && parsed.contains("\"rows\""),
        "policy bench output failed self-check"
    );
    assert!(
        unexpected == 0,
        "{unexpected} scenarios violated the policy gate (see rows with \"ok\": false)"
    );
}
