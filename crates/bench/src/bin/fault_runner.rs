//! Fault-injection trajectory: drives the square scenario corpus through
//! the async solver families with each deterministic [`FaultSpec`] kind
//! armed, the numerical watchdog on, and a recovery policy configured —
//! and writes `BENCH_faults.json` (detection latency in watchdog epochs,
//! recovery success rate, post-recovery iteration counts per cell).
//!
//! The runner gates what it measured and exits nonzero if a gate fails,
//! so CI needs no JSON post-processing:
//!
//! * **zero non-finite results** — a tripped watchdog never hands back a
//!   non-finite iterate, recovered or not;
//! * **`Converges` cells recover** — at least 90% of cells whose
//!   scenario/family expectation is `Converges` end in `clean` or
//!   `recovered`;
//! * **`MayDiverge` cells end typed** — converged, recovered or a typed
//!   watchdog trip, never an untyped error.
//!
//! Usage:
//! ```text
//! fault_runner [OUTPUT_PATH]           (default: BENCH_faults.json)
//! ```
//! Environment:
//! `ASYRGS_BENCH_SMOKE=1` — small-`n` scenario subset (CI);
//! `ASYRGS_THREADS=N` — global pool width.

use asyrgs::prelude::{FaultPlan, FaultSpec, HealthConfig, RecoveryPolicy};
use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs_bench::obj;
use asyrgs_bench::report::{residual_status, Report};
use asyrgs_core::driver::Termination;
use asyrgs_core::error::SolveError;
use asyrgs_workloads::scenarios::{all_scenarios, smoke_scenarios, Expectation, ScenarioClass};
use std::process::ExitCode;
use std::time::Instant;

/// The async families the fault plans apply to (sequential siblings
/// ignore pool faults by construction).
const FAMILIES: [(&str, SolverFamily); 2] = [
    ("asyrgs", SolverFamily::AsyRgs),
    ("async_jacobi", SolverFamily::AsyncJacobi),
];

const THREADS: usize = 2;

/// One injected-fault configuration: a name, the plan, and the recovery
/// policy that is expected to absorb it.
struct FaultCase {
    name: &'static str,
    plan: Option<FaultPlan>,
    policy: RecoveryPolicy,
}

fn fault_cases() -> Vec<FaultCase> {
    let dampen = RecoveryPolicy::DampenAndRestart {
        factor: 0.5,
        max_attempts: 3,
    };
    vec![
        // Baseline: watchdog + recovery armed, nothing injected.
        FaultCase {
            name: "none",
            plan: None,
            policy: dampen,
        },
        // Delay-class faults: the bounded-delay analysis absorbs these
        // without a trip; the cell must still converge.
        FaultCase {
            name: "stall_worker",
            plan: Some(FaultPlan::new(101).with_fault(FaultSpec::StallWorker {
                worker: 1,
                round: 1,
                span: 6,
                millis: 1,
            })),
            policy: dampen,
        },
        FaultCase {
            name: "slow_clock",
            plan: Some(FaultPlan::new(103).with_fault(FaultSpec::SlowClock {
                worker: 1,
                millis: 1,
            })),
            policy: dampen,
        },
        // A killed worker degrades the pool width; the solve completes
        // on the survivors.
        FaultCase {
            name: "kill_worker",
            plan: Some(FaultPlan::new(107).with_fault(FaultSpec::KillWorker {
                worker: 1,
                round: 1,
            })),
            policy: dampen,
        },
        // A poisoned update refires on every async restart (the plan is
        // deterministic in the per-attempt epoch counter), so the only
        // policy that recovers is the sequential fallback.
        FaultCase {
            name: "poison_update",
            plan: Some(FaultPlan::new(109).with_fault(FaultSpec::PoisonUpdate {
                worker: 0,
                round: 0,
                index: 0,
            })),
            policy: RecoveryPolicy::FallbackSequential,
        },
    ]
}

struct Cell {
    scenario: &'static str,
    family: &'static str,
    fault: &'static str,
    expectation: &'static str,
    /// `clean` | `recovered` | `typed_trip` | `error`.
    status: &'static str,
    ok: bool,
    /// Watchdog epoch of the *first* trip (`null` if never tripped).
    detection_epoch: Option<u64>,
    recovery_attempts: u64,
    iterations: u64,
    final_rel_residual: f64,
    seconds: f64,
    x_finite: bool,
    error: Option<String>,
}

fn trip_epoch(e: &SolveError) -> Option<u64> {
    match e {
        SolveError::NonFiniteDetected { epoch, .. }
        | SolveError::Diverged { epoch, .. }
        | SolveError::Stalled { epoch, .. } => Some(*epoch as u64),
        _ => None,
    }
}

fn run_cell(
    sc: &asyrgs_workloads::scenarios::Scenario,
    family_name: &'static str,
    family: SolverFamily,
    case: &FaultCase,
    a: &asyrgs_sparse::CsrMatrix,
    b: &[f64],
) -> Cell {
    let mut builder = SolverBuilder::new(family)
        .threads(THREADS)
        .term(Termination::sweeps(sc.sweeps).with_target(sc.tol * 0.5))
        .health(HealthConfig::default())
        .recovery(case.policy);
    if let Some(plan) = &case.plan {
        builder = builder.fault_plan(plan.clone());
    }
    let mut session = builder.build().expect("registry configurations are valid");
    let expectation = sc.expectation(family_name);
    let mut x = vec![0.0; a.n_rows()];
    let t = Instant::now();
    let result = session.solve(a, b, &mut x);
    let seconds = t.elapsed().as_secs_f64();
    let x_finite = x.iter().all(|v| v.is_finite());

    let (status, detection_epoch, recovery_attempts, iterations, final_rel_residual, error) =
        match &result {
            Ok(rep) => (
                if rep.recovery_attempts.is_empty() {
                    "clean"
                } else {
                    "recovered"
                },
                rep.recovery_attempts
                    .first()
                    .and_then(|a| trip_epoch(&a.error)),
                rep.recovery_attempts.len() as u64,
                rep.iterations,
                rep.final_rel_residual,
                None,
            ),
            Err(e) => (
                if asyrgs_core::health::is_watchdog_trip(e) {
                    "typed_trip"
                } else {
                    "error"
                },
                trip_epoch(e),
                0,
                0,
                f64::NAN,
                Some(e.to_string()),
            ),
        };

    let residual = residual_status(final_rel_residual, sc.tol);
    let ok = x_finite
        && match expectation {
            Expectation::Converges => residual == "converged",
            Expectation::Progress => residual != "diverged",
            // A cell with no classical guarantee may converge, recover,
            // or end in a typed watchdog error — never a silent NaN.
            Expectation::MayDiverge => status != "error",
            Expectation::Rejects => status == "error",
        };

    Cell {
        scenario: sc.name,
        family: family_name,
        fault: case.name,
        expectation: expectation.name(),
        status,
        ok,
        detection_epoch,
        recovery_attempts,
        iterations,
        final_rel_residual,
        seconds,
        x_finite,
        error,
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_env("BENCH_faults.json");
    let smoke = report.smoke;
    let scenarios: Vec<_> = if smoke {
        smoke_scenarios()
    } else {
        all_scenarios()
    }
    .into_iter()
    .filter(|sc| matches!(sc.class, ScenarioClass::SquareSpd))
    .collect();
    let cases = fault_cases();
    eprintln!(
        "fault_runner: {} scenarios x {} families x {} fault cases{}",
        scenarios.len(),
        FAMILIES.len(),
        cases.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut cells: Vec<Cell> = Vec::new();
    for sc in &scenarios {
        let built = sc.build();
        for (family_name, family) in FAMILIES {
            for case in &cases {
                cells.push(run_cell(sc, family_name, family, case, &built.a, &built.b));
            }
        }
        eprintln!("  {:>24}: {} cells total", sc.name, cells.len());
    }

    let non_finite = cells.iter().filter(|c| !c.x_finite).count();
    let converges: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.expectation == "converges")
        .collect();
    let converges_ok = converges.iter().filter(|c| c.ok).count();
    let converges_rate = if converges.is_empty() {
        1.0
    } else {
        converges_ok as f64 / converges.len() as f64
    };
    let tripped: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.detection_epoch.is_some())
        .collect();
    let recovered = tripped.iter().filter(|c| c.status == "recovered").count();
    let unexpected: Vec<&Cell> = cells.iter().filter(|c| !c.ok).collect();
    for c in &unexpected {
        eprintln!(
            "UNEXPECTED {}/{}/{}: expected {}, got {} (residual {:.3e}{})",
            c.scenario,
            c.family,
            c.fault,
            c.expectation,
            c.status,
            c.final_rel_residual,
            c.error
                .as_deref()
                .map(|e| format!(", error: {e}"))
                .unwrap_or_default(),
        );
    }

    eprintln!(
        "fault_runner: {} cells, {} tripped, {} recovered, converges ok rate {:.2}, \
         {} non-finite",
        cells.len(),
        tripped.len(),
        recovered,
        converges_rate,
        non_finite,
    );
    report.gate("faults: cells nonempty", !cells.is_empty(), cells.len());
    report.gate(
        "faults: non_finite_results == 0",
        non_finite == 0,
        non_finite,
    );
    report.gate(
        "faults: converges_ok_rate >= 0.9",
        converges_rate >= 0.9,
        converges_rate,
    );
    // A cell with no classical guarantee may converge, recover, or end in
    // a typed watchdog trip, never in an untyped failure.
    for c in cells.iter().filter(|c| c.expectation == "may_diverge") {
        let got = (c.scenario, c.family, c.fault, c.status);
        report.gate(
            "faults: a may_diverge cell ends typed",
            c.status != "error",
            got,
        );
    }

    let unexpected = unexpected.len();
    let (converges, tripped) = (converges.len(), tripped.len());
    let cells: Vec<_> = cells
        .into_iter()
        .map(|c| {
            obj! {
                "scenario": c.scenario,
                "family": c.family,
                "fault": c.fault,
                "expectation": c.expectation,
                "status": c.status,
                "ok": c.ok,
                "detection_epoch": c.detection_epoch,
                "recovery_attempts": c.recovery_attempts,
                "iterations": c.iterations,
                "final_rel_residual": c.final_rel_residual,
                "seconds": c.seconds,
                "x_finite": c.x_finite,
            }
            .with_some("error", c.error)
        })
        .collect();
    report.finish(&obj! {
        "schema": "asyrgs-faults-v1",
        "smoke": smoke,
        "solver_threads": THREADS,
        "cells_total": cells.len(),
        "non_finite_results": non_finite,
        "converges_cells": converges,
        "converges_ok_rate": converges_rate,
        "tripped_cells": tripped,
        "recovered_cells": recovered,
        "unexpected_cells": unexpected,
        "cells": cells,
    })
}
