//! Per-scenario performance trajectory: runs the whole scenario corpus
//! through the session layer — every `scenario x solver-family x backend`
//! cell of the conformance matrix — and writes `BENCH_scenarios.json`
//! (wall time, iterations, iterations-to-tolerance, final residual, and
//! whether the cell met its registered expectation).
//!
//! One timed run per cell: this is a trajectory tracker for the corpus,
//! not a microbenchmark (the kernel-level medians live in
//! `BENCH_solvers.json` from `bench_runner`).
//!
//! The runner gates what it measured and exits nonzero if a gate fails:
//! the corpus holds a nonsymmetric scenario, every cell meets its
//! registered expectation, and AsyRGS right-preconditioning cuts
//! BiCGSTAB's outer iterations against the unpreconditioned run on at
//! least two convection–diffusion scenarios.
//!
//! Usage:
//! ```text
//! scenario_runner [OUTPUT_PATH]        (default: BENCH_scenarios.json)
//! ```
//! Environment:
//! `ASYRGS_BENCH_SMOKE=1` — small-`n` scenario subset, no spectral
//! condition-number estimation (CI);
//! `ASYRGS_THREADS=N` — global pool width.

use asyrgs::session::{PrecondSpec, SolverBuilder, SolverFamily};
use asyrgs_bench::report::{residual_status, Json, Report};
use asyrgs_bench::{obj, scenario_session};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::error::SolveError;
use asyrgs_core::lsq::LsqOperator;
use asyrgs_core::report::SolveReport;
use asyrgs_sparse::RowAccess;
use asyrgs_workloads::scenarios::{
    all_scenarios, smoke_scenarios, Expectation, Scenario, ScenarioClass, FAMILY_NAMES,
};
use std::process::ExitCode;
use std::time::Instant;

/// Solver threads of every study row: the 2 that `scenario_session` gives
/// every cell, written out as `solver_threads`.
const THREADS: usize = 2;

fn family_of(name: &str) -> SolverFamily {
    SolverFamily::from_name(name).unwrap_or_else(|| panic!("unknown family {name}"))
}

fn classify(result: &Result<SolveReport, SolveError>, tol: f64) -> (&'static str, f64, u64) {
    match result {
        // A watchdog trip is a divergence verdict, not an input
        // rejection: MayDiverge cells that blow up now report `diverged`
        // whether they ended in a NaN residual or a typed trip.
        Err(e) if asyrgs_core::health::is_watchdog_trip(e) => ("diverged", f64::NAN, 0),
        // A Krylov breakdown is likewise a runtime divergence verdict
        // (the recurrence collapsed), not an input rejection.
        Err(SolveError::Breakdown { .. }) => ("diverged", f64::NAN, 0),
        Err(_) => ("rejected", f64::NAN, 0),
        // `completed` mirrors the conformance matrix's Progress criterion
        // exactly: finite and not above the initial relative residual.
        Ok(rep) => (
            residual_status(rep.final_rel_residual, tol),
            rep.final_rel_residual,
            rep.iterations,
        ),
    }
}

fn satisfies(expectation: Expectation, status: &str) -> bool {
    match expectation {
        Expectation::Converges => status == "converged",
        Expectation::Progress => status == "converged" || status == "completed",
        Expectation::MayDiverge => status != "rejected",
        Expectation::Rejects => status == "rejected",
    }
}

fn iterations_to_tol(result: &Result<SolveReport, SolveError>, tol: f64) -> Option<u64> {
    result.as_ref().ok().and_then(|rep| {
        rep.records
            .iter()
            .find(|r| r.rel_residual.is_finite() && r.rel_residual <= tol)
            .map(|r| r.iterations)
    })
}

/// Run one cell: build a session for the family, drive the given operator
/// backend through it, gate the cell on its registered expectation, and
/// return its record with whether it met that expectation.
fn run_cell<O: RowAccess + Sync>(
    report: &mut Report,
    sc: &Scenario,
    family_name: &'static str,
    backend: &'static str,
    a: &O,
    b: &[f64],
    lsq: Option<&LsqOperator>,
) -> (Json, bool) {
    let family = family_of(family_name);
    let mut session = scenario_session(sc, family);
    let expectation = sc.expectation(family_name);
    let mut x = vec![0.0; a.n_cols()];
    let t = Instant::now();
    let result = match (
        lsq,
        matches!(family, SolverFamily::Rcd | SolverFamily::AsyncRcd),
    ) {
        // Least-squares scenario driven through a least-squares family.
        (Some(op), true) => session.solve_lsq(op, b, &mut x),
        // Everything else goes through `solve`, which is also how the
        // expected rejections (class mismatches) surface as typed errors.
        _ => session.solve(a, b, &mut x),
    };
    let seconds = t.elapsed().as_secs_f64();
    let (status, final_rel_residual, iterations) = classify(&result, sc.tol);
    let ok = satisfies(expectation, status);
    let got = (
        sc.name,
        family_name,
        backend,
        expectation.name(),
        status,
        final_rel_residual,
    );
    report.gate("scenarios: a cell meets its expectation", ok, got);
    let cell = obj! {
        "scenario": sc.name,
        "family": family_name,
        "backend": backend,
        "expectation": expectation.name(),
        "status": status,
        "ok": ok,
        "seconds": seconds,
        "iterations": iterations,
        // The first recorded iteration count at or below the tolerance.
        "iterations_to_tol": iterations_to_tol(&result, sc.tol),
        "final_rel_residual": final_rel_residual,
    };
    (
        cell.with_some("error", result.err().map(|e| e.to_string())),
        ok,
    )
}

/// One row of the nonsymmetric preconditioner study: a Krylov family on a
/// nonsymmetric scenario under one right-preconditioner.
struct PrecondRow {
    scenario: &'static str,
    family: &'static str,
    precond: &'static str,
    converged: bool,
    iterations: u64,
    seconds: f64,
    final_rel_residual: f64,
}

/// Drive the nonsymmetric Krylov families across the right-preconditioner
/// ladder (none / Jacobi / synchronous RGS / AsyRGS on the symmetrized
/// inner system) and record outer iteration counts — the headline claim
/// is that AsyRGS preconditioning cuts BiCGSTAB outer iterations on the
/// convection–diffusion family relative to the unpreconditioned run.
fn precond_study(scenarios: &[Scenario]) -> Vec<PrecondRow> {
    let specs: [(&'static str, PrecondSpec); 4] = [
        ("identity", PrecondSpec::Identity),
        ("jacobi", PrecondSpec::Jacobi),
        ("rgs", PrecondSpec::Rgs { inner_sweeps: 2 }),
        ("asyrgs", PrecondSpec::AsyRgs { inner_sweeps: 2 }),
    ];
    let mut rows = Vec::new();
    for sc in scenarios {
        if sc.class != ScenarioClass::SquareNonsym {
            continue;
        }
        let built = sc.build();
        for family_name in ["bicgstab", "gmres"] {
            if sc.expectation(family_name) != Expectation::Converges {
                continue;
            }
            for (precond_name, spec) in specs {
                let mut session = SolverBuilder::new(family_of(family_name))
                    .threads(THREADS)
                    .term(Termination::sweeps(sc.sweeps).with_target(sc.tol * 0.5))
                    .record(Recording::every(1))
                    .preconditioner(spec)
                    .build()
                    .expect("study configurations are valid");
                let mut x = vec![0.0; built.n()];
                let t = Instant::now();
                let result = session.solve(&built.a, &built.b, &mut x);
                let seconds = t.elapsed().as_secs_f64();
                let (status, final_rel_residual, iterations) = classify(&result, sc.tol);
                rows.push(PrecondRow {
                    scenario: sc.name,
                    family: family_name,
                    precond: precond_name,
                    converged: status == "converged",
                    iterations,
                    seconds,
                    final_rel_residual,
                });
            }
        }
    }
    rows
}

fn main() -> ExitCode {
    let mut report = Report::from_env("BENCH_scenarios.json");
    let smoke = report.smoke;
    let scenarios = if smoke {
        smoke_scenarios()
    } else {
        all_scenarios()
    };
    eprintln!(
        "scenario_runner: {} scenarios x {} families{}",
        scenarios.len(),
        FAMILY_NAMES.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut meta_rows: Vec<Json> = Vec::new();
    let (mut cells, mut unexpected) = (Vec::new(), 0);
    for sc in &scenarios {
        let built = sc.build();
        let kappa_estimate = if smoke {
            None
        } else {
            sc.estimate_kappa(&built)
        };
        meta_rows.push(obj! {
            "name": sc.name,
            "class": sc.class.name(),
            "n": sc.n,
            "nnz": built.nnz(),
            "seed": sc.seed,
            "kappa_hint": sc.kappa_hint,
            "kappa_estimate": kappa_estimate,
            "tol": sc.tol,
            "sweeps": sc.sweeps,
            "description": sc.description,
        });

        let lsq_op = match sc.class {
            ScenarioClass::LeastSquares => Some(LsqOperator::new(built.a.clone())),
            ScenarioClass::SquareSpd | ScenarioClass::SquareNonsym => None,
        };
        let mut runs = Vec::new();
        for family in FAMILY_NAMES {
            let lsq = lsq_op.as_ref();
            runs.push(run_cell(
                &mut report,
                sc,
                family,
                "csr",
                &built.a,
                &built.b,
                lsq,
            ));
        }
        // The zero-copy unit-diagonal backend (square scenarios): solve
        // the rescaled system `(D A D) x = D b`.
        if let Some(view) = built.unit_view() {
            let b_unit = view.rhs_to_unit(&built.b);
            for family in FAMILY_NAMES {
                runs.push(run_cell(
                    &mut report,
                    sc,
                    family,
                    "unit_view",
                    &view,
                    &b_unit,
                    None,
                ));
            }
        }
        // The dense backend, where small enough to be sensible.
        if let Some(dense) = built.dense() {
            for family in FAMILY_NAMES {
                runs.push(run_cell(
                    &mut report,
                    sc,
                    family,
                    "dense",
                    &dense,
                    &built.b,
                    None,
                ));
            }
        }
        for (cell, ok) in runs {
            unexpected += usize::from(!ok);
            cells.push(cell);
        }
        eprintln!("  {:>24}: {} cells total", sc.name, cells.len());
    }

    let study = precond_study(&scenarios);
    for r in &study {
        eprintln!(
            "  study {:>20}/{}/{:<8}: {} iters{}",
            r.scenario,
            r.family,
            r.precond,
            r.iterations,
            if r.converged {
                ""
            } else {
                " (did not converge)"
            }
        );
    }

    let counts = (scenarios.len(), cells.len());
    report.gate(
        "scenarios: corpus and cells nonempty",
        counts.0 > 0 && counts.1 > 0,
        counts,
    );
    let nonsym = scenarios
        .iter()
        .any(|sc| sc.class == ScenarioClass::SquareNonsym);
    report.gate("scenarios: a square_nonsym scenario ran", nonsym, counts);
    report.gate("study: rows nonempty", !study.is_empty(), study.len());
    // The headline claim of the nonsymmetric subsystem: AsyRGS
    // right-preconditioning cuts BiCGSTAB outer iterations on the
    // convection–diffusion family against the unpreconditioned run.
    let mut compared = 0;
    for r in study.iter().filter(|r| {
        r.family == "bicgstab" && r.precond == "asyrgs" && r.scenario.starts_with("conv_diff")
    }) {
        let plain = study
            .iter()
            .find(|p| p.scenario == r.scenario && p.family == r.family && p.precond == "identity");
        let cut = plain.is_some_and(|p| r.converged && p.converged && r.iterations < p.iterations);
        compared += usize::from(cut);
        let got = (r.scenario, r.iterations, plain.map(|p| p.iterations));
        report.gate("study: AsyRGS cuts BiCGSTAB outer iterations", cut, got);
    }
    report.gate("study: conv_diff comparisons >= 2", compared >= 2, compared);

    let study: Vec<_> = study
        .iter()
        .map(|r| {
            obj! {
                "scenario": r.scenario,
                "family": r.family,
                "precond": r.precond,
                "converged": r.converged,
                "iterations": r.iterations,
                "seconds": r.seconds,
                "final_rel_residual": r.final_rel_residual,
            }
        })
        .collect();
    eprintln!(
        "scenario_runner: {} cells, {unexpected} unexpected",
        cells.len()
    );
    report.finish(&obj! {
        "schema": "asyrgs-scenarios-v2",
        "smoke": smoke,
        "solver_threads": THREADS,
        "unexpected_cells": unexpected,
        "scenarios": meta_rows,
        "precond_study": study,
        "cells": cells,
    })
}
