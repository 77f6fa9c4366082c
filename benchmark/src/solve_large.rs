//! `solve_large`: the paper's regime. One caller in a closed loop calls
//! `SolveSession::solve` back to back on a 2^17-unknown diagonally
//! dominant system, from x0 = 0 to a relative residual of 1e-6 with
//! every-sweep recording, alternating AsyRGS at `threads(nproc)` with
//! sequential RGS (the paper's synchronous counterpart).

use crate::layers;
use crate::measure::{self, median, overhead_share, quantile_or_max, Metrics, Tracer};
use crate::{rel_residual, rhs_for, Drift, Outcome, RunConfig};
use asyrgs::core::driver::{Recording, Termination};
use asyrgs::session::{SolveSession, SolverBuilder, SolverFamily};
use asyrgs::sparse::CsrMatrix;
use asyrgs::workloads::diag_dominant;
use std::time::Instant;

const N: usize = 1 << 17;
const ROW_NNZ: usize = 16;
const DOMINANCE: f64 = 2.0;
const TARGET: f64 = 1e-6;
/// Far above the ~23 sweeps a solve needs; reaching it fails the check.
const MAX_SWEEPS: usize = 500;
const SETUP_REPS: usize = 3;
/// Sweeps of the warm-up solves that page in the matrix and wake the pool.
const WARM_SWEEPS: usize = 2;

/// One measured solve.
struct Solve {
    parallel: bool,
    secs: f64,
    sweeps: usize,
    tau: Option<u64>,
    traced: bool,
}

fn builder(family: SolverFamily, threads: usize) -> SolverBuilder {
    SolverBuilder::new(family)
        .threads(threads)
        .term(Termination::sweeps(MAX_SWEEPS).with_target(TARGET))
        .record(Recording::every(1))
}

struct Instance {
    a: CsrMatrix,
    b: Vec<f64>,
    asy: SolveSession,
    seq: SolveSession,
}

/// Inputs, sessions, and warm-up: everything before the first measured
/// solve.
fn set_up(cfg: &RunConfig) -> Instance {
    let a = diag_dominant(N, ROW_NNZ, DOMINANCE, cfg.seed);
    let b = rhs_for(&a, cfg.seed);
    let asy = builder(SolverFamily::AsyRgs, cfg.nproc);
    let seq = builder(SolverFamily::Rgs, 1);
    for warm in [&asy, &seq] {
        let mut x = vec![0.0; N];
        warm.clone()
            .term(Termination::sweeps(WARM_SWEEPS))
            .build()
            .and_then(|mut s| s.solve(&a, &b, &mut x))
            .expect("warm-up solve");
    }
    Instance {
        asy: asy.build().expect("valid configuration"),
        seq: seq.build().expect("valid configuration"),
        a,
        b,
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, Drift> {
    let (inst, setups) = measure::repeat_set_up(SETUP_REPS, || set_up(cfg));
    let Instance {
        a,
        b,
        mut asy,
        mut seq,
    } = inst;

    let rss_reset = measure::reset_peak_rss();
    let mut tracer = Tracer::new();
    let mut solves = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Sequential RGS is deterministic: every RGS solve of the run must
    // return the same iterate, bit for bit, after the same sweeps.
    let mut seq_first: Option<(usize, Vec<u64>)> = None;
    let mut x = vec![0.0; N];
    let t0 = Instant::now();
    let mut k = 0usize;
    // Whole AsyRGS/RGS pairs only, so both kinds get equal counts.
    while k % 2 == 1 || t0.elapsed().as_secs_f64() < cfg.seconds {
        let parallel = k.is_multiple_of(2);
        // Traced runs trace every other pair and leave the rest untraced,
        // so the trace's own cost shows as the difference.
        let traced = cfg.trace && (k / 2) % 2 == 1;
        x.fill(0.0);
        let start = Instant::now();
        let result = if parallel {
            asy.solve(&a, &b, &mut x)
        } else {
            seq.solve(&a, &b, &mut x)
        };
        let end = Instant::now();
        if traced {
            let name = if parallel { "asyrgs" } else { "rgs" };
            tracer.record(name, k as u64, start, end);
        }
        attempted += 1;
        k += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                eprintln!("solve failed: {e}");
                failed += 1;
                continue;
            }
        };
        let rel = rel_residual(&a, &b, &x);
        let converged = rel <= TARGET; // false for NaN too
        if !converged {
            eprintln!("answer check failed: relative residual {rel:e} above {TARGET:e}");
            failed += 1;
        }
        let sweeps = report.records.last().map_or(0, |r| r.sweep);
        if !parallel {
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            match &seq_first {
                None => seq_first = Some((sweeps, bits)),
                Some((first_sweeps, first_bits)) => {
                    crate::expect_count("RGS sweeps", sweeps as u64, *first_sweeps as u64)?;
                    if *first_bits != bits {
                        return Err(Drift("RGS iterate differs between identical solves".into()));
                    }
                }
            }
        }
        solves.push(Solve {
            parallel,
            secs: (end - start).as_secs_f64(),
            sweeps,
            tau: report.max_observed_delay,
            traced,
        });
    }
    let window = t0.elapsed().as_secs_f64();
    let peak_rss = measure::peak_rss_mb();
    if !rss_reset {
        eprintln!("note: peak RSS could not be reset after set-up; it includes set-up");
    }

    let secs = |parallel: bool, traced: Option<bool>| -> Vec<f64> {
        solves
            .iter()
            .filter(|s| s.parallel == parallel && traced.is_none_or(|t| s.traced == t))
            .map(|s| s.secs)
            .collect()
    };
    let mut metrics = Metrics::default();
    if !cfg.trace {
        let all: Vec<f64> = solves.iter().map(|s| s.secs * 1e3).collect();
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("solve_s", median(&secs(true, None)), "s");
        metrics.push("seq_solve_s", median(&secs(false, None)), "s");
        metrics.push("jobs_per_s", solves.len() as f64 / window, "jobs/s");
        metrics.push("job_p50_ms", median(&all), "ms");
        // Too few solves for a p99 with ten samples beyond it: the
        // slowest solve stands in for the tail.
        metrics.push("job_p99_ms", quantile_or_max(&all, 0.99), "ms");
        metrics.push(
            "ok_ratio",
            1.0 - failed as f64 / attempted as f64,
            "fraction",
        );
        metrics.push("peak_rss_mb", peak_rss, "MB");
    } else {
        eprint!("{}", tracer.summary());
        let stages = layers::probe(&a, &b, cfg.seed, cfg.nproc, &mut metrics);
        layers::batching(
            &a,
            &b,
            &builder(SolverFamily::Rgs, 1).term(Termination::sweeps(WARM_SWEEPS)),
            1,
            &mut metrics,
        );
        let sweeps = |parallel: bool| -> Vec<f64> {
            solves
                .iter()
                .filter(|s| s.parallel == parallel)
                .map(|s| s.sweeps as f64)
                .collect()
        };
        let taus: Vec<f64> = solves
            .iter()
            .filter(|s| s.parallel)
            .filter_map(|s| s.tau)
            .map(|t| t as f64)
            .collect();
        let par_sweeps = median(&sweeps(true));
        metrics.push("core.sweeps", par_sweeps, "sweeps");
        metrics.push("core.seq_sweeps", median(&sweeps(false)), "sweeps");
        metrics.push("core.tau_max", median(&taus), "updates");
        crate::serve::push_no_serving(&mut metrics);
        let untraced = median(&secs(true, Some(false)));
        let traced = median(&secs(true, Some(true)));
        metrics.push(
            "trace.overhead_share",
            overhead_share(traced, untraced),
            "fraction",
        );
        // One AsyRGS solve = admission symmetry check + validation, then
        // per sweep an observation, an epoch barrier and n updates.
        let model_ms = stages.symmetry_ms
            + stages.validate_ms
            + par_sweeps * (stages.observe_ms + stages.round_us * 1e-3)
            + par_sweeps * N as f64 * stages.update_ns_tn * 1e-6;
        metrics.push(
            "trace.accounted_share",
            model_ms / (untraced * 1e3),
            "fraction",
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
