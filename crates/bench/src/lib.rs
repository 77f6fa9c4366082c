//! Shared harness for the figure/table regeneration binaries.
//!
//! Every table and figure in the paper's evaluation (Section 9) has a
//! binary in `src/bin/` that regenerates it:
//!
//! | paper artifact | binary | what it prints |
//! |----------------|--------|----------------|
//! | Fig. 1         | `fig1` | residual vs sweep, Randomized G-S vs CG |
//! | Fig. 2 (left)  | `fig2_left` | time of 10 sweeps vs threads, AsyRGS vs CG (machine-simulated) |
//! | Fig. 2 (center)| `fig2_center` | residual after 10 sweeps: async atomic / async non-atomic / sync |
//! | Fig. 2 (right) | `fig2_right` | A-norm error after 10 sweeps, same variants |
//! | Table 1        | `table1` | FCG+AsyRGS inner-sweep trade-off |
//! | Fig. 3         | `fig3` | FCG time & outer iterations vs threads |
//! | (validation)   | `theory_validation` | Theorems 2-4 bounds vs measured |
//! | (validation)   | `lsq_validation` | Section 8 / Theorem 5 |
//! | (ablation)     | `beta_ablation` | step-size sweep vs theory optimum |
//! | (ablation)     | `sync_ablation` | occasional-synchronization epochs |
//!
//! Scale is controlled by `ASYRGS_BENCH_SCALE` = `small` (default; seconds)
//! or `full` (minutes, closer to the paper's matrix scale).
//!
//! The `BENCH_*.json` runners (`bench_runner`, `serve_runner`,
//! `scenario_runner`, `policy_runner`, `fault_runner`) write and gate
//! their output through [`report`].

use asyrgs::session::{SolveSession, SolverBuilder, SolverFamily};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::health::HealthConfig;
use asyrgs_sparse::CsrMatrix;
use asyrgs_workloads::scenarios::Scenario;

pub mod report;
use asyrgs_workloads::{gram_matrix, GramParams, GramProblem};

/// The session of one `scenario x family` cell of the corpus runners, so
/// `scenario_runner`'s cells and `policy_runner`'s picked and best cells
/// run one configuration: 2 threads, the scenario's sweep budget with a
/// target of half its tolerance, a record every sweep, and a
/// non-finite-only watchdog. A `may_diverge` cell that blows up then trips
/// with a typed error instead of running its budget on NaNs; there is no
/// divergence or stall heuristic, which could cut off a slow but finite
/// cell.
pub fn scenario_session(sc: &Scenario, family: SolverFamily) -> SolveSession {
    SolverBuilder::new(family)
        .threads(2)
        .term(Termination::sweeps(sc.sweeps).with_target(sc.tol * 0.5))
        .record(Recording::every(1))
        .health(HealthConfig::non_finite_only())
        .build()
        .expect("registry configurations are valid")
}

pub mod harness {
    //! A minimal timing harness for the `benches/` targets (the container
    //! has no external benchmark framework; the bench targets are built
    //! with `harness = false` and call [`bench()`] directly).

    use std::time::{Duration, Instant};

    /// Re-export of the compiler fence that keeps benched values alive.
    pub use std::hint::black_box;

    /// Measure `f`, printing median/min per-iteration time.
    ///
    /// Warms up briefly, then runs batches until ~200ms of samples (or
    /// `ASYRGS_BENCH_TIME_MS`) are collected.
    pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
        let budget = std::env::var("ASYRGS_BENCH_TIME_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(200));
        // Warm-up + batch sizing: aim for batches of ~5ms.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t.elapsed();
            if dt >= Duration::from_millis(5) || batch >= 1 << 30 {
                break;
            }
            batch *= 2;
        }
        let mut samples: Vec<f64> = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || samples.len() < 5 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
            if samples.len() >= 1000 {
                break;
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let min = samples[0];
        println!(
            "{name:<44} median {:>12} min {:>12} ({} samples x {batch} iters)",
            fmt_time(median),
            fmt_time(min),
            samples.len()
        );
    }

    fn fmt_time(seconds: f64) -> String {
        if seconds < 1e-6 {
            format!("{:.1} ns", seconds * 1e9)
        } else if seconds < 1e-3 {
            format!("{:.2} us", seconds * 1e6)
        } else if seconds < 1.0 {
            format!("{:.2} ms", seconds * 1e3)
        } else {
            format!("{seconds:.3} s")
        }
    }
}

/// Benchmark scale, from the `ASYRGS_BENCH_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs for CI and iteration.
    Small,
    /// Minutes-scale runs closer to the paper's sizes.
    Full,
}

impl Scale {
    /// Read the scale from the environment (`small` unless `full`).
    pub fn from_env() -> Scale {
        match std::env::var("ASYRGS_BENCH_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Small,
        }
    }
}

/// The standard social-media Gram workload at a given scale — the stand-in
/// for the paper's 120,147-dimensional test matrix.
pub fn standard_gram(scale: Scale) -> GramProblem {
    // ridge_rel calibrated so the Fig. 1 shape matches the paper: RGS ahead
    // of CG in the early sweeps, CG overtaking within ~200 sweeps. Smaller
    // ridges push the crossover beyond the plot window.
    let params = match scale {
        Scale::Small => GramParams {
            n_terms: 1200,
            n_docs: 4000,
            max_doc_len: 150,
            ridge_rel: 5e-2,
            seed: 0x50C1_A1DA,
            ..Default::default()
        },
        Scale::Full => GramParams {
            n_terms: 12_000,
            n_docs: 40_000,
            max_doc_len: 400,
            ridge_rel: 5e-2,
            seed: 0x50C1_A1DA,
            ..Default::default()
        },
    };
    gram_matrix(&params)
}

/// The paper's thread grid: powers of two up to 64.
pub const THREAD_GRID: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Number of right-hand sides solved together (paper: 51; scaled down at
/// `Small`).
pub fn rhs_count(scale: Scale) -> usize {
    match scale {
        Scale::Small => 8,
        Scale::Full => 51,
    }
}

/// Real-thread cap: beyond this we oversubscribe the container anyway, so
/// real accuracy experiments stop here while simulated timing continues
/// to 64.
pub fn real_thread_cap() -> usize {
    std::env::var("ASYRGS_BENCH_MAX_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// Random ±1 label block, the paper's right-hand-side style.
pub fn label_block(n: usize, k: usize, seed: u64) -> asyrgs_sparse::RowMajorMat {
    let mut rng = asyrgs_rng::Xoshiro256pp::new(seed);
    let mut b = asyrgs_sparse::RowMajorMat::zeros(n, k);
    for i in 0..n {
        for t in 0..k {
            b.set(i, t, if rng.next_f64() < 0.5 { -1.0 } else { 1.0 });
        }
    }
    b
}

/// A planted single right-hand side `b = A x*` for error-norm experiments
/// (paper Fig. 2 right constructs `b = A x*` the same way).
pub fn planted_rhs(a: &CsrMatrix, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let n = a.n_rows();
    let mut rng = asyrgs_rng::Xoshiro256pp::new(seed);
    let x_star: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
    let b = a.matvec(&x_star);
    (x_star, b)
}

/// Median of a sample (the paper reports medians of five runs).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Print a CSV header line.
pub fn csv_header(cols: &[&str]) {
    println!("{}", cols.join(","));
}

/// Print a CSV data row of floats with generous precision.
pub fn csv_row(label: &str, vals: &[f64]) {
    let mut out = String::from(label);
    for v in vals {
        out.push(',');
        out.push_str(&format!("{v:.6e}"));
    }
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn scale_from_env_defaults_small() {
        // Don't mutate the environment (tests run in parallel); just check
        // the default path when the variable is absent or unrecognized.
        if std::env::var("ASYRGS_BENCH_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
    }

    #[test]
    fn standard_gram_small_is_reasonable() {
        let g = standard_gram(Scale::Small);
        assert!(g.matrix.n_rows() > 500);
        assert!(g.matrix.is_symmetric(1e-6));
    }

    #[test]
    fn label_block_entries_are_pm_one() {
        let b = label_block(10, 3, 1);
        for v in b.as_slice() {
            assert!(*v == 1.0 || *v == -1.0);
        }
    }

    #[test]
    fn planted_rhs_consistent() {
        let a = asyrgs_workloads::laplace2d(5, 5);
        let (x_star, b) = planted_rhs(&a, 2);
        let r = a.residual(&b, &x_star);
        assert!(asyrgs_sparse::dense::norm2(&r) < 1e-12);
    }
}
