//! Determinism and reproducibility guarantees across the workspace:
//! the fixed-direction-set property (paper Section 9's Random123 usage),
//! machine-simulator determinism, and seed sensitivity.

mod common;

use asyrgs::core::asyrgs::ReadMode;
use asyrgs::parallel::WorkerPool;
use asyrgs::prelude::*;
use asyrgs::rng::{DirectionStream, Philox4x32};
use asyrgs::sim::{simulate_asyrgs, simulate_delay, DelaySimOptions, MachineModel};
use asyrgs::sparse::UnitDiagonal;
use asyrgs::workloads::{diag_dominant, laplace2d};

#[test]
fn direction_set_identical_across_consumers() {
    // The direction at iteration j is a pure function of (seed, j): any
    // component that replays the stream sees the same directions.
    let n = 500;
    let seed = 0xFEED;
    let ds1 = DirectionStream::new(seed, n);
    let ds2 = DirectionStream::new(seed, n);
    let gen = Philox4x32::from_seed(seed);
    for j in 0..10_000u64 {
        let d = ds1.direction(j);
        assert_eq!(d, ds2.direction(j));
        assert_eq!(d, (((gen.u64_at(j) as u128) * n as u128) >> 64) as usize);
    }
}

#[test]
fn sequential_solvers_bitwise_reproducible() {
    let (a, b, _) = common::laplace_problem(10);
    let n = a.n_rows();
    assert_eq!(n, 100);
    let opts = RgsOptions {
        term: Termination::sweeps(12),
        record: Recording::every(3),
        ..Default::default()
    };
    let mut x1 = vec![0.0; n];
    let r1 = try_rgs_solve(&a, &b, &mut x1, None, &opts).expect("solve failed");
    let mut x2 = vec![0.0; n];
    let r2 = try_rgs_solve(&a, &b, &mut x2, None, &opts).expect("solve failed");
    assert_eq!(x1, x2);
    assert_eq!(r1.residual_series(), r2.residual_series());
}

#[test]
fn asyrgs_single_thread_bitwise_reproducible() {
    let (a, b, _) = common::laplace_problem(8);
    let n = a.n_rows();
    let opts = AsyRgsOptions {
        threads: 1,
        term: Termination::sweeps(10),
        ..Default::default()
    };
    let mut x1 = vec![0.0; n];
    try_asyrgs_solve(&a, &b, &mut x1, None, &opts).expect("solve failed");
    let mut x2 = vec![0.0; n];
    try_asyrgs_solve(&a, &b, &mut x2, None, &opts).expect("solve failed");
    assert_eq!(x1, x2);
}

#[test]
fn asyrgs_multithreaded_varies_but_stays_accurate() {
    // Multithreaded runs are *intentionally* nondeterministic (scheduling),
    // but every run must land within the same accuracy band. This mirrors
    // the paper's five-trial min/max residual experiment (Section 9).
    let a = asyrgs::workloads::diag_dominant(256, 6, 2.0, 7);
    let x_true: Vec<f64> = (0..256).map(|i| (i as f64 * 0.11).cos()).collect();
    let b = a.matvec(&x_true);
    let mut finals = Vec::new();
    for _ in 0..5 {
        let mut x = vec![0.0; 256];
        let rep = try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 4,
                term: Termination::sweeps(10),
                ..Default::default()
            },
        )
        .expect("solve failed");
        finals.push(rep.final_rel_residual);
    }
    let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = finals.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max / min < 25.0,
        "async residual spread too wide: {finals:?}"
    );
    // Under oversubscribed full-suite load delays inflate; require
    // robust accuracy rather than a tight tolerance.
    assert!(max < 1e-1, "all runs must be accurate: {finals:?}");
}

#[test]
fn delay_sim_and_machine_sim_fully_deterministic() {
    let raw = laplace2d(6, 6);
    let u = UnitDiagonal::from_spd(&raw).unwrap();
    let n = u.a.n_rows();
    let x_star: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
    let b = u.a.matvec(&x_star);
    let x0 = vec![0.0; n];

    let d_opts = DelaySimOptions {
        iterations: 3000,
        ..Default::default()
    };
    let t1 = simulate_delay(&u.a, &b, &x0, &x_star, &d_opts);
    let t2 = simulate_delay(&u.a, &b, &x0, &x_star, &d_opts);
    assert_eq!(t1.x, t2.x);

    // The zero-copy rescaling backend must reproduce the materialized
    // matrix bitwise under the delay model too (the executors are generic
    // over `RowAccess`).
    let view = UnitDiagonalView::new(&raw).unwrap();
    let t3 = simulate_delay(&view, &b, &x0, &x_star, &d_opts);
    assert_eq!(t1.x, t3.x);
    assert_eq!(t1.errors, t3.errors);

    let m = MachineModel::default();
    let r1 = simulate_asyrgs(&u.a, &b, &x0, &x_star, &m, 8, 10, 1.0, 5);
    let r2 = simulate_asyrgs(&u.a, &b, &x0, &x_star, &m, 8, 10, 1.0, 5);
    assert_eq!(r1.x, r2.x);
    assert_eq!(r1.time, r2.time);
}

#[test]
fn seeds_actually_matter() {
    let a = laplace2d(7, 7);
    let n = a.n_rows();
    let b = vec![1.0; n];
    let run = |seed: u64| {
        let mut x = vec![0.0; n];
        try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                seed,
                term: Termination::sweeps(3),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        x
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn workload_generators_stable_across_calls() {
    use asyrgs::workloads::{gram_matrix, GramParams};
    let p = GramParams {
        n_terms: 100,
        n_docs: 300,
        seed: 77,
        ..Default::default()
    };
    let a = gram_matrix(&p).matrix;
    let b = gram_matrix(&p).matrix;
    assert_eq!(a, b);
}

/// A CSR matrix that delegates every operator and row method but keeps the
/// default `prefetch_pays() == false`: the same solves, walked without
/// prefetch hints.
struct PlainWalk<'a>(&'a CsrMatrix);

impl LinearOperator for PlainWalk<'_> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.matvec_into(x, y)
    }

    fn diag(&self) -> Vec<f64> {
        self.0.diag()
    }

    fn diag_into(&self, out: &mut Vec<f64>) {
        LinearOperator::diag_into(self.0, out)
    }

    fn par_residual_into_on(
        &self,
        pool: &WorkerPool,
        threads: usize,
        b: &[f64],
        x: &[f64],
        r: &mut [f64],
    ) {
        self.0.par_residual_into_on(pool, threads, b, x, r)
    }
}

impl RowAccess for PlainWalk<'_> {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, f: F) {
        RowAccess::visit_row(self.0, i, f)
    }

    fn row_nnz(&self, i: usize) -> usize {
        self.0.row_nnz(i)
    }

    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        self.0.row_dot(i, x)
    }

    fn row_dot_with<L: FnMut(usize) -> f64>(&self, i: usize, load: L) -> f64 {
        self.0.row_dot_with(i, load)
    }

    fn row_entry(&self, i: usize, j: usize) -> f64 {
        self.0.get(i, j)
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        self.0.is_symmetric(tol)
    }
}

/// Assert two solves returned the same iterate and records, bit for bit.
fn assert_same_bits(
    what: &str,
    (x1, r1): (Vec<f64>, SolveReport),
    (x2, r2): (Vec<f64>, SolveReport),
) {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(bits(&x1) == bits(&x2), "{what}: iterates differ");
    assert_eq!(r1.records, r2.records, "{what}: records differ");
    assert_eq!(
        r1.iterations, r2.iterations,
        "{what}: iteration counts differ"
    );
    assert_eq!(
        r1.final_rel_residual.to_bits(),
        r2.final_rel_residual.to_bits(),
        "{what}: final residuals differ"
    );
}

#[test]
fn prefetch_walk_is_bitwise_the_plain_walk() {
    // The smallest diag_dominant(., 16, 2.0, .) past PREFETCH_MIN_BYTES:
    // n = 2^14 stores 8.1 MB of entries, n = 2^13 only 4.06 MB.
    let a = diag_dominant(1 << 14, 16, 2.0, common::TEST_SEED);
    assert!(a.prefetch_pays(), "the matrix must take the prefetch walk");
    let plain = PlainWalk(&a);
    assert!(!plain.prefetch_pays());
    let n = a.n_rows();
    let x_star = common::planted_x(n);
    let b = a.matvec(&x_star);
    // A residual target keeps AsyRGS epochs at one sweep, so it records
    // at the same points as RGS; 3 sweeps never reach it.
    let term = Termination::sweeps(3).with_target(1e-30);

    fn rgs<O: RowAccess + Sync>(
        a: &O,
        b: &[f64],
        xs: &[f64],
        opts: &RgsOptions,
    ) -> (Vec<f64>, SolveReport) {
        let mut x = vec![0.0; b.len()];
        let rep = try_rgs_solve(a, b, &mut x, Some(xs), opts).expect("rgs solve");
        (x, rep)
    }
    fn asy<O: RowAccess + Sync>(
        a: &O,
        b: &[f64],
        xs: &[f64],
        opts: &AsyRgsOptions,
    ) -> (Vec<f64>, SolveReport) {
        let mut x = vec![0.0; b.len()];
        let rep = try_asyrgs_solve(a, b, &mut x, Some(xs), opts).expect("asyrgs solve");
        (x, rep)
    }

    let seq = RgsOptions {
        term: term.clone(),
        ..Default::default()
    };
    let guarded = RgsOptions {
        health: Some(HealthConfig::default()),
        ..seq.clone()
    };
    let t1 = AsyRgsOptions {
        threads: 1,
        term: term.clone(),
        ..Default::default()
    };
    let locked = AsyRgsOptions {
        read_mode: ReadMode::LockedConsistent,
        ..t1.clone()
    };

    let rgs_hinted = rgs(&a, &b, &x_star, &seq);
    assert_same_bits("rgs", rgs_hinted.clone(), rgs(&plain, &b, &x_star, &seq));
    assert_same_bits(
        "rgs with a watchdog",
        rgs(&a, &b, &x_star, &guarded),
        rgs(&plain, &b, &x_star, &guarded),
    );
    let asy_hinted = asy(&a, &b, &x_star, &t1);
    assert_same_bits(
        "asyrgs t1",
        asy_hinted.clone(),
        asy(&plain, &b, &x_star, &t1),
    );
    assert_same_bits(
        "asyrgs t1 locked",
        asy(&a, &b, &x_star, &locked),
        asy(&plain, &b, &x_star, &locked),
    );
    assert_same_bits("asyrgs t1 vs rgs", asy_hinted, rgs_hinted);
}
