//! End-to-end solver benchmarks: RGS vs AsyRGS vs CG vs preconditioned
//! FCG on small fixed problems.
//!
//! Runs with `cargo bench -p asyrgs-bench --bench solvers` using the
//! hand-rolled harness in `asyrgs_bench::harness` (no external bench
//! framework in the container).

use asyrgs_bench::harness::{bench, black_box};
use asyrgs_core::asyrgs::{try_asyrgs_solve, AsyRgsOptions, WriteMode};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::lsq::{try_rcd_solve, LsqOperator, LsqSolveOptions};
use asyrgs_core::rgs::{try_rgs_solve, RgsOptions};
use asyrgs_core::workspace::SolveWorkspace;
use asyrgs_krylov::cg::{try_cg_solve, CgOptions};
use asyrgs_krylov::fcg::{try_fcg_solve, FcgOptions};
use asyrgs_krylov::precond::{PrecondSpec, SpecPrecond};
use asyrgs_workloads::{laplace2d, random_lsq, LsqParams};

fn setup() -> (asyrgs_sparse::CsrMatrix, Vec<f64>) {
    let a = laplace2d(32, 32);
    let n = a.n_rows();
    let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let b = a.matvec(&x_star);
    (a, b)
}

fn bench_ten_sweeps() {
    let (a, b) = setup();
    let n = a.n_rows();

    bench("ten_sweeps/rgs_sequential", || {
        let mut x = vec![0.0; n];
        try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                term: Termination::sweeps(10),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        black_box(x);
    });

    for threads in [1usize, 2, 4] {
        bench(&format!("ten_sweeps/asyrgs_atomic_{threads}t"), || {
            let mut x = vec![0.0; n];
            try_asyrgs_solve(
                &a,
                &b,
                &mut x,
                None,
                &AsyRgsOptions {
                    threads,
                    term: Termination::sweeps(10),
                    ..Default::default()
                },
            )
            .expect("solve failed");
            black_box(x);
        });
    }
    bench("ten_sweeps/asyrgs_non_atomic_2t", || {
        let mut x = vec![0.0; n];
        try_asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 2,
                write_mode: WriteMode::NonAtomic,
                term: Termination::sweeps(10),
                ..Default::default()
            },
        )
        .expect("solve failed");
        black_box(x);
    });
    bench("ten_sweeps/cg_10_iters", || {
        let mut x = vec![0.0; n];
        try_cg_solve(
            &a,
            &b,
            &mut x,
            &CgOptions {
                term: Termination::sweeps(10).with_target(0.0),
                record: Recording::end_only(),
            },
        )
        .expect("solve failed");
        black_box(x);
    });
}

fn bench_to_tolerance() {
    let (a, b) = setup();
    let n = a.n_rows();

    bench("solve_to_1e-6/cg", || {
        let mut x = vec![0.0; n];
        try_cg_solve(
            &a,
            &b,
            &mut x,
            &CgOptions {
                term: Termination::sweeps(1000).with_target(1e-6),
                record: Recording::end_only(),
            },
        )
        .expect("solve failed");
        black_box(x);
    });
    bench("solve_to_1e-6/fcg_asyrgs_2sweeps_2t", || {
        let pool = asyrgs_parallel::pool_for(2);
        let scratch = std::sync::Mutex::new(SolveWorkspace::new());
        let spec = PrecondSpec::AsyRgs { inner_sweeps: 2 };
        let pre = SpecPrecond::new(&a, spec, 2, 1.0, 5, &pool, &scratch).expect("valid");
        let mut x = vec![0.0; n];
        try_fcg_solve(
            &a,
            &b,
            &mut x,
            &pre,
            &FcgOptions {
                term: Termination::sweeps(2000).with_target(1e-6),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        black_box(x);
    });
}

fn bench_lsq() {
    let p = random_lsq(&LsqParams {
        rows: 2000,
        cols: 400,
        nnz_per_col: 8,
        noise: 0.0,
        seed: 11,
    });
    let op = LsqOperator::new(p.a.clone());
    bench("least_squares/rcd_20_sweeps", || {
        let mut x = vec![0.0; 400];
        try_rcd_solve(
            &op,
            &p.b,
            &mut x,
            &LsqSolveOptions {
                term: Termination::sweeps(20),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        black_box(x);
    });
}

fn main() {
    bench_ten_sweeps();
    bench_to_tolerance();
    bench_lsq();
}
