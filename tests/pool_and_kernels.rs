//! Property tests for the persistent worker pool and the pooled kernels:
//! pooled results must be **bitwise identical** to their serial
//! counterparts across seeds, pool widths (1, 2, ncpu) and ragged sizes
//! (n not divisible by the chunk grain), and pooled single-thread solver
//! epochs must reproduce the sequential solvers exactly.

use asyrgs::parallel::WorkerPool;
use asyrgs::prelude::*;
use asyrgs::workloads::{diag_dominant, random_lsq, LsqParams};

/// Pool widths exercised everywhere: serial, two-way, and the machine
/// width (whatever it is — on a single-core container this is 1 again,
/// which is fine: the point is the results cannot depend on it).
fn pool_widths() -> Vec<usize> {
    let ncpu = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut w = vec![1, 2, ncpu];
    w.sort_unstable();
    w.dedup();
    w
}

/// Ragged and aligned sizes around the kernels' chunk grains (1024 for
/// matvec and residual, 256 for spmm).
const SIZES: [usize; 6] = [1, 7, 255, 1023, 1024, 2049];

#[test]
fn pooled_matvec_bitwise_matches_serial_across_pools_and_sizes() {
    // Also the AsyRGS epoch residual: `par_residual_into_on` at the
    // solve's thread count, which may be below the pool's width, must
    // equal `residual_into` bit for bit.
    let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    for (si, &n) in SIZES.iter().enumerate() {
        for seed in [1u64, 99] {
            let a = diag_dominant(n, 5.min(n), 2.0, seed.wrapping_add(si as u64));
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).cos()).collect();
            let mut y_serial = vec![0.0; n];
            a.matvec_into(&x, &mut y_serial);
            let mut r_serial = vec![0.0; n];
            a.residual_into(&b, &x, &mut r_serial);
            for &w in &pool_widths() {
                let pool = WorkerPool::new(w);
                let mut y_pool = vec![f64::NAN; n];
                a.par_matvec_into_on(&pool, &x, &mut y_pool);
                assert_eq!(y_serial, y_pool, "n={n} seed={seed} pool={w}");
                for threads in 1..=w {
                    let mut r_pool = vec![f64::NAN; n];
                    LinearOperator::par_residual_into_on(&a, &pool, threads, &b, &x, &mut r_pool);
                    assert_eq!(
                        bits(&r_serial),
                        bits(&r_pool),
                        "residual: n={n} seed={seed} pool={w} threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn pooled_spmm_bitwise_matches_serial_across_pools_and_rhs_counts() {
    // RHS counts straddling the 4-wide register blocking (remainder
    // columns 1..3) and row counts straddling the 256-row chunk grain.
    for &n in &[3usize, 255, 257, 1030] {
        for k in [1usize, 3, 4, 6, 8] {
            let a = diag_dominant(n, 4.min(n), 2.0, 11);
            let mut x = RowMajorMat::zeros(n, k);
            for i in 0..n {
                for t in 0..k {
                    x.set(i, t, ((i * 31 + t * 7) % 13) as f64 - 6.0);
                }
            }
            let mut y_serial = RowMajorMat::zeros(n, k);
            a.spmm_into(&x, &mut y_serial);
            for &w in &pool_widths() {
                let pool = WorkerPool::new(w);
                let mut y_pool = RowMajorMat::zeros(n, k);
                a.par_spmm_into_on(&pool, &x, &mut y_pool);
                assert_eq!(
                    y_serial.as_slice(),
                    y_pool.as_slice(),
                    "n={n} k={k} pool={w}"
                );
            }
        }
    }
}

#[test]
fn pooled_asyrgs_single_thread_bitwise_matches_sequential_rgs() {
    // One worker means no asynchrony: the pooled epoch loop must replay
    // the sequential iterate bit for bit, for any epoch length and on any
    // injected pool width.
    for seed in [0x5EED_u64, 1, 2, 3] {
        let n = 120;
        let a = diag_dominant(n, 5, 2.0, seed);
        let b = a.matvec(&vec![1.0; n]);
        let mut x_seq = vec![0.0; n];
        try_rgs_solve(
            &a,
            &b,
            &mut x_seq,
            None,
            &RgsOptions {
                seed,
                term: Termination::sweeps(8),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        for epoch_sweeps in [None, Some(1), Some(3)] {
            for &w in &pool_widths() {
                let pool = WorkerPool::new(w);
                let mut x_async = vec![0.0; n];
                asyrgs::core::asyrgs_solve_in(
                    &pool,
                    &mut SolveWorkspace::new(),
                    &a,
                    &b,
                    &mut x_async,
                    None,
                    &AsyRgsOptions {
                        threads: 1,
                        seed,
                        epoch_sweeps,
                        term: Termination::sweeps(8),
                        record: Recording::end_only(),
                        ..Default::default()
                    },
                )
                .expect("solve failed");
                assert_eq!(
                    x_seq, x_async,
                    "seed={seed} epochs={epoch_sweeps:?} pool={w}"
                );
            }
        }
    }
}

#[test]
fn pooled_async_jacobi_single_thread_reproducible_across_pools() {
    let n = 200;
    let a = diag_dominant(n, 4, 2.0, 5);
    let b = a.matvec(&vec![1.0; n]);
    let run = |pool: &WorkerPool| {
        let mut x = vec![0.0; n];
        asyrgs::core::async_jacobi_solve_in(
            pool,
            &mut SolveWorkspace::new(),
            &a,
            &b,
            &mut x,
            None,
            &JacobiOptions {
                threads: 1,
                term: Termination::sweeps(20),
                record: Recording::every(5),
                ..Default::default()
            },
        )
        .expect("solve failed");
        x
    };
    let reference = run(&WorkerPool::new(1));
    for &w in &pool_widths() {
        assert_eq!(reference, run(&WorkerPool::new(w)), "pool={w}");
    }
}

#[test]
fn pooled_partitioned_single_block_reproducible_across_pools() {
    let n = 150;
    let a = diag_dominant(n, 5, 2.0, 9);
    let b = a.matvec(&vec![1.0; n]);
    let run = |pool: &WorkerPool| {
        let mut x = vec![0.0; n];
        asyrgs::core::partitioned_solve_in(
            pool,
            &mut SolveWorkspace::new(),
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 1,
                term: Termination::sweeps(30),
                ..Default::default()
            },
        )
        .expect("solve failed");
        x
    };
    let reference = run(&WorkerPool::new(1));
    for &w in &pool_widths() {
        assert_eq!(reference, run(&WorkerPool::new(w)), "pool={w}");
    }
}

#[test]
fn pooled_async_rcd_single_thread_bitwise_matches_across_pools() {
    let p = random_lsq(&LsqParams {
        rows: 200,
        cols: 50,
        nnz_per_col: 5,
        noise: 0.0,
        seed: 13,
    });
    let op = LsqOperator::new(p.a);
    let run = |pool: &WorkerPool| {
        let mut x = vec![0.0; op.n_cols()];
        asyrgs::core::async_rcd_solve_in(
            pool,
            &mut SolveWorkspace::new(),
            &op,
            &p.b,
            &mut x,
            &LsqSolveOptions {
                threads: 1,
                term: Termination::sweeps(12),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        x
    };
    let reference = run(&WorkerPool::new(1));
    for &w in &pool_widths() {
        assert_eq!(reference, run(&WorkerPool::new(w)), "pool={w}");
    }
}

#[test]
fn pooled_block_solve_single_thread_bitwise_matches_sequential() {
    let n = 100;
    let k = 3;
    let a = diag_dominant(n, 4, 2.0, 17);
    let mut b_blk = RowMajorMat::zeros(n, k);
    for t in 0..k {
        let col: Vec<f64> = (0..n).map(|i| ((i * (t + 1)) % 9) as f64).collect();
        b_blk.set_col(t, &col);
    }
    let mut x_seq = RowMajorMat::zeros(n, k);
    try_asyrgs_solve_block(
        &a,
        &b_blk,
        &mut x_seq,
        &AsyRgsOptions {
            threads: 1,
            epoch_sweeps: Some(1),
            term: Termination::sweeps(6),
            record: Recording::end_only(),
            ..Default::default()
        },
    )
    .expect("solve failed");
    for &w in &pool_widths() {
        let pool = WorkerPool::new(w);
        let mut x_async = RowMajorMat::zeros(n, k);
        asyrgs::core::asyrgs_solve_block_in(
            &pool,
            &mut SolveWorkspace::new(),
            &a,
            &b_blk,
            &mut x_async,
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(6),
                record: Recording::end_only(),
                ..Default::default()
            },
        )
        .expect("solve failed");
        assert_eq!(x_seq.as_slice(), x_async.as_slice(), "pool={w}");
    }
}

#[test]
fn multithreaded_pooled_solvers_still_converge() {
    // Bitwise identity is only defined for one worker; with several, the
    // guarantee is the paper's: the *direction set* is fixed and the solve
    // converges. Run every pooled solver multithreaded as a smoke check.
    let n = 256;
    let a = diag_dominant(n, 5, 2.0, 3);
    let x_star = vec![1.0; n];
    let b = a.matvec(&x_star);
    let pool = WorkerPool::new(4);

    let mut x = vec![0.0; n];
    let rep = asyrgs::core::asyrgs_solve_in(
        &pool,
        &mut SolveWorkspace::new(),
        &a,
        &b,
        &mut x,
        None,
        &AsyRgsOptions {
            threads: 4,
            term: Termination::sweeps(60),
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(rep.final_rel_residual < 1e-3, "{}", rep.final_rel_residual);

    let mut x = vec![0.0; n];
    let rep = asyrgs::core::partitioned_solve_in(
        &pool,
        &mut SolveWorkspace::new(),
        &a,
        &b,
        &mut x,
        &PartitionedOptions {
            threads: 4,
            term: Termination::sweeps(60),
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(rep.final_rel_residual < 1e-3, "{}", rep.final_rel_residual);

    let mut x = vec![0.0; n];
    let rep = asyrgs::core::async_jacobi_solve_in(
        &pool,
        &mut SolveWorkspace::new(),
        &a,
        &b,
        &mut x,
        None,
        &JacobiOptions {
            threads: 4,
            term: Termination::sweeps(120),
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(rep.final_rel_residual < 1e-3, "{}", rep.final_rel_residual);
}

#[test]
fn solver_epochs_on_shared_global_pool_are_isolated() {
    // Two different systems solved back-to-back through the default entry
    // points (global pool reuse) give the same iterates as through two
    // dedicated pools: no state leaks between solves.
    let a1 = diag_dominant(90, 4, 2.0, 1);
    let a2 = diag_dominant(130, 5, 2.5, 2);
    let b1 = a1.matvec(&vec![1.0; 90]);
    let b2 = a2.matvec(&vec![1.0; 130]);
    let opts = AsyRgsOptions {
        threads: 1,
        term: Termination::sweeps(6),
        record: Recording::end_only(),
        ..Default::default()
    };
    let mut x1_global = vec![0.0; 90];
    let mut x2_global = vec![0.0; 130];
    try_asyrgs_solve(&a1, &b1, &mut x1_global, None, &opts).expect("solve failed");
    try_asyrgs_solve(&a2, &b2, &mut x2_global, None, &opts).expect("solve failed");
    let mut x1_own = vec![0.0; 90];
    let mut x2_own = vec![0.0; 130];
    asyrgs::core::asyrgs_solve_in(
        &WorkerPool::new(2),
        &mut SolveWorkspace::new(),
        &a1,
        &b1,
        &mut x1_own,
        None,
        &opts,
    )
    .expect("solve failed");
    asyrgs::core::asyrgs_solve_in(
        &WorkerPool::new(2),
        &mut SolveWorkspace::new(),
        &a2,
        &b2,
        &mut x2_own,
        None,
        &opts,
    )
    .expect("solve failed");
    assert_eq!(x1_global, x1_own);
    assert_eq!(x2_global, x2_own);
}
