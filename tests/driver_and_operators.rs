//! Integration tests for the two abstractions this workspace is built on:
//!
//! * the shared solve driver (`asyrgs_core::driver`) — termination
//!   precedence, recorder cadence (including `Recording::end_only`), and
//!   the wall-clock budget, exercised through real solver entry points;
//! * the operator layer (`asyrgs_sparse::op`) — `try_cg_solve` must produce a
//!   bit-identical residual trace whether dispatched statically on
//!   `CsrMatrix` or through `&dyn LinearOperator`, and the zero-copy
//!   `UnitDiagonalView` must match the materialized rescaling bitwise;
//! * the input-validation contract — every public `*_solve` boundary
//!   rejects mismatched `b`/`x` lengths with a clear message instead of
//!   an opaque index panic deep in a kernel.

use asyrgs::prelude::*;
use asyrgs::workloads::{diag_dominant, laplace2d, random_lsq, LsqParams};
use std::time::Duration;

fn spd_problem(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = diag_dominant(n, 4, 2.5, seed);
    let b = a.matvec(&vec![1.0; n]);
    (a, b)
}

// ---------------------------------------------------------------------------
// Driver semantics through real solvers
// ---------------------------------------------------------------------------

#[test]
fn recorder_cadence_through_rgs() {
    let (a, b) = spd_problem(60, 1);
    let run = |every: usize| {
        let mut x = vec![0.0; 60];
        try_rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                term: Termination::sweeps(12),
                record: Recording::every(every),
                ..Default::default()
            },
        )
        .expect("solve failed")
        .records
        .iter()
        .map(|r| r.sweep)
        .collect::<Vec<_>>()
    };
    assert_eq!(run(1), (1..=12).collect::<Vec<_>>());
    assert_eq!(run(5), vec![5, 10, 12]); // cadence plus the stopping boundary
    assert_eq!(run(0), vec![12]); // end-only: exactly one record
}

#[test]
fn termination_precedence_target_beats_budget_and_cap() {
    // All three criteria armed; the system converges immediately (warm
    // start at the exact solution), so the target must win and the report
    // must say "converged", not "out of time".
    let (a, b) = spd_problem(40, 2);
    let mut x = vec![1.0; 40]; // exact solution
    let rep = try_rgs_solve(
        &a,
        &b,
        &mut x,
        None,
        &RgsOptions {
            term: Termination::sweeps(1)
                .with_target(1e-8)
                .with_wall_clock(Duration::from_secs(0)),
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(rep.converged_early);
    assert!(!rep.stopped_on_budget);
}

#[test]
fn wall_clock_budget_reported_across_solver_families() {
    // A zero budget stops every driver-run solver at its first
    // observation boundary, uniformly reported via `stopped_on_budget`.
    let (a, b) = spd_problem(50, 3);
    let term = Termination::sweeps(100_000).with_wall_clock(Duration::from_secs(0));

    let mut x = vec![0.0; 50];
    let r1 = try_rgs_solve(
        &a,
        &b,
        &mut x,
        None,
        &RgsOptions {
            term: term.clone(),
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(r1.stopped_on_budget && r1.sweeps_run() == 1);

    let mut x = vec![0.0; 50];
    let r2 = try_asyrgs_solve(
        &a,
        &b,
        &mut x,
        None,
        &AsyRgsOptions {
            threads: 2,
            epoch_sweeps: Some(1),
            term: term.clone(),
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(r2.stopped_on_budget && r2.sweeps_run() == 1);

    let mut x = vec![0.0; 50];
    let r3 = try_cg_solve(
        &a,
        &b,
        &mut x,
        &CgOptions {
            term,
            ..Default::default()
        },
    )
    .expect("solve failed");
    assert!(r3.stopped_on_budget && r3.iterations == 1);
}

// ---------------------------------------------------------------------------
// Operator layer
// ---------------------------------------------------------------------------

#[test]
fn cg_residual_trace_identical_static_vs_dyn_dispatch() {
    // The acceptance property of the LinearOperator layer: bit-identical
    // traces through CsrMatrix directly vs &dyn-style dispatch.
    let a = laplace2d(12, 12);
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let opts = CgOptions::default();

    let mut x_static = vec![0.0; n];
    let rep_static = try_cg_solve(&a, &b, &mut x_static, &opts).expect("solve failed");

    let dyn_op: &dyn LinearOperator = &a;
    let mut x_dyn = vec![0.0; n];
    let rep_dyn = try_cg_solve(dyn_op, &b, &mut x_dyn, &opts).expect("solve failed");

    assert_eq!(x_static, x_dyn);
    assert_eq!(rep_static.residual_series(), rep_dyn.residual_series());
    assert_eq!(rep_static.final_rel_residual, rep_dyn.final_rel_residual);
    assert_eq!(rep_static.iterations, rep_dyn.iterations);
}

#[test]
fn unit_diagonal_view_drives_solvers_without_materializing() {
    // Paper §3 rescaling through the zero-copy view: same iterates as the
    // materialized rescaled matrix, bitwise.
    let bmat = diag_dominant(50, 5, 2.0, 7);
    let u = UnitDiagonal::from_spd(&bmat).unwrap();
    let view = UnitDiagonalView::new(&bmat).unwrap();
    let z: Vec<f64> = (0..50).map(|i| (i as f64 * 0.23).sin()).collect();
    let dz = u.rhs_to_unit(&z);
    let opts = RgsOptions {
        term: Termination::sweeps(8),
        record: Recording::end_only(),
        ..Default::default()
    };
    let mut x_mat = vec![0.0; 50];
    try_rgs_solve(&u.a, &dz, &mut x_mat, None, &opts).expect("solve failed");
    let mut x_view = vec![0.0; 50];
    try_rgs_solve(&view, &dz, &mut x_view, None, &opts).expect("solve failed");
    assert_eq!(x_mat, x_view);

    // CG through the view agrees with CG on the materialized matrix too.
    let mut c_mat = vec![0.0; 50];
    let mut c_view = vec![0.0; 50];
    let copts = CgOptions::default();
    try_cg_solve(&u.a, &dz, &mut c_mat, &copts).expect("solve failed");
    try_cg_solve(&view, &dz, &mut c_view, &copts).expect("solve failed");
    assert_eq!(c_mat, c_view);
}

#[test]
fn asyrgs_runs_on_the_view_single_thread_deterministically() {
    let bmat = diag_dominant(40, 4, 2.0, 11);
    let view = UnitDiagonalView::new(&bmat).unwrap();
    let z = vec![1.0; 40];
    let dz = view.rhs_to_unit(&z);
    let opts = AsyRgsOptions {
        threads: 1,
        term: Termination::sweeps(6),
        ..Default::default()
    };
    let mut x1 = vec![0.0; 40];
    try_asyrgs_solve(&view, &dz, &mut x1, None, &opts).expect("solve failed");
    let mut x2 = vec![0.0; 40];
    try_asyrgs_solve(&view, &dz, &mut x2, None, &opts).expect("solve failed");
    assert_eq!(x1, x2);
}

// ---------------------------------------------------------------------------
// Input validation at every public *_solve boundary
// ---------------------------------------------------------------------------

#[test]
fn every_solver_rejects_mismatched_shapes_with_typed_errors() {
    let (a, b) = spd_problem(10, 5);
    let bad_b = vec![1.0; 7];
    let mut bad_x = vec![0.0; 3];
    let k = 2;
    let b_blk = RowMajorMat::zeros(10, k);
    let mut bad_x_blk = RowMajorMat::zeros(9, k);

    // Every rejection is a typed DimensionMismatch whose Display text
    // names the entry point and the offending dimension, and the output
    // buffer is left untouched.
    let check = |err: SolveError, needle: &str, x_probe: &[f64]| {
        assert!(
            matches!(err, SolveError::DimensionMismatch { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg}");
        assert!(x_probe.iter().all(|&v| v == 0.0), "x was mutated");
    };

    let mut x = vec![0.0; 10];
    let err = try_rgs_solve(&a, &bad_b, &mut x, None, &RgsOptions::default()).unwrap_err();
    check(err, "asyrgs_solve: right-hand side b has length 7", &x);

    let err = try_asyrgs_solve(&a, &b, &mut bad_x, None, &AsyRgsOptions::default()).unwrap_err();
    check(err, "asyrgs_solve: solution vector x has length 3", &bad_x);

    let mut x = vec![0.0; 10];
    let err = try_jacobi_solve(&a, &bad_b, &mut x, None, &JacobiOptions::default()).unwrap_err();
    check(err, "jacobi_solve: right-hand side b has length 7", &x);

    let mut x = vec![0.0; 10];
    let err =
        try_async_jacobi_solve(&a, &bad_b, &mut x, None, &JacobiOptions::default()).unwrap_err();
    check(
        err,
        "async_jacobi_solve: right-hand side b has length 7",
        &x,
    );

    let mut x = vec![0.0; 10];
    let err =
        try_partitioned_solve(&a, &bad_b, &mut x, &PartitionedOptions::default()).unwrap_err();
    check(err, "partitioned_solve: right-hand side b has length 7", &x);

    let mut x = vec![0.0; 10];
    let err = try_cg_solve(&a, &bad_b, &mut x, &CgOptions::default()).unwrap_err();
    check(err, "cg_solve: right-hand side b has length 7", &x);

    let mut x = vec![0.0; 10];
    let err =
        try_fcg_solve(&a, &bad_b, &mut x, &IdentityPrecond, &FcgOptions::default()).unwrap_err();
    check(err, "fcg_solve: right-hand side b has length 7", &x);

    let mut x_blk = RowMajorMat::zeros(10, k);
    let err = try_asyrgs_solve_block(
        &a,
        &RowMajorMat::zeros(8, k),
        &mut x_blk,
        &AsyRgsOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap_err();
    check(
        err,
        "asyrgs_solve_block: right-hand-side block B has 8 rows",
        x_blk.as_slice(),
    );

    let err =
        try_asyrgs_solve_block(&a, &b_blk, &mut bad_x_blk, &AsyRgsOptions::default()).unwrap_err();
    check(
        err,
        "asyrgs_solve_block: solution block X has 9 rows",
        bad_x_blk.as_slice(),
    );

    let mut x_blk = RowMajorMat::zeros(10, 3);
    let err = asyrgs::krylov::try_cg_solve_block(&a, &b_blk, &mut x_blk, &CgOptions::default())
        .unwrap_err();
    check(
        err,
        "cg_solve_block: B has 2 right-hand sides but X has 3",
        x_blk.as_slice(),
    );

    // Least squares: rectangular operator, both directions checked.
    let p = random_lsq(&LsqParams {
        rows: 30,
        cols: 10,
        nnz_per_col: 3,
        noise: 0.0,
        seed: 9,
    });
    let op = LsqOperator::new(p.a.clone());
    let mut x = vec![0.0; 10];
    let err = try_rcd_solve(&op, &vec![0.0; 29], &mut x, &LsqSolveOptions::default()).unwrap_err();
    check(
        err,
        "rcd_solve: right-hand side b has length 29 but A has 30 rows",
        &x,
    );
    let mut x = vec![0.0; 11];
    let err = try_async_rcd_solve(&op, &p.b, &mut x, &LsqSolveOptions::default()).unwrap_err();
    check(
        err,
        "async_rcd_solve: solution vector x has length 11 but A has 10 columns",
        &x,
    );
}
