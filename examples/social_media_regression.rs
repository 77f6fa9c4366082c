//! The paper's motivating workload at laptop scale: multi-label linear
//! regression over a social-media-style Gram matrix (Section 9).
//!
//! Generates a synthetic term-frequency Gram matrix with the structural
//! properties the paper describes (SPD, highly skewed row sizes, no
//! structure), then solves a block of right-hand sides simultaneously —
//! the paper solves 51 label-prediction systems together — with
//! Randomized Gauss-Seidel, AsyRGS, and CG, to the *low accuracy* big-data
//! applications need.
//!
//! ```text
//! cargo run --release --example social_media_regression [n_terms] [n_docs] [n_labels] [threads]
//! ```

use asyrgs::prelude::*;
use asyrgs::workloads::{gram_matrix, skew_stats, GramParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_terms: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1500);
    let n_docs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5000);
    let n_labels: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let threads: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let problem = gram_matrix(&GramParams {
        n_terms,
        n_docs,
        ..Default::default()
    });
    let g = &problem.matrix;
    let n = g.n_rows();
    let stats = skew_stats(g);
    println!(
        "Gram matrix: n = {n}, nnz = {}, row nnz max/mean/min = {}/{:.1}/{} (skew {:.1}x)",
        g.nnz(),
        stats.max,
        stats.mean,
        stats.min,
        stats.max_over_mean
    );
    println!(
        "rho*n = {:.1}, rho2*n = {:.2} (paper reports ~231 and ~8.9 for its matrix)",
        g.rho() * n as f64,
        g.rho2() * n as f64
    );

    // Label right-hand sides: random +-1 "label scores" aggregated per term.
    let mut rng = asyrgs::rng::Xoshiro256pp::new(99);
    let mut b = RowMajorMat::zeros(n, n_labels);
    for i in 0..n {
        for t in 0..n_labels {
            b.set(i, t, if rng.next_f64() < 0.5 { -1.0 } else { 1.0 });
        }
    }

    // Big-data regime: low accuracy suffices (paper: beyond 10 sweeps the
    // downstream metric stops improving).
    let sweeps = 10;
    println!("\nsolving {n_labels} systems together, {sweeps} sweeps, target = low accuracy\n");

    let mut x_rgs = RowMajorMat::zeros(n, n_labels);
    let rgs = try_asyrgs_solve_block(
        g,
        &b,
        &mut x_rgs,
        &AsyRgsOptions {
            threads: 1,
            epoch_sweeps: Some(1),
            term: Termination::sweeps(sweeps),
            ..Default::default()
        },
    )
    .expect("solve failed");
    println!("Randomized Gauss-Seidel (sequential):");
    for rec in &rgs.records {
        println!(
            "  sweep {:>2}  rel residual {:.4e}",
            rec.sweep, rec.rel_residual
        );
    }
    println!("  wall time {:.3}s", rgs.wall_seconds);

    let mut x_asy = RowMajorMat::zeros(n, n_labels);
    let asy = try_asyrgs_solve_block(
        g,
        &b,
        &mut x_asy,
        &AsyRgsOptions {
            threads,
            epoch_sweeps: Some(1),
            term: Termination::sweeps(sweeps),
            ..Default::default()
        },
    )
    .expect("solve failed");
    println!("\nAsyRGS ({threads} threads, inconsistent reads, atomic writes):");
    for rec in &asy.records {
        println!(
            "  sweep {:>2}  rel residual {:.4e}",
            rec.sweep, rec.rel_residual
        );
    }
    println!("  wall time {:.3}s", asy.wall_seconds);

    let mut x_cg = RowMajorMat::zeros(n, n_labels);
    let cg = asyrgs::krylov::try_cg_solve_block(
        g,
        &b,
        &mut x_cg,
        &CgOptions {
            // Run exactly `sweeps` iterations for comparison.
            term: Termination::sweeps(sweeps).with_target(0.0),
            record: Recording::every(1),
        },
    )
    .expect("solve failed");
    println!("\nCG (same matrix-pass budget):");
    for rec in &cg.records {
        println!(
            "  iter  {:>2}  rel residual {:.4e}",
            rec.sweep, rec.rel_residual
        );
    }
    println!("  wall time {:.3}s", cg.wall_seconds);

    println!(
        "\nasync-vs-sync penalty after {sweeps} sweeps: {:.2}x residual ratio",
        asy.final_rel_residual / rgs.final_rel_residual
    );
}
