//! **Figure 2 (center)**: relative residual after 10 sweeps, comparing
//! AsyRGS (atomic writes), AsyRGS (non-atomic writes), and synchronous
//! Randomized Gauss-Seidel, across thread counts — plus the paper's
//! five-trial min/max spread at the top thread count.
//!
//! These are *real threaded runs* (accuracy depends on interleaving, not
//! on core count), with the direction set fixed by Philox so randomness is
//! identical across variants (the paper uses Random123 the same way).
//!
//! Paper shape: async residual slightly worse than sync but same order of
//! magnitude; no consistent advantage to atomic writes.
//!
//! ```text
//! cargo run -p asyrgs-bench --release --bin fig2_center
//! ```

use asyrgs_bench::{
    csv_header, csv_row, label_block, real_thread_cap, rhs_count, standard_gram, Scale, THREAD_GRID,
};
use asyrgs_core::asyrgs::{try_asyrgs_solve_block, AsyRgsOptions, WriteMode};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_sparse::RowMajorMat;

fn main() {
    let scale = Scale::from_env();
    let problem = standard_gram(scale);
    let g = &problem.matrix;
    let n = g.n_rows();
    let k = rhs_count(scale);
    let sweeps = 10;
    let seed = 0xF162;
    let b = label_block(n, k, seed);
    eprintln!("# fig2_center: n = {n}, {k} RHS, {sweeps} sweeps, fixed Philox direction set");

    // Synchronous reference (thread-count independent): AsyRGS on one
    // thread is sequential RGS.
    let mut x_sync = RowMajorMat::zeros(n, k);
    let sync = try_asyrgs_solve_block(
        g,
        &b,
        &mut x_sync,
        &AsyRgsOptions {
            threads: 1,
            seed,
            term: Termination::sweeps(sweeps),
            record: Recording::end_only(),
            ..Default::default()
        },
    )
    .expect("solve failed");

    let run_async = |threads: usize, mode: WriteMode| {
        let mut x = RowMajorMat::zeros(n, k);
        try_asyrgs_solve_block(
            g,
            &b,
            &mut x,
            &AsyRgsOptions {
                threads,
                write_mode: mode,
                seed,
                term: Termination::sweeps(sweeps),
                ..Default::default()
            },
        )
        .expect("solve failed")
        .final_rel_residual
    };

    csv_header(&["threads", "async_atomic", "async_non_atomic", "sync_rgs"]);
    let cap = real_thread_cap();
    for &p in THREAD_GRID.iter().filter(|&&p| p >= 2 && p <= cap) {
        let atomic = run_async(p, WriteMode::Atomic);
        let non_atomic = run_async(p, WriteMode::NonAtomic);
        csv_row(
            &p.to_string(),
            &[atomic, non_atomic, sync.final_rel_residual],
        );
    }

    // Five-trial spread at the top thread count (paper: atomic min/max
    // 1.44e-3 / 2.88e-3; non-atomic 1.39e-3 / 2.96e-3 — overlapping bands).
    let top = cap.min(*THREAD_GRID.last().unwrap()).max(2);
    for (label, mode) in [
        ("atomic", WriteMode::Atomic),
        ("non_atomic", WriteMode::NonAtomic),
    ] {
        let runs: Vec<f64> = (0..5).map(|_| run_async(top, mode)).collect();
        let min = runs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = runs.iter().cloned().fold(0.0f64, f64::max);
        eprintln!(
            "# 5-trial spread @{top} threads, {label}: min {min:.3e}, max {max:.3e} \
             (paper: overlapping bands for both variants)"
        );
    }
    eprintln!(
        "# sync reference residual: {:.3e}; shape check: async within ~2x of sync",
        sync.final_rel_residual
    );
}
