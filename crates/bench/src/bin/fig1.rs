//! **Figure 1**: relative residual of Randomized Gauss-Seidel and CG as the
//! iterations/sweeps progress, on the social-media Gram workload with a
//! block of right-hand sides.
//!
//! Paper shape to reproduce: Randomized G-S progresses *faster than CG in
//! the early sweeps* (the low-accuracy regime big-data applications need),
//! then CG overtakes in the long run thanks to its O(sqrt(kappa)) rate.
//!
//! ```text
//! cargo run -p asyrgs-bench --release --bin fig1
//! ```

use asyrgs_bench::{csv_header, csv_row, label_block, rhs_count, standard_gram, Scale};
use asyrgs_core::asyrgs::{try_asyrgs_solve_block, AsyRgsOptions};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_krylov::cg::{try_cg_solve_block, CgOptions};
use asyrgs_sparse::RowMajorMat;

fn main() {
    let scale = Scale::from_env();
    let problem = standard_gram(scale);
    let g = &problem.matrix;
    let n = g.n_rows();
    let k = rhs_count(scale);
    let sweeps = match scale {
        Scale::Small => 200,
        Scale::Full => 200,
    };
    eprintln!(
        "# fig1: n = {n}, nnz = {}, {k} right-hand sides, {sweeps} sweeps/iterations",
        g.nnz()
    );

    let b = label_block(n, k, 0xF161);

    // Randomized Gauss-Seidel (general-diagonal iteration (3); the paper's
    // matrix does not have unit diagonal either): AsyRGS on one thread,
    // synchronized every sweep so each sweep is recorded.
    let mut x_rgs = RowMajorMat::zeros(n, k);
    let rgs = try_asyrgs_solve_block(
        g,
        &b,
        &mut x_rgs,
        &AsyRgsOptions {
            threads: 1,
            epoch_sweeps: Some(1),
            term: Termination::sweeps(sweeps),
            record: Recording::every(1),
            ..Default::default()
        },
    )
    .expect("solve failed");

    // CG with the same per-pass budget (each CG iteration costs about one
    // sweep of RGS: Theta(nnz)).
    let mut x_cg = RowMajorMat::zeros(n, k);
    let cg = try_cg_solve_block(
        g,
        &b,
        &mut x_cg,
        &CgOptions {
            term: Termination::sweeps(sweeps).with_target(0.0),
            record: Recording::every(1),
        },
    )
    .expect("solve failed");

    csv_header(&["sweep", "rgs_rel_residual", "cg_rel_residual"]);
    let cg_map: std::collections::HashMap<usize, f64> = cg
        .records
        .iter()
        .map(|r| (r.sweep, r.rel_residual))
        .collect();
    for rec in &rgs.records {
        let cg_res = cg_map.get(&rec.sweep).copied().unwrap_or(f64::NAN);
        csv_row(&rec.sweep.to_string(), &[rec.rel_residual, cg_res]);
    }

    // Shape summary against the paper.
    let at = |records: &[asyrgs_core::SweepRecord], s: usize| {
        records
            .iter()
            .find(|r| r.sweep >= s)
            .map(|r| r.rel_residual)
            .unwrap_or(f64::NAN)
    };
    eprintln!("# shape check (paper Fig. 1):");
    eprintln!(
        "#   sweep 10:  RGS {:.3e} vs CG {:.3e}  (paper: RGS ahead early)",
        at(&rgs.records, 10),
        at(&cg.records, 10)
    );
    eprintln!(
        "#   sweep 200: RGS {:.3e} vs CG {:.3e}  (paper: CG ahead in the long run)",
        at(&rgs.records, sweeps),
        at(&cg.records, sweeps)
    );
}
