//! # asyrgs-krylov
//!
//! Krylov-subspace substrate for the AsyRGS reproduction:
//!
//! * [`cg`] — conjugate gradients (single and multi-RHS lockstep), the
//!   paper's synchronous comparison baseline (Fig. 1, Fig. 2 left);
//! * [`fcg`] — Notay's Flexible-CG without truncation/restarts, the outer
//!   method of the paper's preconditioning study (Table 1, Fig. 3);
//! * [`bicgstab`] — stabilized bi-conjugate gradients for nonsymmetric
//!   square systems, right-preconditioned;
//! * [`gmres`] — restarted flexible GMRES(m) (Givens-rotation
//!   least-squares), right-preconditioned;
//! * [`precond`] — the preconditioner trait and its two implementations:
//!   the identity, and [`SpecPrecond`], which applies a [`PrecondSpec`]
//!   (Jacobi, sequential-RGS, or **AsyRGS** sweeps) over a caller-owned
//!   pool and scratch. The sweeps make a variable preconditioner
//!   (randomized + asynchronous), which is precisely why the flexible
//!   outer iteration is needed; BiCGSTAB, which is not flexible, applies
//!   them through the fixed form [`Preconditioner::apply_fixed`].

#![warn(missing_docs)]

pub mod bicgstab;
pub mod cg;
pub mod fcg;
pub mod gmres;
pub mod precond;

pub use bicgstab::{bicgstab_solve_in, try_bicgstab_solve, BicgstabOptions};
pub use cg::{cg_solve_in, try_cg_solve, try_cg_solve_block, CgOptions};
pub use fcg::{fcg_asyrgs_summary, fcg_solve_in, try_fcg_solve, FcgOptions, FcgRunSummary};
pub use gmres::{gmres_solve_in, try_gmres_solve, GmresOptions};
pub use precond::{IdentityPrecond, PrecondSpec, Preconditioner, SpecPrecond};

#[cfg(test)]
mod property_tests {
    //! Deterministic property tests over a fixed fan of seeds (no
    //! third-party property-test framework in the container).

    use super::*;
    use asyrgs_core::driver::Termination;
    use asyrgs_workloads::diag_dominant;

    #[test]
    fn cg_always_converges_on_spd() {
        for seed in 0..10u64 {
            let n = 10 + (seed as usize * 13) % 50;
            let a = diag_dominant(n, 4, 2.0, seed);
            let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
            let b = a.matvec(&x_star);
            let mut x = vec![0.0; n];
            let rep = try_cg_solve(&a, &b, &mut x, &CgOptions::default())
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(rep.converged_early);
            assert!(rep.final_rel_residual < 1e-9);
        }
    }

    #[test]
    fn fcg_jacobi_never_worse_than_3x_cg() {
        for seed in 0..10u64 {
            let n = 50;
            let a = diag_dominant(n, 5, 1.5, seed.wrapping_mul(0x9E37_79B9));
            let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
            let mut x1 = vec![0.0; n];
            let cg = try_cg_solve(
                &a,
                &b,
                &mut x1,
                &CgOptions {
                    term: Termination::sweeps(1000).with_target(1e-8),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));
            let scratch = std::sync::Mutex::new(asyrgs_core::workspace::SolveWorkspace::new());
            let pool = asyrgs_parallel::global();
            let pre = SpecPrecond::new(&a, PrecondSpec::Jacobi, 1, 1.0, 0, pool, &scratch).unwrap();
            let mut x2 = vec![0.0; n];
            let f = try_fcg_solve(&a, &b, &mut x2, &pre, &FcgOptions::default())
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(f.converged_early);
            assert!(f.iterations <= 3 * cg.iterations.max(1));
        }
    }
}
