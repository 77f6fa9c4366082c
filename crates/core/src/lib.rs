//! # asyrgs-core
//!
//! The primary contribution of *"Revisiting Asynchronous Linear Solvers:
//! Provable Convergence Rate Through Randomization"* (Avron, Druinsky,
//! Gupta — IPDPS 2014), implemented as a library:
//!
//! * [`driver`] — the shared solve driver every entry point consumes:
//!   [`Termination`] (sweep budget, residual target, wall-clock budget),
//!   [`Recording`] (residual cadence), and the shared input validation;
//! * [`asyrgs`] — **AsyRGS**, the asynchronous shared-memory solver
//!   (Section 4) and the crate's one Gauss-Seidel engine: lock-free
//!   workers over a shared iterate with atomic or non-atomic writes,
//!   occasional-synchronization epochs, and step-size control (Section 6);
//!   at one thread it runs on the caller's thread over a plain iterate,
//!   which is sequential RGS, single and multi-RHS;
//! * [`jacobi`] and [`partitioned`] — synchronous and asynchronous
//!   (Chazan-Miranker) Jacobi, and AsyRGS with single-owner row blocks;
//! * [`rgs`] — sequential Randomized Gauss-Seidel (the synchronous
//!   baseline, Section 3) as a name for AsyRGS on one thread, plus the row
//!   sampling and direction streams both share;
//! * [`lsq`] — randomized coordinate descent for overdetermined least
//!   squares and its asynchronous variant (Section 8);
//! * [`theory`] — every convergence bound of the paper (Eq. (2),
//!   Theorems 2-5) as executable formulas, with optimal step sizes;
//! * [`atomic`] — the `AtomicF64` / shared-vector substrate implementing
//!   Assumption A-1;
//! * [`report`] — solve telemetry.
//!
//! AsyRGS, both Jacobis, the partitioned solver and asynchronous RCD keep
//! their validation, setup and update bodies; one private epoch loop runs
//! them and owns their quiescent points: observation, watchdog and report.
//!
//! The solvers are generic over the operator traits in `asyrgs-sparse`
//! ([`asyrgs_sparse::LinearOperator`] / [`asyrgs_sparse::RowAccess`]), so
//! one implementation serves CSR matrices, dense blocks, and the zero-copy
//! unit-diagonal rescaling view.
//!
//! ## Quick example
//!
//! ```
//! use asyrgs_core::asyrgs::{try_asyrgs_solve, AsyRgsOptions};
//! use asyrgs_core::driver::Termination;
//! use asyrgs_workloads::laplace2d;
//!
//! let a = laplace2d(16, 16);
//! let n = a.n_rows();
//! let x_star = vec![1.0; n];
//! let b = a.matvec(&x_star);
//! let mut x = vec![0.0; n];
//! let report = try_asyrgs_solve(&a, &b, &mut x, Some(&x_star), &AsyRgsOptions {
//!     threads: 4,
//!     term: Termination::sweeps(400),
//!     ..Default::default()
//! }).expect("valid system");
//! assert!(report.final_rel_residual < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod asyrgs;
pub mod atomic;
pub mod driver;
mod epochs;
pub mod error;
pub mod health;
pub mod jacobi;
pub mod lsq;
pub mod partitioned;
pub mod report;
pub mod rgs;
pub mod theory;
pub mod workspace;

pub use asyrgs::{
    asyrgs_solve_block_in, asyrgs_solve_in, try_asyrgs_solve, try_asyrgs_solve_block,
    AsyRgsOptions, ReadMode, WriteMode,
};
pub use atomic::{AtomicF64, SharedVec};
pub use driver::{Driver, Recording, Termination};
pub use error::SolveError;
pub use health::{HealthConfig, HealthMonitor, RecoveryPolicy};
pub use jacobi::{
    async_jacobi_solve_in, chazan_miranker_condition, jacobi_solve_in, try_async_jacobi_solve,
    try_jacobi_solve, JacobiOptions,
};
pub use lsq::{
    async_rcd_solve_in, rcd_solve_in, try_async_rcd_solve, try_rcd_solve, LsqOperator,
    LsqSolveOptions,
};
pub use partitioned::{partitioned_solve_in, try_partitioned_solve, PartitionedOptions};
pub use report::{RecoveryAttempt, SolveReport, SweepRecord};
pub use rgs::{try_rgs_solve, RgsOptions, RowSampling};
pub use theory::ProblemParams;
pub use workspace::SolveWorkspace;

#[cfg(test)]
mod property_tests {
    //! Deterministic property tests over a fixed fan of seeds (no
    //! third-party property-test framework in the container).

    use super::*;
    use asyrgs_workloads::diag_dominant;

    /// The error never increases across a full solve on diagonally
    /// dominant matrices (in residual terms, over the whole run).
    #[test]
    fn rgs_reduces_residual() {
        for seed in 0..12u64 {
            let n = 20 + (seed as usize * 7) % 60;
            let a = diag_dominant(n, 4, 2.0, seed);
            let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
            let b = a.matvec(&x_star);
            let mut x = vec![0.0; n];
            let rep = try_rgs_solve(
                &a,
                &b,
                &mut x,
                None,
                &RgsOptions {
                    seed,
                    term: Termination::sweeps(40),
                    record: Recording::end_only(),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));
            assert!(rep.final_rel_residual < 0.5);
        }
    }

    /// AsyRGS with any thread count in 1..5 converges on dominant
    /// matrices, atomic or not.
    #[test]
    fn asyrgs_converges_any_thread_count() {
        for case in 0..12u64 {
            let seed = case.wrapping_mul(0x9E37_79B9);
            let threads = 1 + (case as usize) % 4;
            let atomic = case % 2 == 0;
            let n = 60;
            let a = diag_dominant(n, 4, 2.0, seed);
            let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
            let b = a.matvec(&x_star);
            let mut x = vec![0.0; n];
            let rep = try_asyrgs_solve(
                &a,
                &b,
                &mut x,
                None,
                &AsyRgsOptions {
                    threads,
                    write_mode: if atomic {
                        WriteMode::Atomic
                    } else {
                        WriteMode::NonAtomic
                    },
                    seed,
                    term: Termination::sweeps(120),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));
            // Under full-suite load on an oversubscribed core the effective
            // delay can exceed n, so require robust progress rather than a
            // tight tolerance.
            assert!(
                rep.final_rel_residual < 0.3,
                "residual {} with {} threads",
                rep.final_rel_residual,
                threads
            );
        }
    }

    /// Theorem bound factors are always in (0, 1] when valid.
    #[test]
    fn theory_factors_in_unit_interval() {
        let p = theory::ProblemParams {
            n: 5000,
            lambda_min: 0.05,
            lambda_max: 2.0,
            rho: 3.0 / 5000.0,
            rho2: 1.0 / 5000.0,
        };
        for tau in (0..200).step_by(7) {
            for beta_pct in 1..20 {
                let beta = beta_pct as f64 * 0.05;
                if theory::consistent_valid(&p, tau, beta) {
                    let f = theory::theorem3_a(&p, tau, beta);
                    assert!(f > 0.0 && f < 1.0);
                }
                if theory::inconsistent_valid(&p, tau, beta) {
                    let f = theory::theorem4_a(&p, tau, beta);
                    assert!(f > 0.0 && f < 1.0);
                }
            }
        }
    }
}
