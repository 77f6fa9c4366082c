//! # asyrgs
//!
//! A production-quality Rust reproduction of
//! *"Revisiting Asynchronous Linear Solvers: Provable Convergence Rate
//! Through Randomization"* (Haim Avron, Alex Druinsky, Anshul Gupta —
//! IPDPS 2014 / arXiv:1304.6475).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | AsyRGS (the paper's solver), sequential RGS, least-squares coordinate descent, the shared solve driver, convergence theory |
//! | [`sparse`] | operator traits, CSR/CSC/COO matrices, SpMV, unit-diagonal rescaling, Matrix Market I/O |
//! | [`rng`] | Philox4x32-10 counter-based RNG (Random123-style direction streams) |
//! | [`workloads`] | synthetic social-media Gram matrices, Laplacians, SPD and least-squares generators |
//! | [`spectral`] | power iteration, Lanczos, condition-number estimation |
//! | [`sim`] | bounded-delay model executor and discrete-event machine simulator |
//! | [`krylov`] | CG, Flexible-CG (Notay), preconditioners including AsyRGS |
//!
//! Every solver is written against three shared abstractions:
//!
//! * the operator traits [`sparse::LinearOperator`] / [`sparse::RowAccess`]
//!   — so the same solver runs on CSR matrices, dense blocks, `&dyn`
//!   operators, and the zero-copy [`sparse::UnitDiagonalView`] rescaling
//!   wrapper;
//! * the solve driver ([`core::driver`]) — [`prelude::Termination`] (sweep
//!   budget, residual target, wall-clock budget) and [`prelude::Recording`]
//!   (residual cadence) replace the per-solver stopping/recording fields;
//! * the **session layer** ([`session`]) — the service boundary: one
//!   [`session::SolverBuilder`] entry point that validates once, returns
//!   typed [`prelude::SolveError`]s instead of panicking, owns its worker
//!   pool and scratch workspace (repeat solves allocate nothing), and
//!   batches multi-RHS workloads.
//!
//! On top of the session layer, the downstream `asyrgs-serve` crate turns
//! solves into a **multi-tenant service**: a scheduler with bounded
//! admission, weighted-fair dispatch, job coalescing into block solves,
//! cancellation, deadlines, and progress streaming (it depends on this
//! facade, so it is not re-exported here — see `crates/serve`).
//!
//! See `README.md` for a tour of the crates and its "Entry points" note on
//! the three ways into each solver, and `ARCHITECTURE.md` for the layer
//! map and invariants.
//!
//! ## Quickstart
//!
//! ```
//! use asyrgs::prelude::*;
//!
//! // An SPD system.
//! let a = asyrgs::workloads::laplace2d(16, 16);
//! let x_true = vec![1.0; a.n_rows()];
//! let b = a.matvec(&x_true);
//!
//! // Configure once: AsyRGS on 4 threads. `build()` validates the
//! // configuration and returns a typed SolveError on bad input.
//! let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
//!     .threads(4)
//!     .term(Termination::sweeps(300))
//!     .build()?;
//!
//! // Solve as many systems as you like: the session reuses its worker
//! // pool and scratch buffers, so repeat solves allocate nothing.
//! let mut x = vec![0.0; a.n_rows()];
//! let report = session.solve(&a, &b, &mut x)?;
//! assert!(report.final_rel_residual < 1e-2);
//!
//! // Batch many right-hand sides through one quiescence-epoch structure.
//! let b2 = a.matvec(&vec![2.0; a.n_rows()]);
//! let (mut x1, mut x2) = (vec![0.0; a.n_rows()], vec![0.0; a.n_rows()]);
//! let reports = session.solve_many(&a, &[&b, &b2], &mut [&mut x1[..], &mut x2[..]])?;
//! assert_eq!(reports.len(), 2);
//! # Ok::<(), asyrgs::prelude::SolveError>(())
//! ```

pub use asyrgs_core as core;
pub use asyrgs_krylov as krylov;
pub use asyrgs_parallel as parallel;
pub use asyrgs_rng as rng;
pub use asyrgs_sim as sim;
pub use asyrgs_sparse as sparse;
pub use asyrgs_spectral as spectral;
pub use asyrgs_workloads as workloads;

pub mod policy;
pub mod session;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::policy::{decide_for, MatrixProfile, PolicyDecision, SpectralEvidence};
    pub use crate::session::{PrecondSpec, SolveSession, SolverBuilder, SolverFamily};
    pub use asyrgs_core::asyrgs::{
        try_asyrgs_solve, try_asyrgs_solve_block, AsyRgsOptions, WriteMode,
    };
    pub use asyrgs_core::driver::{Recording, Termination};
    pub use asyrgs_core::error::SolveError;
    pub use asyrgs_core::health::{is_watchdog_trip, HealthConfig, HealthMonitor, RecoveryPolicy};
    pub use asyrgs_core::jacobi::{try_async_jacobi_solve, try_jacobi_solve, JacobiOptions};
    pub use asyrgs_core::lsq::{try_async_rcd_solve, try_rcd_solve, LsqOperator, LsqSolveOptions};
    pub use asyrgs_core::partitioned::{try_partitioned_solve, PartitionedOptions};
    pub use asyrgs_core::report::{RecoveryAttempt, SolveReport, SweepRecord};
    pub use asyrgs_core::rgs::{try_rgs_solve, RgsOptions};
    pub use asyrgs_core::theory;
    pub use asyrgs_core::workspace::SolveWorkspace;
    pub use asyrgs_krylov::{
        try_cg_solve, try_fcg_solve, CgOptions, FcgOptions, IdentityPrecond, Preconditioner,
        SpecPrecond,
    };
    pub use asyrgs_parallel::{FaultPlan, FaultSpec};
    pub use asyrgs_sparse::{
        CooBuilder, CsrMatrix, LinearOperator, RowAccess, RowMajorMat, UnitDiagonal,
        UnitDiagonalView,
    };
}

#[cfg(test)]
mod facade_tests {
    use super::prelude::*;

    #[test]
    fn facade_paths_work() {
        let a = crate::workloads::laplace2d(4, 4);
        let b = vec![1.0; 16];
        let mut x = vec![0.0; 16];
        let rep = try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap();
        assert!(rep.converged_early);
        let _ = crate::rng::Philox4x32::from_seed(1);
        let _ = crate::spectral::CondOptions::default();
        let _ = crate::sim::MachineModel::default();
    }

    #[test]
    fn prelude_driver_types_compose() {
        let term = Termination::sweeps(5).with_target(1e-9);
        let rec = Recording::end_only();
        let a = crate::workloads::laplace2d(4, 4);
        let b = vec![1.0; 16];
        let mut x = vec![0.0; 16];
        let opts = RgsOptions {
            term,
            record: rec,
            ..Default::default()
        };
        let rep = try_rgs_solve(&a, &b, &mut x, None, &opts).unwrap();
        assert_eq!(rep.records.len(), 1);
    }

    #[test]
    fn fallible_entry_points_reachable_through_prelude() {
        // The prelude exposes only the fallible API: the session and the
        // `try_*` one-shots.
        let a = crate::workloads::laplace2d(4, 4);
        let b = vec![1.0; 16];
        let mut x = vec![0.0; 16];
        let rep = try_cg_solve(&a, &b, &mut x, &CgOptions::default()).unwrap();
        assert!(rep.converged_early);
    }
}
