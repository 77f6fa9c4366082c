//! Automatic solver selection: the spectral-probe front end of the
//! solver policy, plus [`SolverBuilder::auto`].
//!
//! The pure decision function lives in [`asyrgs_core::policy`]
//! (structural profiling, the rule list, the evidence-carrying
//! [`PolicyDecision`]); this module supplies the half that needs
//! `asyrgs-spectral`: fixed-seed, fixed-budget probes that turn a matrix
//! into [`SpectralEvidence`] —
//!
//! * **symmetric** inputs get the Lanczos + power condition estimate
//!   ([`asyrgs_spectral::estimate_condition`]) under a
//!   [`POLICY_PROBE_BUDGET`]-matvec budget, unless the structural profile
//!   already fixes the pick: a non-positive diagonal (`sym-indefinite`),
//!   or a Gershgorin bound [`MatrixProfile::kappa_bound`] below
//!   `kappa_flex` (`spd`, certified without a matvec);
//! * **nonsymmetric square** inputs get the spectral radius of the Jacobi
//!   iteration matrix ([`asyrgs_spectral::jacobi_spectral_radius`]),
//!   unless a diagonal entry is negative (`nonsym-indefinite` fires on
//!   the sign alone);
//! * **tall least-squares** inputs get no probe at all — the `lsq-tall`
//!   rule fires on shape alone, so the probe cost is zero.
//!
//! [`SolverPolicy::needs_probe`] is the predicate; [`decide_for`] skips
//! the probe wherever it is false, and the pick is the one the probe
//! would have led to.
//!
//! Everything is seeded with [`POLICY_PROBE_SEED`]: the same matrix bits
//! always produce the same evidence and therefore (the decision function
//! being pure) bitwise-identical decisions, regardless of pool width,
//! machine, or how often the probe reruns. The serve layer's matrix
//! registry caches the finished decision per content fingerprint so
//! repeat tenants skip the probe entirely — cached and fresh decisions
//! are identical by construction.
//!
//! ```
//! use asyrgs::prelude::*;
//!
//! let a = asyrgs::workloads::laplace2d(16, 16);
//! let x_true = vec![1.0; a.n_rows()];
//! let b = a.matvec(&x_true);
//!
//! // No family named: profile + probe the matrix and let the policy pick.
//! let mut session = SolverBuilder::auto(&a)?.build()?;
//! let mut x = vec![0.0; a.n_rows()];
//! let report = session.solve(&a, &b, &mut x)?;
//! assert!(report.final_rel_residual < 1e-8);
//! # Ok::<(), asyrgs::prelude::SolveError>(())
//! ```

use crate::session::{PrecondSpec, SolverBuilder, SolverFamily};
use asyrgs_core::error::SolveError;
use asyrgs_core::policy::{
    MatrixProfile, PolicyDecision, PolicyFamily, PolicyPrecond, SolverPolicy, SpectralEvidence,
};
use asyrgs_sparse::CsrMatrix;
use asyrgs_spectral::{estimate_condition, jacobi_spectral_radius, CondOptions};

/// The fixed seed of every policy probe. Decisions must be a pure
/// function of the matrix bits, so the probe seed is a constant of the
/// stack, not a knob.
pub const POLICY_PROBE_SEED: u64 = 0x90BE;

/// Matrix-vector products a policy probe may spend. The decision
/// thresholds in [`SolverPolicy::default`] are calibrated against
/// estimates at exactly this budget; changing it recalibrates the policy.
/// A decision the structural profile already fixes
/// ([`SolverPolicy::needs_probe`] false, e.g. a Gershgorin-certified SPD
/// matrix) spends none of it (`probe_matvecs == 0`).
pub const POLICY_PROBE_BUDGET: usize = 600;

/// Run the fixed-seed spectral probe appropriate for a profiled matrix.
///
/// Symmetric inputs get a condition estimate, nonsymmetric square inputs
/// a Jacobi-iteration-matrix spectral radius, tall inputs nothing (the
/// shape alone decides). The returned evidence records the matvecs spent
/// — the probe-cost currency of `BENCH_policy.json`.
///
/// This always probes, even where [`SolverPolicy::needs_probe`] is
/// false; [`decide_for`] calls it only where it is true. `probe_spectral`
/// followed by [`SolverPolicy::decide`] is the reference pipeline the
/// tests hold `decide_for`'s picks to.
pub fn probe_spectral(a: &CsrMatrix, profile: &MatrixProfile) -> SpectralEvidence {
    if profile.symmetric {
        let est = estimate_condition(
            a,
            &CondOptions::with_budget(POLICY_PROBE_BUDGET, POLICY_PROBE_SEED),
        );
        SpectralEvidence {
            kappa: Some(est.kappa),
            rho_jacobi: None,
            probe_matvecs: est.matvecs,
        }
    } else if profile.is_square() {
        // The profile guarantees a nonzero diagonal, so the iteration
        // matrix exists; `None` is unreachable but handled conservatively
        // (the margin rule takes over on missing evidence).
        match jacobi_spectral_radius(a, POLICY_PROBE_BUDGET, 1e-8, POLICY_PROBE_SEED) {
            Some(r) => SpectralEvidence {
                kappa: None,
                rho_jacobi: Some(r.eigenvalue),
                probe_matvecs: r.iterations,
            },
            None => SpectralEvidence::default(),
        }
    } else {
        SpectralEvidence::default()
    }
}

/// Profile, probe where it matters, and decide: the full policy pipeline
/// for one matrix.
///
/// The structural profile always runs. [`probe_spectral`] runs only when
/// [`SolverPolicy::needs_probe`] says its value can change the pick; a
/// decision taken without it carries `kappa: None`, `probe_matvecs: 0`,
/// and the profile's [`kappa_bound`](MatrixProfile::kappa_bound) as its
/// evidence. Either way the family, rule, preconditioner, threads and
/// fallback are those of the always-probe pipeline, and a decision that
/// did probe is bitwise that pipeline's.
///
/// # Errors
/// The structural-profiling errors of [`MatrixProfile::structural`]
/// (empty, non-finite, underdetermined, zero diagonal) — inputs no
/// policy-selectable solver could accept.
pub fn decide_for(a: &CsrMatrix) -> Result<PolicyDecision, SolveError> {
    let policy = SolverPolicy::default();
    let mut profile = MatrixProfile::structural(a)?;
    if policy.needs_probe(&profile) {
        profile = profile.with_spectral(probe_spectral(a, &profile));
    }
    Ok(policy.decide(&profile))
}

/// The session-layer family a policy pick maps to.
pub fn session_family(family: PolicyFamily) -> SolverFamily {
    match family {
        PolicyFamily::Cg => SolverFamily::Cg,
        PolicyFamily::Fcg => SolverFamily::Fcg,
        PolicyFamily::Bicgstab => SolverFamily::Bicgstab,
        PolicyFamily::Gmres => SolverFamily::Gmres,
        PolicyFamily::Rcd => SolverFamily::Rcd,
    }
}

/// The session-layer preconditioner a policy pick maps to.
pub fn session_precond(precond: PolicyPrecond) -> PrecondSpec {
    match precond {
        PolicyPrecond::Identity => PrecondSpec::Identity,
        PolicyPrecond::Jacobi => PrecondSpec::Jacobi,
        PolicyPrecond::AsyRgs { inner_sweeps } => PrecondSpec::AsyRgs { inner_sweeps },
    }
}

impl SolverBuilder {
    /// Configure a solver automatically from the matrix itself: profile
    /// it, run the fixed-seed spectral probe where it can change the
    /// pick, and apply the default [`SolverPolicy`] (see [`decide_for`]).
    /// The result is an ordinary builder — every knob can still be
    /// overridden before [`build`](SolverBuilder::build),
    /// and the chosen family keeps its usual termination/recording
    /// defaults.
    ///
    /// Deterministic: the same matrix bits produce the same builder,
    /// bitwise, on any machine. For the decision itself (with its
    /// evidence and fallback chain) use [`decide_for`]; to reuse a cached
    /// decision use [`from_decision`](SolverBuilder::from_decision).
    ///
    /// # Errors
    /// The structural-profiling errors of [`decide_for`].
    pub fn auto(a: &CsrMatrix) -> Result<SolverBuilder, SolveError> {
        Ok(SolverBuilder::from_decision(&decide_for(a)?))
    }

    /// The builder a [`PolicyDecision`] prescribes: the decision's family
    /// with its usual defaults, plus the decision's step sizes,
    /// preconditioner, and thread count. Pure — serve's scheduler maps
    /// registry-cached decisions through this without re-probing.
    pub fn from_decision(decision: &PolicyDecision) -> SolverBuilder {
        SolverBuilder::new(session_family(decision.family))
            .beta(decision.beta)
            .damping(decision.damping)
            .threads(decision.threads)
            .preconditioner(session_precond(decision.precond))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_core::driver::Termination;

    #[test]
    fn auto_solves_a_laplacian_with_cg() {
        let a = asyrgs_workloads::laplace2d(16, 16);
        let decision = decide_for(&a).unwrap();
        assert_eq!(decision.family, PolicyFamily::Cg);
        assert_eq!(decision.rule, "spd");
        assert!(decision.profile.spectral.probe_matvecs > 0);
        let mut session = SolverBuilder::auto(&a).unwrap().build().unwrap();
        let x_true = vec![1.0; a.n_rows()];
        let b = a.matvec(&x_true);
        let mut x = vec![0.0; a.n_rows()];
        let rep = session.solve(&a, &b, &mut x).unwrap();
        assert!(rep.final_rel_residual < 1e-8);
    }

    #[test]
    fn auto_is_bitwise_deterministic() {
        let a = asyrgs_workloads::diag_dominant(80, 4, 2.0, 7);
        let d1 = decide_for(&a).unwrap();
        let d2 = decide_for(&a).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(
            SolverBuilder::auto(&a).unwrap(),
            SolverBuilder::from_decision(&d1)
        );
    }

    #[test]
    fn auto_keeps_family_defaults_and_stays_overridable() {
        let a = asyrgs_workloads::laplace2d(8, 8);
        let auto = SolverBuilder::auto(&a).unwrap();
        // The policy picked cg; the builder carries cg's usual defaults.
        assert_eq!(auto.configured_family(), SolverFamily::Cg);
        assert_eq!(
            auto.configured_term(),
            &Termination::sweeps(1000).with_target(1e-10)
        );
        let overridden = auto.term(Termination::sweeps(3));
        assert_eq!(overridden.configured_term(), &Termination::sweeps(3));
    }

    #[test]
    fn auto_rejects_what_no_solver_accepts() {
        let wide = asyrgs_sparse::CsrMatrix::from_dense(2, 3, &[1.0; 6]);
        assert!(matches!(
            SolverBuilder::auto(&wide),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mapping_covers_every_policy_variant() {
        assert_eq!(session_family(PolicyFamily::Rcd), SolverFamily::Rcd);
        assert_eq!(
            session_precond(PolicyPrecond::AsyRgs { inner_sweeps: 3 }),
            PrecondSpec::AsyRgs { inner_sweeps: 3 }
        );
        assert_eq!(session_precond(PolicyPrecond::Jacobi), PrecondSpec::Jacobi);
    }
}
