//! The solver policy: deterministic family/preconditioner/thread selection
//! from matrix evidence.
//!
//! The paper's methods come with sharp applicability conditions — AsyRGS
//! and the classical sweeps need SPD (and, for the asynchronous theory,
//! diagonal-dominance-like) structure, the nonsymmetric Krylov methods
//! tolerate anything square, RCD is the least-squares route — and the
//! service exposes eleven families. A tenant submitting a raw matrix with
//! no configuration needs a default that never lands on a known-divergent
//! cell of the conformance matrix. This module is that default's brain.
//!
//! The split of responsibilities follows the crate graph:
//!
//! * **here (core)** — the *pure* decision function: a [`MatrixProfile`]
//!   of structural facts (shape, symmetry, diagonal, dominance margin)
//!   plus optional [`SpectralEvidence`] probes, pushed through a fixed
//!   rule list by [`SolverPolicy::decide`]. No spectral code runs here,
//!   so the decision is trivially deterministic and unit-testable.
//! * **facade (`asyrgs::policy`)** — runs the fixed-seed `asyrgs-spectral`
//!   probes (Lanczos/power condition estimate for symmetric inputs, the
//!   Jacobi iteration-matrix spectral radius for nonsymmetric ones) and
//!   feeds them in, skipping them where [`SolverPolicy::needs_probe`]
//!   says the structural profile already fixes the pick;
//!   `SolverBuilder::auto()` is the entry point.
//! * **serve** — caches the finished [`PolicyDecision`] in the matrix
//!   registry's artifacts, so repeat tenants pay the probe once, and uses
//!   it as the `Scheduler::submit` default for jobs with no explicit
//!   family.
//!
//! The decision is *evidence-carrying*: the profile it was derived from,
//! the name of the rule that fired, and the fallback chain the recovery
//! ladder may walk are all part of the returned value, so `BENCH_policy.json`
//! and the offline evaluation against the scenario corpus
//! (`tests/policy_matrix.rs`) can audit every pick.

use crate::error::SolveError;
use asyrgs_sparse::CsrMatrix;

/// The canonical symmetry tolerance of the stack: a matrix is treated as
/// symmetric when `is_symmetric(SYMMETRY_TOL)` holds. The session layer's
/// `requires_symmetric()` admission gate and the policy's profiling use
/// this same constant.
pub const SYMMETRY_TOL: f64 = 1e-9;

/// Solver family a policy decision can select. A deliberately smaller
/// set than the session layer's eleven families: the policy only ever
/// picks methods whose convergence does not hinge on unverifiable
/// assumptions (it never selects an undamped classical sweep for an
/// arbitrary tenant matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyFamily {
    /// Conjugate gradients — symmetric positive-definite default.
    Cg,
    /// Flexible CG — ill-conditioned SPD systems, where the recovery
    /// ladder may introduce a variable preconditioner without breaking
    /// the method's assumptions.
    Fcg,
    /// BiCGSTAB — nonsymmetric systems with a healthy diagonal.
    Bicgstab,
    /// Restarted GMRES — nonsymmetric systems whose Jacobi iteration
    /// matrix has a large spectral radius (BiCGSTAB's shadow recurrences
    /// carry no guarantee there) or whose diagonal is not positive, and
    /// symmetric indefinite ones; monotone and breakdown-free.
    Gmres,
    /// Randomized coordinate descent on the normal equations — tall
    /// least-squares inputs.
    Rcd,
}

impl PolicyFamily {
    /// The stable session-layer name (`SolverFamily::from_name` accepts
    /// every value returned here).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyFamily::Cg => "cg",
            PolicyFamily::Fcg => "fcg",
            PolicyFamily::Bicgstab => "bicgstab",
            PolicyFamily::Gmres => "gmres",
            PolicyFamily::Rcd => "rcd",
        }
    }
}

/// Preconditioner spec a policy decision can select: the subset of
/// `asyrgs_krylov::PrecondSpec` (re-exported as
/// `asyrgs::session::PrecondSpec`) the rules pick, without the RGS sweeps.
/// A type of its own because `asyrgs-krylov` depends on this crate, and
/// because it limits the picks by type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyPrecond {
    /// No preconditioning.
    Identity,
    /// Diagonal (Jacobi) scaling.
    Jacobi,
    /// AsyRGS sweeps on the symmetrized inner system — the paper's solver
    /// as a right preconditioner, the nonsymmetric subsystem's headline
    /// configuration.
    AsyRgs {
        /// Inner sweeps per application.
        inner_sweeps: usize,
    },
}

/// Spectral probe results attached to a [`MatrixProfile`]. All fields are
/// optional: the structural profile alone already supports a decision
/// (the rules treat missing evidence conservatively). The default value
/// is "no probe ran": the facade's `decide_for` attaches a probe only
/// when [`SolverPolicy::needs_probe`] says its value could change the
/// pick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpectralEvidence {
    /// Condition-number estimate from the Lanczos + power probe
    /// (symmetric inputs only). `None` on a decision the Gershgorin
    /// certificate ([`MatrixProfile::kappa_bound`]) settled without a
    /// probe.
    pub kappa: Option<f64>,
    /// Spectral radius of the Jacobi iteration matrix `I - D^{-1} A`
    /// (nonsymmetric inputs only).
    pub rho_jacobi: Option<f64>,
    /// Matrix-vector products the probes spent — the cost currency
    /// reported per decision in `BENCH_policy.json`.
    pub probe_matvecs: usize,
}

/// Everything the policy knows about a matrix: cheap structural facts
/// plus optional spectral probes. The structural facts, including the
/// Gershgorin bound [`kappa_bound`](Self::kappa_bound), cost one
/// symmetry check and one pass over the rows; a spectral probe costs up
/// to several hundred matvecs, so it runs only where
/// [`SolverPolicy::needs_probe`] says it can change the pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixProfile {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Stored entries.
    pub nnz: usize,
    /// `is_symmetric(SYMMETRY_TOL)` (always `false` for rectangular
    /// inputs).
    pub symmetric: bool,
    /// Whether every diagonal entry is strictly positive (square inputs;
    /// `false` for rectangular).
    pub positive_diagonal: bool,
    /// The canonical row diagonal-dominance margin
    /// (`CsrMatrix::dominance_margin`); `None` for rectangular inputs.
    pub dominance_margin: Option<f64>,
    /// Gershgorin upper bound on the condition number,
    /// `max_i(a_ii + r_i) / min_i(a_ii - r_i)` with
    /// `r_i = sum_{j != i} |a_ij|` (`Gershgorin::kappa_bound` of
    /// `CsrMatrix::gershgorin`). `Some` only for a symmetric square input
    /// with a positive diagonal whose every disc lies strictly right of 0:
    /// such a matrix is SPD with every eigenvalue inside the discs, so
    /// `kappa <= kappa_bound`. `None` otherwise.
    pub kappa_bound: Option<f64>,
    /// Optional spectral probe results.
    pub spectral: SpectralEvidence,
}

impl MatrixProfile {
    /// Profile the structural facts of a matrix, rejecting inputs no
    /// policy-selectable solver could accept. The error variants are the
    /// stack's existing typed ones, in the established check order:
    ///
    /// 1. empty system — [`SolveError::EmptySystem`];
    /// 2. non-finite stored values — [`SolveError::NonFiniteInput`];
    /// 3. wide (`rows < cols`) shape — [`SolveError::DimensionMismatch`]
    ///    (tall shapes are the least-squares route and profile fine);
    /// 4. zero diagonal on a square input — [`SolveError::ZeroDiagonal`]
    ///    (every candidate family reads `D^{-1}` somewhere: the sweeps
    ///    directly, the Krylov families through their preconditioners).
    ///
    /// No spectral probe runs here; attach one with
    /// [`MatrixProfile::with_spectral`].
    pub fn structural(a: &CsrMatrix) -> Result<MatrixProfile, SolveError> {
        if a.n_rows() == 0 || a.n_cols() == 0 {
            return Err(SolveError::EmptySystem { solver: "policy" });
        }
        crate::driver::ensure_finite_matrix("policy", a)?;
        if a.n_rows() < a.n_cols() {
            return Err(SolveError::DimensionMismatch {
                solver: "policy",
                detail: format!(
                    "underdetermined system: {} x {} has fewer rows than unknowns",
                    a.n_rows(),
                    a.n_cols()
                ),
            });
        }
        let square = a.is_square();
        let mut positive_diagonal = false;
        if square {
            let diag = a.diag();
            if let Some((index, &value)) = diag.iter().enumerate().find(|(_, &d)| d == 0.0) {
                return Err(SolveError::ZeroDiagonal {
                    index,
                    value,
                    needs_positive: false,
                });
            }
            positive_diagonal = diag.iter().all(|&d| d > 0.0);
        }
        let symmetric = square && a.is_symmetric(SYMMETRY_TOL);
        let discs = a.gershgorin();
        // A disc strictly right of 0 has `a_ii > r_i >= 0`, so a bound
        // implies the positive diagonal.
        let kappa_bound = discs.filter(|_| symmetric).and_then(|g| g.kappa_bound());
        Ok(MatrixProfile {
            rows: a.n_rows(),
            cols: a.n_cols(),
            nnz: a.nnz(),
            symmetric,
            positive_diagonal,
            dominance_margin: discs.map(|g| g.dominance_margin),
            kappa_bound,
            spectral: SpectralEvidence::default(),
        })
    }

    /// Attach spectral probe results to the profile.
    pub fn with_spectral(mut self, spectral: SpectralEvidence) -> MatrixProfile {
        self.spectral = spectral;
        self
    }

    /// Whether the profile describes a square system.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }
}

/// The typed outcome of a policy decision, carrying the evidence it was
/// derived from. `PartialEq` is part of the contract: the determinism
/// suite asserts bitwise-identical decisions across repeated calls, pool
/// widths, and registry-cached vs fresh probes, so nothing in here may
/// depend on wall clock, pool shape, or cache state.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// The selected solver family.
    pub family: PolicyFamily,
    /// Relaxation step size for the sweep-based families and sweep-based
    /// preconditioners (the Krylov methods themselves ignore it).
    pub beta: f64,
    /// Damping factor (only the Jacobi-family solvers read it; carried
    /// for completeness of the builder mapping).
    pub damping: f64,
    /// The selected preconditioner.
    pub precond: PolicyPrecond,
    /// The selected worker-thread count. A pure function of the decision
    /// (asynchronous preconditioner => 2, everything else 1), never of
    /// the machine or the global pool width — decisions must not change
    /// between a laptop and a 128-core box.
    pub threads: usize,
    /// Name of the rule that fired (`"lsq-tall"`, `"nonsym-indefinite"`,
    /// `"nonsym-stiff"`, `"nonsym-dominant"`, `"sym-indefinite"`,
    /// `"spd-illcond"`, `"spd"`).
    pub rule: &'static str,
    /// The fallback chain: families the recovery ladder should try, in
    /// order, if the selected one breaks down.
    pub fallback: Vec<PolicyFamily>,
    /// The evidence the rule fired on.
    pub profile: MatrixProfile,
}

/// Threshold knobs of the decision rules. [`SolverPolicy::default`] is
/// the calibrated production policy; the fields are public so tests can
/// probe rule boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverPolicy {
    /// Condition-number estimate at or above which an SPD system is
    /// treated as ill-conditioned and routed to flexible CG (whose
    /// flexible recurrence tolerates the recovery ladder swapping
    /// preconditioners mid-flight).
    pub kappa_flex: f64,
    /// Jacobi-iteration-matrix spectral radius at or above which a
    /// nonsymmetric system is treated as stiff and routed to GMRES
    /// (BiCGSTAB's shadow inner products carry no guarantee there —
    /// `skew_dominant`, with `rho ~ 10`, diverges under it).
    pub rho_stiff: f64,
    /// Dominance margin at or below which a nonsymmetric system is
    /// treated as stiff when no spectral-radius probe is attached (the
    /// structural stand-in for `rho_stiff`).
    pub margin_stiff: f64,
    /// Inner sweeps of the AsyRGS right preconditioner on the
    /// nonsymmetric-dominant route.
    pub asyrgs_inner_sweeps: usize,
}

impl Default for SolverPolicy {
    fn default() -> Self {
        SolverPolicy {
            kappa_flex: 1e3,
            rho_stiff: 2.0,
            margin_stiff: -4.0,
            asyrgs_inner_sweeps: 2,
        }
    }
}

impl SolverPolicy {
    /// Whether a spectral probe could change [`decide`](Self::decide)'s
    /// pick for this profile. False in three cases:
    ///
    /// * `rows > cols` — `lsq-tall` fires on shape alone;
    /// * a non-positive diagonal — `nonsym-indefinite` or
    ///   `sym-indefinite` fires on the sign alone, before any ρ or κ rule;
    /// * symmetric with `kappa_bound < kappa_flex` — the Gershgorin
    ///   certificate: the probe's κ̂ is a ratio of Ritz values and
    ///   Rayleigh quotients, all inside `[λ_min, λ_max]`, so
    ///   `κ̂ <= κ <= kappa_bound < kappa_flex` (up to rounding) and `spd`
    ///   fires whatever the probe returns, as it does with no probe.
    ///
    /// True otherwise, including for every nonsymmetric square input with
    /// a positive diagonal.
    pub fn needs_probe(&self, profile: &MatrixProfile) -> bool {
        if profile.rows > profile.cols || !profile.positive_diagonal {
            return false;
        }
        !profile.symmetric || !profile.kappa_bound.is_some_and(|k| k < self.kappa_flex)
    }

    /// Decide the solver configuration for a profiled matrix.
    ///
    /// The rules fire in a fixed order; the first match wins and its
    /// name is recorded on the decision:
    ///
    /// | rule | condition | pick |
    /// |------|-----------|------|
    /// | `lsq-tall` | `rows > cols` | RCD, no preconditioner |
    /// | `nonsym-indefinite` | nonsymmetric, non-positive diagonal | GMRES, identity |
    /// | `nonsym-stiff` | nonsymmetric and `rho >= rho_stiff` (or, with no probe, margin `<= margin_stiff`) | GMRES, identity |
    /// | `nonsym-dominant` | nonsymmetric | BiCGSTAB + AsyRGS right preconditioner, 2 threads |
    /// | `sym-indefinite` | symmetric, non-positive diagonal | GMRES, identity |
    /// | `spd-illcond` | symmetric and `kappa >= kappa_flex` | Flexible CG, identity |
    /// | `spd` | symmetric | CG, identity |
    ///
    /// This is a total function on valid profiles
    /// ([`MatrixProfile::structural`] already rejected everything no
    /// candidate family could accept) and pure: equal profiles produce
    /// equal decisions, bitwise.
    pub fn decide(&self, profile: &MatrixProfile) -> PolicyDecision {
        let base = |family, precond, threads, rule, fallback| PolicyDecision {
            family,
            beta: 1.0,
            damping: 1.0,
            precond,
            threads,
            rule,
            fallback,
            profile: *profile,
        };
        if profile.rows > profile.cols {
            return base(
                PolicyFamily::Rcd,
                PolicyPrecond::Identity,
                1,
                "lsq-tall",
                vec![],
            );
        }
        if !profile.symmetric {
            if !profile.positive_diagonal {
                // The AsyRGS sweeps of `nonsym-dominant` need a positive
                // diagonal, so the sign alone routes to GMRES, as
                // `sym-indefinite` does below.
                return base(
                    PolicyFamily::Gmres,
                    PolicyPrecond::Identity,
                    1,
                    "nonsym-indefinite",
                    vec![],
                );
            }
            let stiff = match profile.spectral.rho_jacobi {
                Some(rho) => !rho.is_finite() || rho >= self.rho_stiff,
                None => profile
                    .dominance_margin
                    .is_some_and(|m| m <= self.margin_stiff),
            };
            if stiff {
                return base(
                    PolicyFamily::Gmres,
                    PolicyPrecond::Identity,
                    1,
                    "nonsym-stiff",
                    vec![],
                );
            }
            return base(
                PolicyFamily::Bicgstab,
                PolicyPrecond::AsyRgs {
                    inner_sweeps: self.asyrgs_inner_sweeps,
                },
                2,
                "nonsym-dominant",
                vec![PolicyFamily::Gmres],
            );
        }
        if !profile.positive_diagonal {
            // Symmetric but certainly not positive definite: the CG
            // energy-norm theory is void, fall through to the monotone
            // nonsymmetric workhorse.
            return base(
                PolicyFamily::Gmres,
                PolicyPrecond::Identity,
                1,
                "sym-indefinite",
                vec![],
            );
        }
        if profile.spectral.kappa.is_some_and(|k| k >= self.kappa_flex) {
            return base(
                PolicyFamily::Fcg,
                PolicyPrecond::Identity,
                1,
                "spd-illcond",
                vec![PolicyFamily::Cg, PolicyFamily::Gmres],
            );
        }
        base(
            PolicyFamily::Cg,
            PolicyPrecond::Identity,
            1,
            "spd",
            vec![PolicyFamily::Fcg, PolicyFamily::Gmres],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> CsrMatrix {
        CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0])
    }

    #[test]
    fn structural_profile_of_spd() {
        let p = MatrixProfile::structural(&spd3()).unwrap();
        assert!(p.symmetric && p.positive_diagonal && p.is_square());
        assert_eq!(p.dominance_margin, Some(0.5));
        // Discs [3, 5], [2, 6], [3, 5].
        assert_eq!(p.kappa_bound, Some(3.0));
        assert_eq!(p.spectral, SpectralEvidence::default());
    }

    #[test]
    fn needs_probe_only_where_the_probe_can_change_the_pick() {
        let policy = SolverPolicy::default();
        let profile = |dense: &[f64], n: usize| {
            MatrixProfile::structural(&CsrMatrix::from_dense(dense.len() / n, n, dense)).unwrap()
        };
        // Shape alone decides.
        let tall = profile(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2);
        assert!(!policy.needs_probe(&tall));
        // `sym-indefinite` fires before any kappa rule.
        let indef = profile(&[1.0, 0.5, 0.5, -2.0], 2);
        assert!(indef.symmetric && indef.kappa_bound.is_none());
        assert!(!policy.needs_probe(&indef));
        // Certified: bound 3 < kappa_flex.
        let spd = MatrixProfile::structural(&spd3()).unwrap();
        assert!(!policy.needs_probe(&spd));
        // Every nonsymmetric square input with a positive diagonal
        // probes, dominant or not; `nonsym-indefinite` fires on the sign.
        let nonsym = profile(&[4.0, 1.0, -1.0, 4.0], 2);
        assert!(!nonsym.symmetric && nonsym.kappa_bound.is_none());
        assert!(policy.needs_probe(&nonsym));
        let nonsym_indef = profile(&[-4.0, 1.0, 0.5, 4.0], 2);
        assert!(!nonsym_indef.symmetric && !nonsym_indef.positive_diagonal);
        assert!(!policy.needs_probe(&nonsym_indef));
        // A disc touching 0 certifies nothing.
        let weak = profile(&[1.0, -1.0, -1.0, 3.0], 2);
        assert!(weak.symmetric && weak.positive_diagonal && weak.kappa_bound.is_none());
        assert!(policy.needs_probe(&weak));
        // The certificate is strict: a bound at the threshold probes.
        let at = MatrixProfile {
            kappa_bound: Some(policy.kappa_flex),
            ..spd
        };
        assert!(policy.needs_probe(&at));
        let below = MatrixProfile {
            kappa_bound: Some(policy.kappa_flex * (1.0 - f64::EPSILON)),
            ..spd
        };
        assert!(!policy.needs_probe(&below));
    }

    #[test]
    fn structural_rejects_empty_wide_zero_diag_and_non_finite() {
        let empty = CsrMatrix::from_dense(0, 0, &[]);
        assert!(matches!(
            MatrixProfile::structural(&empty),
            Err(SolveError::EmptySystem { .. })
        ));
        let wide = CsrMatrix::from_dense(2, 3, &[1.0; 6]);
        assert!(matches!(
            MatrixProfile::structural(&wide),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let zero_diag = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 2.0]);
        assert!(matches!(
            MatrixProfile::structural(&zero_diag),
            Err(SolveError::ZeroDiagonal {
                index: 0,
                needs_positive: false,
                ..
            })
        ));
        let nan = CsrMatrix::from_dense(2, 2, &[1.0, f64::NAN, 0.0, 1.0]);
        assert!(matches!(
            MatrixProfile::structural(&nan),
            Err(SolveError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn tall_inputs_route_to_rcd() {
        let tall = CsrMatrix::from_dense(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let p = MatrixProfile::structural(&tall).unwrap();
        let d = SolverPolicy::default().decide(&p);
        assert_eq!(d.family, PolicyFamily::Rcd);
        assert_eq!(d.rule, "lsq-tall");
        assert_eq!(d.threads, 1);
    }

    #[test]
    fn spd_routes_split_on_kappa() {
        let p = MatrixProfile::structural(&spd3()).unwrap();
        let policy = SolverPolicy::default();
        let easy = policy.decide(&p.with_spectral(SpectralEvidence {
            kappa: Some(50.0),
            ..Default::default()
        }));
        assert_eq!((easy.family, easy.rule), (PolicyFamily::Cg, "spd"));
        let ill = policy.decide(&p.with_spectral(SpectralEvidence {
            kappa: Some(5e4),
            ..Default::default()
        }));
        assert_eq!((ill.family, ill.rule), (PolicyFamily::Fcg, "spd-illcond"));
        assert_eq!(ill.fallback, vec![PolicyFamily::Cg, PolicyFamily::Gmres]);
        // No probe attached => conservative easy route.
        let bare = policy.decide(&p);
        assert_eq!(bare.family, PolicyFamily::Cg);
    }

    #[test]
    fn nonsym_routes_split_on_rho() {
        let nonsym = CsrMatrix::from_dense(2, 2, &[2.0, 1.0, -1.0, 2.0]);
        let p = MatrixProfile::structural(&nonsym).unwrap();
        assert!(!p.symmetric);
        let policy = SolverPolicy::default();
        let tame = policy.decide(&p.with_spectral(SpectralEvidence {
            rho_jacobi: Some(0.5),
            ..Default::default()
        }));
        assert_eq!(tame.family, PolicyFamily::Bicgstab);
        assert_eq!(tame.rule, "nonsym-dominant");
        assert_eq!(tame.precond, PolicyPrecond::AsyRgs { inner_sweeps: 2 });
        assert_eq!(tame.threads, 2);
        let stiff = policy.decide(&p.with_spectral(SpectralEvidence {
            rho_jacobi: Some(10.0),
            ..Default::default()
        }));
        assert_eq!(
            (stiff.family, stiff.rule),
            (PolicyFamily::Gmres, "nonsym-stiff")
        );
    }

    #[test]
    fn nonsym_without_probe_falls_back_to_the_margin() {
        // Weak diagonal, strong skew couple: margin (0.2 - 1)/0.2 = -4.
        let weak = CsrMatrix::from_dense(2, 2, &[0.2, 1.0, -1.0, 0.2]);
        let p = MatrixProfile::structural(&weak).unwrap();
        let d = SolverPolicy::default().decide(&p);
        assert_eq!((d.family, d.rule), (PolicyFamily::Gmres, "nonsym-stiff"));
    }

    #[test]
    fn nonsym_with_a_non_positive_diagonal_routes_to_gmres_whatever_rho() {
        let a = CsrMatrix::from_dense(2, 2, &[-4.0, 1.0, 0.5, 4.0]);
        let p = MatrixProfile::structural(&a).unwrap();
        let policy = SolverPolicy::default();
        for rho_jacobi in [None, Some(0.1), Some(10.0)] {
            let d = policy.decide(&p.with_spectral(SpectralEvidence {
                rho_jacobi,
                ..Default::default()
            }));
            assert_eq!(
                (d.family, d.rule, d.precond, d.threads),
                (
                    PolicyFamily::Gmres,
                    "nonsym-indefinite",
                    PolicyPrecond::Identity,
                    1
                )
            );
        }
    }

    #[test]
    fn symmetric_indefinite_routes_to_gmres() {
        let indef = CsrMatrix::from_dense(2, 2, &[1.0, 0.5, 0.5, -2.0]);
        let p = MatrixProfile::structural(&indef).unwrap();
        let d = SolverPolicy::default().decide(&p);
        assert_eq!((d.family, d.rule), (PolicyFamily::Gmres, "sym-indefinite"));
    }

    #[test]
    fn decisions_are_bitwise_deterministic() {
        let p = MatrixProfile::structural(&spd3())
            .unwrap()
            .with_spectral(SpectralEvidence {
                kappa: Some(123.456),
                rho_jacobi: None,
                probe_matvecs: 600,
            });
        let policy = SolverPolicy::default();
        let d1 = policy.decide(&p);
        for _ in 0..16 {
            assert_eq!(d1, policy.decide(&p));
        }
    }

    #[test]
    fn policy_family_names_are_stable() {
        for (f, n) in [
            (PolicyFamily::Cg, "cg"),
            (PolicyFamily::Fcg, "fcg"),
            (PolicyFamily::Bicgstab, "bicgstab"),
            (PolicyFamily::Gmres, "gmres"),
            (PolicyFamily::Rcd, "rcd"),
        ] {
            assert_eq!(f.name(), n);
        }
    }
}
