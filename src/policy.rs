//! The solver policy: deterministic family, preconditioner and thread
//! selection from matrix evidence, behind [`SolverBuilder::auto`] and the
//! serve layer's `SolveJob::auto`.
//!
//! The paper's methods come with sharp applicability conditions — AsyRGS
//! and the classical sweeps need SPD (and, for the asynchronous theory,
//! diagonal-dominance-like) structure, the nonsymmetric Krylov methods
//! tolerate anything square, RCD is the least-squares route — and the
//! session exposes eleven families. A tenant submitting a raw matrix with
//! no configuration needs a default that never lands on a known-divergent
//! cell of the conformance matrix. This module is that default.
//!
//! [`decide_for`] runs the pipeline:
//!
//! * [`MatrixProfile::structural`] collects the cheap structural facts
//!   (shape, symmetry, diagonal, dominance margin, a Gershgorin bound) and
//!   rejects inputs no candidate family could accept;
//! * [`probe_spectral`] turns the matrix into [`SpectralEvidence`] with
//!   fixed-seed, fixed-budget probes, but only where [`needs_probe`] says
//!   the probe can change the pick:
//!   - **symmetric** inputs get the Lanczos + power condition estimate
//!     ([`asyrgs_spectral::estimate_condition`]) under a
//!     [`POLICY_PROBE_BUDGET`]-matvec budget, unless the structural
//!     profile already fixes the pick: a non-positive diagonal
//!     (`sym-indefinite`), or a Gershgorin bound
//!     [`MatrixProfile::kappa_bound`] below [`KAPPA_FLEX`] (`spd`,
//!     certified without a matvec);
//!   - **nonsymmetric square** inputs get the spectral radius of the
//!     Jacobi iteration matrix
//!     ([`asyrgs_spectral::jacobi_spectral_radius`]), unless a diagonal
//!     entry is not positive (`nonsym-indefinite` fires on the sign
//!     alone);
//!   - **tall least-squares** inputs get no probe at all — the `lsq-tall`
//!     rule fires on shape alone;
//! * [`decide`] pushes the profile through a fixed rule list. It is pure
//!   and runs no spectral code, so its unit tests pin every rule directly.
//!
//! The resulting [`PolicyDecision`] speaks the session's vocabulary — a
//! [`SolverFamily`] from [`FAMILIES`] and a [`PrecondSpec`] — and carries
//! its evidence: the profile it was derived from, the name of the rule
//! that fired, and the fallback chain, so `BENCH_policy.json` and the
//! offline evaluation against the scenario corpus
//! (`tests/policy_matrix.rs`) can audit every pick.
//!
//! Everything is seeded with [`POLICY_PROBE_SEED`]: the same matrix bits
//! always produce the same evidence and therefore (the decision function
//! being pure) bitwise-identical decisions, regardless of pool width,
//! machine, or how often the probe reruns. The serve layer's matrix
//! registry caches the finished decision per registered matrix so repeat
//! tenants skip the probe entirely — cached and fresh decisions are
//! identical by construction.
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

use crate::session::{PrecondSpec, SolverBuilder, SolverFamily, SYMMETRY_TOL};
use asyrgs_core::driver::ensure_finite_matrix;
use asyrgs_core::error::SolveError;
use asyrgs_sparse::CsrMatrix;
use asyrgs_spectral::{estimate_condition, jacobi_spectral_radius, CondOptions};

/// The fixed seed of every policy probe. Decisions must be a pure
/// function of the matrix bits, so the probe seed is a constant of the
/// stack, not a knob.
pub const POLICY_PROBE_SEED: u64 = 0x90BE;

/// Matrix-vector products a policy probe may spend. [`KAPPA_FLEX`] and
/// [`RHO_STIFF`] are calibrated against estimates at exactly this budget;
/// changing it recalibrates the policy. A decision the structural profile
/// already fixes ([`needs_probe`] false, e.g. a Gershgorin-certified SPD
/// matrix) spends none of it (`probe_matvecs == 0`).
pub const POLICY_PROBE_BUDGET: usize = 600;

/// Condition-number estimate at or above which an SPD system is treated
/// as ill-conditioned and routed to flexible CG (whose flexible
/// recurrence tolerates the recovery ladder swapping preconditioners
/// mid-flight).
pub const KAPPA_FLEX: f64 = 1e3;

/// Jacobi-iteration-matrix spectral radius at or above which a
/// nonsymmetric system is treated as stiff and routed to GMRES
/// (BiCGSTAB's shadow inner products carry no guarantee there —
/// `skew_dominant`, with `rho ~ 10`, diverges under it).
pub const RHO_STIFF: f64 = 2.0;

/// Dominance margin at or below which a nonsymmetric system is treated as
/// stiff when no spectral-radius probe is attached (the structural
/// stand-in for [`RHO_STIFF`]).
pub const MARGIN_STIFF: f64 = -4.0;

/// Inner sweeps of the AsyRGS right preconditioner on the
/// `nonsym-dominant` route.
pub const ASYRGS_INNER_SWEEPS: usize = 2;

/// The families a decision can pick or name in its fallback chain: a
/// deliberately smaller set than the session's eleven. The policy only
/// ever picks methods whose convergence does not hinge on unverifiable
/// assumptions (it never selects an undamped classical sweep for an
/// arbitrary tenant matrix).
pub const FAMILIES: [SolverFamily; 5] = [
    SolverFamily::Cg,
    SolverFamily::Fcg,
    SolverFamily::Bicgstab,
    SolverFamily::Gmres,
    SolverFamily::Rcd,
];

/// Spectral probe results attached to a [`MatrixProfile`]. All fields are
/// optional: the structural profile alone already supports a decision
/// (the rules treat missing evidence conservatively). The default value
/// is "no probe ran": [`decide_for`] attaches a probe only when
/// [`needs_probe`] says its value could change the pick.
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
/// to several hundred matvecs, so it runs only where [`needs_probe`] says
/// it can change the pick.
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
        ensure_finite_matrix("policy", a)?;
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
    /// The selected solver family, one of [`FAMILIES`].
    pub family: SolverFamily,
    /// The selected preconditioner: [`PrecondSpec::Identity`], or AsyRGS
    /// sweeps on the `nonsym-dominant` route.
    pub precond: PrecondSpec,
    /// The selected worker-thread count. A pure function of the decision
    /// (asynchronous preconditioner => 2, everything else 1), never of
    /// the machine or the global pool width — decisions must not change
    /// between a laptop and a 128-core box.
    pub threads: usize,
    /// Name of the rule that fired (`"lsq-tall"`, `"nonsym-indefinite"`,
    /// `"nonsym-stiff"`, `"nonsym-dominant"`, `"sym-indefinite"`,
    /// `"spd-illcond"`, `"spd"`).
    pub rule: &'static str,
    /// The fallback chain: families from [`FAMILIES`] the recovery ladder
    /// should try, in order, if the selected one breaks down.
    pub fallback: Vec<SolverFamily>,
    /// The evidence the rule fired on.
    pub profile: MatrixProfile,
}

/// Whether a spectral probe could change [`decide`]'s pick for this
/// profile. False in three cases:
///
/// * `rows > cols` — `lsq-tall` fires on shape alone;
/// * a non-positive diagonal — `nonsym-indefinite` or `sym-indefinite`
///   fires on the sign alone, before any ρ or κ rule;
/// * symmetric with `kappa_bound < KAPPA_FLEX` — the Gershgorin
///   certificate: the probe's κ̂ is a ratio of Ritz values and Rayleigh
///   quotients, all inside `[λ_min, λ_max]`, so
///   `κ̂ <= κ <= kappa_bound < KAPPA_FLEX` (up to rounding) and `spd`
///   fires whatever the probe returns, as it does with no probe.
///
/// True otherwise, including for every nonsymmetric square input with a
/// positive diagonal.
pub fn needs_probe(profile: &MatrixProfile) -> bool {
    if profile.rows > profile.cols || !profile.positive_diagonal {
        return false;
    }
    !profile.symmetric || !profile.kappa_bound.is_some_and(|k| k < KAPPA_FLEX)
}

/// Decide the solver configuration for a profiled matrix.
///
/// The rules fire in a fixed order; the first match wins and its name is
/// recorded on the decision:
///
/// | rule | condition | pick |
/// |------|-----------|------|
/// | `lsq-tall` | `rows > cols` | RCD, no preconditioner |
/// | `nonsym-indefinite` | nonsymmetric, non-positive diagonal | GMRES, identity |
/// | `nonsym-stiff` | nonsymmetric and `rho >= RHO_STIFF` (or, with no probe, margin `<= MARGIN_STIFF`) | GMRES, identity |
/// | `nonsym-dominant` | nonsymmetric | BiCGSTAB + AsyRGS right preconditioner, 2 threads |
/// | `sym-indefinite` | symmetric, non-positive diagonal | GMRES, identity |
/// | `spd-illcond` | symmetric and `kappa >= KAPPA_FLEX` | Flexible CG, identity |
/// | `spd` | symmetric | CG, identity |
///
/// This is a total function on valid profiles
/// ([`MatrixProfile::structural`] already rejected everything no
/// candidate family could accept) and pure: equal profiles produce equal
/// decisions, bitwise.
pub fn decide(profile: &MatrixProfile) -> PolicyDecision {
    use SolverFamily::{Bicgstab, Cg, Fcg, Gmres, Rcd};
    let decision = |family, precond, threads, rule, fallback| PolicyDecision {
        family,
        precond,
        threads,
        rule,
        fallback,
        profile: *profile,
    };
    let plain = |family, rule, fallback| decision(family, PrecondSpec::Identity, 1, rule, fallback);
    if profile.rows > profile.cols {
        return plain(Rcd, "lsq-tall", vec![]);
    }
    if !profile.symmetric {
        if !profile.positive_diagonal {
            // The AsyRGS sweeps of `nonsym-dominant` need a positive
            // diagonal, so the sign alone routes to GMRES, as
            // `sym-indefinite` does below.
            return plain(Gmres, "nonsym-indefinite", vec![]);
        }
        let stiff = match profile.spectral.rho_jacobi {
            Some(rho) => !rho.is_finite() || rho >= RHO_STIFF,
            None => profile.dominance_margin.is_some_and(|m| m <= MARGIN_STIFF),
        };
        if stiff {
            return plain(Gmres, "nonsym-stiff", vec![]);
        }
        let sweeps = PrecondSpec::AsyRgs {
            inner_sweeps: ASYRGS_INNER_SWEEPS,
        };
        return decision(Bicgstab, sweeps, 2, "nonsym-dominant", vec![Gmres]);
    }
    if !profile.positive_diagonal {
        // Symmetric but certainly not positive definite: the CG
        // energy-norm theory is void, fall through to the monotone
        // nonsymmetric workhorse.
        return plain(Gmres, "sym-indefinite", vec![]);
    }
    if profile.spectral.kappa.is_some_and(|k| k >= KAPPA_FLEX) {
        return plain(Fcg, "spd-illcond", vec![Cg, Gmres]);
    }
    plain(Cg, "spd", vec![Fcg, Gmres])
}

/// Run the fixed-seed spectral probe appropriate for a profiled matrix.
///
/// Symmetric inputs get a condition estimate, nonsymmetric square inputs
/// a Jacobi-iteration-matrix spectral radius, tall inputs nothing (the
/// shape alone decides). The returned evidence records the matvecs spent
/// — the probe-cost currency of `BENCH_policy.json`.
///
/// This always probes, even where [`needs_probe`] is false; [`decide_for`]
/// calls it only where it is true. `probe_spectral` followed by
/// [`decide`] is the reference pipeline the tests hold `decide_for`'s
/// picks to.
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
/// [`needs_probe`] says its value can change the pick; a decision taken
/// without it carries `kappa: None`, `probe_matvecs: 0`, and the
/// profile's [`kappa_bound`](MatrixProfile::kappa_bound) as its evidence.
/// Either way the family, rule, preconditioner, threads and fallback are
/// those of the always-probe pipeline, and a decision that did probe is
/// bitwise that pipeline's.
///
/// # Errors
/// The structural-profiling errors of [`MatrixProfile::structural`]
/// (empty, non-finite, underdetermined, zero diagonal) — inputs no
/// policy-selectable solver could accept.
pub fn decide_for(a: &CsrMatrix) -> Result<PolicyDecision, SolveError> {
    let mut profile = MatrixProfile::structural(a)?;
    if needs_probe(&profile) {
        profile = profile.with_spectral(probe_spectral(a, &profile));
    }
    Ok(decide(&profile))
}

impl SolverBuilder {
    /// Configure a solver automatically from the matrix itself: profile
    /// it, run the fixed-seed spectral probe where it can change the
    /// pick, and apply the policy's rules (see [`decide_for`]).
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
    /// with its usual defaults, plus the decision's preconditioner and
    /// thread count. Pure — serve's scheduler maps registry-cached
    /// decisions through this without re-probing.
    pub fn from_decision(decision: &PolicyDecision) -> SolverBuilder {
        SolverBuilder::new(decision.family)
            .threads(decision.threads)
            .preconditioner(decision.precond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_core::driver::Termination;

    fn spd3() -> CsrMatrix {
        CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0])
    }

    fn profile(rows: usize, cols: usize, dense: &[f64]) -> MatrixProfile {
        MatrixProfile::structural(&CsrMatrix::from_dense(rows, cols, dense)).unwrap()
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
        // Shape alone decides.
        let tall = profile(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert!(!needs_probe(&tall));
        // `sym-indefinite` fires before any kappa rule.
        let indef = profile(2, 2, &[1.0, 0.5, 0.5, -2.0]);
        assert!(indef.symmetric && indef.kappa_bound.is_none());
        assert!(!needs_probe(&indef));
        // Certified: bound 3 < KAPPA_FLEX.
        let spd = MatrixProfile::structural(&spd3()).unwrap();
        assert!(!needs_probe(&spd));
        // Every nonsymmetric square input with a positive diagonal
        // probes, dominant or not; `nonsym-indefinite` fires on the sign.
        let nonsym = profile(2, 2, &[4.0, 1.0, -1.0, 4.0]);
        assert!(!nonsym.symmetric && nonsym.kappa_bound.is_none());
        assert!(needs_probe(&nonsym));
        let nonsym_indef = profile(2, 2, &[-4.0, 1.0, 0.5, 4.0]);
        assert!(!nonsym_indef.symmetric && !nonsym_indef.positive_diagonal);
        assert!(!needs_probe(&nonsym_indef));
        // A disc touching 0 certifies nothing.
        let weak = profile(2, 2, &[1.0, -1.0, -1.0, 3.0]);
        assert!(weak.symmetric && weak.positive_diagonal && weak.kappa_bound.is_none());
        assert!(needs_probe(&weak));
        // The certificate is strict: a bound at the threshold probes.
        let at = MatrixProfile {
            kappa_bound: Some(KAPPA_FLEX),
            ..spd
        };
        assert!(needs_probe(&at));
        let below = MatrixProfile {
            kappa_bound: Some(KAPPA_FLEX * (1.0 - f64::EPSILON)),
            ..spd
        };
        assert!(!needs_probe(&below));
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

    /// Every rule picks a family from [`FAMILIES`] with an identity or
    /// AsyRGS preconditioner, and names only [`FAMILIES`] in its fallback
    /// chain.
    #[test]
    fn every_rule_picks_within_families() {
        let spd = MatrixProfile::structural(&spd3()).unwrap();
        let nonsym = profile(2, 2, &[2.0, 1.0, -1.0, 2.0]);
        let evidence = |kappa, rho_jacobi| SpectralEvidence {
            kappa,
            rho_jacobi,
            probe_matvecs: 0,
        };
        let profiles = [
            profile(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
            profile(2, 2, &[-4.0, 1.0, 0.5, 4.0]),
            nonsym.with_spectral(evidence(None, Some(10.0))),
            nonsym.with_spectral(evidence(None, Some(0.5))),
            profile(2, 2, &[1.0, 0.5, 0.5, -2.0]),
            spd.with_spectral(evidence(Some(5e4), None)),
            spd,
        ];
        let rules: Vec<_> = profiles
            .iter()
            .map(|p| {
                let d = decide(p);
                assert!(FAMILIES.contains(&d.family), "{}: {:?}", d.rule, d.family);
                assert!(
                    d.fallback.iter().all(|f| FAMILIES.contains(f)),
                    "{}: fallback {:?}",
                    d.rule,
                    d.fallback
                );
                assert!(
                    matches!(
                        d.precond,
                        PrecondSpec::Identity | PrecondSpec::AsyRgs { .. }
                    ),
                    "{}: {:?}",
                    d.rule,
                    d.precond
                );
                d.rule
            })
            .collect();
        assert_eq!(
            rules,
            [
                "lsq-tall",
                "nonsym-indefinite",
                "nonsym-stiff",
                "nonsym-dominant",
                "sym-indefinite",
                "spd-illcond",
                "spd"
            ]
        );
    }

    #[test]
    fn tall_inputs_route_to_rcd() {
        let d = decide(&profile(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
        assert_eq!(d.family, SolverFamily::Rcd);
        assert_eq!(d.rule, "lsq-tall");
        assert_eq!(d.threads, 1);
    }

    #[test]
    fn spd_routes_split_on_kappa() {
        let p = MatrixProfile::structural(&spd3()).unwrap();
        let easy = decide(&p.with_spectral(SpectralEvidence {
            kappa: Some(50.0),
            ..Default::default()
        }));
        assert_eq!((easy.family, easy.rule), (SolverFamily::Cg, "spd"));
        let ill = decide(&p.with_spectral(SpectralEvidence {
            kappa: Some(5e4),
            ..Default::default()
        }));
        assert_eq!((ill.family, ill.rule), (SolverFamily::Fcg, "spd-illcond"));
        assert_eq!(ill.fallback, vec![SolverFamily::Cg, SolverFamily::Gmres]);
        // No probe attached => conservative easy route.
        assert_eq!(decide(&p).family, SolverFamily::Cg);
    }

    #[test]
    fn nonsym_routes_split_on_rho() {
        let p = profile(2, 2, &[2.0, 1.0, -1.0, 2.0]);
        assert!(!p.symmetric);
        let tame = decide(&p.with_spectral(SpectralEvidence {
            rho_jacobi: Some(0.5),
            ..Default::default()
        }));
        assert_eq!(tame.family, SolverFamily::Bicgstab);
        assert_eq!(tame.rule, "nonsym-dominant");
        assert_eq!(tame.precond, PrecondSpec::AsyRgs { inner_sweeps: 2 });
        assert_eq!(tame.threads, 2);
        let stiff = decide(&p.with_spectral(SpectralEvidence {
            rho_jacobi: Some(10.0),
            ..Default::default()
        }));
        assert_eq!(
            (stiff.family, stiff.rule),
            (SolverFamily::Gmres, "nonsym-stiff")
        );
    }

    #[test]
    fn nonsym_without_probe_falls_back_to_the_margin() {
        // Weak diagonal, strong skew couple: margin (0.2 - 1)/0.2 = -4.
        let d = decide(&profile(2, 2, &[0.2, 1.0, -1.0, 0.2]));
        assert_eq!((d.family, d.rule), (SolverFamily::Gmres, "nonsym-stiff"));
    }

    #[test]
    fn nonsym_with_a_non_positive_diagonal_routes_to_gmres_whatever_rho() {
        let p = profile(2, 2, &[-4.0, 1.0, 0.5, 4.0]);
        for rho_jacobi in [None, Some(0.1), Some(10.0)] {
            let d = decide(&p.with_spectral(SpectralEvidence {
                rho_jacobi,
                ..Default::default()
            }));
            assert_eq!(
                (d.family, d.rule, d.precond, d.threads),
                (
                    SolverFamily::Gmres,
                    "nonsym-indefinite",
                    PrecondSpec::Identity,
                    1
                )
            );
        }
    }

    #[test]
    fn symmetric_indefinite_routes_to_gmres() {
        let d = decide(&profile(2, 2, &[1.0, 0.5, 0.5, -2.0]));
        assert_eq!((d.family, d.rule), (SolverFamily::Gmres, "sym-indefinite"));
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
        let d1 = decide(&p);
        for _ in 0..16 {
            assert_eq!(d1, decide(&p));
        }
    }

    #[test]
    fn auto_solves_a_laplacian_with_cg() {
        let a = asyrgs_workloads::laplace2d(16, 16);
        let decision = decide_for(&a).unwrap();
        assert_eq!(decision.family, SolverFamily::Cg);
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
}
