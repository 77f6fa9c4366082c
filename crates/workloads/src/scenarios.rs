//! The scenario corpus: a registry of named, seeded, deterministic problem
//! families spanning the breadth of matrix classes the paper's AsyRGS
//! analysis covers — and a few it pointedly does *not* require (the
//! Chazan–Miranker near-diagonal-dominance class).
//!
//! Every [`Scenario`] carries metadata (dimension, seed, a closed-form
//! condition-number hint where one exists, and per-solver-family
//! expectation tags) behind a uniform [`Scenario::build`] API that yields a
//! [`BuiltScenario`]: the CSR matrix, a right-hand side with (where the
//! construction permits) a planted exact solution, plus zero-copy
//! [`UnitDiagonalView`] and small-`n` dense [`RowMajorMat`] backends.
//!
//! The tags drive the cross-solver conformance matrix
//! (`tests/scenario_matrix.rs` in the workspace root) and the
//! `scenario_runner` bench binary, which emits `BENCH_scenarios.json` —
//! one record per `scenario x family x backend` cell:
//!
//! * [`Expectation::Converges`] — the family must reach
//!   [`Scenario::tol`] within [`Scenario::sweeps`];
//! * [`Expectation::Progress`] — the family converges in theory but too
//!   slowly to budget for (ill-conditioning ladders): assert no blow-up;
//! * [`Expectation::MayDiverge`] — classical theory does not guarantee
//!   convergence (e.g. undamped Jacobi beyond the Chazan–Miranker
//!   condition): the run must complete, the residual may explode;
//! * [`Expectation::Rejects`] — the family must refuse the problem with a
//!   typed error (least-squares scenarios vs square-system solvers and
//!   vice versa).
//!
//! # Worked example
//!
//! ```
//! use asyrgs_workloads::scenarios::{self, Expectation};
//!
//! let sc = scenarios::find("beyond_chazan_miranker").expect("registered");
//! let built = sc.build();
//! assert_eq!(built.n(), sc.n);
//!
//! // SPD, so the Gauss-Seidel families must converge...
//! assert_eq!(sc.expectation("asyrgs"), Expectation::Converges);
//! // ...but the matrix violates diagonal dominance, so classical chaotic
//! // relaxation (async Jacobi) has no guarantee:
//! assert_eq!(sc.expectation("async_jacobi"), Expectation::MayDiverge);
//!
//! // Zero-copy unit-diagonal backend for the delay-model executors.
//! let view = built.unit_view().expect("square SPD");
//! let b_unit = view.rhs_to_unit(&built.b);
//! assert_eq!(b_unit.len(), built.n());
//! ```
//!
//! Adding a family is three steps: write a `fn build_xyz(seed: u64) ->
//! BuiltScenario`, append a `Scenario` literal to [`all_scenarios`], and
//! tag the solver families it must reject / may diverge on / is too slow
//! for. The conformance matrix and the benchmark pick it up automatically.

use crate::gram::{gram_matrix, GramParams};
use crate::laplace::{
    laplace2d, laplace2d_extreme_eigenvalues, laplace3d, tridiag_toeplitz,
    tridiag_toeplitz_eigenvalues,
};
use crate::lsq::{random_lsq, LsqParams};
use crate::spd::{diag_dominant, random_spd_band};
use asyrgs_sparse::{CooBuilder, CsrMatrix, RowMajorMat, UnitDiagonal, UnitDiagonalView};
use asyrgs_spectral::{estimate_condition, CondOptions};

/// Stable snake_case names of every solver family the session layer
/// exposes, in registry order (matches `SolverFamily::name()` in the
/// facade crate).
pub const FAMILY_NAMES: [&str; 11] = [
    "rgs",
    "asyrgs",
    "jacobi",
    "async_jacobi",
    "partitioned",
    "rcd",
    "async_rcd",
    "cg",
    "fcg",
    "bicgstab",
    "gmres",
];

/// Families that solve least-squares systems (through `solve_lsq`) rather
/// than square systems.
pub const LSQ_FAMILY_NAMES: [&str; 2] = ["rcd", "async_rcd"];

/// Families whose convergence theory accepts nonsymmetric square
/// operators; every other square-system family is expected to reject a
/// [`ScenarioClass::SquareNonsym`] scenario with a typed error.
pub const NONSYM_FAMILY_NAMES: [&str; 2] = ["bicgstab", "gmres"];

/// Largest `n` included in the CI smoke subset ([`smoke_scenarios`]).
pub const SMOKE_MAX_N: usize = 330;

/// Largest `n` for which [`BuiltScenario::dense`] materializes the dense
/// backend (dense row visits cost `O(n)` per row).
pub const DENSE_BACKEND_MAX_N: usize = 100;

/// What kind of system a scenario poses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioClass {
    /// A square SPD system `A x = b`.
    SquareSpd,
    /// A square **nonsymmetric** system `A x = b` (convection–diffusion,
    /// PageRank-style, skew perturbations): the Krylov nonsymmetric
    /// families solve it, every symmetric-theory family must reject it.
    SquareNonsym,
    /// An overdetermined least-squares problem `min ||A x - b||_2`.
    LeastSquares,
}

impl ScenarioClass {
    /// Stable lowercase name (used in `BENCH_scenarios.json` and
    /// `BENCH_policy.json`).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioClass::SquareSpd => "square_spd",
            ScenarioClass::SquareNonsym => "square_nonsym",
            ScenarioClass::LeastSquares => "least_squares",
        }
    }
}

/// What a solver family is expected to do on a scenario — the cell
/// semantics of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Must reach [`Scenario::tol`] within [`Scenario::sweeps`].
    Converges,
    /// Converges in theory but too slowly to budget for: assert the run
    /// completes with a finite residual that has not grown.
    Progress,
    /// No classical guarantee: the run must complete, the residual may
    /// diverge.
    MayDiverge,
    /// Must refuse with a typed `SolveError`.
    Rejects,
}

impl Expectation {
    /// Stable lowercase name (used in `BENCH_scenarios.json`).
    pub fn name(&self) -> &'static str {
        match self {
            Expectation::Converges => "converges",
            Expectation::Progress => "progress",
            Expectation::MayDiverge => "may_diverge",
            Expectation::Rejects => "rejects",
        }
    }
}

/// A built scenario: the problem data plus the alternative operator
/// backends.
#[derive(Debug, Clone)]
pub struct BuiltScenario {
    /// The coefficient matrix (square SPD, or rectangular for
    /// [`ScenarioClass::LeastSquares`]).
    pub a: CsrMatrix,
    /// The right-hand side.
    pub b: Vec<f64>,
    /// The planted exact solution, where the construction provides one
    /// (`b = A x_star`; `None` for noisy least-squares instances).
    pub x_star: Option<Vec<f64>>,
}

impl BuiltScenario {
    /// Number of unknowns (columns of `A`).
    pub fn n(&self) -> usize {
        self.a.n_cols()
    }

    /// Stored non-zeros of the coefficient matrix.
    pub fn nnz(&self) -> usize {
        self.a.nnz()
    }

    /// The zero-copy unit-diagonal rescaling backend, for square SPD
    /// scenarios (`None` for least-squares scenarios).
    pub fn unit_view(&self) -> Option<UnitDiagonalView<'_>> {
        UnitDiagonalView::new(&self.a).ok()
    }

    /// The dense row-major backend, for square scenarios small enough
    /// ([`DENSE_BACKEND_MAX_N`]) that `O(n)`-per-row visits stay cheap.
    pub fn dense(&self) -> Option<RowMajorMat> {
        if self.a.is_square() && self.n() <= DENSE_BACKEND_MAX_N {
            Some(RowMajorMat::from_vec(
                self.a.n_rows(),
                self.a.n_cols(),
                self.a.to_dense(),
            ))
        } else {
            None
        }
    }
}

/// One named, seeded, deterministic problem family.
pub struct Scenario {
    /// Unique snake_case name (the registry key and the JSON `scenario`
    /// field).
    pub name: &'static str,
    /// One-line description of what the family stresses.
    pub description: &'static str,
    /// Square SPD vs least squares.
    pub class: ScenarioClass,
    /// RNG seed of the construction (scenarios are pure functions of it).
    pub seed: u64,
    /// Number of unknowns.
    pub n: usize,
    /// Closed-form (or construction-implied) condition number, where one
    /// exists; use [`Scenario::estimate_kappa`] for the iterative estimate.
    pub kappa_hint: Option<f64>,
    /// Relative-residual tolerance a [`Expectation::Converges`] family
    /// must reach.
    pub tol: f64,
    /// Sweep budget within which it must reach it.
    pub sweeps: usize,
    /// Families with no classical convergence guarantee here.
    diverges: &'static [&'static str],
    /// Families that converge too slowly to budget for.
    slow: &'static [&'static str],
    /// The deterministic constructor.
    build_fn: fn(u64) -> BuiltScenario,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("kappa_hint", &self.kappa_hint)
            .finish()
    }
}

impl Scenario {
    /// Construct the problem. Pure in [`Scenario::seed`]: repeated builds
    /// are bitwise identical.
    pub fn build(&self) -> BuiltScenario {
        let built = (self.build_fn)(self.seed);
        debug_assert_eq!(built.n(), self.n, "{}: registered n is stale", self.name);
        built
    }

    /// What the given solver family (by its stable name) is expected to do
    /// on this scenario.
    ///
    /// Class mismatches dominate the per-scenario tags: least-squares
    /// scenarios are [`Expectation::Rejects`] for every square-system
    /// family and vice versa.
    pub fn expectation(&self, family: &str) -> Expectation {
        let is_lsq_family = LSQ_FAMILY_NAMES.contains(&family);
        let is_nonsym_family = NONSYM_FAMILY_NAMES.contains(&family);
        match self.class {
            ScenarioClass::LeastSquares if !is_lsq_family => return Expectation::Rejects,
            ScenarioClass::SquareSpd | ScenarioClass::SquareNonsym if is_lsq_family => {
                return Expectation::Rejects
            }
            // Nonsymmetric square systems: only the Krylov nonsymmetric
            // families apply; the symmetric-theory families reject at
            // admission instead of silently diverging.
            ScenarioClass::SquareNonsym if !is_nonsym_family => return Expectation::Rejects,
            _ => {}
        }
        if self.diverges.contains(&family) {
            Expectation::MayDiverge
        } else if self.slow.contains(&family) {
            Expectation::Progress
        } else {
            Expectation::Converges
        }
    }

    /// Estimate the condition number of the built system with the
    /// `asyrgs-spectral` iterative estimator (square scenarios; `None` for
    /// least squares, whose conditioning the LSQ theory takes through
    /// `A^T A`).
    ///
    /// SPD scenarios go through the Lanczos + power estimator
    /// (`estimate_condition`). Nonsymmetric scenarios take the
    /// spectral-radius path instead: the Lanczos-based SPD estimator is
    /// meaningless there, so the estimate is the same Jacobi
    /// iteration-matrix surrogate `(1 + rho) / (1 - rho)` the registry's
    /// `kappa_hint` is built from — `None` when `rho >= 1` (the bound is
    /// vacuous).
    ///
    /// Documented accuracy on the ill-conditioning ladder (fixed default
    /// budget, the regime the solver policy's thresholds are calibrated
    /// in): at `kappa ~ 1e2` the estimate is within 5% of the closed-form
    /// hint; at `kappa ~ 1e4` within a factor of 4 (the shifted power
    /// iteration under-resolves `lambda_min`); at `kappa ~ 1e6` only the
    /// **order floor** survives — the estimate stays a (severe)
    /// underestimate but still lands far above the `1e3` ill-conditioning
    /// threshold, which is all the policy consumes.
    pub fn estimate_kappa(&self, built: &BuiltScenario) -> Option<f64> {
        if !built.a.is_square() {
            return None;
        }
        if self.class == ScenarioClass::SquareNonsym {
            return nonsym_kappa_hint(&built.a);
        }
        let est = estimate_condition(
            &built.a,
            &CondOptions {
                seed: self.seed ^ 0xC0DE,
                ..Default::default()
            },
        );
        Some(est.kappa)
    }

    /// The canonical row diagonal-dominance margin of the built system —
    /// [`CsrMatrix::dominance_margin`] on the scenario matrix, the same
    /// value the solver policy (`asyrgs::policy`) profiles. `None`
    /// for least-squares scenarios and any system with a zero diagonal
    /// entry, where the margin is undefined.
    pub fn dominance_margin(&self, built: &BuiltScenario) -> Option<f64> {
        built.a.dominance_margin()
    }
}

/// The deterministic planted solution every square scenario uses:
/// quasi-random in `[-0.3, 0.7)`, a pure function of the index.
fn planted_x(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 13) % 17) as f64 / 17.0 - 0.3)
        .collect()
}

/// Square SPD scenario plumbing: plant `x*`, derive `b = A x*`.
fn with_planted(a: CsrMatrix) -> BuiltScenario {
    let x_star = planted_x(a.n_rows());
    let b = a.matvec(&x_star);
    BuiltScenario {
        a,
        b,
        x_star: Some(x_star),
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

fn build_laplace2d_16(_seed: u64) -> BuiltScenario {
    with_planted(laplace2d(16, 16))
}

fn build_laplace2d_32(_seed: u64) -> BuiltScenario {
    with_planted(laplace2d(32, 32))
}

fn build_laplace3d_8(_seed: u64) -> BuiltScenario {
    with_planted(laplace3d(8, 8, 8))
}

fn build_gram_social(seed: u64) -> BuiltScenario {
    let g = gram_matrix(&GramParams {
        n_terms: 220,
        n_docs: 900,
        max_doc_len: 50,
        ridge_rel: 1e-2,
        seed,
        ..Default::default()
    });
    with_planted(g.matrix)
}

fn build_diag_dominant_easy(seed: u64) -> BuiltScenario {
    with_planted(diag_dominant(300, 5, 2.5, seed))
}

fn build_barely_spd(seed: u64) -> BuiltScenario {
    with_planted(diag_dominant(300, 5, 1.02, seed))
}

fn build_banded(seed: u64) -> BuiltScenario {
    with_planted(random_spd_band(320, 4, seed))
}

fn build_random_sparse_spd(seed: u64) -> BuiltScenario {
    with_planted(diag_dominant(400, 7, 1.3, seed))
}

/// Tridiagonal Toeplitz `(2, -off)` rung of the ill-conditioning ladder:
/// `kappa = (2 + 2 off c1) / (2 - 2 off c1)` with `c1 = cos(pi/(n+1))`.
fn ladder_rung(n: usize, off: f64) -> BuiltScenario {
    with_planted(tridiag_toeplitz(n, 2.0, -off))
}

fn build_kappa_1e2(_seed: u64) -> BuiltScenario {
    ladder_rung(256, 0.9802)
}

fn build_kappa_1e4(_seed: u64) -> BuiltScenario {
    ladder_rung(512, 0.99982)
}

/// The `~1e6` rung: the 1D biharmonic operator `T^2` (for `T` the 1D
/// Laplacian), whose condition number is `kappa(T)^2` — quartic in `n`, so
/// extreme ill-conditioning at a small dimension.
fn build_kappa_1e6(_seed: u64) -> BuiltScenario {
    let n = 64;
    let t = tridiag_toeplitz(n, 2.0, -1.0);
    let td = t.to_dense();
    // Dense n^3 product is trivial at n = 64; exact SPD by construction.
    let mut sq = vec![0.0f64; n * n];
    for i in 0..n {
        for l in 0..n {
            let v = td[i * n + l];
            if v != 0.0 {
                for j in 0..n {
                    sq[i * n + j] += v * td[l * n + j];
                }
            }
        }
    }
    with_planted(CsrMatrix::from_dense(n, n, &sq))
}

/// Exact `kappa` of the tridiagonal ladder rungs from the closed-form
/// eigenvalues.
fn tridiag_kappa(n: usize, off: f64) -> f64 {
    let eigs = tridiag_toeplitz_eigenvalues(n, 2.0, -off);
    eigs[n - 1] / eigs[0]
}

/// SPD pentadiagonal Toeplitz with unit diagonal and off-diagonals
/// `(+o1, +o2)`: for `o1 = 0.4, o2 = 0.2` the symbol
/// `f(t) = 1 + 0.8 cos t + 0.4 cos 2t = 0.8 c^2 + 0.8 c + 0.6` (with
/// `c = cos t`) has minimum `0.4 > 0` at `c = -1/2`, so the matrix is SPD —
/// yet each interior row's off-diagonal magnitude sums to `1.2 > 1`,
/// violating the Chazan–Miranker diagonal-dominance condition classical
/// asynchronous theory needs (the Jacobi iteration matrix has spectral
/// radius `~1.2`).
fn build_beyond_chazan_miranker(_seed: u64) -> BuiltScenario {
    let n = 320;
    let (o1, o2) = (0.4, 0.2);
    let mut coo = CooBuilder::with_capacity(n, n, 5 * n);
    for i in 0..n {
        coo.push(i, i, 1.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, o1).unwrap();
            coo.push(i + 1, i, o1).unwrap();
        }
        if i + 2 < n {
            coo.push(i, i + 2, o2).unwrap();
            coo.push(i + 2, i, o2).unwrap();
        }
    }
    with_planted(coo.to_csr())
}

/// The paper's *reference scenario* pre-rescaled to unit diagonal: a
/// materialized `D B D` of a random banded SPD matrix, so the delay-model
/// executors accept it directly.
fn build_reference_unit_diag(seed: u64) -> BuiltScenario {
    let b = random_spd_band(288, 3, seed);
    let u = UnitDiagonal::from_spd(&b).expect("banded generator is SPD");
    with_planted(u.a)
}

/// 2D convection–diffusion with first-order upwinding on an `m x m`
/// interior grid: `-Delta u + p . grad u` with constant velocity along
/// `+x` and `+y`. The cell Péclet number is `c = p h / 2`; upwinding puts
/// the convective weight entirely on the upstream neighbor, so the stencil
/// is `4 + 2c` on the diagonal, `-(1 + c)` upstream, `-1` downstream —
/// weakly diagonally dominant for every `c >= 0` and nonsymmetric for
/// every `c > 0`.
fn conv_diff_upwind(m: usize, c: f64) -> CsrMatrix {
    let n = m * m;
    let idx = |i: usize, j: usize| i * m + j;
    let mut coo = CooBuilder::with_capacity(n, n, 5 * n);
    for i in 0..m {
        for j in 0..m {
            let k = idx(i, j);
            coo.push(k, k, 4.0 + 2.0 * c).unwrap();
            if i > 0 {
                coo.push(k, idx(i - 1, j), -(1.0 + c)).unwrap();
            }
            if i + 1 < m {
                coo.push(k, idx(i + 1, j), -1.0).unwrap();
            }
            if j > 0 {
                coo.push(k, idx(i, j - 1), -(1.0 + c)).unwrap();
            }
            if j + 1 < m {
                coo.push(k, idx(i, j + 1), -1.0).unwrap();
            }
        }
    }
    coo.to_csr()
}

fn build_conv_diff_pe_low(_seed: u64) -> BuiltScenario {
    with_planted(conv_diff_upwind(16, 0.5))
}

fn build_conv_diff_pe_mid(_seed: u64) -> BuiltScenario {
    // 10x10 grid: small enough (n = 100) for the dense conformance
    // backend to cover the nonsymmetric class too.
    with_planted(conv_diff_upwind(10, 2.0))
}

fn build_conv_diff_pe_high(_seed: u64) -> BuiltScenario {
    with_planted(conv_diff_upwind(16, 10.0))
}

/// PageRank-style linear system `(I - d P^T) x = v` for a deterministic
/// sparse directed graph with row-stochastic `P` and damping `d = 0.85`:
/// column sums of `d P^T` are exactly `d < 1`, so the system is strictly
/// diagonally dominant by columns and nonsingular, yet nonsymmetric.
fn build_pagerank_style(seed: u64) -> BuiltScenario {
    let n = 300;
    let d = 0.85;
    let out_deg = 4usize;
    let mut rng = asyrgs_rng::Xoshiro256pp::new(seed);
    let mut coo = CooBuilder::with_capacity(n, n, n * (out_deg + 1));
    for j in 0..n {
        coo.push(j, j, 1.0).unwrap();
        let w = d / out_deg as f64;
        for _ in 0..out_deg {
            // Self-links fold harmlessly into the diagonal (duplicates
            // are summed), keeping every column sum of dP^T at d.
            let t = rng.next_index(n);
            coo.push(t, j, -w).unwrap();
        }
    }
    with_planted(coo.to_csr())
}

/// The 16x16 2D Laplacian plus a skew-symmetric first-order coupling
/// `s (e_i e_{i+1}^T - e_{i+1} e_i^T)`: the symmetric part stays the SPD
/// Laplacian, so the field of values lies in the right half plane and the
/// Krylov nonsymmetric families converge — but the operator itself is
/// nonsymmetric and every symmetric-theory family must reject it.
fn build_skew_perturbed_laplace(_seed: u64) -> BuiltScenario {
    let l = laplace2d(16, 16);
    let n = l.n_rows();
    let s = 0.5;
    let mut coo = CooBuilder::with_capacity(n, n, l.nnz() + 2 * n);
    for i in 0..n {
        let (cols, vals) = l.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(i, c, v).unwrap();
        }
    }
    for i in 0..n - 1 {
        coo.push(i, i + 1, s).unwrap();
        coo.push(i + 1, i, -s).unwrap();
    }
    with_planted(coo.to_csr())
}

/// Skew-dominant tridiagonal: `0.2 I + S` with `S` the `(+1, -1)` skew
/// tridiagonal. The spectrum is `0.2 + 2i cos(k pi/(n+1))` — a thin
/// vertical line hugging the imaginary axis — so restarted GMRES makes
/// slow monotone progress while BiCGSTAB's short recurrence has no
/// guarantee at all (its shadow-residual inner products can vanish).
fn build_skew_dominant(_seed: u64) -> BuiltScenario {
    let n = 96;
    let mut coo = CooBuilder::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 0.2).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, 1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
    }
    with_planted(coo.to_csr())
}

/// Condition-number surrogate for a diagonally dominant nonsymmetric
/// system, recorded as the scenario's kappa hint: estimate the spectral
/// radius `rho` of the Jacobi iteration matrix `G = I - D^{-1} A`
/// (`asyrgs_spectral::jacobi_spectral_radius`, the policy's shared
/// probe), then bound `kappa(D^{-1}A) <= (1 + rho) / (1 - rho)`. `None`
/// when `rho >= 1` (the bound is vacuous there).
fn nonsym_kappa_hint(a: &CsrMatrix) -> Option<f64> {
    let rho = asyrgs_spectral::jacobi_spectral_radius(a, 600, 1e-8, 0x4E0E)?.eigenvalue;
    if rho < 1.0 {
        Some((1.0 + rho) / (1.0 - rho))
    } else {
        None
    }
}

fn build_tall_lsq(seed: u64) -> BuiltScenario {
    let p = random_lsq(&LsqParams {
        rows: 600,
        cols: 150,
        nnz_per_col: 6,
        noise: 0.0,
        seed,
    });
    BuiltScenario {
        a: p.a,
        b: p.b,
        x_star: Some(p.x_planted),
    }
}

fn build_tall_lsq_noisy(seed: u64) -> BuiltScenario {
    let p = random_lsq(&LsqParams {
        rows: 600,
        cols: 150,
        nnz_per_col: 6,
        noise: 0.05,
        seed,
    });
    BuiltScenario {
        a: p.a,
        b: p.b,
        x_star: None,
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The full scenario registry, in presentation order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "laplace2d_16",
            description: "2D 5-point Laplacian, 16x16 grid (reference scenario)",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 256,
            kappa_hint: Some({
                let (lmin, lmax) = laplace2d_extreme_eigenvalues(16, 16);
                lmax / lmin
            }),
            tol: 1e-2,
            sweeps: 400,
            diverges: &[],
            slow: &[],
            build_fn: build_laplace2d_16,
        },
        Scenario {
            name: "laplace2d_32",
            description: "2D 5-point Laplacian, 32x32 grid (larger reference scenario)",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 1024,
            kappa_hint: Some({
                let (lmin, lmax) = laplace2d_extreme_eigenvalues(32, 32);
                lmax / lmin
            }),
            tol: 1e-2,
            sweeps: 800,
            diverges: &[],
            slow: &["jacobi", "async_jacobi"],
            build_fn: build_laplace2d_32,
        },
        Scenario {
            name: "laplace3d_8",
            description: "3D 7-point Laplacian, 8x8x8 grid",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 512,
            kappa_hint: None,
            tol: 1e-3,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_laplace3d_8,
        },
        Scenario {
            name: "gram_social",
            description:
                "synthetic social-media Gram matrix: skewed rows, unstructured (Section 9)",
            class: ScenarioClass::SquareSpd,
            seed: 0x50C1,
            // 220 terms minus the seed's one never-drawn term (compaction).
            n: 219,
            kappa_hint: None,
            tol: 1e-2,
            sweeps: 300,
            // The Gram matrix is far from diagonally dominant: undamped
            // (async) Jacobi has no Chazan–Miranker guarantee on it.
            diverges: &["jacobi", "async_jacobi"],
            slow: &[],
            build_fn: build_gram_social,
        },
        Scenario {
            name: "diag_dominant_easy",
            description: "strongly diagonally dominant SPD (the classical easy class)",
            class: ScenarioClass::SquareSpd,
            seed: 0xEA5E,
            n: 300,
            kappa_hint: None,
            tol: 1e-6,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_diag_dominant_easy,
        },
        Scenario {
            name: "barely_spd",
            description: "diagonal dominance margin 2%: SPD but near the classical boundary",
            class: ScenarioClass::SquareSpd,
            seed: 0xBA2E,
            n: 300,
            kappa_hint: None,
            tol: 1e-2,
            sweeps: 400,
            diverges: &[],
            slow: &[],
            build_fn: build_barely_spd,
        },
        Scenario {
            name: "banded_b4",
            description: "random banded SPD, bandwidth 4 (row nnz in [C1, C2], small C2/C1)",
            class: ScenarioClass::SquareSpd,
            seed: 0xBA4D,
            n: 320,
            kappa_hint: None,
            tol: 1e-4,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_banded,
        },
        Scenario {
            name: "random_sparse_spd",
            description: "random-sparsity SPD, moderate dominance margin",
            class: ScenarioClass::SquareSpd,
            seed: 0x5BAD,
            n: 400,
            kappa_hint: None,
            tol: 1e-3,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_random_sparse_spd,
        },
        Scenario {
            name: "kappa_1e2",
            description: "ill-conditioning ladder: tridiagonal Toeplitz, kappa ~ 1e2",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 256,
            kappa_hint: Some(tridiag_kappa(256, 0.9802)),
            tol: 1e-3,
            sweeps: 600,
            diverges: &[],
            slow: &[],
            build_fn: build_kappa_1e2,
        },
        Scenario {
            name: "kappa_1e4",
            description: "ill-conditioning ladder: tridiagonal Toeplitz, kappa ~ 1e4",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 512,
            kappa_hint: Some(tridiag_kappa(512, 0.99982)),
            tol: 1e-2,
            sweeps: 800,
            diverges: &[],
            // GMRES(30)'s degree-30 Chebyshev factor is ~1 at kappa 1e4:
            // restarts stagnate where unrestarted Krylov (CG, BiCGSTAB)
            // still converges.
            slow: &[
                "rgs",
                "asyrgs",
                "jacobi",
                "async_jacobi",
                "partitioned",
                "gmres",
            ],
            build_fn: build_kappa_1e4,
        },
        Scenario {
            name: "kappa_1e6",
            description: "ill-conditioning ladder: 1D biharmonic (T^2), kappa ~ 1e6",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 64,
            kappa_hint: Some(tridiag_kappa(64, 1.0) * tridiag_kappa(64, 1.0)),
            tol: 1e-2,
            sweeps: 300,
            // The biharmonic diagonal is too weak for Jacobi: the
            // iteration matrix has spectral radius ~5/3, so undamped
            // (a)synchronous Jacobi genuinely diverges here. BiCGSTAB's
            // non-monotone recurrence can stall or break down at kappa
            // ~1e6, so it gets the no-guarantee tag; GMRES is monotone
            // and earns the progress tag.
            diverges: &["jacobi", "async_jacobi", "bicgstab"],
            slow: &["rgs", "asyrgs", "partitioned", "gmres"],
            build_fn: build_kappa_1e6,
        },
        Scenario {
            name: "beyond_chazan_miranker",
            description:
                "SPD pentadiagonal violating diagonal dominance: AsyRGS converges, chaotic \
                 relaxation has no guarantee (the paper's headline class)",
            class: ScenarioClass::SquareSpd,
            seed: 0,
            n: 320,
            // Asymptotic symbol extremes: f in [0.4, 2.2].
            kappa_hint: Some(5.5),
            tol: 1e-6,
            sweeps: 300,
            diverges: &["jacobi", "async_jacobi"],
            slow: &[],
            build_fn: build_beyond_chazan_miranker,
        },
        Scenario {
            name: "reference_unit_diag",
            description: "banded SPD pre-rescaled to unit diagonal (delay-model ready)",
            class: ScenarioClass::SquareSpd,
            seed: 0x0D1A,
            n: 288,
            kappa_hint: None,
            tol: 1e-4,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_reference_unit_diag,
        },
        Scenario {
            name: "conv_diff_pe_low",
            description: "2D upwind convection-diffusion, cell Peclet 0.5 (mildly nonsymmetric)",
            class: ScenarioClass::SquareNonsym,
            seed: 0,
            n: 256,
            kappa_hint: nonsym_kappa_hint(&conv_diff_upwind(16, 0.5)),
            tol: 1e-6,
            sweeps: 400,
            diverges: &[],
            slow: &[],
            build_fn: build_conv_diff_pe_low,
        },
        Scenario {
            name: "conv_diff_pe_mid",
            description: "2D upwind convection-diffusion, cell Peclet 2 (dense-backend sized)",
            class: ScenarioClass::SquareNonsym,
            seed: 0,
            n: 100,
            kappa_hint: nonsym_kappa_hint(&conv_diff_upwind(10, 2.0)),
            tol: 1e-6,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_conv_diff_pe_mid,
        },
        Scenario {
            name: "conv_diff_pe_high",
            description: "2D upwind convection-diffusion, cell Peclet 10 (convection-dominated)",
            class: ScenarioClass::SquareNonsym,
            seed: 0,
            n: 256,
            kappa_hint: nonsym_kappa_hint(&conv_diff_upwind(16, 10.0)),
            tol: 1e-6,
            sweeps: 400,
            diverges: &[],
            slow: &[],
            build_fn: build_conv_diff_pe_high,
        },
        Scenario {
            name: "pagerank_style",
            description:
                "PageRank-style (I - d P^T) with row-stochastic P, d = 0.85: column-dominant, \
                 nonsymmetric",
            class: ScenarioClass::SquareNonsym,
            seed: 0x9A6E,
            n: 300,
            kappa_hint: nonsym_kappa_hint(&{
                let b = build_pagerank_style(0x9A6E);
                b.a
            }),
            tol: 1e-8,
            sweeps: 300,
            diverges: &[],
            slow: &[],
            build_fn: build_pagerank_style,
        },
        Scenario {
            name: "skew_perturbed_laplace",
            description:
                "2D Laplacian plus skew first-order coupling: SPD symmetric part, nonsymmetric \
                 operator",
            class: ScenarioClass::SquareNonsym,
            seed: 0,
            n: 256,
            kappa_hint: None,
            tol: 1e-6,
            sweeps: 400,
            diverges: &[],
            slow: &[],
            build_fn: build_skew_perturbed_laplace,
        },
        Scenario {
            name: "skew_dominant",
            description:
                "0.2 I + skew tridiagonal: spectrum hugs the imaginary axis; GMRES grinds \
                 monotonically, BiCGSTAB has no guarantee",
            class: ScenarioClass::SquareNonsym,
            seed: 0,
            n: 96,
            kappa_hint: None,
            tol: 1e-6,
            sweeps: 300,
            diverges: &["bicgstab"],
            slow: &["gmres"],
            build_fn: build_skew_dominant,
        },
        Scenario {
            name: "tall_lsq",
            description: "consistent sparse least squares, 600x150, unit-norm columns (Section 8)",
            class: ScenarioClass::LeastSquares,
            seed: 0x7A11,
            n: 150,
            kappa_hint: None,
            tol: 1e-4,
            sweeps: 400,
            diverges: &[],
            slow: &[],
            build_fn: build_tall_lsq,
        },
        Scenario {
            name: "tall_lsq_noisy",
            description: "noisy sparse least squares: nonzero residual floor at the minimizer",
            class: ScenarioClass::LeastSquares,
            seed: 0x7A12,
            n: 150,
            kappa_hint: None,
            tol: 1e-4,
            sweeps: 400,
            diverges: &[],
            // The residual floor is the noise level, not `tol`: assert
            // progress, not tolerance.
            slow: &["rcd", "async_rcd"],
            build_fn: build_tall_lsq_noisy,
        },
    ]
}

/// The small-`n` subset CI smoke-runs (`n <= `[`SMOKE_MAX_N`]).
pub fn smoke_scenarios() -> Vec<Scenario> {
    all_scenarios()
        .into_iter()
        .filter(|s| s.n <= SMOKE_MAX_N)
        .collect()
}

/// Look up a scenario by its registered name.
pub fn find(name: &str) -> Option<Scenario> {
    all_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_plentiful() {
        let all = all_scenarios();
        assert!(all.len() >= 18, "corpus must stay broad: {}", all.len());
        assert!(
            all.iter()
                .filter(|s| s.class == ScenarioClass::SquareNonsym)
                .count()
                >= 4,
            "nonsymmetric corpus must stay broad"
        );
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        assert!(smoke_scenarios().len() >= 6, "smoke subset too small");
        assert!(find("laplace2d_16").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_scenario_builds_deterministically_with_registered_shape() {
        for sc in all_scenarios() {
            let b1 = sc.build();
            let b2 = sc.build();
            assert_eq!(b1.a, b2.a, "{}: build must be pure in the seed", sc.name);
            assert_eq!(b1.b, b2.b, "{}", sc.name);
            assert_eq!(b1.n(), sc.n, "{}: stale registered n", sc.name);
            assert!(b1.nnz() > 0, "{}", sc.name);
            match sc.class {
                ScenarioClass::SquareSpd => {
                    assert!(b1.a.is_square(), "{}", sc.name);
                    assert!(b1.a.is_symmetric(1e-9), "{}", sc.name);
                    assert!(b1.a.diag().iter().all(|&d| d > 0.0), "{}", sc.name);
                    assert!(b1.unit_view().is_some(), "{}", sc.name);
                }
                ScenarioClass::SquareNonsym => {
                    assert!(b1.a.is_square(), "{}", sc.name);
                    assert!(
                        !b1.a.is_symmetric(1e-9),
                        "{}: a nonsymmetric scenario must not be symmetric",
                        sc.name
                    );
                    assert!(b1.a.diag().iter().all(|&d| d > 0.0), "{}", sc.name);
                    assert!(b1.unit_view().is_some(), "{}", sc.name);
                }
                ScenarioClass::LeastSquares => {
                    assert!(b1.a.n_rows() > b1.a.n_cols(), "{}", sc.name);
                    assert!(b1.unit_view().is_none(), "{}", sc.name);
                }
            }
            if let Some(xs) = &b1.x_star {
                // Planted solutions are exact: b = A x*.
                let r = b1.a.residual(&b1.b, xs);
                let rel = asyrgs_sparse::dense::norm2(&r)
                    / asyrgs_sparse::dense::norm2(&b1.b).max(f64::MIN_POSITIVE);
                assert!(rel < 1e-12, "{}: planted residual {rel}", sc.name);
            }
        }
    }

    #[test]
    fn expectation_tags_are_class_and_registry_consistent() {
        for sc in all_scenarios() {
            for fam in sc.diverges.iter().chain(sc.slow) {
                assert!(
                    FAMILY_NAMES.contains(fam),
                    "{}: unknown family {fam}",
                    sc.name
                );
            }
            for fam in FAMILY_NAMES {
                let e = sc.expectation(fam);
                let is_lsq = LSQ_FAMILY_NAMES.contains(&fam);
                let is_nonsym = NONSYM_FAMILY_NAMES.contains(&fam);
                match sc.class {
                    ScenarioClass::LeastSquares if !is_lsq => {
                        assert_eq!(e, Expectation::Rejects, "{}/{fam}", sc.name)
                    }
                    ScenarioClass::SquareSpd | ScenarioClass::SquareNonsym if is_lsq => {
                        assert_eq!(e, Expectation::Rejects, "{}/{fam}", sc.name)
                    }
                    ScenarioClass::SquareNonsym if !is_nonsym => {
                        assert_eq!(e, Expectation::Rejects, "{}/{fam}", sc.name)
                    }
                    _ => assert_ne!(e, Expectation::Rejects, "{}/{fam}", sc.name),
                }
            }
        }
        // The matrix must contain at least one expected-divergence cell —
        // the paper's point needs a counterexample class in the corpus.
        assert!(all_scenarios().iter().any(|s| FAMILY_NAMES
            .iter()
            .any(|f| s.expectation(f) == Expectation::MayDiverge)));
    }

    #[test]
    fn ladder_kappa_hints_are_honest() {
        // The mild rung is within the iterative estimator's resolution:
        // closed-form hint and estimate must agree.
        {
            let sc = find("kappa_1e2").unwrap();
            let built = sc.build();
            let hint = sc.kappa_hint.unwrap();
            let est = sc.estimate_kappa(&built).unwrap();
            assert!(
                (est - hint).abs() / hint < 0.05,
                "kappa_1e2: estimated {est:.3e} vs hint {hint:.3e}"
            );
        }
        // The 1e6 rung is beyond shifted-power resolution; validate the
        // hint against the exact extreme eigenvectors of T^2 instead
        // (v_k[i] = sin(k pi i / (n+1)) with eigenvalue mu_k^2).
        {
            let sc = find("kappa_1e6").unwrap();
            let built = sc.build();
            let n = built.n();
            let hint = sc.kappa_hint.unwrap();
            let rq = |k: usize| {
                let v: Vec<f64> = (1..=n)
                    .map(|i| (k as f64 * i as f64 * std::f64::consts::PI / (n as f64 + 1.0)).sin())
                    .collect();
                built.a.a_norm_sq(&v) / v.iter().map(|x| x * x).sum::<f64>()
            };
            let measured = rq(n) / rq(1);
            assert!(
                (measured - hint).abs() / hint < 1e-6,
                "kappa_1e6: Rayleigh {measured:.6e} vs hint {hint:.6e}"
            );
        }
        // And the rungs must actually be a ladder.
        let k2 = find("kappa_1e2").unwrap().kappa_hint.unwrap();
        let k4 = find("kappa_1e4").unwrap().kappa_hint.unwrap();
        let k6 = find("kappa_1e6").unwrap().kappa_hint.unwrap();
        assert!((50.0..500.0).contains(&k2), "{k2}");
        assert!((3e3..5e4).contains(&k4), "{k4}");
        assert!(k6 > 5e5, "{k6}");
    }

    #[test]
    fn ladder_kappa_estimates_stay_within_their_documented_factors() {
        // The accuracy contract `estimate_kappa` documents, rung by rung
        // — the same contract the solver policy's 1e3 ill-conditioning
        // threshold is calibrated against.
        let est_of = |name: &str| {
            let sc = find(name).unwrap();
            let built = sc.build();
            (sc.estimate_kappa(&built).unwrap(), sc.kappa_hint.unwrap())
        };
        // kappa ~ 1e2: within 5% of the closed-form hint.
        let (est, hint) = est_of("kappa_1e2");
        assert!(
            (est - hint).abs() / hint < 0.05,
            "kappa_1e2: est {est:.3e} vs hint {hint:.3e}"
        );
        // kappa ~ 1e4: within a factor of 4, from below or above.
        let (est, hint) = est_of("kappa_1e4");
        assert!(
            est >= hint / 4.0 && est <= hint * 4.0,
            "kappa_1e4: est {est:.3e} vs hint {hint:.3e} breaches the 4x factor"
        );
        // kappa ~ 1e6: an underestimate, but the order floor holds — the
        // estimate must clear the policy's 1e3 threshold decisively.
        let (est, hint) = est_of("kappa_1e6");
        assert!(
            est >= 1e3 && est <= hint,
            "kappa_1e6: est {est:.3e} vs hint {hint:.3e} left the documented band"
        );
    }

    #[test]
    fn nonsym_estimates_take_the_spectral_radius_path() {
        // A nonsymmetric scenario with a contracting Jacobi iteration
        // matrix gets the (1 + rho)/(1 - rho) surrogate even where no
        // closed-form hint is registered...
        let sc = find("skew_perturbed_laplace").unwrap();
        assert!(sc.kappa_hint.is_none());
        let est = sc.estimate_kappa(&sc.build()).unwrap();
        assert!(est.is_finite() && est > 1.0, "surrogate {est}");
        // ...and where the radius exceeds 1 the bound is vacuous: None,
        // never a fabricated number.
        let sc = find("skew_dominant").unwrap();
        assert!(sc.estimate_kappa(&sc.build()).is_none());
        // The registered hints for the dominant nonsym scenarios come from
        // the same path, so estimate and hint coincide exactly.
        let sc = find("pagerank_style").unwrap();
        assert_eq!(sc.estimate_kappa(&sc.build()), sc.kappa_hint);
    }

    #[test]
    fn nonsym_kappa_hints_come_from_the_spectral_radius_estimator() {
        // The convection-diffusion rungs and the PageRank scenario are
        // diagonally dominant, so the Jacobi iteration-matrix radius is
        // below 1 and the (1 + rho)/(1 - rho) bound is live.
        for name in [
            "conv_diff_pe_low",
            "conv_diff_pe_mid",
            "conv_diff_pe_high",
            "pagerank_style",
        ] {
            let sc = find(name).unwrap();
            let hint = sc
                .kappa_hint
                .unwrap_or_else(|| panic!("{name}: hint must be recorded"));
            assert!(hint.is_finite() && hint > 1.0, "{name}: hint {hint}");
        }
        // PageRank: rho(d P^T) = d = 0.85 exactly (Perron root of a
        // row-stochastic matrix), so the hint is ~(1.85 / 0.15).
        let pr = find("pagerank_style").unwrap().kappa_hint.unwrap();
        assert!(
            (pr - 1.85 / 0.15).abs() / (1.85 / 0.15) < 0.05,
            "pagerank hint {pr} should sit near (1 + d)/(1 - d)"
        );
        // Higher Peclet strengthens the diagonal: the hint must shrink.
        let lo = find("conv_diff_pe_low").unwrap().kappa_hint.unwrap();
        let hi = find("conv_diff_pe_high").unwrap().kappa_hint.unwrap();
        assert!(hi < lo, "hints: pe_high {hi} must be below pe_low {lo}");
    }

    #[test]
    fn conv_diff_upwind_is_weakly_dominant_and_one_sided() {
        let built = find("conv_diff_pe_high").unwrap().build();
        let a = &built.a;
        for i in 0..a.n_rows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    assert!(v < 0.0, "row {i}: off-diagonal {v} must be negative");
                    off += v.abs();
                }
            }
            assert!(diag >= off - 1e-12, "row {i}: {diag} vs {off}");
        }
        // Upwinding is genuinely one-sided: upstream couplings dominate
        // downstream ones.
        let c = 10.0;
        assert_eq!(a.get(17, 16), -(1.0 + c));
        assert_eq!(a.get(16, 17), -1.0);
    }

    #[test]
    fn beyond_chazan_miranker_violates_dominance_but_is_spd() {
        let built = find("beyond_chazan_miranker").unwrap().build();
        let a = &built.a;
        // Interior rows: |off-diagonal| sums to 1.2 > diag = 1.
        let mut violations = 0;
        for i in 0..a.n_rows() {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            if off > diag {
                violations += 1;
            }
        }
        assert!(
            violations > a.n_rows() / 2,
            "only {violations} rows violate dominance"
        );
        // SPD: positive Rayleigh quotients on a deterministic fan.
        for phase in 0..5 {
            let x: Vec<f64> = (0..a.n_rows())
                .map(|i| ((i * (2 * phase + 3)) % 11) as f64 - 5.0)
                .collect();
            assert!(a.a_norm_sq(&x) > 0.0, "phase {phase}");
        }
    }

    #[test]
    fn dense_backend_only_materializes_when_small() {
        let small = find("kappa_1e6").unwrap().build();
        let dense = small.dense().expect("n = 64 has a dense backend");
        assert_eq!(dense.n_rows(), 64);
        let big = find("laplace2d_32").unwrap().build();
        assert!(big.dense().is_none(), "n = 1024 must not densify");
        let lsq = find("tall_lsq").unwrap().build();
        assert!(lsq.dense().is_none(), "rectangular must not densify");
    }

    #[test]
    fn reference_unit_diag_is_delay_model_ready() {
        let built = find("reference_unit_diag").unwrap().build();
        assert!(asyrgs_sparse::has_unit_diagonal(&built.a, 1e-12));
    }
}
