//! The paper's convergence theory, as executable formulas.
//!
//! Everything in Sections 3, 5, 6, 7 and 8 that can be computed is here:
//!
//! * the synchronous Randomized Gauss-Seidel rate, Eq. (2);
//! * Theorem 2 (consistent read, unit step), via Theorem 3 with `beta = 1`;
//! * Theorem 3 (consistent read, step size `beta`), including the optimal
//!   step size `beta~ = 1/(1 + 2 rho tau)`;
//! * Theorem 4 (inconsistent read), including its optimal step size;
//! * Theorem 5 (least squares), which is Theorem 4 applied to `A^T A`;
//! * the iteration-count / synchronization-count consequences discussed
//!   after Theorem 2.
//!
//! All bounds are on `E_m = E[ ||x_m - x*||_A^2 ]` relative to `E_0`, i.e.
//! the functions return the multiplicative factor `E_m / E_0` that the
//! theorem guarantees. The paper (and our experiments) emphasize that these
//! bounds are *pessimistic*; the `theory_validation` bench binary measures the gaps.

/// Spectral and structural quantities of the (unit-diagonal) matrix that
/// every bound needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemParams {
    /// Dimension `n`.
    pub n: usize,
    /// Smallest eigenvalue of `A`.
    pub lambda_min: f64,
    /// Largest eigenvalue of `A`.
    pub lambda_max: f64,
    /// `rho = ||A||_inf / n` (Theorem 2).
    pub rho: f64,
    /// `rho_2 = max_l (1/n) sum_r A_lr^2` (Theorem 4).
    pub rho2: f64,
}

impl ProblemParams {
    /// Condition number `kappa = lambda_max / lambda_min`.
    pub fn kappa(&self) -> f64 {
        self.lambda_max / self.lambda_min
    }

    /// `delta_max = 1 - lambda_max / n` (the per-iteration *lower* bound
    /// factor from Lemma 1: `E_{j+1} >= delta_max E_j`).
    pub fn delta_max(&self) -> f64 {
        1.0 - self.lambda_max / self.n as f64
    }

    /// Extract the parameters from a matrix plus externally estimated
    /// extreme eigenvalues.
    pub fn from_matrix(a: &asyrgs_sparse::CsrMatrix, lambda_min: f64, lambda_max: f64) -> Self {
        ProblemParams {
            n: a.n_rows(),
            lambda_min,
            lambda_max,
            rho: a.rho(),
            rho2: a.rho2(),
        }
    }
}

// ---------------------------------------------------------------------------
// Synchronous Randomized Gauss-Seidel, Eq. (2)
// ---------------------------------------------------------------------------

/// Eq. (2): the synchronous per-iteration contraction factor
/// `1 - beta (2 - beta) lambda_min / n`.
pub fn sync_rate(params: &ProblemParams, beta: f64) -> f64 {
    1.0 - beta * (2.0 - beta) * params.lambda_min / params.n as f64
}

/// Eq. (2) applied `m` times: the bound on `E_m / E_0` for synchronous RGS.
pub fn sync_bound(params: &ProblemParams, beta: f64, m: u64) -> f64 {
    sync_rate(params, beta).powf(m as f64)
}

/// Iteration count for synchronous RGS to guarantee
/// `Pr(||x_m - x*||_A >= eps ||x_0 - x*||_A) <= delta` (Markov, Section 3):
/// `m >= n / (beta (2-beta) lambda_min) * ln(1 / (delta eps^2))`.
pub fn sync_iterations_for(params: &ProblemParams, beta: f64, eps: f64, delta: f64) -> u64 {
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    let m = params.n as f64 / (beta * (2.0 - beta) * params.lambda_min)
        * (1.0 / (delta * eps * eps)).ln();
    m.ceil().max(0.0) as u64
}

// ---------------------------------------------------------------------------
// Theorems 2 and 3: consistent read
// ---------------------------------------------------------------------------

/// `nu_tau(beta) = 2 beta - beta^2 - 2 rho tau beta^2` (Theorem 3;
/// Theorem 2 is `beta = 1`, giving `1 - 2 rho tau`).
pub fn nu_tau(params: &ProblemParams, tau: usize, beta: f64) -> f64 {
    2.0 * beta - beta * beta - 2.0 * params.rho * tau as f64 * beta * beta
}

/// Validity condition of Theorem 3: `2 beta - beta^2 - 2 rho tau beta^2 > 0`.
pub fn consistent_valid(params: &ProblemParams, tau: usize, beta: f64) -> bool {
    beta > 0.0 && beta <= 1.0 && nu_tau(params, tau, beta) > 0.0
}

/// The step size maximizing `nu_tau(beta)`:
/// `beta~ = 1 / (1 + 2 rho tau)`, with `nu_tau(beta~) = 1 / (1 + 2 rho tau)`
/// (Section 6 discussion).
pub fn optimal_beta_consistent(params: &ProblemParams, tau: usize) -> f64 {
    1.0 / (1.0 + 2.0 * params.rho * tau as f64)
}

/// `T_0 = ceil( log(1/2) / log(1 - lambda_max/n) ) ~ 0.693 n / lambda_max`
/// — the minimum iteration count in assertions (a) of Theorems 2-4.
pub fn t0(params: &ProblemParams) -> u64 {
    let d = params.delta_max();
    assert!(d > 0.0 && d < 1.0, "requires 0 < lambda_max < n");
    ((0.5f64).ln() / d.ln()).ceil() as u64
}

/// Theorem 3 assertion (a): for `m >= T_0`, `E_m / E_0 <= 1 - nu_tau(beta)
/// / (2 kappa)`.
pub fn theorem3_a(params: &ProblemParams, tau: usize, beta: f64) -> f64 {
    1.0 - nu_tau(params, tau, beta) / (2.0 * params.kappa())
}

/// Theorem 2 assertion (a) (unit step size).
pub fn theorem2_a(params: &ProblemParams, tau: usize) -> f64 {
    theorem3_a(params, tau, 1.0)
}

/// `chi(beta) = rho tau^2 beta^2 lambda_max (1-lambda_max/n)^{-2 tau} / n`
/// (Theorem 3 assertion (b)).
pub fn chi(params: &ProblemParams, tau: usize, beta: f64) -> f64 {
    let d = params.delta_max();
    params.rho * (tau as f64).powi(2) * beta * beta * params.lambda_max * d.powi(-2 * tau as i32)
        / params.n as f64
}

/// Theorem 3 assertion (b): the bound on `E_m / E_0` for `m >= r T` with
/// `T = T_0 + tau`:
/// `(1 - nu/2k) (1 - nu (1-lmax/n)^tau / 2k + chi)^{r-1}`.
pub fn theorem3_b(params: &ProblemParams, tau: usize, beta: f64, r: u32) -> f64 {
    assert!(r >= 1, "assertion (b) needs r >= 1");
    let nu = nu_tau(params, tau, beta);
    let k = params.kappa();
    let d = params.delta_max();
    let first = 1.0 - nu / (2.0 * k);
    let per_block = 1.0 - nu * d.powi(tau as i32) / (2.0 * k) + chi(params, tau, beta);
    first * per_block.powi(r as i32 - 1)
}

/// The epoch length `T = T_0 + tau` of assertion (b).
pub fn epoch_t(params: &ProblemParams, tau: usize) -> u64 {
    t0(params) + tau as u64
}

/// Number of outer (synchronize-and-restart) rounds to reduce the expected
/// error by `factor` using assertion (a): each round of `>= max(T_0, n)`
/// iterations contracts by `1 - nu/2k`, so
/// `rounds = ceil( ln(factor) / ln(1 - nu/2k) )`.
/// This is the `O(kappa / nu_tau)` synchronization-point count discussed
/// after Theorem 2.
pub fn rounds_for_reduction(params: &ProblemParams, tau: usize, beta: f64, factor: f64) -> u64 {
    assert!((0.0..1.0).contains(&factor), "factor must be in (0,1)");
    let per_round = theorem3_a(params, tau, beta);
    assert!(per_round < 1.0, "bound does not contract");
    (factor.ln() / per_round.ln()).ceil() as u64
}

// ---------------------------------------------------------------------------
// Theorem 4: inconsistent read
// ---------------------------------------------------------------------------

/// `omega_tau(beta) = 2 beta (1 - beta - rho_2 tau^2 beta / 2)` (Theorem 4).
pub fn omega_tau(params: &ProblemParams, tau: usize, beta: f64) -> f64 {
    2.0 * beta * (1.0 - beta - params.rho2 * (tau as f64).powi(2) * beta / 2.0)
}

/// Validity condition of Theorem 4: `beta (1 - beta - rho_2 tau^2 beta / 2)
/// > 0` with `0 <= beta < 1`.
pub fn inconsistent_valid(params: &ProblemParams, tau: usize, beta: f64) -> bool {
    beta > 0.0 && beta < 1.0 && omega_tau(params, tau, beta) > 0.0
}

/// The step size maximizing `omega_tau`:
/// `d/dbeta [2beta - 2beta^2 - rho_2 tau^2 beta^2] = 0` gives
/// `beta* = 1 / (2 + rho_2 tau^2)`.
pub fn optimal_beta_inconsistent(params: &ProblemParams, tau: usize) -> f64 {
    1.0 / (2.0 + params.rho2 * (tau as f64).powi(2))
}

/// Theorem 4 assertion (a): `E_m / E_0 <= 1 - omega_tau(beta) / (2 kappa)`
/// for `m >= T_0`.
pub fn theorem4_a(params: &ProblemParams, tau: usize, beta: f64) -> f64 {
    1.0 - omega_tau(params, tau, beta) / (2.0 * params.kappa())
}

/// `psi(beta) = rho_2 tau^3 beta^2 lambda_max (1-lambda_max/n)^{-2 tau} / n`
/// (Theorem 4 assertion (b)).
pub fn psi(params: &ProblemParams, tau: usize, beta: f64) -> f64 {
    let d = params.delta_max();
    params.rho2 * (tau as f64).powi(3) * beta * beta * params.lambda_max * d.powi(-2 * tau as i32)
        / params.n as f64
}

/// Theorem 4 assertion (b).
pub fn theorem4_b(params: &ProblemParams, tau: usize, beta: f64, r: u32) -> f64 {
    assert!(r >= 1, "assertion (b) needs r >= 1");
    let om = omega_tau(params, tau, beta);
    let k = params.kappa();
    let d = params.delta_max();
    let first = 1.0 - om / (2.0 * k);
    let per_block = 1.0 - om * d.powi(tau as i32) / (2.0 * k) + psi(params, tau, beta);
    first * per_block.powi(r as i32 - 1)
}

// ---------------------------------------------------------------------------
// Theorem 5: least squares (Theorem 4 on A^T A)
// ---------------------------------------------------------------------------

/// Parameters of the least-squares bound: derived from the singular values
/// of `A` (unit-norm columns) and `X = A^T A`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsqParams {
    /// Number of columns `n` of `A`.
    pub n: usize,
    /// Largest singular value of `A`.
    pub sigma_max: f64,
    /// Smallest singular value of `A`.
    pub sigma_min: f64,
    /// `rho_2` of `X = A^T A`.
    pub rho2: f64,
}

impl LsqParams {
    /// Condition number of `A` (ratio of extreme singular values).
    pub fn kappa(&self) -> f64 {
        self.sigma_max / self.sigma_min
    }

    /// View as [`ProblemParams`] of `X = A^T A`: eigenvalues are squared
    /// singular values. (`rho` of `X` is not needed by Theorem 5; it is set
    /// to `rho2` as a placeholder and must not be used.)
    fn as_x_params(&self) -> ProblemParams {
        ProblemParams {
            n: self.n,
            lambda_min: self.sigma_min * self.sigma_min,
            lambda_max: self.sigma_max * self.sigma_max,
            rho: self.rho2,
            rho2: self.rho2,
        }
    }
}

/// Theorem 5 assertion (a): bound on
/// `E[ ||x_m - x*||_X^2 ] / ||x_0 - x*||_X^2` for
/// `m >= 0.693 n / sigma_max^2` — equals `1 - omega_tau(beta) / (2 kappa^2)`.
pub fn theorem5_a(params: &LsqParams, tau: usize, beta: f64) -> f64 {
    // Note kappa(X) = kappa(A)^2, so theorem4_a on X gives the paper's 2k^2.
    theorem4_a(&params.as_x_params(), tau, beta)
}

/// Theorem 5 assertion (b).
pub fn theorem5_b(params: &LsqParams, tau: usize, beta: f64, r: u32) -> f64 {
    theorem4_b(&params.as_x_params(), tau, beta, r)
}

/// Validity condition of Theorem 5 (same shape as Theorem 4).
pub fn lsq_valid(params: &LsqParams, tau: usize, beta: f64) -> bool {
    inconsistent_valid(&params.as_x_params(), tau, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A representative reference-scenario parameter set: sparse, unit
    /// diagonal, lambda_max = O(1).
    fn params() -> ProblemParams {
        ProblemParams {
            n: 10_000,
            lambda_min: 0.01,
            lambda_max: 2.0,
            rho: 5.0 / 10_000.0, // rho * n = 5
            rho2: 1.5 / 10_000.0,
        }
    }

    #[test]
    fn kappa_and_delta() {
        let p = params();
        assert_eq!(p.kappa(), 200.0);
        assert!((p.delta_max() - (1.0 - 2.0 / 10_000.0)).abs() < 1e-15);
    }

    #[test]
    fn sync_rate_maximized_at_unit_step() {
        let p = params();
        // beta(2-beta) is maximized at beta=1, so the rate is minimized.
        let r1 = sync_rate(&p, 1.0);
        for &b in &[0.25, 0.5, 0.75, 1.25, 1.5, 1.9] {
            assert!(sync_rate(&p, b) >= r1);
        }
        assert!(r1 < 1.0 && r1 > 0.0);
    }

    #[test]
    fn sync_bound_decays() {
        let p = params();
        let b1 = sync_bound(&p, 1.0, 1000);
        let b2 = sync_bound(&p, 1.0, 2000);
        assert!(b2 < b1);
        assert!((b2 - b1 * b1).abs() < 1e-12, "geometric decay");
    }

    #[test]
    fn sync_iterations_positive_and_monotone_in_eps() {
        let p = params();
        let m1 = sync_iterations_for(&p, 1.0, 1e-2, 0.1);
        let m2 = sync_iterations_for(&p, 1.0, 1e-4, 0.1);
        assert!(m2 > m1);
        assert!(m1 > 0);
    }

    #[test]
    fn nu_tau_matches_theorem2_at_unit_beta() {
        let p = params();
        let tau = 64;
        // Theorem 2: nu_tau = 1 - 2 rho tau.
        let want = 1.0 - 2.0 * p.rho * tau as f64;
        assert!((nu_tau(&p, tau, 1.0) - want).abs() < 1e-12);
    }

    #[test]
    fn optimal_beta_consistent_maximizes_nu() {
        let p = params();
        let tau = 100;
        let bstar = optimal_beta_consistent(&p, tau);
        let vstar = nu_tau(&p, tau, bstar);
        // The closed form says nu(beta~) = 1/(1+2 rho tau).
        assert!((vstar - 1.0 / (1.0 + 2.0 * p.rho * tau as f64)).abs() < 1e-12);
        for &b in &[bstar * 0.8, bstar * 0.95, bstar * 1.05, bstar * 1.2] {
            assert!(nu_tau(&p, tau, b) <= vstar + 1e-12);
        }
    }

    #[test]
    fn optimal_beta_inconsistent_maximizes_omega() {
        let p = params();
        let tau = 50;
        let bstar = optimal_beta_inconsistent(&p, tau);
        let vstar = omega_tau(&p, tau, bstar);
        for &b in &[bstar * 0.8, bstar * 0.95, bstar * 1.05, bstar * 1.2] {
            assert!(omega_tau(&p, tau, b) <= vstar + 1e-12);
        }
    }

    #[test]
    fn theorem2_requires_2_rho_tau_below_one() {
        let p = params();
        // 2 rho tau < 1 iff tau < 1000 here.
        assert!(consistent_valid(&p, 999, 1.0));
        assert!(!consistent_valid(&p, 1001, 1.0));
        // Shrinking beta restores validity for any tau (Section 6).
        assert!(consistent_valid(&p, 10_000, 0.005));
    }

    #[test]
    fn theorem_bounds_are_contractive_when_valid() {
        let p = params();
        let tau = 100;
        let a2 = theorem2_a(&p, tau);
        assert!(a2 > 0.0 && a2 < 1.0);
        let a4 = theorem4_a(&p, tau, optimal_beta_inconsistent(&p, tau));
        assert!(a4 > 0.0 && a4 < 1.0);
    }

    #[test]
    fn theorem_b_decays_with_r() {
        let p = params();
        let tau = 20;
        let b1 = theorem3_b(&p, tau, 1.0, 1);
        let b3 = theorem3_b(&p, tau, 1.0, 3);
        assert!(b3 < b1, "bound must shrink over blocks");
        let c1 = theorem4_b(&p, tau, 0.2, 1);
        let c3 = theorem4_b(&p, tau, 0.2, 3);
        assert!(c3 < c1);
    }

    #[test]
    fn asynchrony_costs_something() {
        // More delay => weaker (larger) bound.
        let p = params();
        assert!(theorem2_a(&p, 10) < theorem2_a(&p, 100));
        assert!(theorem4_a(&p, 10, 0.3) < theorem4_a(&p, 100, 0.3));
    }

    #[test]
    fn consistent_beats_inconsistent_at_same_tau() {
        // The paper notes the consistent-read bound has better tau
        // dependence; at the respective optimal step sizes it should be
        // tighter for moderate tau in the reference scenario.
        let p = params();
        let tau = 200;
        let bc = theorem3_a(&p, tau, optimal_beta_consistent(&p, tau));
        let bi = theorem4_a(&p, tau, optimal_beta_inconsistent(&p, tau));
        assert!(bc < bi, "consistent {bc} vs inconsistent {bi}");
    }

    #[test]
    fn t0_matches_approximation() {
        let p = params();
        let t = t0(&p);
        let approx = 0.693 * p.n as f64 / p.lambda_max;
        assert!((t as f64 - approx).abs() / approx < 0.01);
    }

    #[test]
    fn sync_limit_of_theorem3_matches_sync_analysis() {
        // With tau = 0 the asynchronous factor nu equals beta(2-beta), so
        // assertion (a) reads 1 - beta(2-beta)/(2 kappa) — the same quantity
        // the paper compares against ("approximately nu n / (2 lambda_max)
        // iterations for a 1 - nu/2k reduction").
        let p = params();
        let nu0 = nu_tau(&p, 0, 1.0);
        assert!((nu0 - 1.0).abs() < 1e-15);
        assert!((theorem3_a(&p, 0, 1.0) - (1.0 - 1.0 / (2.0 * p.kappa()))).abs() < 1e-15);
    }

    #[test]
    fn rounds_for_reduction_scales_with_kappa() {
        let p = params();
        let r1 = rounds_for_reduction(&p, 10, 1.0, 1e-6);
        let better = ProblemParams {
            lambda_min: 0.1,
            ..p
        };
        let r2 = rounds_for_reduction(&better, 10, 1.0, 1e-6);
        assert!(r2 < r1, "better conditioning needs fewer rounds");
    }

    #[test]
    fn theorem5_reduces_to_theorem4_on_gram() {
        let lp = LsqParams {
            n: 500,
            sigma_max: 1.4,
            sigma_min: 0.2,
            rho2: 3.0 / 500.0,
        };
        let tau = 16;
        let beta = 0.3;
        // kappa(A)^2 appears where Theorem 4 has kappa.
        let direct = theorem5_a(&lp, tau, beta);
        let via_x = theorem4_a(
            &ProblemParams {
                n: 500,
                lambda_min: 0.04,
                lambda_max: 1.96,
                rho: lp.rho2,
                rho2: lp.rho2,
            },
            tau,
            beta,
        );
        assert!((direct - via_x).abs() < 1e-12);
        assert!(lsq_valid(&lp, tau, beta));
        assert!(theorem5_b(&lp, tau, beta, 2) < theorem5_a(&lp, tau, beta) + 1.0);
    }

    #[test]
    fn chi_and_psi_positive_and_grow_with_tau() {
        let p = params();
        assert!(chi(&p, 10, 1.0) > 0.0);
        assert!(chi(&p, 20, 1.0) > chi(&p, 10, 1.0));
        assert!(psi(&p, 20, 0.5) > psi(&p, 10, 0.5));
    }
}
