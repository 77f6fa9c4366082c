//! Lanczos tridiagonalization for symmetric matrices.
//!
//! Produces the coefficients of the Jacobi (tridiagonal) matrix whose Ritz
//! values approximate the spectrum of `A`. With full reorthogonalization the
//! extreme Ritz values converge quickly and monotonically, which is what the
//! condition-number estimator needs.

use asyrgs_rng::Xoshiro256pp;
use asyrgs_sparse::dense::{dot, norm2};
use asyrgs_sparse::CsrMatrix;

/// Output of a Lanczos run: the tridiagonal coefficients and metadata.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Diagonal coefficients `alpha_1..alpha_m`.
    pub alpha: Vec<f64>,
    /// Off-diagonal coefficients `beta_1..beta_{m-1}`.
    pub beta: Vec<f64>,
    /// Whether the iteration stopped early because the Krylov space became
    /// invariant (`beta` underflow).
    pub breakdown: bool,
}

/// Run `m` steps of Lanczos on symmetric `a` with full reorthogonalization.
///
/// `m` is capped at `n`. Full reorthogonalization costs `O(m^2 n)` but keeps
/// the Ritz values honest — fine for the small `m` (tens) we use.
pub fn lanczos(a: &CsrMatrix, m: usize, seed: u64) -> LanczosResult {
    assert!(a.is_square(), "lanczos needs a square matrix");
    let n = a.n_rows();
    let m = m.min(n);
    let mut rng = Xoshiro256pp::new(seed);

    let mut alpha = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m.saturating_sub(1));
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);

    // Random unit start vector.
    let mut v: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
    let nv = norm2(&v);
    for x in &mut v {
        *x /= nv;
    }
    basis.push(v);

    let mut w = vec![0.0; n];
    for j in 0..m {
        let vj = basis[j].clone();
        a.matvec_into(&vj, &mut w);
        let aj = dot(&w, &vj);
        alpha.push(aj);
        // w <- w - alpha_j v_j - beta_{j-1} v_{j-1}
        for i in 0..n {
            w[i] -= aj * vj[i];
        }
        if j > 0 {
            let bj = beta[j - 1];
            let vprev = &basis[j - 1];
            for i in 0..n {
                w[i] -= bj * vprev[i];
            }
        }
        // Full reorthogonalization (two passes of modified Gram-Schmidt:
        // each coefficient is taken against the running `w`).
        for _ in 0..2 {
            for q in &basis {
                let c = dot(&w, q);
                for i in 0..n {
                    w[i] -= c * q[i];
                }
            }
        }
        if j + 1 == m {
            break;
        }
        let b = norm2(&w);
        if b < 1e-14 * alpha[0].abs().max(1.0) {
            return LanczosResult {
                alpha,
                beta,
                breakdown: true,
            };
        }
        beta.push(b);
        let next: Vec<f64> = w.iter().map(|x| x / b).collect();
        basis.push(next);
    }
    LanczosResult {
        alpha,
        beta,
        breakdown: false,
    }
}

/// Estimate the extreme eigenvalues `(lambda_min, lambda_max)` of symmetric
/// `a` via `m`-step Lanczos Ritz values.
///
/// Ritz values lie inside the spectrum, so `lambda_min` is over-estimated
/// and `lambda_max` under-estimated; accuracy improves rapidly with `m`.
pub fn extreme_eigenvalues_lanczos(a: &CsrMatrix, m: usize, seed: u64) -> (f64, f64) {
    let res = lanczos(a, m, seed);
    crate::tridiag::extreme_eigenvalues(&res.alpha, &res.beta, 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyrgs_workloads::{
        laplace2d, laplace2d_extreme_eigenvalues, tridiag_toeplitz, tridiag_toeplitz_eigenvalues,
    };

    #[test]
    fn lanczos_recovers_toeplitz_extremes() {
        let n = 60;
        let a = tridiag_toeplitz(n, 2.0, -1.0);
        let eigs = tridiag_toeplitz_eigenvalues(n, 2.0, -1.0);
        let (lmin, lmax) = extreme_eigenvalues_lanczos(&a, 40, 7);
        // Ritz values approach the extremes from inside; with m = 40 of
        // n = 60 the ends are accurate to ~1e-3 (eigenvalues cluster there).
        assert!(
            (lmax - eigs[n - 1]).abs() < 5e-3,
            "lmax {lmax} vs {}",
            eigs[n - 1]
        );
        assert!((lmin - eigs[0]).abs() < 5e-3, "lmin {lmin} vs {}", eigs[0]);
        assert!(lmax <= eigs[n - 1] + 1e-9, "Ritz value must not overshoot");
        assert!(lmin >= eigs[0] - 1e-9, "Ritz value must not undershoot");
    }

    #[test]
    fn lanczos_on_laplace2d() {
        let (nx, ny) = (8, 8);
        let a = laplace2d(nx, ny);
        let (want_min, want_max) = laplace2d_extreme_eigenvalues(nx, ny);
        let (lmin, lmax) = extreme_eigenvalues_lanczos(&a, 50, 11);
        assert!((lmax - want_max).abs() / want_max < 1e-6);
        assert!((lmin - want_min).abs() / want_min < 1e-3);
    }

    #[test]
    fn ritz_values_interlace_spectrum() {
        // All Ritz values must lie within [lambda_min, lambda_max].
        let n = 40;
        let a = tridiag_toeplitz(n, 2.0, -1.0);
        let eigs = tridiag_toeplitz_eigenvalues(n, 2.0, -1.0);
        let res = lanczos(&a, 15, 3);
        let ritz = crate::tridiag::all_eigenvalues(&res.alpha, &res.beta, 1e-12);
        for r in ritz {
            assert!(r >= eigs[0] - 1e-9);
            assert!(r <= eigs[n - 1] + 1e-9);
        }
    }

    #[test]
    fn breakdown_on_identity() {
        // For A = I the Krylov space is 1-dimensional: immediate breakdown.
        let a = asyrgs_sparse::CsrMatrix::identity(10);
        let res = lanczos(&a, 5, 1);
        assert!(res.breakdown);
        assert_eq!(res.alpha.len(), 1);
        assert!((res.alpha[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn m_capped_at_n() {
        let a = tridiag_toeplitz(5, 2.0, -1.0);
        let res = lanczos(&a, 50, 2);
        assert!(res.alpha.len() <= 5);
    }

    #[test]
    fn full_lanczos_recovers_whole_spectrum() {
        let n = 12;
        let a = tridiag_toeplitz(n, 2.0, -1.0);
        let res = lanczos(&a, n, 5);
        let ritz = crate::tridiag::all_eigenvalues(&res.alpha, &res.beta, 1e-12);
        let want = tridiag_toeplitz_eigenvalues(n, 2.0, -1.0);
        assert_eq!(ritz.len(), want.len());
        for (r, w) in ritz.iter().zip(&want) {
            assert!((r - w).abs() < 1e-7, "ritz {r} vs exact {w}");
        }
    }
}
