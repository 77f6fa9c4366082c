//! # asyrgs-sparse
//!
//! Sparse linear-algebra substrate for the AsyRGS workspace — the
//! reproduction of *"Revisiting Asynchronous Linear Solvers: Provable
//! Convergence Rate Through Randomization"* (Avron, Druinsky, Gupta,
//! IPDPS 2014).
//!
//! Provides:
//! * [`LinearOperator`] / [`RowAccess`] — the operator traits every solver
//!   in the workspace is generic over ([`op`]);
//! * [`CsrMatrix`] — compressed sparse row matrices with serial and parallel
//!   SpMV, multi-RHS SpMM, norms, and the paper's `rho` / `rho_2` quantities;
//! * [`CscMatrix`] — column-access view for the least-squares solvers;
//! * [`CooBuilder`] — triplet assembly with duplicate summation;
//! * [`UnitDiagonal`] / [`UnitDiagonalView`] — the unit-diagonal rescaling
//!   the paper's analysis assumes (Section 3, "Non-Unit Diagonal"),
//!   materialized or as a zero-copy operator view;
//! * dense vector kernels and row-major multi-RHS blocks ([`dense`]);
//! * Matrix Market I/O ([`io`]).

#![warn(missing_docs)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod op;
pub mod scale;

pub use coo::CooBuilder;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::RowMajorMat;
pub use error::{Result, SparseError};
pub use op::{LinearOperator, RowAccess};
pub use scale::{has_unit_diagonal, UnitDiagonal, UnitDiagonalView};

#[cfg(test)]
mod property_tests {
    //! Deterministic property tests: each property is exercised over a
    //! fixed fan of seeds (the container has no third-party property-test
    //! framework, so randomness comes from a local SplitMix64 and the runs
    //! are exactly reproducible).

    use super::*;

    /// Minimal SplitMix64 for test-case generation.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn index(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn f64(&mut self) -> f64 {
            // Uniform in [-10, 10).
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        }
    }

    /// A random small sparse square matrix from a seed.
    fn random_csr(seed: u64) -> (usize, CsrMatrix) {
        let mut g = Mix(seed);
        let n = 2 + g.index(10);
        let nnz = g.index(64);
        let mut b = CooBuilder::new(n, n);
        for _ in 0..nnz {
            let (i, j, v) = (g.index(n), g.index(n), g.f64());
            b.push(i, j, v).unwrap();
        }
        (n, b.to_csr())
    }

    #[test]
    fn csr_roundtrips_through_dense() {
        for seed in 0..64 {
            let (n, m) = random_csr(seed);
            let d = m.to_dense();
            let m2 = CsrMatrix::from_dense(n, n, &d);
            // Entries must agree even if explicit-zero storage differs.
            for i in 0..n {
                for j in 0..n {
                    assert!((m.get(i, j) - m2.get(i, j)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        for seed in 0..64 {
            let (_, m) = random_csr(seed);
            assert_eq!(m.transpose().transpose(), m);
        }
    }

    #[test]
    fn matvec_linear() {
        for seed in 0..64 {
            let (n, m) = random_csr(seed);
            let alpha = (seed as f64 * 0.37).sin() * 5.0;
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let ax = m.matvec(&x);
            let xs: Vec<f64> = x.iter().map(|v| alpha * v).collect();
            let axs = m.matvec(&xs);
            for (a, b) in axs.iter().zip(&ax) {
                assert!((a - alpha * b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_preserves_matvec_adjoint() {
        for seed in 0..64 {
            let (n, m) = random_csr(seed);
            let t = m.transpose();
            let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
            // <Ax, y> == <x, A^T y>
            let lhs = dense::dot(&m.matvec(&x), &y);
            let rhs = dense::dot(&x, &t.matvec(&y));
            assert!((lhs - rhs).abs() < 1e-8 * (lhs.abs().max(1.0)));
        }
    }

    #[test]
    fn matrix_market_roundtrip() {
        for seed in 0..64 {
            let (_, m) = random_csr(seed);
            let mut buf = Vec::new();
            io::write_matrix_market(&mut buf, &m, io::MmSymmetry::General).unwrap();
            let m2 = io::read_matrix_market(&buf[..]).unwrap();
            assert_eq!(m, m2);
        }
    }

    #[test]
    fn trait_matvec_agrees_with_inherent_on_random_matrices() {
        for seed in 0..32 {
            let (n, m) = random_csr(seed);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
            let via_trait = LinearOperator::matvec(&m, &x);
            assert_eq!(via_trait, m.matvec(&x));
            for i in 0..n {
                assert_eq!(RowAccess::row_dot(&m, i, &x), m.row_dot(i, &x));
            }
        }
    }
}
