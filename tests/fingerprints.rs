//! Bitwise fingerprints of every deterministic (single-worker) fixed-seed
//! solver path, asserted against the table below. Refactors of the
//! parallel runtime and the hot kernels must leave all 15 bit-identical.
//!
//! Deliberately exercises the **deprecated** free-function wrappers: their
//! outputs must stay bitwise identical to the pre-session-API seed, which
//! also pins the wrappers themselves to the fallible implementations.
//!
//! Every matrix here has at most 150 unknowns, far below
//! `PREFETCH_MIN_BYTES`, so these pin the plain (no prefetch) side of the
//! update walks; `tests/determinism.rs` pins the prefetch side.
//!
//! Platform dependence: thirteen hashes use only IEEE-754 basic operations
//! (`+ - * /` and `sqrt`, all correctly rounded) and hold on every target.
//! The two least-squares hashes (`rcd`, `async_rcd_t1`) also depend on the
//! platform's libm: `random_lsq` draws Box-Muller normals through `f64::ln`
//! and `f64::cos`, which are not required to be correctly rounded. The
//! table was recorded against glibc on x86_64 Linux; a libm that rounds
//! one of those calls differently changes those two hashes and nothing
//! else.
#![allow(deprecated)]

use asyrgs::core::asyrgs::{asyrgs_solve, asyrgs_solve_block};
use asyrgs::core::jacobi::{async_jacobi_solve, jacobi_solve};
use asyrgs::core::lsq::{async_rcd_solve, rcd_solve};
use asyrgs::core::partitioned::partitioned_solve;
use asyrgs::core::rgs::{rgs_solve, rgs_solve_block};
use asyrgs::krylov::cg::cg_solve;
use asyrgs::krylov::fcg::fcg_solve;
use asyrgs::prelude::*;
use asyrgs::workloads::{diag_dominant, laplace2d, random_lsq, LsqParams};

/// The committed fingerprints, in the order [`fingerprints`] computes them.
const EXPECTED: [(&str, u64); 15] = [
    ("rgs", 0xed19_f5f2_44d1_5c88),
    ("rgs_weighted", 0x10ec_0048_2c7d_9dcb),
    ("asyrgs_t1", 0xed19_f5f2_44d1_5c88),
    ("asyrgs_t1_epoch2", 0xed19_f5f2_44d1_5c88),
    ("asyrgs_t1_locked", 0xed19_f5f2_44d1_5c88),
    ("asyrgs_t1_target", 0x92ea_054a_2558_558f),
    ("asyrgs_block_t1", 0x3b32_3c6c_3c51_decc),
    ("rgs_block", 0x7112_c772_8483_e83e),
    ("jacobi", 0x5b82_4d14_fbaf_f45c),
    ("async_jacobi_t1", 0x6dc6_ebe2_9652_05c7),
    ("partitioned_t1", 0xd702_0db1_ec75_1b2a),
    ("rcd", 0x93c0_e7d5_f76f_acc8),
    ("async_rcd_t1", 0x2f9e_6914_cbd3_4dc4),
    ("cg", 0x3cf1_f5e2_421b_7e6a),
    ("fcg", 0x70bc_84e0_017c_04d8),
];

fn hash(xs: &[f64]) -> u64 {
    // FNV-style xor/multiply over the raw bit patterns: any single-ulp
    // change shows up.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Run the 15 pinned solves, in order, and hash each final iterate.
fn fingerprints() -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    let a = laplace2d(12, 12);
    let n = a.n_rows();
    let x_star: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 / 17.0).collect();
    let b = a.matvec(&x_star);
    let dd = diag_dominant(150, 5, 2.0, 7);
    let bd = dd.matvec(&vec![1.0; 150]);

    {
        let mut x = vec![0.0; n];
        rgs_solve(
            &a,
            &b,
            &mut x,
            Some(&x_star),
            &RgsOptions {
                term: Termination::sweeps(9),
                ..Default::default()
            },
        );
        out.push(("rgs", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        rgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &RgsOptions {
                sampling: asyrgs::core::rgs::RowSampling::DiagonalWeighted,
                term: Termination::sweeps(9),
                ..Default::default()
            },
        );
        out.push(("rgs_weighted", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        asyrgs_solve(
            &a,
            &b,
            &mut x,
            Some(&x_star),
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(9),
                ..Default::default()
            },
        );
        out.push(("asyrgs_t1", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 1,
                epoch_sweeps: Some(2),
                term: Termination::sweeps(9),
                ..Default::default()
            },
        );
        out.push(("asyrgs_t1_epoch2", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        asyrgs_solve(
            &a,
            &b,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 1,
                read_mode: asyrgs::core::asyrgs::ReadMode::LockedConsistent,
                term: Termination::sweeps(9),
                ..Default::default()
            },
        );
        out.push(("asyrgs_t1_locked", hash(&x)));
    }
    {
        let mut x = vec![0.0; 150];
        asyrgs_solve(
            &dd,
            &bd,
            &mut x,
            None,
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(500).with_target(1e-6),
                ..Default::default()
            },
        );
        out.push(("asyrgs_t1_target", hash(&x)));
    }
    {
        let k = 2;
        let mut b_blk = RowMajorMat::zeros(n, k);
        b_blk.set_col(0, &b);
        b_blk.set_col(1, &vec![1.0; n]);
        let mut x_blk = RowMajorMat::zeros(n, k);
        asyrgs_solve_block(
            &a,
            &b_blk,
            &mut x_blk,
            &AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(7),
                ..Default::default()
            },
        );
        out.push(("asyrgs_block_t1", hash(x_blk.as_slice())));
    }
    {
        let k = 3;
        let mut b_blk = RowMajorMat::zeros(n, k);
        for t in 0..k {
            let col: Vec<f64> = (0..n).map(|i| ((i + t) % 5) as f64).collect();
            b_blk.set_col(t, &col);
        }
        let mut x_blk = RowMajorMat::zeros(n, k);
        rgs_solve_block(
            &a,
            &b_blk,
            &mut x_blk,
            &RgsOptions {
                term: Termination::sweeps(7),
                ..Default::default()
            },
        );
        out.push(("rgs_block", hash(x_blk.as_slice())));
    }
    {
        let mut x = vec![0.0; n];
        jacobi_solve(
            &a,
            &b,
            &mut x,
            &JacobiOptions {
                term: Termination::sweeps(30),
                ..Default::default()
            },
        );
        out.push(("jacobi", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        async_jacobi_solve(
            &a,
            &b,
            &mut x,
            &JacobiOptions {
                threads: 1,
                term: Termination::sweeps(30),
                ..Default::default()
            },
        );
        out.push(("async_jacobi_t1", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        partitioned_solve(
            &a,
            &b,
            &mut x,
            &PartitionedOptions {
                threads: 1,
                term: Termination::sweeps(40),
                ..Default::default()
            },
        );
        out.push(("partitioned_t1", hash(&x)));
    }
    {
        let p = random_lsq(&LsqParams {
            rows: 240,
            cols: 60,
            nnz_per_col: 6,
            noise: 0.0,
            seed: 5,
        });
        let op = LsqOperator::new(p.a);
        let opts = LsqSolveOptions {
            threads: 1,
            term: Termination::sweeps(10),
            record: Recording::end_only(),
            ..Default::default()
        };
        let mut x_seq = vec![0.0; op.n_cols()];
        rcd_solve(&op, &p.b, &mut x_seq, &opts);
        out.push(("rcd", hash(&x_seq)));
        let mut x_async = vec![0.0; op.n_cols()];
        async_rcd_solve(&op, &p.b, &mut x_async, &opts);
        out.push(("async_rcd_t1", hash(&x_async)));
    }
    {
        let mut x = vec![0.0; n];
        cg_solve(
            &a,
            &b,
            &mut x,
            &CgOptions {
                term: Termination::sweeps(25),
                ..Default::default()
            },
        );
        out.push(("cg", hash(&x)));
    }
    {
        let mut x = vec![0.0; n];
        fcg_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &FcgOptions {
                term: Termination::sweeps(25),
                ..Default::default()
            },
        );
        out.push(("fcg", hash(&x)));
    }
    out
}

#[test]
fn fifteen_fingerprints_are_bitwise_unchanged() {
    let got = fingerprints();
    if got != EXPECTED {
        let mut table = String::from("path                 expected          got\n");
        for (&(name, want), &(_, have)) in EXPECTED.iter().zip(&got) {
            let mark = if have == want { "" } else { "  <- differs" };
            table.push_str(&format!("{name:<20} {want:016x}  {have:016x}{mark}\n"));
        }
        panic!(
            "solver fingerprints moved; rcd and async_rcd_t1 also depend on \
             the platform's libm (see the module docs):\n{table}"
        );
    }
}
