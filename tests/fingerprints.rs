//! Bitwise fingerprints of every deterministic (single-worker) fixed-seed
//! solver path, asserted against the tables below. Refactors of the
//! parallel runtime and the hot kernels must leave all 23 bit-identical:
//! 15 solver paths, 6 Krylov solves under a non-identity preconditioner,
//! and 2 Gauss-Seidel walks on a diagonal that is not a power of two.
//!
//! Most solver paths run on `laplace2d(12, 12)`, whose diagonal is 4, so
//! every `* dinv` there is an exact scaling and a reassociated update
//! such as `b * dinv - dot * dinv` for `(b - dot) * dinv` gives the same
//! bits. `asyrgs_t1_target` and the two `*_dd` rows run on
//! `diag_dominant(150, 5, 2.0, 7)` instead, where it does not: together
//! they pin the one-thread walk, the diagonal-weighted draw and the block
//! walk against such a change.
//!
//! Each hash is computed twice: through the family's `try_*` one-shot
//! (with a standalone `SpecPrecond` for the preconditioned paths), and
//! through a `SolverBuilder` session configured with the same knobs (the
//! route the serve scheduler and the benchmark run). Both must equal the
//! committed table. The RGS rows run AsyRGS at one thread (`try_rgs_solve`
//! forwards to it; `rgs_block` calls `try_asyrgs_solve_block` at one
//! thread, one sweep per epoch), so every `rgs*` and `asyrgs_*t1*` hash
//! pins the one-thread walk; the shared walk of the pool workers has its
//! own bitwise unit test in `asyrgs-core`.
//!
//! Each path's reports are pinned as well (`EXPECTED_REPORTS`): one hash
//! over every `SweepRecord` and the report's counters, per route, so a
//! change to which sweeps a solver observes, records or counts fails here
//! even when the final iterate keeps its bits.
//!
//! Every matrix here has at most 150 unknowns, far below
//! `PREFETCH_MIN_BYTES`, so these pin the plain (no prefetch) side of the
//! update walks; `tests/determinism.rs` pins the prefetch side.
//!
//! Platform dependence: nineteen hashes use only IEEE-754 basic operations
//! (`+ - * /` and `sqrt`, all correctly rounded) and hold on every target.
//! The two least-squares hashes (`rcd`, `async_rcd_t1`) also depend on the
//! platform's libm: `random_lsq` draws Box-Muller normals through `f64::ln`
//! and `f64::cos`, which are not required to be correctly rounded. The
//! table was recorded against glibc on x86_64 Linux; a libm that rounds
//! one of those calls differently changes those two paths' iterate and
//! report hashes and nothing else.

use asyrgs::core::asyrgs::ReadMode;
use asyrgs::core::rgs::RowSampling;
use asyrgs::krylov::{try_bicgstab_solve, try_gmres_solve, BicgstabOptions, GmresOptions};
use asyrgs::prelude::*;
use asyrgs::session::symmetrized;
use asyrgs::workloads::scenarios::find;
use asyrgs::workloads::{diag_dominant, laplace2d, random_lsq, LsqParams};
use std::sync::Mutex;

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

/// The committed preconditioned fingerprints, in the order
/// [`preconditioned_fingerprints`] computes them.
const EXPECTED_PRECONDITIONED: [(&str, u64); 6] = [
    ("fcg_jacobi", 0x3b66_9ed4_7dff_cb58),
    ("fcg_rgs3", 0x534b_abd7_8ead_32ae),
    ("fcg_asyrgs2_t1", 0x92c3_792c_a298_4eaa),
    ("gmres_rgs2", 0xdc52_c7ff_0d88_90ad),
    ("bicgstab_jacobi", 0xc3f5_e904_a97c_77a7),
    ("bicgstab_rgs2", 0x5f8c_c575_08cc_543e),
];

/// FNV-style xor/multiply over the bytes of `words`: any single-bit
/// change shows up.
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// The hash of an iterate: its raw bit patterns.
fn hash(xs: &[f64]) -> u64 {
    hash_words(xs.iter().map(|x| x.to_bits()))
}

/// The hash of a route's reports: every record's sweep, iteration count
/// and residual and error bits, then the report's iteration count, final
/// residual bits, thread count, early-convergence flag and delay.
fn report_hash(reports: &[SolveReport]) -> u64 {
    let f = |v: Option<f64>| [v.is_some() as u64, v.map_or(0, f64::to_bits)];
    let mut words = Vec::new();
    for r in reports {
        for rec in &r.records {
            words.extend([rec.sweep as u64, rec.iterations, rec.rel_residual.to_bits()]);
            words.extend(f(rec.rel_error_anorm));
        }
        words.extend([
            r.records.len() as u64,
            r.iterations,
            r.final_rel_residual.to_bits(),
            r.threads as u64,
            r.converged_early as u64,
        ]);
        words.extend([
            r.max_observed_delay.is_some() as u64,
            r.max_observed_delay.unwrap_or(0),
        ]);
    }
    hash_words(words)
}

/// One pinned path: the final iterate's hash and the reports' hash, each
/// through the one-shot route, then through the session.
struct Row {
    name: &'static str,
    x: (u64, u64),
    report: (u64, u64),
}

/// The [`Row`] of path `name` from each route's iterate and reports.
fn row(
    name: &'static str,
    (x, one_shot): (&[f64], &[SolveReport]),
    (y, session): (&[f64], &[SolveReport]),
) -> Row {
    Row {
        name,
        x: (hash(x), hash(y)),
        report: (report_hash(one_shot), report_hash(session)),
    }
}

/// The committed fingerprints on `diag_dominant(150, 5, 2.0, 7)`, in the
/// order [`off_power_of_two_fingerprints`] computes them.
const EXPECTED_OFF_POWER_OF_TWO: [(&str, u64); 2] = [
    ("rgs_weighted_dd", 0x42e7_3b0e_488d_dd1b),
    ("asyrgs_block_t1_dd", 0x07b4_4fb4_1bc8_fb99),
];

/// The committed report hashes ([`report_hash`]) of all 23 paths, in the
/// order of [`fingerprints`], [`off_power_of_two_fingerprints`] and
/// [`preconditioned_fingerprints`]: the one-shot route, then the session.
/// The routes agree except on the three block paths, where the session's
/// `solve_many` returns one report per right-hand side, each with that
/// system's own final residual.
const EXPECTED_REPORTS: [(&str, u64, u64); 23] = [
    ("rgs", 0x8a9a_29bb_b1f2_3c80, 0x8a9a_29bb_b1f2_3c80),
    ("rgs_weighted", 0xfa6e_5216_f291_6d4c, 0xfa6e_5216_f291_6d4c),
    ("asyrgs_t1", 0xd561_6688_2efb_1a40, 0xd561_6688_2efb_1a40),
    (
        "asyrgs_t1_epoch2",
        0xabb1_2e1a_4805_1e9c,
        0xabb1_2e1a_4805_1e9c,
    ),
    (
        "asyrgs_t1_locked",
        0x27e8_c544_afe2_9d05,
        0x27e8_c544_afe2_9d05,
    ),
    (
        "asyrgs_t1_target",
        0x5bd4_6795_3a00_641d,
        0x5bd4_6795_3a00_641d,
    ),
    (
        "asyrgs_block_t1",
        0xcad0_cac8_2c60_934e,
        0xa223_6081_7656_cb73,
    ),
    ("rgs_block", 0xb692_a0be_a016_da34, 0x50ca_e340_fb3f_3b33),
    ("jacobi", 0xad6c_33b7_846f_c338, 0xad6c_33b7_846f_c338),
    (
        "async_jacobi_t1",
        0x39b1_8874_36d8_d545,
        0x39b1_8874_36d8_d545,
    ),
    (
        "partitioned_t1",
        0x6313_1e05_4028_fb29,
        0x6313_1e05_4028_fb29,
    ),
    ("rcd", 0xec38_3564_7688_5fa8, 0xec38_3564_7688_5fa8),
    ("async_rcd_t1", 0xf4d9_cf5b_5619_a5c3, 0xf4d9_cf5b_5619_a5c3),
    ("cg", 0xc278_e5fc_189a_ab9d, 0xc278_e5fc_189a_ab9d),
    ("fcg", 0x7a16_b116_8253_4d15, 0x7a16_b116_8253_4d15),
    (
        "rgs_weighted_dd",
        0xbc7c_c13b_bcea_34a6,
        0xbc7c_c13b_bcea_34a6,
    ),
    (
        "asyrgs_block_t1_dd",
        0xb307_402d_d6b3_52c2,
        0x5924_7d8a_c395_a7f1,
    ),
    ("fcg_jacobi", 0xfafd_500c_2d93_1451, 0xfafd_500c_2d93_1451),
    ("fcg_rgs3", 0x66d4_42c1_bf20_e17d, 0x66d4_42c1_bf20_e17d),
    (
        "fcg_asyrgs2_t1",
        0x2675_f075_88b8_de34,
        0x2675_f075_88b8_de34,
    ),
    ("gmres_rgs2", 0x42f8_7cb1_022e_fd65, 0x42f8_7cb1_022e_fd65),
    (
        "bicgstab_jacobi",
        0x5320_7bee_51a2_9285,
        0x5320_7bee_51a2_9285,
    ),
    (
        "bicgstab_rgs2",
        0xe1b4_6379_3a1f_801d,
        0xe1b4_6379_3a1f_801d,
    ),
];

/// A session configured with exactly the knobs of `o`.
fn rgs_session(o: &RgsOptions) -> SolveSession {
    SolverBuilder::new(SolverFamily::Rgs)
        .beta(o.beta)
        .seed(o.seed)
        .sampling(o.sampling)
        .term(o.term.clone())
        .record(o.record)
        .build()
        .unwrap()
}

/// A session configured with exactly the knobs of `o`.
fn asyrgs_session(o: &AsyRgsOptions) -> SolveSession {
    let mut builder = SolverBuilder::new(SolverFamily::AsyRgs)
        .beta(o.beta)
        .threads(o.threads)
        .seed(o.seed)
        .sampling(o.sampling)
        .write_mode(o.write_mode)
        .read_mode(o.read_mode)
        .term(o.term.clone())
        .record(o.record);
    if let Some(k) = o.epoch_sweeps {
        builder = builder.epoch_sweeps(k);
    }
    builder.build().unwrap()
}

/// A session configured with exactly the knobs of `o`.
fn jacobi_session(family: SolverFamily, o: &JacobiOptions) -> SolveSession {
    SolverBuilder::new(family)
        .threads(o.threads)
        .damping(o.damping)
        .term(o.term.clone())
        .record(o.record)
        .build()
        .unwrap()
}

/// Solve the columns of `b_blk` through `session.solve_many` and repack
/// the iterates row-major, the layout the block one-shots write; return
/// them with the per-system reports.
fn solve_many_packed(
    session: &mut SolveSession,
    a: &CsrMatrix,
    b_blk: &RowMajorMat,
) -> (RowMajorMat, Vec<SolveReport>) {
    let (n, k) = (b_blk.n_rows(), b_blk.n_cols());
    let bs: Vec<Vec<f64>> = (0..k).map(|t| b_blk.col(t)).collect();
    let b_refs: Vec<&[f64]> = bs.iter().map(|b| &b[..]).collect();
    let mut xs = vec![vec![0.0; n]; k];
    let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(|x| &mut x[..]).collect();
    let reports = session.solve_many(a, &b_refs, &mut x_refs).unwrap();
    let mut x_blk = RowMajorMat::zeros(n, k);
    for (t, x) in xs.iter().enumerate() {
        x_blk.set_col(t, x);
    }
    (x_blk, reports)
}

/// Run the 15 pinned solves, in order, and hash each final iterate and
/// report through the `try_*` one-shot and the session.
fn fingerprints() -> Vec<Row> {
    let mut out = Vec::new();
    let a = laplace2d(12, 12);
    let n = a.n_rows();
    let x_star: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 / 17.0).collect();
    let b = a.matvec(&x_star);
    let dd = diag_dominant(150, 5, 2.0, 7);
    let bd = dd.matvec(&vec![1.0; 150]);

    let rgs_cases = [
        (
            "rgs",
            RgsOptions {
                term: Termination::sweeps(9),
                ..Default::default()
            },
            Some(&x_star[..]),
        ),
        (
            "rgs_weighted",
            RgsOptions {
                sampling: RowSampling::DiagonalWeighted,
                term: Termination::sweeps(9),
                ..Default::default()
            },
            None,
        ),
    ];
    for (name, opts, reference) in rgs_cases {
        let mut x = vec![0.0; n];
        let one_shot = try_rgs_solve(&a, &b, &mut x, reference, &opts).unwrap();
        let mut y = vec![0.0; n];
        let mut session = rgs_session(&opts);
        let via_session = match reference {
            Some(xs) => session.solve_with_reference(&a, &b, &mut y, xs),
            None => session.solve(&a, &b, &mut y),
        }
        .unwrap();
        out.push(row(name, (&x, &[one_shot]), (&y, &[via_session])));
    }

    let asyrgs_cases = [
        (
            "asyrgs_t1",
            AsyRgsOptions {
                threads: 1,
                term: Termination::sweeps(9),
                ..Default::default()
            },
            Some(&x_star[..]),
        ),
        (
            "asyrgs_t1_epoch2",
            AsyRgsOptions {
                threads: 1,
                epoch_sweeps: Some(2),
                term: Termination::sweeps(9),
                ..Default::default()
            },
            None,
        ),
        (
            "asyrgs_t1_locked",
            AsyRgsOptions {
                threads: 1,
                read_mode: ReadMode::LockedConsistent,
                term: Termination::sweeps(9),
                ..Default::default()
            },
            None,
        ),
    ];
    for (name, opts, reference) in asyrgs_cases {
        let mut x = vec![0.0; n];
        let one_shot = try_asyrgs_solve(&a, &b, &mut x, reference, &opts).unwrap();
        let mut y = vec![0.0; n];
        let mut session = asyrgs_session(&opts);
        let via_session = match reference {
            Some(xs) => session.solve_with_reference(&a, &b, &mut y, xs),
            None => session.solve(&a, &b, &mut y),
        }
        .unwrap();
        out.push(row(name, (&x, &[one_shot]), (&y, &[via_session])));
    }
    {
        let opts = AsyRgsOptions {
            threads: 1,
            term: Termination::sweeps(500).with_target(1e-6),
            ..Default::default()
        };
        let mut x = vec![0.0; 150];
        let one_shot = try_asyrgs_solve(&dd, &bd, &mut x, None, &opts).unwrap();
        let mut y = vec![0.0; 150];
        let via_session = asyrgs_session(&opts).solve(&dd, &bd, &mut y).unwrap();
        out.push(row(
            "asyrgs_t1_target",
            (&x, &[one_shot]),
            (&y, &[via_session]),
        ));
    }
    {
        let k = 2;
        let mut b_blk = RowMajorMat::zeros(n, k);
        b_blk.set_col(0, &b);
        b_blk.set_col(1, &vec![1.0; n]);
        let opts = AsyRgsOptions {
            threads: 1,
            term: Termination::sweeps(7),
            ..Default::default()
        };
        let mut x_blk = RowMajorMat::zeros(n, k);
        let one_shot = try_asyrgs_solve_block(&a, &b_blk, &mut x_blk, &opts).unwrap();
        let (y_blk, via_session) = solve_many_packed(&mut asyrgs_session(&opts), &a, &b_blk);
        out.push(row(
            "asyrgs_block_t1",
            (x_blk.as_slice(), &[one_shot]),
            (y_blk.as_slice(), &via_session),
        ));
    }
    {
        let k = 3;
        let mut b_blk = RowMajorMat::zeros(n, k);
        for t in 0..k {
            let col: Vec<f64> = (0..n).map(|i| ((i + t) % 5) as f64).collect();
            b_blk.set_col(t, &col);
        }
        let opts = RgsOptions {
            term: Termination::sweeps(7),
            ..Default::default()
        };
        let mut x_blk = RowMajorMat::zeros(n, k);
        let one_thread = AsyRgsOptions {
            threads: 1,
            epoch_sweeps: Some(1),
            term: opts.term.clone(),
            ..Default::default()
        };
        let one_shot = try_asyrgs_solve_block(&a, &b_blk, &mut x_blk, &one_thread).unwrap();
        let (y_blk, via_session) = solve_many_packed(&mut rgs_session(&opts), &a, &b_blk);
        out.push(row(
            "rgs_block",
            (x_blk.as_slice(), &[one_shot]),
            (y_blk.as_slice(), &via_session),
        ));
    }
    {
        let opts = JacobiOptions {
            term: Termination::sweeps(30),
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let one_shot = try_jacobi_solve(&a, &b, &mut x, None, &opts).unwrap();
        let mut y = vec![0.0; n];
        let via_session = jacobi_session(SolverFamily::Jacobi, &opts)
            .solve(&a, &b, &mut y)
            .unwrap();
        out.push(row("jacobi", (&x, &[one_shot]), (&y, &[via_session])));
    }
    {
        let opts = JacobiOptions {
            threads: 1,
            term: Termination::sweeps(30),
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let one_shot = try_async_jacobi_solve(&a, &b, &mut x, None, &opts).unwrap();
        let mut y = vec![0.0; n];
        let via_session = jacobi_session(SolverFamily::AsyncJacobi, &opts)
            .solve(&a, &b, &mut y)
            .unwrap();
        out.push(row(
            "async_jacobi_t1",
            (&x, &[one_shot]),
            (&y, &[via_session]),
        ));
    }
    {
        let opts = PartitionedOptions {
            threads: 1,
            term: Termination::sweeps(40),
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let one_shot = try_partitioned_solve(&a, &b, &mut x, &opts).unwrap();
        let mut y = vec![0.0; n];
        let via_session = SolverBuilder::new(SolverFamily::Partitioned)
            .beta(opts.beta)
            .threads(opts.threads)
            .seed(opts.seed)
            .term(opts.term.clone())
            .record(opts.record)
            .build()
            .unwrap()
            .solve(&a, &b, &mut y)
            .unwrap();
        out.push(row(
            "partitioned_t1",
            (&x, &[one_shot]),
            (&y, &[via_session]),
        ));
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
        let lsq_session = |family| {
            SolverBuilder::new(family)
                .beta(opts.beta)
                .seed(opts.seed)
                .threads(opts.threads)
                .term(opts.term.clone())
                .record(opts.record)
                .build()
                .unwrap()
        };
        let mut x = vec![0.0; op.n_cols()];
        let one_shot = try_rcd_solve(&op, &p.b, &mut x, &opts).unwrap();
        let mut y = vec![0.0; op.n_cols()];
        let via_session = lsq_session(SolverFamily::Rcd)
            .solve_lsq(&op, &p.b, &mut y)
            .unwrap();
        out.push(row("rcd", (&x, &[one_shot]), (&y, &[via_session])));
        let mut x = vec![0.0; op.n_cols()];
        let one_shot = try_async_rcd_solve(&op, &p.b, &mut x, &opts).unwrap();
        let mut y = vec![0.0; op.n_cols()];
        let via_session = lsq_session(SolverFamily::AsyncRcd)
            .solve_lsq(&op, &p.b, &mut y)
            .unwrap();
        out.push(row("async_rcd_t1", (&x, &[one_shot]), (&y, &[via_session])));
    }
    {
        let opts = CgOptions {
            term: Termination::sweeps(25),
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let one_shot = try_cg_solve(&a, &b, &mut x, &opts).unwrap();
        let mut y = vec![0.0; n];
        let via_session = SolverBuilder::new(SolverFamily::Cg)
            .term(opts.term.clone())
            .record(opts.record)
            .build()
            .unwrap()
            .solve(&a, &b, &mut y)
            .unwrap();
        out.push(row("cg", (&x, &[one_shot]), (&y, &[via_session])));
    }
    {
        let opts = FcgOptions {
            term: Termination::sweeps(25),
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let one_shot = try_fcg_solve(&a, &b, &mut x, &IdentityPrecond, &opts).unwrap();
        let mut y = vec![0.0; n];
        let mut builder = SolverBuilder::new(SolverFamily::Fcg)
            .preconditioner(PrecondSpec::Identity)
            .truncate(opts.truncate)
            .term(opts.term.clone())
            .record(opts.record);
        if let Some(every) = opts.restart_every {
            builder = builder.restart_every(every);
        }
        let via_session = builder.build().unwrap().solve(&a, &b, &mut y).unwrap();
        out.push(row("fcg", (&x, &[one_shot]), (&y, &[via_session])));
    }
    out
}

/// Run the `rgs_weighted` and `asyrgs_block_t1` solves again on
/// `diag_dominant(150, 5, 2.0, 7)` and hash each final iterate and report
/// through the `try_*` one-shot and the session.
fn off_power_of_two_fingerprints() -> Vec<Row> {
    let a = diag_dominant(150, 5, 2.0, 7);
    let n = a.n_rows();
    let b = a.matvec(&vec![1.0; n]);
    let mut out = Vec::new();
    {
        let opts = RgsOptions {
            sampling: RowSampling::DiagonalWeighted,
            term: Termination::sweeps(9),
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let one_shot = try_rgs_solve(&a, &b, &mut x, None, &opts).unwrap();
        let mut y = vec![0.0; n];
        let via_session = rgs_session(&opts).solve(&a, &b, &mut y).unwrap();
        out.push(row(
            "rgs_weighted_dd",
            (&x, &[one_shot]),
            (&y, &[via_session]),
        ));
    }
    {
        let k = 2;
        let mut b_blk = RowMajorMat::zeros(n, k);
        b_blk.set_col(0, &b);
        b_blk.set_col(1, &vec![1.0; n]);
        let opts = AsyRgsOptions {
            threads: 1,
            term: Termination::sweeps(7),
            ..Default::default()
        };
        let mut x_blk = RowMajorMat::zeros(n, k);
        let one_shot = try_asyrgs_solve_block(&a, &b_blk, &mut x_blk, &opts).unwrap();
        let (y_blk, via_session) = solve_many_packed(&mut asyrgs_session(&opts), &a, &b_blk);
        out.push(row(
            "asyrgs_block_t1_dd",
            (x_blk.as_slice(), &[one_shot]),
            (y_blk.as_slice(), &via_session),
        ));
    }
    out
}

/// Run the 6 pinned preconditioned Krylov solves (one thread, seed
/// `0x5EED`, at most 200 iterations to 1e-8) and hash each final iterate:
/// the name, the standalone-`SpecPrecond` hash, then the session hash.
/// FCG runs on `laplace2d(12, 12)` with `b_i = (i mod 7) - 3`; GMRES and
/// BiCGSTAB run on the `conv_diff_pe_low` scenario, with the sweeps over
/// its symmetric part. `bicgstab_rgs2` is the fixed-operator path
/// (`Preconditioner::apply_fixed`). Each report is hashed the same way.
fn preconditioned_fingerprints() -> Vec<Row> {
    let term = Termination::sweeps(200).with_target(1e-8);
    let record = Recording::every(1);
    let seed = 0x5EED;
    let a = laplace2d(12, 12);
    let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
    let cd = find("conv_diff_pe_low").expect("registered").build();
    let cd_sym = symmetrized(&cd.a);
    let pool = asyrgs::parallel::pool_for(1);
    let scratch = Mutex::new(SolveWorkspace::new());
    let fcg = FcgOptions {
        term: term.clone(),
        record,
        ..Default::default()
    };
    let gmres = GmresOptions {
        term: term.clone(),
        record,
        ..Default::default()
    };
    let bicgstab = BicgstabOptions {
        term: term.clone(),
        record,
        ..Default::default()
    };
    let cases = [
        ("fcg_jacobi", SolverFamily::Fcg, PrecondSpec::Jacobi),
        (
            "fcg_rgs3",
            SolverFamily::Fcg,
            PrecondSpec::Rgs { inner_sweeps: 3 },
        ),
        (
            "fcg_asyrgs2_t1",
            SolverFamily::Fcg,
            PrecondSpec::AsyRgs { inner_sweeps: 2 },
        ),
        (
            "gmres_rgs2",
            SolverFamily::Gmres,
            PrecondSpec::Rgs { inner_sweeps: 2 },
        ),
        (
            "bicgstab_jacobi",
            SolverFamily::Bicgstab,
            PrecondSpec::Jacobi,
        ),
        (
            "bicgstab_rgs2",
            SolverFamily::Bicgstab,
            PrecondSpec::Rgs { inner_sweeps: 2 },
        ),
    ];
    let mut out = Vec::new();
    for (name, family, spec) in cases {
        let (m, rhs, inner) = match (family, spec) {
            (SolverFamily::Fcg, _) => (&a, &b, &a),
            (_, PrecondSpec::Jacobi) => (&cd.a, &cd.b, &cd.a),
            _ => (&cd.a, &cd.b, &cd_sym),
        };
        let pre = SpecPrecond::new(inner, spec, 1, 1.0, seed, &pool, &scratch).unwrap();
        let mut x = vec![0.0; m.n_rows()];
        let one_shot = match family {
            SolverFamily::Fcg => try_fcg_solve(m, rhs, &mut x, &pre, &fcg),
            SolverFamily::Gmres => try_gmres_solve(m, rhs, &mut x, &pre, &gmres),
            _ => try_bicgstab_solve(m, rhs, &mut x, &pre, &bicgstab),
        }
        .unwrap();
        let mut y = vec![0.0; m.n_rows()];
        let via_session = SolverBuilder::new(family)
            .preconditioner(spec)
            .threads(1)
            .seed(seed)
            .term(term.clone())
            .record(record)
            .build()
            .unwrap()
            .solve(m, rhs, &mut y)
            .unwrap();
        out.push(row(name, (&x, &[one_shot]), (&y, &[via_session])));
    }
    out
}

/// Assert every computed `(name, one_shot, session)` row against
/// `expected`, which pins each route's value; on a mismatch print the
/// whole table, the expected then the computed value of each route.
fn assert_unchanged(
    what: &str,
    got: &[(&str, u64, u64)],
    expected: &[(&str, u64, u64)],
    one_shot_route: &str,
) {
    let names: Vec<&str> = got.iter().map(|r| r.0).collect();
    let want: Vec<&str> = expected.iter().map(|r| r.0).collect();
    assert_eq!(names, want, "{what} order changed");
    if got != expected {
        let mut table = format!("path                 {one_shot_route:<34} session\n");
        for (&(name, one_shot, session), &(_, want_one_shot, want_session)) in
            got.iter().zip(expected)
        {
            let mark = if (one_shot, session) == (want_one_shot, want_session) {
                ""
            } else {
                "  <- differs"
            };
            table.push_str(&format!(
                "{name:<20} {want_one_shot:016x} {one_shot:016x}  \
                 {want_session:016x} {session:016x}{mark}\n"
            ));
        }
        panic!(
            "{what} moved; rcd and async_rcd_t1 also depend on the \
             platform's libm (see the module docs):\n{table}"
        );
    }
}

/// Assert both routes' iterate hashes against one committed table.
fn assert_iterates(rows: &[Row], expected: &[(&str, u64)], one_shot_route: &str) {
    let got: Vec<_> = rows.iter().map(|r| (r.name, r.x.0, r.x.1)).collect();
    let expected: Vec<_> = expected.iter().map(|&(name, h)| (name, h, h)).collect();
    assert_unchanged("solver fingerprints", &got, &expected, one_shot_route);
}

#[test]
fn fifteen_fingerprints_are_bitwise_unchanged() {
    assert_iterates(&fingerprints(), &EXPECTED, "try_*");
}

#[test]
fn off_power_of_two_diagonal_fingerprints_are_bitwise_unchanged() {
    assert_iterates(
        &off_power_of_two_fingerprints(),
        &EXPECTED_OFF_POWER_OF_TWO,
        "try_*",
    );
}

#[test]
fn preconditioned_fingerprints_are_bitwise_unchanged() {
    assert_iterates(
        &preconditioned_fingerprints(),
        &EXPECTED_PRECONDITIONED,
        "SpecPrecond",
    );
}

#[test]
fn twenty_three_reports_are_bitwise_unchanged() {
    let rows = [
        fingerprints(),
        off_power_of_two_fingerprints(),
        preconditioned_fingerprints(),
    ];
    let got: Vec<_> = rows
        .iter()
        .flatten()
        .map(|r| (r.name, r.report.0, r.report.1))
        .collect();
    assert_unchanged("solver reports", &got, &EXPECTED_REPORTS, "one-shot");
}
