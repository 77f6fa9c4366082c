//! Per-layer probes of traced runs: each layer's public entry points,
//! timed from outside on the workload's own matrix and right-hand side.
//! Every probe repeats its call and keeps the median.

use crate::measure::{median_secs, Metrics};
use asyrgs::core::asyrgs::{try_asyrgs_solve, AsyRgsOptions};
use asyrgs::core::driver::{ensure_finite_system, inverse_diag_into, Recording, Termination};
use asyrgs::core::rgs::{try_rgs_solve, RgsOptions};
use asyrgs::core::SharedVec;
use asyrgs::krylov::{try_cg_solve, CgOptions};
use asyrgs::policy::decide_for;
use asyrgs::rng::{DirectionStream, DrawBuffer};
use asyrgs::session::{operator_is_symmetric, SolverBuilder, SolverFamily, SYMMETRY_TOL};
use asyrgs::sparse::dense::norm2;
use asyrgs::sparse::{CsrMatrix, LinearOperator};
use asyrgs_serve::MatrixFingerprint;
use std::hint::black_box;

/// Rows a `row_dot` probe walks, and draws an RNG probe makes.
const ROW_SAMPLES: usize = 1 << 16;
const DRAWS: usize = 1 << 20;
/// Empty pool rounds per `parallel.round_us` sample.
const ROUNDS: usize = 2000;

/// Stage costs a workload needs again to account for its solve time.
pub struct Stages {
    pub observe_ms: f64,
    pub validate_ms: f64,
    pub symmetry_ms: f64,
    pub build_us: f64,
    pub round_us: f64,
    pub update_ns_t1: f64,
    pub update_ns_tn: f64,
}

/// Repetitions that keep a probe near `budget` nonzeros of work.
fn reps(nnz: usize, budget: usize) -> usize {
    (budget / nnz.max(1)).clamp(3, 1001)
}

/// Time every kernel, stage and entry-point probe on `(a, b)` and push
/// its metric. `seed` picks the rows and draws.
pub fn probe(a: &CsrMatrix, b: &[f64], seed: u64, nproc: usize, m: &mut Metrics) -> Stages {
    let (n, nnz) = (a.n_rows(), a.nnz());
    let light = reps(nnz, 40_000_000);
    let heavy = reps(nnz, 4_000_000);
    // Any finite iterate will do; half the right-hand side is one.
    let x: Vec<f64> = b.iter().map(|v| 0.5 * v).collect();
    let mut r = vec![0.0; n];

    // sparse
    let t = median_secs(light, || a.residual_into(b, black_box(&x), &mut r));
    m.push("sparse.residual_ms", t * 1e3, "ms");
    let t = median_secs(light, || a.par_matvec_into(black_box(&x), &mut r));
    m.push("sparse.par_matvec_ms", t * 1e3, "ms");
    let stream = DirectionStream::new(seed, n);
    let mut rows = vec![0usize; ROW_SAMPLES];
    stream.fill_directions(0, &mut rows);
    let t = median_secs(5, || {
        let acc: f64 = rows.iter().map(|&i| a.row_dot_with(i, |j| x[j])).sum();
        black_box(acc);
    });
    m.push("sparse.row_dot_ns", t * 1e9 / ROW_SAMPLES as f64, "ns");
    // Computed traffic of one matvec, cache misses ignored: values and
    // column indices once, row pointers once, x read and y written once.
    let word = std::mem::size_of::<usize>();
    let bytes = nnz * (8 + word) + (n + 1) * word + 2 * n * 8;
    m.push("sparse.matvec_mb", bytes as f64 / 1e6, "MB");
    m.push(
        "sparse.flops_per_byte",
        2.0 * nnz as f64 / bytes as f64,
        "flop/B",
    );
    let t = median_secs(heavy, || {
        black_box(a.is_symmetric(SYMMETRY_TOL));
    });
    m.push("sparse.is_symmetric_ms", t * 1e3, "ms");

    // rng
    let mut buf = DrawBuffer::new();
    let t = median_secs(5, || {
        let (mut start, mut acc) = (0u64, 0usize);
        while start < DRAWS as u64 {
            let got = buf.fill_with(DrawBuffer::DEFAULT_CAPACITY, |out| {
                stream.fill_directions(start, out)
            });
            acc ^= got[got.len() - 1];
            start += got.len() as u64;
        }
        black_box(acc);
    });
    m.push("rng.draw_ns", t * 1e9 / DRAWS as f64, "ns");

    // parallel: the epoch barrier, an empty round on the global pool
    let pool = asyrgs::parallel::global();
    let width = nproc.min(pool.concurrency());
    let t = median_secs(5, || {
        for _ in 0..ROUNDS {
            pool.run(width, |w| {
                black_box(w);
            });
        }
    });
    let round_us = t * 1e6 / ROUNDS as f64;
    m.push("parallel.round_us", round_us, "us");

    // core: per-update cost of the three update loops, sweep budget only
    let sweeps = (20_000_000 / nnz.max(1)).clamp(3, 400);
    let term = Termination::sweeps(sweeps);
    let per_update = |secs: f64| secs * 1e9 / (sweeps * n) as f64;
    let asy = |threads: usize| {
        let opts = AsyRgsOptions {
            threads,
            term: term.clone(),
            record: Recording::end_only(),
            ..AsyRgsOptions::default()
        };
        per_update(median_secs(3, || {
            let mut x = vec![0.0; n];
            black_box(try_asyrgs_solve(a, b, &mut x, None, &opts).expect("fixed-sweep solve"));
        }))
    };
    let update_ns_t1 = asy(1);
    m.push("core.update_ns_t1", update_ns_t1, "ns");
    let update_ns_tn = asy(nproc);
    m.push("core.update_ns_tN", update_ns_tn, "ns");
    let opts = RgsOptions {
        term: term.clone(),
        record: Recording::end_only(),
        ..RgsOptions::default()
    };
    let t = median_secs(3, || {
        let mut x = vec![0.0; n];
        black_box(try_rgs_solve(a, b, &mut x, None, &opts).expect("fixed-sweep solve"));
    });
    m.push("core.seq_update_ns", per_update(t), "ns");
    // The serial observation at every epoch: snapshot, residual, norm.
    let shared = SharedVec::from_slice(&x);
    let mut snap = vec![0.0; n];
    let observe_ms = 1e3
        * median_secs(light, || {
            shared.snapshot_into(&mut snap);
            a.residual_into(b, &snap, &mut r);
            black_box(norm2(&r));
        });
    m.push("core.observe_ms", observe_ms, "ms");
    // Input validation at every solve boundary.
    let (mut diag, mut dinv) = (Vec::new(), Vec::new());
    let validate_ms = 1e3
        * median_secs(light, || {
            ensure_finite_system("benchmark", a, b, &x).expect("finite inputs");
            a.diag_into(&mut diag);
            inverse_diag_into(&diag, &mut dinv).expect("positive diagonal");
        });
    m.push("core.validate_ms", validate_ms, "ms");

    // session
    let symmetry_ms = 1e3
        * median_secs(heavy, || {
            black_box(operator_is_symmetric(a, SYMMETRY_TOL));
        });
    m.push("session.symmetry_ms", symmetry_ms, "ms");
    let build_us = 1e6
        * median_secs(201, || {
            black_box(
                SolverBuilder::new(SolverFamily::AsyRgs)
                    .threads(nproc)
                    .build()
                    .expect("valid configuration"),
            );
        });
    m.push("session.build_us", build_us, "us");

    // policy + spectral, krylov, registry
    let once = if nnz > 1_000_000 { 1 } else { 3 };
    let t = median_secs(once, || {
        black_box(decide_for(a).expect("profilable matrix"));
    });
    m.push("policy.decide_ms", t * 1e3, "ms");
    let t = median_secs(once, || {
        let mut x = vec![0.0; n];
        black_box(try_cg_solve(a, b, &mut x, &CgOptions::default()).expect("cg solve"));
    });
    m.push("krylov.cg_ms", t * 1e3, "ms");
    let t = median_secs(light, || {
        black_box(MatrixFingerprint::of(a));
    });
    m.push("registry.fingerprint_us", t * 1e6, "us");

    Stages {
        observe_ms,
        validate_ms,
        symmetry_ms,
        build_us,
        round_us,
        update_ns_t1,
        update_ns_tn,
    }
}

/// `session.solo_us` and `session.block_rhs_us`: one configuration solving
/// `batch` copies of `b` one at a time, then as one `solve_many` block,
/// each reported per right-hand side.
pub fn batching(a: &CsrMatrix, b: &[f64], builder: &SolverBuilder, batch: usize, m: &mut Metrics) {
    let (n, batch) = (a.n_rows(), batch.max(1));
    let mut session = builder.clone().build().expect("valid configuration");
    let solo = median_secs(5, || {
        for _ in 0..batch {
            let mut x = vec![0.0; n];
            black_box(session.solve(a, b, &mut x).expect("solo solve"));
        }
    });
    let bs: Vec<&[f64]> = vec![b; batch];
    let block = median_secs(5, || {
        let mut xs = vec![vec![0.0; n]; batch];
        let mut refs: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
        black_box(session.solve_many(a, &bs, &mut refs).expect("block solve"));
    });
    m.push("session.solo_us", solo * 1e6 / batch as f64, "us");
    m.push("session.block_rhs_us", block * 1e6 / batch as f64, "us");
}
