//! Machine-readable performance tracking: times the hot kernels and the
//! epoched asynchronous solvers, compares the persistent worker pool
//! against a spawn-per-epoch reference and session reuse against
//! fresh-call-per-solve, and writes `BENCH_solvers.json`.
//!
//! This is the perf trajectory for the repo: every PR that touches the
//! runtime or the kernels regenerates the file, and CI smoke-runs the
//! binary (tiny sizes) to guarantee it keeps producing valid JSON.
//!
//! Usage:
//! ```text
//! bench_runner [OUTPUT_PATH]          (default: BENCH_solvers.json)
//! ```
//! Environment:
//! `ASYRGS_BENCH_SMOKE=1` — tiny sizes + short timing budget (CI);
//! `ASYRGS_THREADS=N` — global pool width (kernel parallelism).

use asyrgs_core::asyrgs::{try_asyrgs_solve, AsyRgsOptions};
use asyrgs_core::atomic::SharedVec;
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::jacobi::{try_async_jacobi_solve, JacobiOptions};
use asyrgs_core::rgs::{try_rgs_solve, RgsOptions};
use asyrgs_rng::{DirectionStream, DrawBuffer};
use asyrgs_sparse::{CsrMatrix, RowMajorMat};
use asyrgs_workloads::diag_dominant;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed quantity.
struct Sample {
    name: String,
    median_seconds: f64,
    min_seconds: f64,
}

/// A before/after pair with its speedup.
struct Speedup {
    name: String,
    before_seconds: f64,
    after_seconds: f64,
}

/// Median wall time of `reps` runs of `f` (median of per-run times).
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], times[0])
}

/// The spawn-per-epoch reference: the pre-pool epoch loop (one
/// `std::thread::scope` + `threads` spawns/joins per epoch), running the
/// same uniform claim-the-next-iteration AsyRGS worker as the solver.
fn asyrgs_epochs_spawn(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    threads: usize,
    sweeps: usize,
    seed: u64,
) {
    let n = a.n_rows();
    let dinv: Vec<f64> = a.diag().iter().map(|d| 1.0 / d).collect();
    let ds = DirectionStream::new(seed, n);
    let shared = SharedVec::from_slice(x);
    let counter = AtomicU64::new(0);
    for sweep in 1..=sweeps {
        let limit = (sweep as u64) * (n as u64);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let j = counter.fetch_add(1, Ordering::Relaxed);
                    if j >= limit {
                        break;
                    }
                    let r = ds.direction(j);
                    let mut dot = 0.0;
                    let (cols, vals) = a.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        dot += v * shared.load(c);
                    }
                    shared.fetch_add(r, (b[r] - dot) * dinv[r]);
                });
            }
        });
        counter.store(limit, Ordering::Relaxed);
    }
    shared.snapshot_into(x);
}

/// The pooled equivalent of [`asyrgs_epochs_spawn`]: identical work, one
/// wake/park handshake per epoch.
fn asyrgs_epochs_pooled(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    threads: usize,
    sweeps: usize,
    seed: u64,
) {
    try_asyrgs_solve(
        a,
        b,
        x,
        None,
        &AsyRgsOptions {
            threads,
            seed,
            epoch_sweeps: Some(1),
            term: Termination::sweeps(sweeps),
            record: Recording::end_only(),
            ..Default::default()
        },
    )
    .expect("solve failed");
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_solvers.json".to_string());
    let smoke = std::env::var("ASYRGS_BENCH_SMOKE").as_deref() == Ok("1");
    let (n, sweeps, reps) = if smoke { (256, 20, 3) } else { (2048, 200, 7) };
    let threads = 2usize;
    let pool_width = asyrgs_parallel::global().concurrency();

    eprintln!(
        "bench_runner: n={n}, sweeps={sweeps}, reps={reps}, threads={threads}, \
         global pool width={pool_width}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let a = diag_dominant(n, 8, 2.0, 42);
    let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
    let b = a.matvec(&x_star);

    // ---------------------------------------------------------------- kernels
    let mut kernels: Vec<Sample> = Vec::new();
    {
        let x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        let inner = if smoke { 20 } else { 200 };
        let (med, min) = time_median(reps, || {
            for _ in 0..inner {
                a.matvec_into(std::hint::black_box(&x), &mut y);
            }
        });
        kernels.push(Sample {
            name: format!("matvec_serial_x{inner}"),
            median_seconds: med,
            min_seconds: min,
        });
        let (med, min) = time_median(reps, || {
            for _ in 0..inner {
                a.par_matvec_into(std::hint::black_box(&x), &mut y);
            }
        });
        kernels.push(Sample {
            name: format!("matvec_pooled_x{inner}"),
            median_seconds: med,
            min_seconds: min,
        });

        let k = 8;
        let xb = RowMajorMat::from_vec(n, k, vec![1.0; n * k]);
        let mut yb = RowMajorMat::zeros(n, k);
        let inner_mm = if smoke { 5 } else { 50 };
        let (med, min) = time_median(reps, || {
            for _ in 0..inner_mm {
                a.spmm_into(std::hint::black_box(&xb), &mut yb);
            }
        });
        kernels.push(Sample {
            name: format!("spmm_k{k}_serial_x{inner_mm}"),
            median_seconds: med,
            min_seconds: min,
        });
        let (med, min) = time_median(reps, || {
            for _ in 0..inner_mm {
                a.par_spmm_into(std::hint::black_box(&xb), &mut yb);
            }
        });
        kernels.push(Sample {
            name: format!("spmm_k{k}_pooled_x{inner_mm}"),
            median_seconds: med,
            min_seconds: min,
        });

        let inner_rd = if smoke { 2_000 } else { 100_000 };
        let (med, min) = time_median(reps, || {
            let mut acc = 0.0;
            for i in 0..inner_rd {
                acc += a.row_dot(i % n, std::hint::black_box(&x));
            }
            acc
        });
        kernels.push(Sample {
            name: format!("row_dot_x{inner_rd}"),
            median_seconds: med,
            min_seconds: min,
        });

        // Per-update overhead decomposition of the AsyRGS hot path: the
        // batched direction draw alone, draw + unrolled row walk over the
        // shared iterate, and the full update including the CAS-add write.
        // The differences between consecutive lines localize where
        // per-update time actually goes.
        let dinv: Vec<f64> = a.diag().iter().map(|d| 1.0 / d).collect();
        let shared = SharedVec::from_slice(&vec![0.0f64; n]);
        let ds = DirectionStream::new(9, n);
        let inner_up = if smoke { 2_000 } else { 100_000 };
        let mut draws = DrawBuffer::new();
        let (med, min) = time_median(reps, || {
            let mut acc = 0usize;
            let mut j = 0usize;
            while j < inner_up {
                let batch = DrawBuffer::DEFAULT_CAPACITY.min(inner_up - j);
                let dirs = draws.fill_with(batch, |out| ds.fill_directions(j as u64, out));
                acc = acc.wrapping_add(dirs.iter().sum::<usize>());
                j += batch;
            }
            acc
        });
        kernels.push(Sample {
            name: format!("update_draw_only_x{inner_up}"),
            median_seconds: med,
            min_seconds: min,
        });
        let (med, min) = time_median(reps, || {
            let mut acc = 0.0;
            let mut j = 0usize;
            while j < inner_up {
                let batch = DrawBuffer::DEFAULT_CAPACITY.min(inner_up - j);
                let dirs = draws.fill_with(batch, |out| ds.fill_directions(j as u64, out));
                for &r in dirs {
                    acc += a.row_dot_with(r, |c| shared.load(c));
                }
                j += batch;
            }
            acc
        });
        kernels.push(Sample {
            name: format!("update_draw_row_dot_x{inner_up}"),
            median_seconds: med,
            min_seconds: min,
        });
        let (med, min) = time_median(reps, || {
            let mut j = 0usize;
            while j < inner_up {
                let batch = DrawBuffer::DEFAULT_CAPACITY.min(inner_up - j);
                let dirs = draws.fill_with(batch, |out| ds.fill_directions(j as u64, out));
                for &r in dirs {
                    let dot = a.row_dot_with(r, |c| shared.load(c));
                    let gamma = (b[r] - dot) * dinv[r];
                    shared.fetch_add(r, gamma);
                }
                j += batch;
            }
        });
        kernels.push(Sample {
            name: format!("update_full_x{inner_up}"),
            median_seconds: med,
            min_seconds: min,
        });
    }

    // ---------------------------------------------------- epoched-solver A/B
    // The tentpole measurement: spawn-per-epoch vs persistent pool. Two
    // regimes: a small system with one-sweep epochs, where the epoch
    // transition dominates (the synchronize-often configuration the paper
    // discusses after Theorem 2 — this is where spawn overhead hurts), and
    // the large system as a no-regression check where matrix work
    // dominates.
    let mut speedups: Vec<Speedup> = Vec::new();

    {
        let n_small = if smoke { 128 } else { 256 };
        let epochs_small = if smoke { 50 } else { 400 };
        let a_small = diag_dominant(n_small, 8, 2.0, 42);
        let b_small = a_small.matvec(&vec![1.0; n_small]);
        for (label, mat, rhs, eps) in [
            ("small_epoch_bound", &a_small, &b_small, epochs_small),
            ("large_work_bound", &a, &b, sweeps),
        ] {
            let nn = mat.n_rows();
            let (before, _) = time_median(reps, || {
                let mut x = vec![0.0f64; nn];
                asyrgs_epochs_spawn(mat, rhs, &mut x, threads, eps, 7);
                x
            });
            let (after, _) = time_median(reps, || {
                let mut x = vec![0.0f64; nn];
                asyrgs_epochs_pooled(mat, rhs, &mut x, threads, eps, 7);
                x
            });
            speedups.push(Speedup {
                name: format!("asyrgs_epoched_t{threads}_{label}_spawn_vs_pool"),
                before_seconds: before,
                after_seconds: after,
            });
            eprintln!(
                "epoched asyrgs {label} (n={nn}, {eps} epochs, {threads} threads): \
                 spawn {before:.4}s -> pool {after:.4}s ({:.2}x)",
                before / after
            );
        }
    }

    // ----------------------------------------------- session-reuse A/B
    // The session-API measurement: a fresh `try_*` call per solve (which
    // allocates the workspace — shared iterate, diagonal, residual and
    // snapshot scratch — every time) vs one `SolveSession` reused across
    // the batch, on a system small enough that allocation is a visible
    // fraction of the work. Proves the amortized-workspace win and guards
    // against the session path regressing below the free-function path.
    {
        use asyrgs::session::{SolverBuilder, SolverFamily};
        let n_tiny = if smoke { 64 } else { 128 };
        let solves = if smoke { 40 } else { 400 };
        let tiny_sweeps = 4usize;
        let a_tiny = diag_dominant(n_tiny, 6, 2.0, 11);
        let b_tiny = a_tiny.matvec(&vec![1.0; n_tiny]);
        let opts = AsyRgsOptions {
            threads: 2,
            seed: 3,
            term: Termination::sweeps(tiny_sweeps),
            record: Recording::end_only(),
            ..Default::default()
        };
        let (fresh, _) = time_median(reps, || {
            let mut x = vec![0.0f64; n_tiny];
            for _ in 0..solves {
                x.fill(0.0);
                try_asyrgs_solve(&a_tiny, &b_tiny, &mut x, None, &opts).expect("solve failed");
            }
            x
        });
        let (reused, _) = time_median(reps, || {
            let mut session = SolverBuilder::new(SolverFamily::AsyRgs)
                .threads(2)
                .seed(3)
                .term(Termination::sweeps(tiny_sweeps))
                .record(Recording::end_only())
                .build()
                .expect("valid configuration");
            let mut x = vec![0.0f64; n_tiny];
            for _ in 0..solves {
                x.fill(0.0);
                session
                    .solve(&a_tiny, &b_tiny, &mut x)
                    .expect("solve failed");
            }
            x
        });
        speedups.push(Speedup {
            name: format!("asyrgs_t2_n{n_tiny}_x{solves}_session_reuse_vs_fresh_call"),
            before_seconds: fresh,
            after_seconds: reused,
        });
        eprintln!(
            "session reuse (n={n_tiny}, {solves} solves of {tiny_sweeps} sweeps): \
             fresh {fresh:.4}s -> session {reused:.4}s ({:.2}x)",
            fresh / reused
        );
    }

    // ------------------------------------------------------- solver timings
    let mut solvers: Vec<Sample> = Vec::new();
    {
        let run_sweeps = if smoke { 10 } else { 50 };
        // The rgs-vs-asyrgs ratio is CI-gated, so time the two contenders
        // with extra repetitions and compare minima: on a shared box,
        // scheduler noise only ever *adds* time, so min-of-reps is the
        // noise-robust estimator of the true cost.
        let gate_reps = if smoke { 5 } else { 15 };
        let (med, min) = time_median(gate_reps, || {
            let mut x = vec![0.0f64; n];
            try_rgs_solve(
                &a,
                &b,
                &mut x,
                None,
                &RgsOptions {
                    term: Termination::sweeps(run_sweeps),
                    record: Recording::end_only(),
                    ..Default::default()
                },
            )
            .expect("solve failed")
        });
        let rgs_min = min;
        solvers.push(Sample {
            name: format!("rgs_sweeps{run_sweeps}"),
            median_seconds: med,
            min_seconds: min,
        });
        let mut asyrgs_t2_min = f64::NAN;
        for t in [1usize, 2] {
            let (med, min) = time_median(gate_reps, || {
                let mut x = vec![0.0f64; n];
                try_asyrgs_solve(
                    &a,
                    &b,
                    &mut x,
                    None,
                    &AsyRgsOptions {
                        threads: t,
                        term: Termination::sweeps(run_sweeps),
                        record: Recording::end_only(),
                        ..Default::default()
                    },
                )
                .expect("solve failed")
            });
            if t == 2 {
                asyrgs_t2_min = min;
            }
            solvers.push(Sample {
                name: format!("asyrgs_t{t}_sweeps{run_sweeps}"),
                median_seconds: med,
                min_seconds: min,
            });
        }
        // The headline claim of the paper's perf story, gated in CI: the
        // asynchronous solver at t=2 must not be slower than sequential RGS
        // on the large work-bound system (same sweep budget, so identical
        // total row updates — the async path wins on per-update overhead:
        // batched draw/claim amortization and the dispatch-free fast-path
        // inner loop).
        speedups.push(Speedup {
            name: "asyrgs_vs_rgs_large_work_bound".to_string(),
            before_seconds: rgs_min,
            after_seconds: asyrgs_t2_min,
        });
        eprintln!(
            "asyrgs t2 vs sequential rgs (n={n}, {run_sweeps} sweeps, min of {gate_reps}): \
             rgs {rgs_min:.4}s -> asyrgs {asyrgs_t2_min:.4}s ({:.2}x)",
            rgs_min / asyrgs_t2_min
        );
        let (med, min) = time_median(reps, || {
            let mut x = vec![0.0f64; n];
            try_async_jacobi_solve(
                &a,
                &b,
                &mut x,
                None,
                &JacobiOptions {
                    threads: 2,
                    term: Termination::sweeps(run_sweeps),
                    record: Recording::end_only(),
                    ..Default::default()
                },
            )
            .expect("solve failed")
        });
        solvers.push(Sample {
            name: format!("async_jacobi_t2_sweeps{run_sweeps}"),
            median_seconds: med,
            min_seconds: min,
        });
    }

    // --------------------------------------------------------------- emit
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"asyrgs-bench-v1\",");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"n\": {n},");
    let _ = writeln!(j, "  \"epochs\": {sweeps},");
    let _ = writeln!(j, "  \"solver_threads\": {threads},");
    let _ = writeln!(j, "  \"global_pool_width\": {pool_width},");
    j.push_str("  \"kernels\": [\n");
    for (i, s) in kernels.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"median_seconds\": {:.6e}, \"min_seconds\": {:.6e}}}{}",
            json_escape(&s.name),
            s.median_seconds,
            s.min_seconds,
            if i + 1 < kernels.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"solvers\": [\n");
    for (i, s) in solvers.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"median_seconds\": {:.6e}, \"min_seconds\": {:.6e}}}{}",
            json_escape(&s.name),
            s.median_seconds,
            s.min_seconds,
            if i + 1 < solvers.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n  \"speedups\": [\n");
    for (i, s) in speedups.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"before_seconds\": {:.6e}, \"after_seconds\": {:.6e}, \
             \"speedup\": {:.3}}}{}",
            json_escape(&s.name),
            s.before_seconds,
            s.after_seconds,
            s.before_seconds / s.after_seconds,
            if i + 1 < speedups.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");

    std::fs::write(&out_path, &j).expect("failed to write bench output");
    eprintln!("bench_runner: wrote {out_path}");

    // Sanity-check our own output: fail loudly (non-zero exit) if the JSON
    // is structurally broken, so the CI smoke job catches it.
    let parsed = std::fs::read_to_string(&out_path).expect("reread failed");
    assert!(
        parsed.matches('{').count() == parsed.matches('}').count()
            && parsed.contains("\"speedups\""),
        "bench output failed self-check"
    );
}
