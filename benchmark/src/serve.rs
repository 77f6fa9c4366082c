//! `serve_hot` and `serve_cold`: one generator thread keeps a fixed number
//! of jobs outstanding against an `asyrgs-serve` scheduler (a closed
//! loop) and times every job from the start of `Scheduler::submit` to its
//! completion instant, the submit return time plus `JobStats::queued`
//! plus `JobStats::service` (`queued` is stamped only after registry
//! admission, inside `submit`).

use crate::layers::{self, Stages};
use crate::measure::{
    self, interquartile_mean, mean, median, overhead_share, quantile_or_max, repeat_set_up,
    tail_quantile, Metrics, Tracer,
};
use crate::{expect_count, rel_residual, rhs_for, Drift, Outcome, RunConfig};
use asyrgs::core::driver::{Recording, Termination};
use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs::sparse::CsrMatrix;
use asyrgs::workloads::traffic::zipf_hot_matrix_replay;
use asyrgs::workloads::{diag_dominant, scenarios};
use asyrgs_serve::{
    JobHandle, JobOutcome, RegistryStats, Scheduler, SchedulerConfig, SchedulerStats, SolveJob,
    TenantId,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced runs alternate untraced and traced slices of this many seconds,
/// so the trace's own cost shows as the difference.
const TRACE_SLICE: f64 = 0.5;
/// Throughput is measured over slices of this many seconds.
const RATE_SLICE: f64 = 1.0;
/// How long the generator sleeps when no outstanding job has finished.
const POLL: Duration = Duration::from_micros(100);
/// Relative-residual target of the jobs that solve to convergence.
const TARGET: f64 = 1e-6;

/// Set-ups per run; the median is `setup_s`.
const HOT_SETUPS: usize = 9;
const HOT_TENANTS: usize = 256;
const HOT_OUTSTANDING: usize = 32;
const HOT_SWEEPS: usize = 100;
/// Replay events generated per run; the loop cycles through them.
const HOT_EVENTS: usize = 1 << 17;
/// Jobs of the coalesced batch re-solved solo after the window.
const HOT_CHECK_BATCH: usize = 6;

const COLD_SETUPS: usize = 5;
const COLD_N: usize = 8192;
const COLD_ROW_NNZ: usize = 8;
/// Large enough that a seed's pool averages out per-matrix sweep counts.
const COLD_POOL: usize = 96;
/// Pool matrices the registry budget holds: a third of the pool.
const COLD_RESIDENT: usize = COLD_POOL / 3;
const COLD_OUTSTANDING: usize = 4;
/// Every fourth job is `SolveJob::auto`.
const COLD_AUTO_EVERY: u64 = 4;
const COLD_MAX_SWEEPS: usize = 500;

/// Which solve time a job feeds: parallel AsyRGS (`solve_s`) or the
/// workload's single-threaded family (`seq_solve_s`).
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Parallel,
    Sequential,
}

/// A job about to be submitted, and what its answer check needs.
struct Request {
    job: SolveJob,
    matrix: usize,
    kind: Kind,
}

struct Sent {
    handle: JobHandle,
    id: u64,
    matrix: usize,
    kind: Kind,
    submit_start: Instant,
    submit_end: Instant,
    traced: bool,
}

/// One completed job as its caller saw it (times in seconds).
struct Done {
    kind: Kind,
    /// Completion instant, from the start of the window.
    finished: f64,
    latency: f64,
    submit: f64,
    queued: f64,
    service: f64,
    batch: usize,
    threads: usize,
    sweeps: usize,
    tau: Option<u64>,
    traced: bool,
}

struct Window {
    done: Vec<Done>,
    attempted: u64,
    accepted: u64,
    failed: u64,
    peak_rss_mb: f64,
    sched: (SchedulerStats, SchedulerStats),
    reg: (RegistryStats, RegistryStats),
}

fn config(registry_max_bytes: usize) -> SchedulerConfig {
    SchedulerConfig {
        registry_max_bytes,
        ..SchedulerConfig::default()
    }
}

fn sweeps_of(out: &JobOutcome) -> (usize, Option<u64>) {
    out.result.as_ref().map_or((0, None), |r| {
        (
            r.records.last().map_or(0, |rec| rec.sweep),
            r.max_observed_delay,
        )
    })
}

fn bitwise_eq(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Keep `outstanding` jobs in flight for `cfg.seconds`, then drain. Each
/// harvested job frees a slot for the next submission.
fn closed_loop(
    sched: &Scheduler,
    cfg: &RunConfig,
    outstanding: usize,
    tracer: &mut Tracer,
    mut next: impl FnMut(u64) -> Request,
    mut check: impl FnMut(usize, Kind, &JobOutcome) -> bool,
) -> Window {
    let rss_reset = measure::reset_peak_rss();
    let (sched0, reg0) = (sched.stats(), sched.registry_stats());
    let mut inflight: VecDeque<Sent> = VecDeque::with_capacity(outstanding);
    let mut done = Vec::new();
    let (mut attempted, mut accepted, mut failed) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    loop {
        while inflight.len() < outstanding && t0.elapsed().as_secs_f64() < cfg.seconds {
            let Request { job, matrix, kind } = next(attempted);
            let id = attempted;
            attempted += 1;
            let submit_start = Instant::now();
            let result = sched.submit(job);
            let submit_end = Instant::now();
            let traced =
                cfg.trace && ((submit_start - t0).as_secs_f64() / TRACE_SLICE) as u64 % 2 == 1;
            if traced {
                tracer.record("submit", id, submit_start, submit_end);
            }
            match result {
                Ok(handle) => {
                    accepted += 1;
                    inflight.push_back(Sent {
                        handle,
                        id,
                        matrix,
                        kind,
                        submit_start,
                        submit_end,
                        traced,
                    });
                }
                Err(e) => {
                    eprintln!("submit refused: {e}");
                    failed += 1;
                }
            }
        }
        // Harvest whichever job finishes first, so a slow job never holds
        // back the refill of a finished one.
        let sent = loop {
            if inflight.is_empty() {
                break None;
            }
            if let Some(i) = inflight.iter().position(|s| s.handle.is_finished()) {
                break inflight.remove(i);
            }
            std::thread::sleep(POLL);
        };
        let Some(sent) = sent else {
            break;
        };
        let out = sent.handle.wait();
        if !check(sent.matrix, sent.kind, &out) {
            failed += 1;
        }
        let st = out.stats;
        let dispatched = sent.submit_end + st.queued;
        let completion = dispatched + st.service;
        if sent.traced {
            tracer.record("job", sent.id, sent.submit_start, completion);
            tracer.record("queue", sent.id, sent.submit_end, dispatched);
            tracer.record("service", sent.id, dispatched, completion);
        }
        let (sweeps, tau) = sweeps_of(&out);
        done.push(Done {
            kind: sent.kind,
            finished: (completion - t0).as_secs_f64(),
            latency: (completion - sent.submit_start).as_secs_f64(),
            submit: (sent.submit_end - sent.submit_start).as_secs_f64(),
            queued: st.queued.as_secs_f64(),
            service: st.service.as_secs_f64(),
            batch: st.batch_size,
            threads: st.threads_used,
            sweeps,
            tau,
            traced: sent.traced,
        });
    }
    let peak_rss_mb = measure::peak_rss_mb();
    if !rss_reset {
        eprintln!("note: peak RSS could not be reset after set-up; it includes set-up");
    }
    Window {
        done,
        attempted,
        accepted,
        failed,
        peak_rss_mb,
        sched: (sched0, sched.stats()),
        reg: (reg0, sched.registry_stats()),
    }
}

impl Window {
    fn collect(&self, f: impl Fn(&Done) -> Option<f64>) -> Vec<f64> {
        self.done.iter().filter_map(f).collect()
    }

    fn service(&self, kind: Kind, traced: Option<bool>) -> Vec<f64> {
        self.collect(|d| {
            (d.kind == kind && traced.is_none_or(|t| d.traced == t)).then_some(d.service)
        })
    }

    /// Completions per second: the interquartile mean over the whole
    /// `RATE_SLICE`s of the window, so a burst of outside load moves few
    /// slices.
    fn jobs_per_s(&self, window: f64) -> f64 {
        let slices = ((window / RATE_SLICE) as usize).max(1);
        let mut counts = vec![0.0; slices];
        for d in &self.done {
            if let Some(c) = counts.get_mut((d.finished / RATE_SLICE) as usize) {
                *c += 1.0;
            }
        }
        interquartile_mean(&counts) / RATE_SLICE
    }

    fn end_to_end(&self, setups: &[f64], window: f64, m: &mut Metrics) {
        let latency_ms = self.collect(|d| Some(d.latency * 1e3));
        m.push("setup_s", median(setups), "s");
        m.push("solve_s", median(&self.service(Kind::Parallel, None)), "s");
        m.push(
            "seq_solve_s",
            median(&self.service(Kind::Sequential, None)),
            "s",
        );
        m.push("jobs_per_s", self.jobs_per_s(window), "jobs/s");
        m.push("job_p50_ms", median(&latency_ms), "ms");
        if tail_quantile(&latency_ms, 0.99).is_none() {
            eprintln!("note: too few jobs for a p99; job_p99_ms is the slowest job");
        }
        m.push("job_p99_ms", quantile_or_max(&latency_ms, 0.99), "ms");
        m.push(
            "ok_ratio",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            "fraction",
        );
        m.push("peak_rss_mb", self.peak_rss_mb, "MB");
    }

    /// Scheduler, registry and per-solve counters, plus the trace audit.
    /// `observations` is how many serial residual observations one
    /// parallel solve makes per sweep (1 with every-sweep recording).
    fn layers(&self, n: usize, stages: &Stages, observations: f64, m: &mut Metrics) {
        let (s0, s1) = &self.sched;
        let (r0, r1) = &self.reg;
        let jobs = self.done.len().max(1) as f64;
        let kind_sweeps =
            |kind: Kind| self.collect(|d| (d.kind == kind).then_some(d.sweeps as f64));
        let par_sweeps = median(&kind_sweeps(Kind::Parallel));
        m.push("core.sweeps", par_sweeps, "sweeps");
        m.push(
            "core.seq_sweeps",
            median(&kind_sweeps(Kind::Sequential)),
            "sweeps",
        );
        let taus = self.collect(|d| d.tau.filter(|_| d.kind == Kind::Parallel).map(|t| t as f64));
        m.push("core.tau_max", median(&taus), "updates");

        let (hits, misses) = (r1.hits - r0.hits, r1.misses - r0.misses);
        m.push(
            "registry.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "fraction",
        );
        m.push(
            "registry.evictions",
            (r1.evictions - r0.evictions) as f64,
            "count",
        );
        m.push(
            "registry.policy_probes",
            (r1.policy_probes - r0.policy_probes) as f64,
            "count",
        );

        let submit_us = self.collect(|d| Some(d.submit * 1e6));
        let queue_ms = self.collect(|d| Some(d.queued * 1e3));
        let service_ms = self.collect(|d| Some(d.service * 1e3));
        m.push("serve.submit_us_p50", median(&submit_us), "us");
        m.push(
            "serve.submit_us_p99",
            quantile_or_max(&submit_us, 0.99),
            "us",
        );
        m.push("serve.queue_ms_p50", median(&queue_ms), "ms");
        m.push("serve.queue_ms_p99", quantile_or_max(&queue_ms, 0.99), "ms");
        m.push("serve.service_ms_p50", median(&service_ms), "ms");
        m.push(
            "serve.service_ms_p99",
            quantile_or_max(&service_ms, 0.99),
            "ms",
        );
        let batch_mean = mean(&self.collect(|d| Some(d.batch as f64)));
        m.push("serve.batch_mean", batch_mean, "jobs");
        m.push(
            "serve.cross_tenant_share",
            (s1.cross_tenant_coalesced - s0.cross_tenant_coalesced) as f64 / jobs,
            "fraction",
        );
        m.push(
            "serve.warm_share",
            (s1.warm_started - s0.warm_started) as f64 / jobs,
            "fraction",
        );
        m.push(
            "serve.threads_mean",
            mean(&self.collect(|d| Some(d.threads as f64))),
            "threads",
        );

        let latency =
            |traced: bool| median(&self.collect(|d| (d.traced == traced).then_some(d.latency)));
        m.push(
            "trace.overhead_share",
            overhead_share(latency(true), latency(false)),
            "fraction",
        );
        // One parallel dispatch: session build, admission symmetry check,
        // validation, then per sweep the observations, an epoch barrier,
        // and n updates for each right-hand side of the batch. A dispatch
        // leased a single thread runs its epochs inline: t = 1 updates and
        // no barrier.
        let par =
            |f: fn(&Done) -> f64| self.collect(|d| (d.kind == Kind::Parallel).then_some(f(d)));
        let (update_ns, round_us) = if median(&par(|d| d.threads as f64)) <= 1.0 {
            (stages.update_ns_t1, 0.0)
        } else {
            (stages.update_ns_tn, stages.round_us)
        };
        let model_ms = stages.build_us * 1e-3
            + stages.symmetry_ms
            + stages.validate_ms
            + par_sweeps * observations * stages.observe_ms
            + par_sweeps * round_us * 1e-3
            + par_sweeps * n as f64 * mean(&par(|d| d.batch as f64)) * update_ns * 1e-6;
        let service = median(&self.service(Kind::Parallel, Some(false)));
        m.push(
            "trace.accounted_share",
            if service > 0.0 {
                model_ms / (service * 1e3)
            } else {
                0.0
            },
            "fraction",
        );
    }
}

/// The scheduler and registry metrics of a workload that serves nothing.
pub fn push_no_serving(m: &mut Metrics) {
    for (name, unit) in [
        ("registry.hit_rate", "fraction"),
        ("registry.evictions", "count"),
        ("registry.policy_probes", "count"),
        ("serve.submit_us_p50", "us"),
        ("serve.submit_us_p99", "us"),
        ("serve.queue_ms_p50", "ms"),
        ("serve.queue_ms_p99", "ms"),
        ("serve.service_ms_p50", "ms"),
        ("serve.service_ms_p99", "ms"),
        ("serve.batch_mean", "jobs"),
        ("serve.cross_tenant_share", "fraction"),
        ("serve.warm_share", "fraction"),
        ("serve.threads_mean", "threads"),
    ] {
        m.push(name, 0.0, unit);
    }
}

// ---------------------------------------------------------------- serve_hot

fn hot_builder(kind: Kind, nproc: usize) -> SolverBuilder {
    let (family, threads) = match kind {
        Kind::Parallel => (SolverFamily::AsyRgs, nproc),
        Kind::Sequential => (SolverFamily::Rgs, 1),
    };
    SolverBuilder::new(family)
        .threads(threads)
        .term(Termination::sweeps(HOT_SWEEPS))
        .record(Recording::end_only())
}

/// Re-solve one coalesced batch solo: `HOT_CHECK_BATCH` tenants submit
/// their own copies of `a` to a paused scheduler, which dedups and
/// coalesces them into one block solve; every answer must equal the solo
/// solve `solo` bit for bit.
fn coalesced_batch_matches_solo(a: &CsrMatrix, b: &[f64], solo: &[f64]) -> bool {
    let sched = Scheduler::new(SchedulerConfig {
        paused: true,
        ..SchedulerConfig::default()
    });
    let handles: Vec<JobHandle> = (0..HOT_CHECK_BATCH as u64)
        .map(|t| {
            let job = SolveJob::new(
                hot_builder(Kind::Sequential, 1),
                Arc::new(a.clone()),
                b.to_vec(),
            )
            .with_tenant(TenantId(1 + t));
            sched.submit(job).expect("check job admitted")
        })
        .collect();
    sched.resume();
    let outcomes: Vec<JobOutcome> = handles.into_iter().map(JobHandle::wait).collect();
    outcomes
        .iter()
        .all(|o| o.result.is_ok() && o.stats.batch_size > 1 && bitwise_eq(&o.x, solo))
}

pub fn run_hot(cfg: &RunConfig) -> Result<Outcome, Drift> {
    let builders = [
        hot_builder(Kind::Parallel, cfg.nproc),
        hot_builder(Kind::Sequential, 1),
    ];
    let ((replay, problems, solo, sched), setups) = repeat_set_up(HOT_SETUPS, || {
        let replay = zipf_hot_matrix_replay(HOT_EVENTS, HOT_TENANTS, cfg.seed);
        let problems: Vec<(CsrMatrix, Vec<f64>)> = replay
            .matrices
            .iter()
            .map(|name| {
                let built = scenarios::find(name).expect("corpus scenario").build();
                (built.a, built.b)
            })
            .collect();
        // The answer every cold-started RGS job must return bitwise: a
        // solo solve from zero.
        let solo: Vec<Vec<f64>> = problems
            .iter()
            .map(|(a, b)| {
                let mut x = vec![0.0; a.n_rows()];
                builders[1]
                    .clone()
                    .build()
                    .and_then(|mut s| s.solve(a, b, &mut x))
                    .expect("reference solve");
                x
            })
            .collect();
        let sched = Scheduler::new(config(SchedulerConfig::default().registry_max_bytes));
        // Warm-up: register every hot matrix with a one-sweep job of each
        // family.
        for (a, b) in &problems {
            for builder in &builders {
                let builder = builder.clone().term(Termination::sweeps(1));
                let job = SolveJob::new(builder, Arc::new(a.clone()), b.clone());
                let out = sched.submit(job).expect("warm-up job admitted").wait();
                out.result.expect("warm-up solve");
            }
        }
        (replay, problems, solo, sched)
    });

    let mut tracer = Tracer::new();
    let next = |i: u64| {
        let e = replay.events[i as usize % replay.events.len()];
        let kind = if e.tenant_id % 2 == 0 {
            Kind::Parallel
        } else {
            Kind::Sequential
        };
        let (a, b) = &problems[e.matrix];
        // Every submission carries its own copy of the matrix.
        let job = SolveJob::new(
            builders[kind as usize].clone(),
            Arc::new(a.clone()),
            b.clone(),
        )
        .with_tenant(TenantId(e.tenant_id))
        .with_weight(e.weight)
        .with_warm_start(true);
        Request {
            job,
            matrix: e.matrix,
            kind,
        }
    };
    let check = |matrix: usize, kind: Kind, out: &JobOutcome| {
        if let Err(e) = &out.result {
            eprintln!("job failed: {e}");
            return false;
        }
        let (a, b) = &problems[matrix];
        // Fixed-sweep jobs: a finite residual below the cold start's 1.
        let rel = rel_residual(a, b, &out.x);
        let below_start = rel < 1.0; // false for NaN too
        if !below_start {
            eprintln!("answer check failed: relative residual {rel:e} after {HOT_SWEEPS} sweeps");
            return false;
        }
        if kind == Kind::Sequential && !out.stats.warm_started && !bitwise_eq(&out.x, &solo[matrix])
        {
            eprintln!("answer check failed: cold RGS job differs bitwise from the solo solve");
            return false;
        }
        true
    };
    let w = closed_loop(&sched, cfg, HOT_OUTSTANDING, &mut tracer, next, check);

    let (s0, s1) = &w.sched;
    let (r0, r1) = &w.reg;
    expect_count("registry misses in the window", r1.misses - r0.misses, 0)?;
    expect_count("registry evictions", r1.evictions - r0.evictions, 0)?;
    expect_count("policy probes", r1.policy_probes - r0.policy_probes, 0)?;
    expect_count("fingerprint collisions", r1.collisions - r0.collisions, 0)?;
    expect_count("registry hits", r1.hits - r0.hits, w.accepted)?;
    expect_count("jobs completed", s1.completed - s0.completed, w.accepted)?;

    let batch_ok = coalesced_batch_matches_solo(&problems[0].0, &problems[0].1, &solo[0]);
    if !batch_ok {
        eprintln!("answer check failed: a coalesced batch differs bitwise from the solo solve");
    }
    let mut metrics = Metrics::default();
    if cfg.trace {
        eprint!("{}", tracer.summary());
        let (a, b) = &problems[0];
        let stages = layers::probe(a, b, cfg.seed, cfg.nproc, &mut metrics);
        let batch = mean(&w.collect(|d| Some(d.batch as f64))).round() as usize;
        layers::batching(a, b, &builders[1], batch, &mut metrics);
        // Fixed-sweep jobs record once, at the end.
        w.layers(a.n_rows(), &stages, 1.0 / HOT_SWEEPS as f64, &mut metrics);
    } else {
        w.end_to_end(&setups, cfg.seconds, &mut metrics);
    }
    Ok(Outcome {
        attempted: w.attempted + 1,
        failed: w.failed + u64::from(!batch_ok),
        metrics,
    })
}

// --------------------------------------------------------------- serve_cold

/// Registry bytes one pool matrix occupies: the CSR plus the cached
/// inverse diagonal (8 B/row) and row-norm alias table (16 B/row).
fn entry_bytes(a: &CsrMatrix) -> usize {
    (a.n_rows() + 1) * 8 + a.nnz() * 16 + a.n_rows() * 24
}

pub fn run_cold(cfg: &RunConfig) -> Result<Outcome, Drift> {
    let asy = SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(cfg.nproc)
        .term(Termination::sweeps(COLD_MAX_SWEEPS).with_target(TARGET))
        .record(Recording::every(1));
    let ((pool, sched), setups) = repeat_set_up(COLD_SETUPS, || {
        let pool: Vec<(Arc<CsrMatrix>, Vec<f64>)> = (0..COLD_POOL as u64)
            .map(|k| {
                let seed = cfg.seed.wrapping_mul(COLD_POOL as u64).wrapping_add(k);
                let a = diag_dominant(COLD_N, COLD_ROW_NNZ, 2.0, seed);
                let b = rhs_for(&a, seed);
                (Arc::new(a), b)
            })
            .collect();
        let resident = pool.iter().map(|(a, _)| entry_bytes(a)).max().unwrap_or(0) * COLD_RESIDENT;
        let sched = Scheduler::new(config(resident));
        // Warm-up: one job of each kind, on the matrices the window
        // reaches last.
        for (k, (a, b)) in pool.iter().take(2).enumerate() {
            let job = if k == 0 {
                SolveJob::new(asy.clone(), Arc::clone(a), b.clone())
            } else {
                SolveJob::auto(Arc::clone(a), b.clone())
            };
            let out = sched.submit(job).expect("warm-up job admitted").wait();
            out.result.expect("warm-up solve");
        }
        (pool, sched)
    });

    let mut tracer = Tracer::new();
    let next = |i: u64| {
        let matrix = (2 + i as usize) % COLD_POOL;
        let (a, b) = &pool[matrix];
        if i % COLD_AUTO_EVERY == COLD_AUTO_EVERY - 1 {
            Request {
                job: SolveJob::auto(Arc::clone(a), b.clone()),
                matrix,
                kind: Kind::Sequential,
            }
        } else {
            Request {
                job: SolveJob::new(asy.clone(), Arc::clone(a), b.clone()),
                matrix,
                kind: Kind::Parallel,
            }
        }
    };
    let check = |matrix: usize, _kind: Kind, out: &JobOutcome| {
        if let Err(e) = &out.result {
            eprintln!("job failed: {e}");
            return false;
        }
        let (a, b) = &pool[matrix];
        let rel = rel_residual(a, b, &out.x);
        let converged = rel <= TARGET; // false for NaN too
        if !converged {
            eprintln!("answer check failed: relative residual {rel:e} above {TARGET:e}");
            return false;
        }
        true
    };
    let w = closed_loop(&sched, cfg, COLD_OUTSTANDING, &mut tracer, next, check);

    let (r0, r1) = &w.reg;
    let auto_jobs = w.done.iter().filter(|d| d.kind == Kind::Sequential).count() as u64;
    let misses = r1.misses - r0.misses;
    expect_count(
        "registry hits (every admission must miss)",
        r1.hits - r0.hits,
        0,
    )?;
    expect_count("registry misses", misses, w.accepted)?;
    expect_count(
        "policy probes",
        r1.policy_probes - r0.policy_probes,
        auto_jobs,
    )?;
    expect_count("policy cache hits", r1.policy_hits - r0.policy_hits, 0)?;
    expect_count("fingerprint collisions", r1.collisions - r0.collisions, 0)?;
    expect_count(
        "registry entries (before + misses - evictions)",
        r1.entries as u64 + (r1.evictions - r0.evictions),
        r0.entries as u64 + misses,
    )?;

    let mut metrics = Metrics::default();
    if cfg.trace {
        eprint!("{}", tracer.summary());
        let (a, b) = &pool[0];
        let stages = layers::probe(a, b, cfg.seed, cfg.nproc, &mut metrics);
        layers::batching(a, b, &asy, 1, &mut metrics);
        w.layers(a.n_rows(), &stages, 1.0, &mut metrics);
    } else {
        w.end_to_end(&setups, cfg.seconds, &mut metrics);
    }
    Ok(Outcome {
        attempted: w.attempted,
        failed: w.failed,
        metrics,
    })
}
