//! Multi-tenant serving benchmark: drives the `asyrgs-serve` scheduler
//! with concurrent tenant load and writes `BENCH_serve.json`.
//!
//! Three sections:
//!
//! * **throughput** — for 1, 8, and 64 concurrent tenants, submit a batch
//!   of identical fixed-sweep solves through the scheduler (shared global
//!   pool, weighted-fair dispatch) and compare aggregate wall time against
//!   the same jobs run *sequentially* through a direct `SolveSession` —
//!   the pre-serve architecture where each caller owns the machine in
//!   turn. `speedup >= 2` for 8 tenants is the PR's acceptance bar.
//! * **mixed_traffic** — replay the deterministic
//!   [`mixed_tenant_mix`]
//!   scenario verbatim (skewed weights, per-tenant corpus problems,
//!   deadlines on every fourth tenant) and report outcome counts and
//!   latency percentiles.
//! * **registry** — replay the Zipf-distributed
//!   [`zipf_hot_matrix_replay`] hot-matrix workload, where every
//!   submission materializes its *own copy* of the matrix, and report the
//!   content-addressed registry's dedup hit rate, cross-tenant coalescing
//!   counts and warm-start seeds, plus a bitwise
//!   cross-check that a cross-tenant coalesced solve equals a solo
//!   dispatch.
//!
//! Latency is reported **split**: `latency_ms` is admission-to-completion
//! (queue wait + service), and `queue_wait_ms` / `solve_ms` break it into
//! its components. The throughput ladder admits each batch up front
//! (paused scheduler) so queue wait dominates there by construction — the
//! split is what makes that visible instead of misleading.
//!
//! The runner gates what it measured and exits nonzero if a gate fails:
//! every throughput row ran jobs in positive time with ordered latency
//! quantiles; mixed-traffic outcomes add up with none cancelled; and the
//! Zipf replay repeats matrices, dedups at least half its admissions,
//! coalesces across tenants, warm-starts, sees no fingerprint collision,
//! and its cross-tenant coalesced solve equals a solo dispatch bitwise.
//!
//! Usage:
//! ```text
//! serve_runner [OUTPUT_PATH]        (default: BENCH_serve.json)
//! ```
//! Environment:
//! `ASYRGS_BENCH_SMOKE=1` — tiny job counts/budgets (CI);
//! `ASYRGS_THREADS=N` — global pool width (also sizes runners/slots).

use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs_bench::obj;
use asyrgs_bench::report::{Json, Report, Summary};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::error::SolveError;
use asyrgs_serve::{JobHandle, JobStats, Scheduler, SchedulerConfig, SolveJob, TenantId};
use asyrgs_sparse::CsrMatrix;
use asyrgs_workloads::scenarios;
use asyrgs_workloads::traffic::{mixed_tenant_mix, zipf_hot_matrix_replay};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission-to-completion latency with its queue-wait/solve-time
/// components kept separate, in milliseconds. The scheduler admits
/// benchmark batches all at once, so the total is dominated by queue
/// wait — reporting only the sum made p50 ≈ p99 ≈ max at low tenancy and
/// hid the actual service time entirely.
#[derive(Default)]
struct LatencySplit {
    total: Vec<f64>,
    queue_wait: Vec<f64>,
    solve: Vec<f64>,
}

impl LatencySplit {
    fn push(&mut self, stats: &JobStats) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.total.push(ms(stats.queued + stats.service));
        self.queue_wait.push(ms(stats.queued));
        self.solve.push(ms(stats.service));
    }

    fn summaries(mut self) -> [Summary; 3] {
        [
            Summary::of(&mut self.total),
            Summary::of(&mut self.queue_wait),
            Summary::of(&mut self.solve),
        ]
    }
}

/// The fixed-work job every throughput cell runs: sequential RGS with a
/// sweep budget and no target, so each job costs the same wherever it
/// executes.
fn throughput_builder(sweeps: usize) -> SolverBuilder {
    SolverBuilder::new(SolverFamily::Rgs)
        .term(Termination::sweeps(sweeps))
        .record(Recording::end_only())
}

fn throughput_section(
    report: &mut Report,
    a: &Arc<CsrMatrix>,
    b: &[f64],
    tenants: usize,
    jobs_per_tenant: usize,
    sweeps: usize,
    width: usize,
) -> Json {
    let jobs = tenants * jobs_per_tenant;
    let builder = throughput_builder(sweeps);

    // Sequential baseline: one caller at a time owns the machine (the
    // pre-scheduler architecture). Session reuse gives it its best case.
    let mut session = builder.clone().build().expect("valid config");
    let mut x = vec![0.0; a.n_rows()];
    let seq_start = Instant::now();
    for _ in 0..jobs {
        x.fill(0.0);
        session.solve(a.as_ref(), b, &mut x).expect("valid system");
    }
    let sequential_seconds = seq_start.elapsed().as_secs_f64();

    // Scheduler: all tenants' jobs admitted up front (paused), then
    // dispatched fairly across the runners.
    let sched = Scheduler::new(SchedulerConfig {
        runners: width,
        slots: width,
        queue_capacity: jobs.next_power_of_two().max(64),
        paused: true,
        coalesce: 32,
        ..SchedulerConfig::default()
    });
    let handles: Vec<JobHandle> = (0..jobs)
        .map(|i| {
            let job = SolveJob::new(builder.clone(), Arc::clone(a), b.to_vec())
                .with_tenant(TenantId(1 + (i % tenants) as u64));
            sched.submit(job).expect("valid job")
        })
        .collect();
    let sched_start = Instant::now();
    sched.resume();
    let mut split = LatencySplit::default();
    for h in handles {
        let out = h.wait();
        out.result.expect("fixed-sweep jobs cannot fail");
        split.push(&out.stats);
    }
    let scheduler_seconds = sched_start.elapsed().as_secs_f64();
    let [latency, queue_wait, solve] = split.summaries();
    let speedup = sequential_seconds / scheduler_seconds;
    let jobs_per_second = jobs as f64 / scheduler_seconds;
    eprintln!(
        "  {tenants:>2} tenants x {jobs_per_tenant:>2} jobs: scheduler {scheduler_seconds:.3}s vs \
         sequential {sequential_seconds:.3}s -> {speedup:.2}x ({jobs_per_second:.0} jobs/s, \
         p99 {:.1} ms = queue {:.1} + solve {:.1})",
        latency.p99, queue_wait.p99, solve.p99,
    );
    report.gate(
        "throughput: jobs, both times and jobs/s > 0",
        jobs > 0 && scheduler_seconds > 0.0 && sequential_seconds > 0.0 && jobs_per_second > 0.0,
        (tenants, jobs, scheduler_seconds, sequential_seconds),
    );
    report.gate(
        "throughput: p50 <= p90 <= p99 <= max",
        [latency, queue_wait, solve]
            .iter()
            .all(|l| l.p50 <= l.p90 && l.p90 <= l.p99 && l.p99 <= l.max),
        (tenants, latency, queue_wait, solve),
    );
    obj! {
        "tenants": tenants,
        "jobs": jobs,
        "scheduler_seconds": scheduler_seconds,
        "sequential_seconds": sequential_seconds,
        "speedup": speedup,
        "jobs_per_second": jobs_per_second,
        "latency_ms": latency.quantiles(),
        "queue_wait_ms": queue_wait.quantiles(),
        "solve_ms": solve.quantiles(),
    }
}

fn mixed_traffic_section(
    report: &mut Report,
    tenants: usize,
    jobs_per_tenant: usize,
    sweeps: usize,
    width: usize,
) -> Json {
    let mix = mixed_tenant_mix(tenants, jobs_per_tenant, 0x7EAA_F1C5);
    // Build each referenced corpus problem once.
    let mut problems: HashMap<&'static str, (Arc<CsrMatrix>, Vec<f64>)> = HashMap::new();
    for t in &mix.tenants {
        problems.entry(t.scenario).or_insert_with(|| {
            let built = scenarios::find(t.scenario).expect("registered").build();
            (Arc::new(built.a), built.b)
        });
    }
    let sched = Scheduler::new(SchedulerConfig {
        runners: width,
        slots: width,
        queue_capacity: mix.total_jobs().next_power_of_two().max(64),
        paused: true,
        coalesce: 32,
        ..SchedulerConfig::default()
    });
    let mut handles = Vec::with_capacity(mix.total_jobs());
    for t in &mix.tenants {
        let (a, b) = &problems[t.scenario];
        for _ in 0..t.jobs {
            let mut job = SolveJob::new(throughput_builder(sweeps), Arc::clone(a), b.clone())
                .with_tenant(TenantId(t.tenant_id))
                .with_weight(t.weight);
            if let Some(ms) = t.deadline_ms {
                job = job.with_deadline(Duration::from_millis(ms));
            }
            handles.push(sched.submit(job).expect("valid job"));
        }
    }
    let start = Instant::now();
    sched.resume();
    let mut split = LatencySplit::default();
    let jobs = handles.len();
    let mut succeeded = 0u64;
    let mut deadline_expired = 0u64;
    let mut cancelled = 0u64;
    for h in handles {
        let out = h.wait();
        match out.result {
            Ok(_) => succeeded += 1,
            Err(SolveError::DeadlineExceeded { .. }) => deadline_expired += 1,
            Err(SolveError::Cancelled) => cancelled += 1,
            Err(e) => panic!("unexpected traffic outcome: {e}"),
        }
        split.push(&out.stats);
    }
    let seconds = start.elapsed().as_secs_f64();
    let [latency, queue_wait, solve] = split.summaries();
    eprintln!(
        "  mixed traffic: {jobs} jobs over {tenants} tenants in {seconds:.3}s ({succeeded} ok, \
         {deadline_expired} deadline-expired, {cancelled} cancelled)"
    );
    report.gate(
        "mixed: jobs == succeeded + deadline_expired + cancelled",
        jobs as u64 == succeeded + deadline_expired + cancelled,
        (jobs, succeeded, deadline_expired, cancelled),
    );
    report.gate("mixed: cancelled == 0", cancelled == 0, cancelled);
    obj! {
        "tenants": tenants,
        "jobs": jobs,
        "succeeded": succeeded,
        "deadline_expired": deadline_expired,
        "cancelled": cancelled,
        "seconds": seconds,
        "latency_ms": latency.quantiles(),
        "queue_wait_ms": queue_wait.quantiles(),
        "solve_ms": solve.quantiles(),
    }
}

/// Bitwise cross-check of the PR 4 coalescing invariant, now across
/// tenants: several tenants submit bitwise-identical (but separately
/// materialized) copies of one matrix through a paused scheduler, the
/// registry dedups them onto one canonical `Arc`, coalescing merges them
/// into one block dispatch — and every returned solution must equal the
/// solo-dispatch solution bit for bit.
fn cross_tenant_bitwise_check(a: &Arc<CsrMatrix>, b: &[f64], sweeps: usize, width: usize) -> bool {
    let builder = throughput_builder(sweeps);
    let k = 6usize;
    let sched = Scheduler::new(SchedulerConfig {
        runners: width,
        slots: width,
        queue_capacity: 64,
        paused: true,
        coalesce: 32,
        ..SchedulerConfig::default()
    });
    let handles: Vec<JobHandle> = (0..k)
        .map(|i| {
            // Each tenant materializes its own copy: dedup, not pointer
            // identity, is what makes these coalescible.
            let own = Arc::new(a.as_ref().clone());
            let job =
                SolveJob::new(builder.clone(), own, b.to_vec()).with_tenant(TenantId(1 + i as u64));
            sched.submit(job).expect("valid job")
        })
        .collect();
    sched.resume();

    let mut session = builder.build().expect("valid config");
    let mut solo = vec![0.0; a.n_rows()];
    session
        .solve(a.as_ref(), b, &mut solo)
        .expect("valid system");

    let mut ok = true;
    for h in handles {
        let out = h.wait();
        out.result.expect("fixed-sweep jobs cannot fail");
        if out.x != solo {
            ok = false;
        }
    }
    ok
}

/// The Zipf hot-matrix replay, with the registry and scheduler counters
/// accumulated while serving it.
fn registry_section(
    report: &mut Report,
    jobs: usize,
    tenants: usize,
    resubmit_jobs: usize,
    sweeps: usize,
    width: usize,
) -> Json {
    let seed = 0xA11C_E5EEDu64;
    let replay = zipf_hot_matrix_replay(jobs, tenants, seed);
    // Build each hot matrix's reference problem once; every submission
    // below clones it into its own allocation, as 256 independent tenants
    // would — dedup is the registry's job, not the caller's.
    let problems: Vec<(CsrMatrix, Vec<f64>)> = replay
        .matrices
        .iter()
        .map(|name| {
            let built = scenarios::find(name).expect("registered").build();
            (built.a, built.b)
        })
        .collect();
    let builder = throughput_builder(sweeps);
    let sched = Scheduler::new(SchedulerConfig {
        runners: width,
        slots: width,
        queue_capacity: jobs.next_power_of_two().max(64),
        coalesce: 32,
        ..SchedulerConfig::default()
    });

    let submit_event = |e: &asyrgs_workloads::traffic::ReplayEvent| -> JobHandle {
        let (a, b) = &problems[e.matrix];
        let job = SolveJob::new(builder.clone(), Arc::new(a.clone()), b.clone())
            .with_tenant(TenantId(e.tenant_id))
            .with_weight(e.weight)
            .with_warm_start(true);
        sched.submit(job).expect("valid job")
    };

    let start = Instant::now();
    let mut split = LatencySplit::default();
    let mut warm_started = 0u64;
    let mut drain = |handles: Vec<JobHandle>| {
        for h in handles {
            let out = h.wait();
            out.result.expect("fixed-sweep jobs cannot fail");
            if out.stats.warm_started {
                warm_started += 1;
            }
            split.push(&out.stats);
        }
    };

    // Cold wave: the scheduler runs live (no pause), so admission and
    // completion interleave and queue wait reflects actual backlog.
    drain(replay.events.iter().map(submit_event).collect());
    // Resubmission wave: the same tenants hit the same fingerprints
    // again, now with stored solutions to warm-start from.
    drain(
        replay.events[..resubmit_jobs]
            .iter()
            .map(submit_event)
            .collect(),
    );

    let seconds = start.elapsed().as_secs_f64();

    let reg = sched.registry_stats();
    let stats = sched.stats();
    let total_jobs = jobs + resubmit_jobs;
    let unique_matrices = replay.matrices.len();
    let dedup_hit_rate = reg.hit_rate();
    let [latency, queue_wait, solve] = split.summaries();

    let coalesce_bitwise_ok = cross_tenant_bitwise_check(
        &Arc::new(problems[0].0.clone()),
        &problems[0].1,
        sweeps,
        width,
    );
    eprintln!(
        "  zipf replay: {total_jobs} jobs ({jobs} cold + {resubmit_jobs} resubmit) over \
         {tenants} tenants, {unique_matrices} unique matrices, in {seconds:.3}s"
    );
    eprintln!(
        "    dedup hit rate {:.1}% ({} hits / {} misses), coalesced {} ({} cross-tenant), \
         warm-started {warm_started}, evictions {}, collisions {}",
        dedup_hit_rate * 100.0,
        reg.hits,
        reg.misses,
        stats.coalesced,
        stats.cross_tenant_coalesced,
        reg.evictions,
        reg.collisions,
    );

    report.gate(
        "zipf: jobs > 0 and tenants > 1",
        total_jobs > 0 && tenants > 1,
        (total_jobs, tenants),
    );
    report.gate(
        "zipf: unique_matrices * 2 < jobs",
        unique_matrices * 2 < total_jobs,
        (unique_matrices, total_jobs),
    );
    report.gate(
        "registry: dedup_hit_rate >= 0.5",
        dedup_hit_rate >= 0.5,
        dedup_hit_rate,
    );
    report.gate(
        "registry: hits > 0 and misses > 0",
        reg.hits > 0 && reg.misses > 0,
        (reg.hits, reg.misses),
    );
    report.gate(
        "registry: collisions == 0",
        reg.collisions == 0,
        reg.collisions,
    );
    report.gate(
        "registry: cross_tenant_coalesced > 0",
        stats.cross_tenant_coalesced > 0,
        stats.cross_tenant_coalesced,
    );
    report.gate("registry: warm_started > 0", warm_started > 0, warm_started);
    report.gate(
        "registry: coalesce_bitwise_ok",
        coalesce_bitwise_ok,
        "a cross-tenant coalesced solve differs from the solo dispatch",
    );

    obj! {
        "zipf_replay": obj! {
            "seed": seed,
            "zipf_s": replay.zipf_s,
            "jobs": total_jobs,
            "cold_jobs": jobs,
            "resubmit_jobs": resubmit_jobs,
            "tenants": tenants,
            "unique_matrices": unique_matrices,
            "seconds": seconds,
            "jobs_per_second": total_jobs as f64 / seconds,
            "latency_ms": latency.quantiles(),
            "queue_wait_ms": queue_wait.quantiles(),
            "solve_ms": solve.quantiles(),
        },
        "dedup_hit_rate": dedup_hit_rate,
        "coalescing_hit_rate": stats.coalesced as f64 / total_jobs as f64,
        "hits": reg.hits,
        "misses": reg.misses,
        "evictions": reg.evictions,
        "collisions": reg.collisions,
        "warm_starts": reg.warm_starts,
        "entries": reg.entries,
        "bytes": reg.bytes,
        "coalesced": stats.coalesced,
        "cross_tenant_coalesced": stats.cross_tenant_coalesced,
        "warm_started": warm_started,
        "coalesce_bitwise_ok": coalesce_bitwise_ok,
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_env("BENCH_serve.json");
    let smoke = report.smoke;
    let width = asyrgs_parallel::default_concurrency();
    let (jobs_per_tenant, sweeps, mixed_jobs) = if smoke { (2, 30, 1) } else { (8, 400, 4) };
    // Zipf replay scale: the full run replays >= 1k jobs over 256 tenants
    // (the issue's acceptance floor); smoke keeps the same shape tiny.
    let (zipf_jobs, zipf_tenants, zipf_resubmit, zipf_sweeps) = if smoke {
        (120, 32, 40, 20)
    } else {
        (2_000, 256, 500, 100)
    };

    // One shared problem for the throughput ladder: a corpus matrix big
    // enough that a job is milliseconds, small enough that 64 tenants'
    // batches stay snappy.
    let built = scenarios::find("diag_dominant_easy")
        .expect("registered")
        .build();
    let (a, b) = (Arc::new(built.a), built.b);

    eprintln!(
        "serve_runner: pool width {width}{}",
        if smoke { " (smoke)" } else { "" }
    );
    report.gate("pool_width >= 1", width >= 1, width);
    let throughput: Vec<Json> = [1usize, 8, 64]
        .into_iter()
        .map(|tenants| {
            throughput_section(&mut report, &a, &b, tenants, jobs_per_tenant, sweeps, width)
        })
        .collect();
    let mixed = mixed_traffic_section(&mut report, 16, mixed_jobs, sweeps, width);
    let registry = registry_section(
        &mut report,
        zipf_jobs,
        zipf_tenants,
        zipf_resubmit,
        zipf_sweeps,
        width,
    );
    report.finish(&obj! {
        "schema": "asyrgs-serve-v2",
        "smoke": smoke,
        "pool_width": width,
        "jobs_per_tenant": jobs_per_tenant,
        "sweeps_per_job": sweeps,
        "throughput": throughput,
        "mixed_traffic": mixed,
        "registry": registry,
    })
}
