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
//! Usage:
//! ```text
//! serve_runner [OUTPUT_PATH]        (default: BENCH_serve.json)
//! ```
//! Environment:
//! `ASYRGS_BENCH_SMOKE=1` — tiny job counts/budgets (CI);
//! `ASYRGS_THREADS=N` — global pool width (also sizes runners/slots).

use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs_core::driver::{Recording, Termination};
use asyrgs_core::error::SolveError;
use asyrgs_serve::{JobHandle, JobStats, Scheduler, SchedulerConfig, SolveJob, TenantId};
use asyrgs_sparse::CsrMatrix;
use asyrgs_workloads::scenarios;
use asyrgs_workloads::traffic::{mixed_tenant_mix, zipf_hot_matrix_replay};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency percentiles in milliseconds.
struct LatencyMs {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

fn percentiles(latencies: &mut [Duration]) -> LatencyMs {
    latencies.sort_unstable();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let at = |q: f64| {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        ms(latencies[idx])
    };
    LatencyMs {
        p50: at(0.50),
        p90: at(0.90),
        p99: at(0.99),
        max: latencies.last().copied().map(ms).unwrap_or(0.0),
    }
}

/// Admission-to-completion latency with its queue-wait/solve-time
/// components kept separate. The scheduler admits benchmark batches all
/// at once, so the total is dominated by queue wait — reporting only the
/// sum made p50 ≈ p99 ≈ max at low tenancy and hid the actual service
/// time entirely.
struct LatencySplit {
    total: Vec<Duration>,
    queue_wait: Vec<Duration>,
    solve: Vec<Duration>,
}

impl LatencySplit {
    fn with_capacity(n: usize) -> Self {
        LatencySplit {
            total: Vec::with_capacity(n),
            queue_wait: Vec::with_capacity(n),
            solve: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, stats: &JobStats) {
        self.total.push(stats.queued + stats.service);
        self.queue_wait.push(stats.queued);
        self.solve.push(stats.service);
    }

    fn percentiles(mut self) -> (LatencyMs, LatencyMs, LatencyMs) {
        (
            percentiles(&mut self.total),
            percentiles(&mut self.queue_wait),
            percentiles(&mut self.solve),
        )
    }
}

struct ThroughputRow {
    tenants: usize,
    jobs: usize,
    scheduler_seconds: f64,
    sequential_seconds: f64,
    speedup: f64,
    jobs_per_second: f64,
    latency: LatencyMs,
    queue_wait: LatencyMs,
    solve: LatencyMs,
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
    a: &Arc<CsrMatrix>,
    b: &[f64],
    tenants: usize,
    jobs_per_tenant: usize,
    sweeps: usize,
    width: usize,
) -> ThroughputRow {
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
    let mut split = LatencySplit::with_capacity(jobs);
    for h in handles {
        let out = h.wait();
        out.result.expect("fixed-sweep jobs cannot fail");
        split.push(&out.stats);
    }
    let scheduler_seconds = sched_start.elapsed().as_secs_f64();
    let (latency, queue_wait, solve) = split.percentiles();

    ThroughputRow {
        tenants,
        jobs,
        scheduler_seconds,
        sequential_seconds,
        speedup: sequential_seconds / scheduler_seconds,
        jobs_per_second: jobs as f64 / scheduler_seconds,
        latency,
        queue_wait,
        solve,
    }
}

struct MixedRow {
    tenants: usize,
    jobs: usize,
    succeeded: u64,
    deadline_expired: u64,
    cancelled: u64,
    seconds: f64,
    latency: LatencyMs,
    queue_wait: LatencyMs,
    solve: LatencyMs,
}

fn mixed_traffic_section(
    tenants: usize,
    jobs_per_tenant: usize,
    sweeps: usize,
    width: usize,
) -> MixedRow {
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
    let mut split = LatencySplit::with_capacity(handles.len());
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
    let (latency, queue_wait, solve) = split.percentiles();
    MixedRow {
        tenants,
        jobs,
        succeeded,
        deadline_expired,
        cancelled,
        seconds,
        latency,
        queue_wait,
        solve,
    }
}

/// Zipf hot-matrix replay results plus the registry/scheduler counters
/// accumulated while serving it.
struct RegistrySection {
    seed: u64,
    zipf_s: f64,
    cold_jobs: usize,
    resubmit_jobs: usize,
    tenants: usize,
    unique_matrices: usize,
    seconds: f64,
    jobs_per_second: f64,
    latency: LatencyMs,
    queue_wait: LatencyMs,
    solve: LatencyMs,
    warm_started_jobs: u64,
    dedup_hit_rate: f64,
    coalescing_hit_rate: f64,
    reg: asyrgs_serve::RegistryStats,
    sched: asyrgs_serve::SchedulerStats,
    coalesce_bitwise_ok: bool,
}

impl RegistrySection {
    fn total_jobs(&self) -> usize {
        self.cold_jobs + self.resubmit_jobs
    }
}

/// Bitwise cross-check of the PR 4 coalescing invariant, now across
/// tenants: several tenants submit bitwise-identical (but separately
/// materialized) copies of one matrix through a paused scheduler, the
/// registry dedups them onto one canonical `Arc`, coalescing merges them
/// into one block dispatch — and every returned solution must equal the
/// solo-dispatch solution bit for bit.
fn cross_tenant_bitwise_check(
    a: &Arc<CsrMatrix>,
    b: &[f64],
    sweeps: usize,
    width: usize,
) -> (bool, u64) {
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
    (ok, sched.stats().cross_tenant_coalesced)
}

fn registry_section(
    jobs: usize,
    tenants: usize,
    resubmit_jobs: usize,
    sweeps: usize,
    width: usize,
) -> RegistrySection {
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
    let mut split = LatencySplit::with_capacity(jobs + resubmit_jobs);
    let mut warm_started_jobs = 0u64;
    let mut drain = |handles: Vec<JobHandle>| {
        for h in handles {
            let out = h.wait();
            out.result.expect("fixed-sweep jobs cannot fail");
            if out.stats.warm_started {
                warm_started_jobs += 1;
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
    let (latency, queue_wait, solve) = split.percentiles();

    let (coalesce_bitwise_ok, _) = cross_tenant_bitwise_check(
        &Arc::new(problems[0].0.clone()),
        &problems[0].1,
        sweeps,
        width,
    );

    RegistrySection {
        seed,
        zipf_s: replay.zipf_s,
        cold_jobs: jobs,
        resubmit_jobs,
        tenants,
        unique_matrices: replay.matrices.len(),
        seconds,
        jobs_per_second: total_jobs as f64 / seconds,
        latency,
        queue_wait,
        solve,
        warm_started_jobs,
        dedup_hit_rate: reg.hit_rate(),
        coalescing_hit_rate: stats.coalesced as f64 / total_jobs as f64,
        reg,
        sched: stats,
        coalesce_bitwise_ok,
    }
}

fn latency_json(l: &LatencyMs) -> String {
    format!(
        "{{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}",
        l.p50, l.p90, l.p99, l.max
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let smoke = std::env::var("ASYRGS_BENCH_SMOKE").as_deref() == Ok("1");
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
    let mut rows = Vec::new();
    for tenants in [1usize, 8, 64] {
        let row = throughput_section(&a, &b, tenants, jobs_per_tenant, sweeps, width);
        eprintln!(
            "  {:>2} tenants x {:>2} jobs: scheduler {:.3}s vs sequential {:.3}s -> {:.2}x \
             ({:.0} jobs/s, p99 {:.1} ms = queue {:.1} + solve {:.1})",
            row.tenants,
            jobs_per_tenant,
            row.scheduler_seconds,
            row.sequential_seconds,
            row.speedup,
            row.jobs_per_second,
            row.latency.p99,
            row.queue_wait.p99,
            row.solve.p99,
        );
        rows.push(row);
    }

    let mixed = mixed_traffic_section(16, mixed_jobs, sweeps, width);
    eprintln!(
        "  mixed traffic: {} jobs over {} tenants in {:.3}s ({} ok, {} deadline-expired, {} cancelled)",
        mixed.jobs, mixed.tenants, mixed.seconds, mixed.succeeded, mixed.deadline_expired, mixed.cancelled
    );

    let registry = registry_section(zipf_jobs, zipf_tenants, zipf_resubmit, zipf_sweeps, width);
    assert!(
        registry.coalesce_bitwise_ok,
        "cross-tenant coalesced solve diverged bitwise from solo dispatch"
    );
    eprintln!(
        "  zipf replay: {} jobs ({} cold + {} resubmit) over {} tenants, \
         {} unique matrices, in {:.3}s",
        registry.total_jobs(),
        registry.cold_jobs,
        registry.resubmit_jobs,
        registry.tenants,
        registry.unique_matrices,
        registry.seconds,
    );
    eprintln!(
        "    dedup hit rate {:.1}% ({} hits / {} misses), coalesced {} ({} cross-tenant), \
         warm-started {}, evictions {}, collisions {}",
        registry.dedup_hit_rate * 100.0,
        registry.reg.hits,
        registry.reg.misses,
        registry.sched.coalesced,
        registry.sched.cross_tenant_coalesced,
        registry.warm_started_jobs,
        registry.reg.evictions,
        registry.reg.collisions,
    );

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"asyrgs-serve-v2\",");
    let _ = writeln!(j, "  \"smoke\": {smoke},");
    let _ = writeln!(j, "  \"pool_width\": {width},");
    let _ = writeln!(j, "  \"jobs_per_tenant\": {jobs_per_tenant},");
    let _ = writeln!(j, "  \"sweeps_per_job\": {sweeps},");
    let _ = writeln!(j, "  \"throughput\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"tenants\": {}, \"jobs\": {}, \"scheduler_seconds\": {:.6e}, \
             \"sequential_seconds\": {:.6e}, \"speedup\": {:.3}, \"jobs_per_second\": {:.2}, \
             \"latency_ms\": {}, \"queue_wait_ms\": {}, \"solve_ms\": {}}}{}",
            r.tenants,
            r.jobs,
            r.scheduler_seconds,
            r.sequential_seconds,
            r.speedup,
            r.jobs_per_second,
            latency_json(&r.latency),
            latency_json(&r.queue_wait),
            latency_json(&r.solve),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"mixed_traffic\": {{\"tenants\": {}, \"jobs\": {}, \"succeeded\": {}, \
         \"deadline_expired\": {}, \"cancelled\": {}, \"seconds\": {:.6e}, \"latency_ms\": {}, \
         \"queue_wait_ms\": {}, \"solve_ms\": {}}},",
        mixed.tenants,
        mixed.jobs,
        mixed.succeeded,
        mixed.deadline_expired,
        mixed.cancelled,
        mixed.seconds,
        latency_json(&mixed.latency),
        latency_json(&mixed.queue_wait),
        latency_json(&mixed.solve),
    );
    let _ = writeln!(j, "  \"registry\": {{");
    let _ = writeln!(
        j,
        "    \"zipf_replay\": {{\"seed\": {}, \"zipf_s\": {:.2}, \"jobs\": {}, \
         \"cold_jobs\": {}, \"resubmit_jobs\": {}, \"tenants\": {}, \
         \"unique_matrices\": {}, \"seconds\": {:.6e}, \"jobs_per_second\": {:.2}, \
         \"latency_ms\": {}, \"queue_wait_ms\": {}, \"solve_ms\": {}}},",
        registry.seed,
        registry.zipf_s,
        registry.total_jobs(),
        registry.cold_jobs,
        registry.resubmit_jobs,
        registry.tenants,
        registry.unique_matrices,
        registry.seconds,
        registry.jobs_per_second,
        latency_json(&registry.latency),
        latency_json(&registry.queue_wait),
        latency_json(&registry.solve),
    );
    let _ = writeln!(
        j,
        "    \"dedup_hit_rate\": {:.4}, \"coalescing_hit_rate\": {:.4},",
        registry.dedup_hit_rate, registry.coalescing_hit_rate,
    );
    let _ = writeln!(
        j,
        "    \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"collisions\": {}, \
         \"warm_starts\": {}, \"entries\": {}, \"bytes\": {},",
        registry.reg.hits,
        registry.reg.misses,
        registry.reg.evictions,
        registry.reg.collisions,
        registry.reg.warm_starts,
        registry.reg.entries,
        registry.reg.bytes,
    );
    let _ = writeln!(
        j,
        "    \"coalesced\": {}, \"cross_tenant_coalesced\": {}, \"warm_started\": {},",
        registry.sched.coalesced, registry.sched.cross_tenant_coalesced, registry.warm_started_jobs,
    );
    let _ = writeln!(
        j,
        "    \"coalesce_bitwise_ok\": {}",
        registry.coalesce_bitwise_ok
    );
    j.push_str("  }\n");
    j.push_str("}\n");

    std::fs::write(&out_path, &j).expect("failed to write bench output");
    eprintln!("serve_runner: wrote {out_path}");

    // Structural self-check so the CI smoke job fails loudly on a broken
    // emitter, mirroring bench_runner/scenario_runner.
    let parsed = std::fs::read_to_string(&out_path).expect("reread failed");
    assert!(
        parsed.matches('{').count() == parsed.matches('}').count()
            && parsed.contains("\"throughput\"")
            && parsed.contains("\"registry\"")
            && parsed.contains("\"queue_wait_ms\""),
        "serve bench output failed self-check"
    );
}
