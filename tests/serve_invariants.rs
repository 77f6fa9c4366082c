//! Serve invariants under seeded op sequences.
//!
//! Each seed drives a real `Scheduler` (two runners, a zero registry
//! budget, 1 ms retry backoff) through 24 jobs drawn from a fixed mix:
//! coalescable RGS, coalescable one-thread AsyRGS, CG, policy-routed
//! `SolveJob::auto`, CG cancelled right after submit, CG with a zero
//! deadline, and a health-armed AsyRGS job whose fault plan poisons an
//! update. Even seeds submit to a paused
//! scheduler; every fourth seed drops it before `resume`. After each seed
//! the driver checks what the service promises on every path:
//!
//! * every handle finishes (polled with a timeout, so a lost job fails
//!   the test instead of hanging it);
//! * a failed job hands back its `x0` bitwise;
//! * a successful RGS or one-thread AsyRGS job is bitwise a solo RGS
//!   session solve, whatever its `batch_size`;
//! * `completed == submitted`, and every completion is counted as exactly
//!   one of succeeded, cancelled, deadline-exceeded or quarantined;
//! * no registry pin outlives its job: with a zero byte budget an
//!   unpinned entry is evicted at once, so any leaked pin leaves an entry.
//!
//! Every failure names its seed.

use asyrgs::prelude::{FaultPlan, FaultSpec, HealthConfig};
use asyrgs::session::{SolverBuilder, SolverFamily};
use asyrgs::sparse::CsrMatrix;
use asyrgs_core::driver::Termination;
use asyrgs_core::error::SolveError;
use asyrgs_serve::{JobHandle, Scheduler, SchedulerConfig, SolveJob, TenantId};
use asyrgs_workloads::laplace2d;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: u64 = 16;
const JOBS_PER_SEED: usize = 24;
const TENANTS: u64 = 3;
/// How long a seed's jobs may take to finish before the job counts as lost.
const FINISH_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// RGS at `threads(1)` from a zero `x0` on a fresh copy of the matrix:
    /// admission dedups it onto the canonical `Arc`, so it can coalesce.
    Rgs,
    /// AsyRGS at `threads(1)`, otherwise as [`Kind::Rgs`]: one slot runs
    /// the paper's iteration sequentially, so it must give RGS's bits.
    AsyRgsT1,
    Cg,
    Auto,
    /// CG whose handle is cancelled right after submit.
    CancelledCg,
    /// CG with a `Duration::ZERO` deadline.
    ExpiredCg,
    /// Health-armed AsyRGS whose fault plan poisons the first update.
    Poisoned,
}

const KINDS: [Kind; 7] = [
    Kind::Rgs,
    Kind::AsyRgsT1,
    Kind::Cg,
    Kind::Auto,
    Kind::CancelledCg,
    Kind::ExpiredCg,
    Kind::Poisoned,
];

/// splitmix64: a tiny seeded generator for the op sequence.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// One system of the corpus: the matrix, its right-hand side, and what a
/// solo session solve of the RGS job returns.
struct System {
    a: Arc<CsrMatrix>,
    b: Vec<f64>,
    rgs_solo: Vec<f64>,
}

fn rgs_builder() -> SolverBuilder {
    SolverBuilder::new(SolverFamily::Rgs)
        .threads(1)
        .term(Termination::sweeps(20))
}

fn asyrgs_t1_builder() -> SolverBuilder {
    SolverBuilder::new(SolverFamily::AsyRgs)
        .threads(1)
        .term(Termination::sweeps(20))
}

fn cg_builder() -> SolverBuilder {
    SolverBuilder::new(SolverFamily::Cg).term(Termination::sweeps(200).with_target(1e-10))
}

fn systems() -> Vec<System> {
    [(3, 3), (4, 4), (5, 4), (6, 5)]
        .into_iter()
        .map(|(nx, ny)| {
            let a = laplace2d(nx, ny);
            let x_true: Vec<f64> = (0..a.n_rows()).map(|i| ((i * 5) % 7) as f64).collect();
            let b = a.matvec(&x_true);
            let mut rgs_solo = vec![0.0; a.n_rows()];
            rgs_builder()
                .build()
                .unwrap()
                .solve(&a, &b, &mut rgs_solo)
                .unwrap();
            System {
                a: Arc::new(a),
                b,
                rgs_solo,
            }
        })
        .collect()
}

/// A distinct sentinel iterate per job, so a failed job handing back some
/// other job's `x0` is caught as well as one handing back a written buffer.
fn sentinel(n: usize, job: usize) -> Vec<f64> {
    (0..n).map(|i| 42.25 + (i + 3 * job) as f64).collect()
}

struct Submitted {
    kind: Kind,
    system: usize,
    x0: Vec<f64>,
    handle: JobHandle,
}

fn job_for(kind: Kind, sys: &System, x0: Vec<f64>, seed: u64) -> SolveJob {
    match kind {
        Kind::Rgs => SolveJob::new(
            rgs_builder(),
            Arc::new(sys.a.as_ref().clone()),
            sys.b.clone(),
        ),
        Kind::AsyRgsT1 => SolveJob::new(
            asyrgs_t1_builder(),
            Arc::new(sys.a.as_ref().clone()),
            sys.b.clone(),
        ),
        Kind::Cg | Kind::CancelledCg => {
            SolveJob::new(cg_builder(), Arc::clone(&sys.a), sys.b.clone()).with_x0(x0)
        }
        Kind::ExpiredCg => SolveJob::new(cg_builder(), Arc::clone(&sys.a), sys.b.clone())
            .with_x0(x0)
            .with_deadline(Duration::ZERO),
        Kind::Auto => SolveJob::auto(Arc::clone(&sys.a), sys.b.clone()).with_x0(x0),
        Kind::Poisoned => {
            let plan = FaultPlan::new(seed).with_fault(FaultSpec::PoisonUpdate {
                worker: 0,
                round: 0,
                index: 0,
            });
            SolveJob::new(
                SolverBuilder::new(SolverFamily::AsyRgs)
                    .threads(2)
                    .term(Termination::sweeps(20))
                    .health(HealthConfig::non_finite_only())
                    .fault_plan(plan),
                Arc::clone(&sys.a),
                sys.b.clone(),
            )
            .with_x0(x0)
        }
    }
}

fn run_seed(seed: u64, systems: &[System]) {
    let paused = seed.is_multiple_of(2);
    let dropped = seed.is_multiple_of(4);
    let sched = Scheduler::new(SchedulerConfig {
        runners: 2,
        paused,
        registry_max_bytes: 0,
        retry_backoff_ms: 1,
        ..SchedulerConfig::default()
    });
    let mut rng = Rng(seed);
    let mut jobs = Vec::with_capacity(JOBS_PER_SEED);
    for j in 0..JOBS_PER_SEED {
        let kind = KINDS[rng.below(KINDS.len())];
        let system = rng.below(systems.len());
        let tenant = TenantId(1 + rng.below(TENANTS as usize) as u64);
        let sys = &systems[system];
        let x0 = if matches!(kind, Kind::Rgs | Kind::AsyRgsT1) {
            vec![0.0; sys.a.n_rows()]
        } else {
            sentinel(sys.a.n_rows(), j)
        };
        let job = job_for(kind, sys, x0.clone(), seed).with_tenant(tenant);
        let handle = sched
            .submit(job)
            .unwrap_or_else(|e| panic!("seed {seed}: job {j} ({kind:?}) refused: {e}"));
        if kind == Kind::CancelledCg {
            handle.cancel();
        }
        jobs.push(Submitted {
            kind,
            system,
            x0,
            handle,
        });
    }
    assert_eq!(
        sched.stats().submitted,
        JOBS_PER_SEED as u64,
        "seed {seed}: submitted"
    );
    if paused {
        assert_eq!(
            sched.queued(),
            JOBS_PER_SEED,
            "seed {seed}: a paused scheduler dispatched"
        );
    }

    let sched = if dropped {
        drop(sched);
        None
    } else {
        sched.resume();
        Some(sched)
    };
    let start = Instant::now();
    while !jobs.iter().all(|s| s.handle.is_finished()) {
        assert!(
            start.elapsed() < FINISH_TIMEOUT,
            "seed {seed}: a job never finished"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    for (j, s) in jobs.into_iter().enumerate() {
        let kind = s.kind;
        let out = s.handle.wait();
        let ctx = format!("seed {seed}: job {j} ({kind:?})");
        match &out.result {
            Ok(_) => {
                assert!(!dropped, "{ctx}: ran on a scheduler dropped before resume");
                if matches!(kind, Kind::Rgs | Kind::AsyRgsT1) {
                    assert_eq!(
                        out.x, systems[s.system].rgs_solo,
                        "{ctx}: batch_size {} is not bitwise the solo solve",
                        out.stats.batch_size
                    );
                }
            }
            Err(error) => {
                assert_eq!(out.x, s.x0, "{ctx}: failed with {error:?} but x is not x0");
            }
        }
        let expect_cancelled = dropped || (paused && kind == Kind::CancelledCg);
        if expect_cancelled {
            assert_eq!(
                out.result.as_ref().err(),
                Some(&SolveError::Cancelled),
                "{ctx}"
            );
            assert_eq!(out.stats.dispatch_seq, None, "{ctx}: dispatched");
            continue;
        }
        match kind {
            Kind::Rgs | Kind::AsyRgsT1 | Kind::Cg | Kind::Auto => {
                assert!(out.result.is_ok(), "{ctx}: {:?}", out.result);
            }
            Kind::CancelledCg => assert!(
                matches!(out.result, Ok(_) | Err(SolveError::Cancelled)),
                "{ctx}: {:?}",
                out.result
            ),
            Kind::ExpiredCg => assert!(
                matches!(out.result, Err(SolveError::DeadlineExceeded { .. })),
                "{ctx}: {:?}",
                out.result
            ),
            Kind::Poisoned => assert!(
                matches!(out.result, Err(SolveError::Quarantined { .. })),
                "{ctx}: {:?}",
                out.result
            ),
        }
    }

    // A dropped scheduler can no longer be asked; its jobs were all
    // checked above to end cancelled and undispatched.
    let Some(sched) = sched else { return };
    let st = sched.stats();
    assert_eq!(st.completed, st.submitted, "seed {seed}: {st:?}");
    assert_eq!(
        st.completed,
        st.succeeded + st.cancelled + st.deadline_exceeded + st.quarantined,
        "seed {seed}: an outcome was counted twice or not at all: {st:?}"
    );
    assert_eq!(
        sched.registry_stats().entries,
        0,
        "seed {seed}: a pin leaked"
    );
}

#[test]
fn every_job_ends_once_with_its_pin_released() {
    let systems = systems();
    for seed in 0..SEEDS {
        run_seed(seed, &systems);
    }
}
