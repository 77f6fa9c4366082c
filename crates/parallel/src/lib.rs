//! # asyrgs-parallel
//!
//! A std-only persistent worker pool — the parallel runtime under every
//! solver and kernel in the workspace.
//!
//! The paper's claim is that asynchronous randomized solvers win on
//! wall-clock by keeping cores busy; paying an OS thread spawn + join on
//! every epoch of every solver (and on every parallel matvec) throws that
//! advantage away. This crate replaces `std::thread::scope`-per-region
//! with long-lived parked workers:
//!
//! * [`WorkerPool`] — `t`-way concurrency backed by `t - 1` background
//!   threads (the caller participates as worker 0). An epoch transition is
//!   a condvar wake/park handshake (microseconds) instead of thread
//!   creation (hundreds of microseconds).
//! * [`WorkerPool::run`] — scoped fork-join: run a borrowed closure on
//!   `p` logical workers concurrently and wait. Panics in workers are
//!   forwarded to the caller.
//! * [`WorkerPool::for_each_chunk`] — data-parallel loop with **atomic
//!   chunk claiming** for load balance: workers race to claim fixed-size
//!   index chunks, so a straggler core cannot stall the whole range and
//!   chunk boundaries (hence any chunk-local arithmetic) are independent
//!   of the worker count.
//! * [`global`] — the lazily-initialized process-wide pool, sized by the
//!   `ASYRGS_THREADS` environment variable (or `available_parallelism`).
//! * [`pool_for`] — per-solver pool injection: borrows the global pool
//!   when it is wide enough for the requested concurrency, otherwise
//!   creates a dedicated pool **once per solve** (never per epoch).
//!
//! The crate depends on `std` only (the container build has no registry
//! access, ruling out rayon/crossbeam) and is deliberately tiny: one
//! mutex, two condvars, one generation counter.
//!
//! ## Safety model
//!
//! `run` erases the lifetime of the borrowed job closure to hand it to the
//! long-lived workers. Soundness rests on a strict scoped discipline: the
//! submitting call does not return (or unwind) until every participating
//! worker has finished the round, so the closure and everything it borrows
//! strictly outlive all uses. A per-thread flag rejects nested `run` calls
//! (which would corrupt the single job slot) by panicking.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased reference to the round's job closure.
///
/// `&T` is `Send` when `T: Sync`, so this alias is safe to hand to the
/// worker threads; the scoped wait in [`WorkerPool::run`] guarantees it is
/// never dereferenced after the borrow it came from expires.
type Job = &'static (dyn Fn(usize) + Sync);

/// State shared between the submitting thread and the background workers,
/// all guarded by one mutex.
struct Control {
    /// Round counter; workers sleep until it advances past what they saw.
    generation: u64,
    /// Logical workers participating in the current round (including the
    /// caller as worker 0).
    active: usize,
    /// The current round's job, present while a round is in flight.
    job: Option<Job>,
    /// Background participants that have not yet finished the round.
    remaining: usize,
    /// First panic payload captured from a worker this round.
    panic_payload: Option<Box<dyn Any + Send + 'static>>,
    /// Set by `Drop` to terminate the worker loops.
    shutdown: bool,
}

struct Shared {
    control: Mutex<Control>,
    // Lock note: rounds can forward panics, and a forwarded panic must not
    // poison these primitives for later rounds — all lock/wait sites go
    // through `lock_control` / the poison-tolerant waits below.
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The caller waits here for `remaining == 0`.
    done_cv: Condvar,
}

/// Poison-tolerant lock of the control block: a panic forwarded out of a
/// round leaves the control data consistent, so poisoning is ignored.
fn lock_control(shared: &Shared) -> std::sync::MutexGuard<'_, Control> {
    shared.control.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Whether the current thread is executing inside a pool round
    /// (worker or participating caller). Guards against nested `run`.
    static IN_POOL_ROUND: Cell<bool> = const { Cell::new(false) };
}

/// A persistent worker pool: `concurrency()`-way fork-join parallelism
/// from long-lived parked threads.
pub struct WorkerPool {
    shared: &'static Shared,
    handles: Vec<JoinHandle<()>>,
    /// Mutual exclusion between concurrent `run` submissions (e.g. two
    /// solves sharing the global pool from different threads).
    submit: Mutex<()>,
    concurrency: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("concurrency", &self.concurrency)
            .finish()
    }
}

impl WorkerPool {
    /// A pool providing `concurrency`-way parallelism: the caller plus
    /// `concurrency - 1` parked background threads (so
    /// `WorkerPool::new(1)` spawns nothing and runs everything inline).
    ///
    /// # Panics
    /// Panics if `concurrency == 0`.
    pub fn new(concurrency: usize) -> Self {
        assert!(concurrency >= 1, "pool needs at least one worker");
        // The shared block is leaked so worker threads can hold a plain
        // `&'static` to it; `Drop` shuts the workers down but the (tiny)
        // block itself is never reclaimed. Pools are created once per
        // process or once per solve, never per epoch, so this does not
        // accumulate meaningfully.
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            control: Mutex::new(Control {
                generation: 0,
                active: 0,
                job: None,
                remaining: 0,
                panic_payload: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        let handles = (1..concurrency)
            .map(|id| {
                std::thread::Builder::new()
                    .name(format!("asyrgs-pool-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            submit: Mutex::new(()),
            concurrency,
        }
    }

    /// The maximum number of logical workers a [`run`](Self::run) can use
    /// (caller included).
    #[inline]
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// Run `f(worker_id)` on `p` logical workers concurrently — worker 0
    /// is the calling thread, workers `1..p` are pool threads — and wait
    /// for all of them. This is the epoch primitive: one wake/park
    /// handshake instead of `p` thread spawns and joins.
    ///
    /// All `p` closures genuinely run concurrently, so job bodies may
    /// coordinate (e.g. a `Barrier` of `p` participants).
    ///
    /// A panic in any worker is re-raised on the caller after the round
    /// completes.
    ///
    /// # Panics
    /// Panics if `p == 0`, if `p > concurrency()`, or when called from
    /// inside a pool round (nested fork-join is not supported).
    pub fn run<F: Fn(usize) + Sync>(&self, p: usize, f: F) {
        assert!(p >= 1, "run: need at least one worker");
        if p == 1 {
            // Inline fast path: no locking, no handshake.
            f(0);
            return;
        }
        assert!(
            p <= self.concurrency,
            "run: requested {p} workers but the pool provides {}",
            self.concurrency
        );
        assert!(
            !IN_POOL_ROUND.with(|c| c.get()),
            "nested WorkerPool::run is not supported"
        );

        let round = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        // Lifetime erasure under the scoped discipline documented on the
        // crate: we wait for `remaining == 0` below before returning or
        // unwinding, so `f` outlives every dereference.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
        };
        {
            let mut c = lock_control(self.shared);
            c.generation += 1;
            c.active = p;
            c.job = Some(job);
            c.remaining = p - 1;
            self.shared.work_cv.notify_all();
        }
        // The caller is worker 0.
        IN_POOL_ROUND.with(|c| c.set(true));
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        IN_POOL_ROUND.with(|c| c.set(false));
        // Wait out the round even if worker 0 panicked: the workers still
        // hold the erased borrow of `f`.
        let mut c = lock_control(self.shared);
        while c.remaining > 0 {
            c = self
                .shared
                .done_cv
                .wait(c)
                .unwrap_or_else(|e| e.into_inner());
        }
        c.job = None;
        let worker_panic = c.panic_payload.take();
        drop(c);
        // Release the submission slot *before* re-raising, so a forwarded
        // panic cannot poison the pool for later rounds.
        drop(round);
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Data-parallel loop over `0..n_items` in chunks of `grain`: workers
    /// atomically claim the next unprocessed chunk and call
    /// `f(lo, hi)` for it. Chunk boundaries depend only on `n_items` and
    /// `grain` — never on the worker count — so chunk-local results are
    /// reproducible across pool sizes; claiming order provides dynamic
    /// load balance.
    ///
    /// Falls back to a single inline `f(0, n_items)`-equivalent loop when
    /// the range is too small to split or the pool has one worker, and to
    /// serial chunk iteration when called from inside a pool round.
    ///
    /// # Panics
    /// Panics if `grain == 0`. Worker panics are forwarded like
    /// [`run`](Self::run).
    pub fn for_each_chunk<F: Fn(usize, usize) + Sync>(&self, n_items: usize, grain: usize, f: F) {
        self.for_each_chunk_on(self.concurrency, n_items, grain, f);
    }

    /// [`for_each_chunk`](Self::for_each_chunk) on at most `p` workers
    /// (caller included) — for callers that own only `p` of the pool's
    /// workers, like a solve running at its configured thread count.
    /// Chunk boundaries are the same as at any other width; `p <= 1` runs
    /// the chunks inline. Panics as `for_each_chunk` does.
    pub fn for_each_chunk_on<F: Fn(usize, usize) + Sync>(
        &self,
        p: usize,
        n_items: usize,
        grain: usize,
        f: F,
    ) {
        assert!(grain > 0, "for_each_chunk: grain must be positive");
        if n_items == 0 {
            return;
        }
        let n_chunks = n_items.div_ceil(grain);
        let workers = p.min(self.concurrency).min(n_chunks);
        let serial = workers <= 1 || IN_POOL_ROUND.with(|c| c.get());
        if serial {
            for chunk in 0..n_chunks {
                let lo = chunk * grain;
                f(lo, (lo + grain).min(n_items));
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.run(workers, |_| loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks {
                break;
            }
            let lo = chunk * grain;
            f(lo, (lo + grain).min(n_items));
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = lock_control(self.shared);
            c.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The background worker body: park until a new generation, run the job if
/// participating, report completion, repeat.
fn worker_loop(shared: &'static Shared, id: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut c = lock_control(shared);
            loop {
                if c.shutdown {
                    return;
                }
                if c.generation != seen {
                    break;
                }
                c = shared.work_cv.wait(c).unwrap_or_else(|e| e.into_inner());
            }
            seen = c.generation;
            if id >= c.active {
                continue; // not participating this round
            }
            c.job.expect("job present while round in flight")
        };
        IN_POOL_ROUND.with(|c| c.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| job(id)));
        IN_POOL_ROUND.with(|c| c.set(false));
        let mut c = lock_control(shared);
        if let Err(payload) = result {
            if c.panic_payload.is_none() {
                c.panic_payload = Some(payload);
            }
        }
        c.remaining -= 1;
        if c.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A raw-pointer wrapper that is `Send + Sync`, for writing disjoint
/// regions of one output buffer from pool workers. The caller is
/// responsible for disjointness.
pub struct SendPtr<T>(pub *mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The region `[lo, hi)` of the underlying buffer as a mutable slice.
    ///
    /// # Safety
    /// The region must lie inside the allocation the pointer came from and
    /// must not overlap any other live reference (the disjoint-chunk
    /// discipline of [`WorkerPool::for_each_chunk`]).
    // The &mut-from-&self shape is the whole point of this wrapper: callers
    // uphold disjointness (see the safety contract), which is exactly what
    // the lint cannot see.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(lo), hi - lo)
    }

    /// Write `v` to slot `i`.
    ///
    /// # Safety
    /// Same contract as [`slice_mut`](Self::slice_mut): `i` must be in
    /// bounds and not concurrently aliased.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        *self.0.add(i) = v;
    }
}

/// Default concurrency for the process-wide pool: `ASYRGS_THREADS` when
/// set to a positive integer, otherwise `available_parallelism()`.
pub fn default_concurrency() -> usize {
    std::env::var("ASYRGS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The lazily-initialized process-wide pool (sized by
/// [`default_concurrency`]). First call pays the spawn cost; every later
/// parallel region is a wake/park handshake.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| WorkerPool::new(default_concurrency()))
}

/// A pool handle a solver runs on: either the borrowed global pool or a
/// dedicated pool owned for the duration of one solve.
pub enum SolvePool {
    /// The process-wide pool, wide enough for the requested concurrency.
    Global(&'static WorkerPool),
    /// A dedicated pool, created because the global pool is narrower than
    /// the solver's requested thread count. Spawned once per solve — never
    /// per epoch.
    Owned(WorkerPool),
}

impl std::ops::Deref for SolvePool {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        match self {
            SolvePool::Global(p) => p,
            SolvePool::Owned(p) => p,
        }
    }
}

/// The pool a solver requesting `threads`-way concurrency should run on:
/// the global pool when wide enough, otherwise a dedicated one.
pub fn pool_for(threads: usize) -> SolvePool {
    let g = global();
    if g.concurrency() >= threads {
        SolvePool::Global(g)
    } else {
        SolvePool::Owned(WorkerPool::new(threads))
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One injected fault in a [`FaultPlan`]. `round` is the pool round the
/// enclosing solve counts (an epoch for the asynchronous solvers, an
/// iteration for the sequential delay executor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Worker `worker` sleeps `millis` ms at the start of every round in
    /// `[round, round + span)` — a bounded stall (scheduling delay made
    /// explicit and deterministic in placement).
    StallWorker {
        /// The logical worker id the stall applies to.
        worker: usize,
        /// First affected round.
        round: u64,
        /// Number of consecutive affected rounds.
        span: u64,
        /// Sleep per affected round, in milliseconds.
        millis: u64,
    },
    /// Worker `worker` panics at the start of round `round` — a killed
    /// worker mid-epoch. The pool forwards the panic to the submitting
    /// caller after the round completes; the pool itself survives.
    KillWorker {
        /// The logical worker id to kill.
        worker: usize,
        /// The round at which the panic fires.
        round: u64,
    },
    /// A NaN is written into shared-iterate slot `index` during round
    /// `round` by worker `worker` — a poisoned update. Applied by the
    /// solver layer (the pool has no access to the iterate).
    PoisonUpdate {
        /// The logical worker id that performs the poisoned write.
        worker: usize,
        /// The round during which the write happens.
        round: u64,
        /// The iterate slot that receives the NaN.
        index: usize,
    },
    /// Worker `worker` sleeps `millis` ms at the start of **every** round
    /// — a persistently slow clock (one straggler thread/tenant).
    SlowClock {
        /// The logical worker id the slowdown applies to.
        worker: usize,
        /// Sleep per round, in milliseconds.
        millis: u64,
    },
}

/// A deterministic, seed-driven fault-injection schedule, honored by the
/// asynchronous solvers (pool-level faults through
/// [`FaultPlan::apply_pool_faults`], and poisoned updates) and the
/// sequential delay executor in `asyrgs-sim`.
///
/// The plan itself carries no randomness at injection time: every fault
/// names the worker and round it fires at, so two runs of the same plan
/// inject the same schedule. The `seed` parameterizes derived choices
/// (e.g. [`FaultPlan::pick`] for choosing a poison index) so harnesses
/// can sweep fault placements reproducibly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for derived deterministic choices (not used at fire time).
    pub seed: u64,
    /// The injected faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Add a fault to the schedule.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A deterministic value in `[0, bound)` derived from the seed and a
    /// caller-chosen salt (SplitMix64 finalizer) — for seed-driven fault
    /// placement without a third-party RNG.
    pub fn pick(&self, salt: u64, bound: u64) -> u64 {
        assert!(bound > 0, "pick: bound must be positive");
        let mut z = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    /// Apply the pool-level faults for `worker` at `round`: stalls and
    /// slow clocks sleep, a kill panics. The asynchronous solvers call it
    /// at the start of each worker's round body.
    ///
    /// # Panics
    /// Panics (by design) when a [`FaultSpec::KillWorker`] matches.
    pub fn apply_pool_faults(&self, worker: usize, round: u64) {
        for f in &self.faults {
            match *f {
                FaultSpec::StallWorker {
                    worker: w,
                    round: r,
                    span,
                    millis,
                } if w == worker && round >= r && round < r.saturating_add(span) => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                FaultSpec::SlowClock { worker: w, millis } if w == worker => {
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                FaultSpec::KillWorker {
                    worker: w,
                    round: r,
                } if w == worker && r == round => {
                    panic!("injected fault: worker {w} killed at round {r}");
                }
                _ => {}
            }
        }
    }

    /// The shared-iterate slot that `worker` poisons during `round`, if
    /// any. The solver layer performs the actual NaN write at a point of
    /// its choosing within the round.
    pub fn poison_for(&self, worker: usize, round: u64) -> Option<usize> {
        self.faults.iter().find_map(|f| match *f {
            FaultSpec::PoisonUpdate {
                worker: w,
                round: r,
                index,
            } if w == worker && r == round => Some(index),
            _ => None,
        })
    }

    /// Whether any stall fault covers sequential iteration `j` — the
    /// delay executor maps a stalled worker to maximal read staleness
    /// over the stalled span.
    pub fn stalls_iteration(&self, j: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, FaultSpec::StallWorker { round, span, .. }
                if j >= round && j < round.saturating_add(span))
        })
    }

    /// The slot poisoned at sequential iteration `j`, if any (worker ids
    /// are ignored by the sequential executor).
    pub fn poison_at_iteration(&self, j: u64) -> Option<usize> {
        self.faults.iter().find_map(|f| match *f {
            FaultSpec::PoisonUpdate { round, index, .. } if round == j => Some(index),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Slot leasing
// ---------------------------------------------------------------------------

/// Concurrency-slot accounting over a fixed budget — the primitive that
/// lets many independent solves *share* one machine's cores instead of
/// each assuming it owns the whole pool.
///
/// A scheduler sizes one accountant to the machine (typically
/// [`default_concurrency`]) and has every in-flight job hold a
/// [`SlotLease`] for the worker threads it is using; the sum of granted
/// slots never exceeds the budget, so co-scheduled solves cannot
/// oversubscribe the cores. Leases are **elastic**: a job asking for `k`
/// slots is granted `min(k, available)` — at least 1 — rather than
/// blocking until all `k` are free, which keeps latency bounded under
/// load (an asynchronous solver is correct at any thread count, so
/// shrinking a grant changes speed, never correctness).
///
/// ```
/// use asyrgs_parallel::SlotAccountant;
///
/// let acct = SlotAccountant::new(4);
/// let a = acct.lease_up_to(3);
/// assert_eq!(a.granted(), 3);
/// let b = acct.lease_up_to(3); // only 1 slot left: elastic shrink
/// assert_eq!(b.granted(), 1);
/// assert_eq!(acct.available(), 0);
/// drop(a);
/// assert_eq!(acct.available(), 3);
/// ```
#[derive(Debug)]
pub struct SlotAccountant {
    capacity: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl SlotAccountant {
    /// An accountant over `capacity` slots.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "slot accountant needs at least one slot");
        SlotAccountant {
            capacity,
            available: Mutex::new(capacity),
            freed: Condvar::new(),
        }
    }

    /// The fixed slot budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots not currently leased.
    pub fn available(&self) -> usize {
        *self.available.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lease between 1 and `want` slots: blocks while no slot is free,
    /// then grants `min(want, available)` without waiting for more to
    /// free up (see the type docs for why elastic grants are the right
    /// policy for asynchronous solvers).
    ///
    /// # Panics
    /// Panics if `want == 0`.
    pub fn lease_up_to(&self, want: usize) -> SlotLease<'_> {
        assert!(want >= 1, "lease_up_to: need at least one slot");
        let mut avail = self.available.lock().unwrap_or_else(|e| e.into_inner());
        while *avail == 0 {
            avail = self.freed.wait(avail).unwrap_or_else(|e| e.into_inner());
        }
        let granted = want.min(*avail);
        *avail -= granted;
        SlotLease {
            acct: self,
            granted,
        }
    }
}

/// An RAII grant of concurrency slots from a [`SlotAccountant`]; dropping
/// it returns the slots and wakes blocked leasers.
#[derive(Debug)]
pub struct SlotLease<'a> {
    acct: &'a SlotAccountant,
    granted: usize,
}

impl SlotLease<'_> {
    /// How many slots this lease holds (between 1 and the requested
    /// count).
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for SlotLease<'_> {
    fn drop(&mut self) {
        let mut avail = self
            .acct
            .available
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *avail += self.granted;
        self.acct.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn run_executes_every_worker_id_exactly_once() {
        let pool = WorkerPool::new(4);
        for p in 1..=4 {
            let hits: Vec<AtomicUsize> = (0..p).map(|_| AtomicUsize::new(0)).collect();
            pool.run(p, |w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "worker {w} of {p}");
            }
        }
    }

    #[test]
    fn run_is_genuinely_concurrent() {
        // A barrier of p participants only passes if all p run at once.
        let pool = WorkerPool::new(3);
        let barrier = Barrier::new(3);
        let passed = AtomicUsize::new(0);
        pool.run(3, |_| {
            barrier.wait();
            passed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(passed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn rounds_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(2, |w| {
                total.fetch_add(w as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn for_each_chunk_covers_ragged_ranges() {
        let pool = WorkerPool::new(3);
        for n in [0usize, 1, 7, 64, 65, 1000, 1023, 1025] {
            let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_chunk(n, 64, |lo, hi| {
                for cell in &seen[lo..hi] {
                    cell.fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, cell) in seen.iter().enumerate() {
                assert_eq!(cell.load(Ordering::Relaxed), 1, "index {i} of {n}");
            }
        }
    }

    #[test]
    fn chunk_boundaries_independent_of_worker_count() {
        let n = 1000;
        let grain = 64;
        let collect = |pool: &WorkerPool| {
            let mutex = Mutex::new(Vec::new());
            pool.for_each_chunk(n, grain, |lo, hi| mutex.lock().unwrap().push((lo, hi)));
            let mut v = mutex.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        let p1 = WorkerPool::new(1);
        let p3 = WorkerPool::new(3);
        assert_eq!(collect(&p1), collect(&p3));
    }

    #[test]
    fn worker_panic_is_forwarded() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |w| {
                if w == 1 {
                    panic!("boom from worker");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and runs later rounds.
        let ok = AtomicUsize::new(0);
        pool.run(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn nested_run_panics_with_clear_message() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |_| {
                pool.run(2, |_| {});
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("nested"), "got {msg:?}");
    }

    #[test]
    fn nested_for_each_chunk_degrades_to_serial() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        pool.run(2, |w| {
            if w == 0 {
                pool.for_each_chunk(100, 10, |lo, hi| {
                    count.fetch_add(hi - lo, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_pool_spawns_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.concurrency(), 1);
        assert!(pool.handles.is_empty());
        let ran = AtomicUsize::new(0);
        pool.run(1, |w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "requested 5 workers")]
    fn run_rejects_oversubscription() {
        let pool = WorkerPool::new(2);
        pool.run(5, |_| {});
    }

    #[test]
    fn pool_for_matches_request() {
        let p = pool_for(1);
        assert!(p.concurrency() >= 1);
        let wide = pool_for(global().concurrency() + 3);
        assert!(matches!(wide, SolvePool::Owned(_)));
        assert_eq!(wide.concurrency(), global().concurrency() + 3);
    }

    #[test]
    fn concurrent_submissions_from_two_threads_serialize() {
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(2, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 2 submitting threads x 50 rounds x 2 workers per round.
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn default_concurrency_is_positive() {
        assert!(default_concurrency() >= 1);
    }

    #[test]
    fn slot_leases_never_oversubscribe_and_shrink_elastically() {
        let acct = SlotAccountant::new(3);
        assert_eq!(acct.capacity(), 3);
        let a = acct.lease_up_to(2);
        assert_eq!(a.granted(), 2);
        let b = acct.lease_up_to(4);
        assert_eq!(b.granted(), 1, "elastic: grants what is free, not 4");
        assert_eq!(acct.available(), 0);
        drop(b);
        assert_eq!(acct.available(), 1);
        drop(a);
        assert_eq!(acct.available(), 3);
    }

    #[test]
    fn lease_blocks_until_a_slot_frees() {
        let acct = std::sync::Arc::new(SlotAccountant::new(1));
        let first = acct.lease_up_to(1);
        let acct2 = std::sync::Arc::clone(&acct);
        let waiter = std::thread::spawn(move || acct2.lease_up_to(1).granted());
        // Give the waiter time to block, then free the slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(first);
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn concurrent_leasing_conserves_the_budget() {
        let acct = std::sync::Arc::new(SlotAccountant::new(4));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let in_use = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let acct = std::sync::Arc::clone(&acct);
                let peak = std::sync::Arc::clone(&peak);
                let in_use = std::sync::Arc::clone(&in_use);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let lease = acct.lease_up_to(2);
                        let now =
                            in_use.fetch_add(lease.granted(), Ordering::SeqCst) + lease.granted();
                        peak.fetch_max(now, Ordering::SeqCst);
                        in_use.fetch_sub(lease.granted(), Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4, "budget exceeded");
        assert_eq!(acct.available(), 4);
    }
}
