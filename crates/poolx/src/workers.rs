//! Per-PE compute worker pools for morsel-driven intra-fragment
//! parallelism.
//!
//! The paper pins one POOL-X process per PE; PR 6 keeps that actor model
//! for everything *between* PEs and adds HyPer-style morsel parallelism
//! *inside* a PE: a large fragment's scan/filter/probe/fold work is cut
//! into morsels (`prisma_relalg::morsel`) and run on a small pool of
//! compute workers that share work-stealing deques. The pool never touches
//! the wire — all cross-PE communication still flows through
//! [`crate::PoolRuntime`] messages, so the streaming protocol and the
//! traffic ledger are unaffected.
//!
//! A pool of width `w` is **the calling thread plus `w − 1` helper
//! threads**. [`WorkerPool::run`] does not sleep while its jobs are
//! queued: the caller is worker 0 and takes jobs beside its helpers, so a
//! call no helper reaches in time costs about what running its jobs inline
//! would, and a width-2 pool is one extra thread, not two.
//!
//! Scheduling shape (per pool):
//!
//! * each worker slot owns a **mailbox** ([`crossbeam::deque::Injector`])
//!   that `run` scatters jobs into round-robin;
//! * a helper drains its mailbox into a private **LIFO deque**
//!   ([`crossbeam::deque::Worker`]), pops its own deque first
//!   (cache-warm), then steals — a sibling's mailbox, then a helper
//!   sibling's deque, FIFO from the cold end — so a straggler's backlog is
//!   rebalanced automatically;
//! * the caller owns no deque (several threads may call `run` on one pool
//!   at once): it takes its own mailbox oldest first, then steals the same
//!   way, and once nothing is queued it sleeps until the last of its jobs
//!   still running on a helper finishes;
//! * `run` returns only after every job of the call has finished, which
//!   is what lets jobs borrow from the caller's stack (scoped execution).
//!
//! Every slot keeps cumulative counters (morsels executed, successful
//! steals, busy nanoseconds; slot 0 meters the callers) that the GDH
//! executor snapshots into `ExecMetrics` and the `e9_parallel` bench uses
//! to compute scaling.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

/// A unit of work: one morsel's worth of compute.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type StaticJob = Box<dyn FnOnce() + Send + 'static>;

/// Completion state of one `run` call.
struct BatchState {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
    panicked: AtomicBool,
}

struct Task {
    job: StaticJob,
    batch: Arc<BatchState>,
}

/// Cumulative counters for one pool (or one pool's worker).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker slots in the pool: the calling thread and its helpers.
    pub workers: usize,
    /// Morsels (jobs) executed since the pool started.
    pub morsels: u64,
    /// Jobs taken from another slot's mailbox or deque.
    pub steals: u64,
    /// Per-slot busy time in nanoseconds — the CPU time its jobs used —
    /// index = worker id; slot 0 is the callers'. The max entry is the
    /// pool's critical path; the sum is total work done.
    pub busy_nanos: Vec<u64>,
}

impl PoolStats {
    /// Total busy nanoseconds across all workers.
    pub fn busy_total(&self) -> u64 {
        self.busy_nanos.iter().sum()
    }

    /// The slowest worker's busy nanoseconds — the pool's critical path.
    pub fn busy_max(&self) -> u64 {
        self.busy_nanos.iter().copied().max().unwrap_or(0)
    }
}

struct PoolShared {
    /// One per worker slot; slot 0 is the caller's.
    mailboxes: Vec<Injector<Task>>,
    /// Helper `h`'s deque is `stealers[h - 1]`: the caller owns none.
    stealers: Vec<Stealer<Task>>,
    epoch: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
    morsels: AtomicU64,
    steals: AtomicU64,
    busy_nanos: Vec<AtomicU64>,
}

impl PoolShared {
    /// Grab one queued task for slot `me` from its siblings' backlogs —
    /// each one's mailbox, then its deque; counts every take as a steal.
    fn steal_for(&self, me: usize) -> Option<Task> {
        crossbeam::hooks::probe("pool.steal");
        let n = self.mailboxes.len();
        for off in 1..n {
            let victim = (me + off) % n;
            let deque = victim.checked_sub(1).map(|h| &self.stealers[h]);
            if let Some(t) = success(self.mailboxes[victim].steal())
                .or_else(|| deque.and_then(|d| success(d.steal())))
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// One round of helper `me`'s task-acquisition discipline: drain the
    /// own mailbox into the private LIFO deque, pop the hot end, else
    /// steal from a sibling (mailbox first, then deque, FIFO). This is
    /// the scheduling core of [`worker_loop`], factored out so checkx's
    /// interleaving explorer can drive the *same* code one acquisition
    /// at a time instead of testing a re-model of it.
    fn next_task(&self, me: usize, local: &Worker<Task>) -> Option<Task> {
        crossbeam::hooks::probe("pool.drain");
        while let Steal::Success(t) = self.mailboxes[me].steal() {
            local.push(t);
        }
        crossbeam::hooks::probe("pool.pop");
        local.pop().or_else(|| self.steal_for(me))
    }

    /// The caller's acquisition round: its own mailbox, oldest first,
    /// else a steal.
    fn caller_task(&self) -> Option<Task> {
        crossbeam::hooks::probe("pool.caller");
        success(self.mailboxes[0].steal()).or_else(|| self.steal_for(0))
    }
}

fn success(steal: Steal<Task>) -> Option<Task> {
    match steal {
        Steal::Success(t) => Some(t),
        _ => None,
    }
}

/// What one step of the caller's side of [`WorkerPool::run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerStep {
    /// Took a queued job and ran it.
    Ran,
    /// Nothing is queued, but some of the call's jobs still run on
    /// helpers: the caller sleeps until the last of them finishes.
    Wait,
    /// Every job of the call has finished, and `run` returns — re-raising
    /// a job's panic when `panicked`.
    Done {
        /// Whether some job of the call panicked.
        panicked: bool,
    },
}

/// One step of the caller's side of `run` over `batch`: the loop body of
/// [`WorkerPool::run`] and of [`PoolHarness::caller_step`] alike.
fn caller_step(shared: &PoolShared, batch: &BatchState) -> CallerStep {
    if batch.remaining.load(Ordering::Acquire) > 0 {
        match shared.caller_task() {
            Some(task) => {
                run_task(0, task, shared);
                return CallerStep::Ran;
            }
            None if batch.remaining.load(Ordering::Acquire) > 0 => return CallerStep::Wait,
            None => {}
        }
    }
    CallerStep::Done {
        panicked: batch.panicked.load(Ordering::Acquire),
    }
}

/// Build the queue fabric for a pool of `width` slots: the shared state
/// plus each helper's private LIFO deque (handed to its thread — or to
/// the checkx harness driving the discipline without threads).
fn build_shared(width: usize) -> (Arc<PoolShared>, Vec<Worker<Task>>) {
    let locals: Vec<Worker<Task>> = (1..width).map(|_| Worker::new_lifo()).collect();
    let shared = Arc::new(PoolShared {
        mailboxes: (0..width).map(|_| Injector::new()).collect(),
        stealers: locals.iter().map(|w| w.stealer()).collect(),
        epoch: Mutex::new(0),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
        morsels: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        busy_nanos: (0..width).map(|_| AtomicU64::new(0)).collect(),
    });
    (shared, locals)
}

/// Scatter `jobs` round-robin across the mailboxes starting at `rr0`,
/// all tied to one fresh [`BatchState`].
fn scatter(shared: &PoolShared, jobs: Vec<StaticJob>, rr0: usize) -> Arc<BatchState> {
    let batch = Arc::new(BatchState {
        remaining: AtomicUsize::new(jobs.len()),
        lock: Mutex::new(()),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    let n = shared.mailboxes.len();
    for (i, job) in jobs.into_iter().enumerate() {
        let task = Task {
            job,
            batch: Arc::clone(&batch),
        };
        shared.mailboxes[(rr0 + i) % n].push(task);
    }
    batch
}

fn stats_of(shared: &PoolShared) -> PoolStats {
    PoolStats {
        workers: shared.mailboxes.len(),
        morsels: shared.morsels.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        busy_nanos: shared
            .busy_nanos
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
    }
}

/// A pool of compute workers for one PE. Created via [`WorkerPool::new`];
/// dropping the pool shuts the helpers down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_rr: AtomicUsize,
}

impl WorkerPool {
    /// A pool of width `workers` (clamped to ≥ 1): the thread that calls
    /// [`run`](Self::run) is worker 0, and `workers − 1` helper threads
    /// are spawned beside it.
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let (shared, locals) = build_shared(workers.max(1));
        let threads = locals
            .into_iter()
            .zip(1..)
            .map(|(local, id)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ofm-worker-{id}"))
                    .spawn(move || worker_loop(id, local, shared))
                    .expect("spawn ofm worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            threads: Mutex::new(threads),
            next_rr: AtomicUsize::new(0),
        })
    }

    /// Pool width: the calling thread and its helpers.
    pub fn workers(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Execute `jobs` on the pool — the calling thread taking its share —
    /// and return once all of them have finished.
    ///
    /// Jobs may borrow from the caller's stack: the call does not return
    /// until every job has run, so the borrows outlive all uses. If a job
    /// panics, the remaining jobs still drain and the panic is re-raised
    /// here on the caller's thread.
    pub fn run<'scope>(&self, jobs: Vec<Job<'scope>>) {
        if jobs.is_empty() {
            return;
        }
        // SAFETY: the jobs are erased to 'static only so they can sit in
        // the shared queues; this function returns only once
        // `batch.remaining` is zero (`CallerStep::Done`), i.e. once every
        // job has finished executing, so no borrow they capture is used
        // after it expires.
        let jobs: Vec<StaticJob> = unsafe { std::mem::transmute(jobs) };
        let rr0 = self.next_rr.fetch_add(jobs.len(), Ordering::Relaxed);
        let batch = scatter(&self.shared, jobs, rr0);
        if self.workers() > 1 {
            let mut epoch = self.shared.epoch.lock();
            *epoch += 1;
            self.shared.wake.notify_all();
        }
        loop {
            match caller_step(&self.shared, &batch) {
                CallerStep::Ran => {}
                CallerStep::Wait => {
                    let mut guard = batch.lock.lock();
                    while batch.remaining.load(Ordering::Acquire) > 0 {
                        batch.done.wait(&mut guard);
                    }
                }
                CallerStep::Done { panicked } => {
                    if panicked {
                        panic!("a morsel job panicked on an ofm worker");
                    }
                    return;
                }
            }
        }
    }

    /// Snapshot of the pool's cumulative counters.
    pub fn stats(&self) -> PoolStats {
        stats_of(&self.shared)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut epoch = self.shared.epoch.lock();
            *epoch += 1;
            self.shared.wake.notify_all();
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(id: usize, local: Worker<Task>, shared: Arc<PoolShared>) {
    loop {
        // Remember the wake epoch *before* scanning the queues so a
        // submission racing with the scan is never missed: it bumps the
        // epoch, and the wait below notices.
        let seen = *shared.epoch.lock();
        let mut progressed = false;
        while let Some(task) = shared.next_task(id, &local) {
            progressed = true;
            run_task(id, task, &shared);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if !progressed {
            crossbeam::hooks::probe("pool.park");
            let mut epoch = shared.epoch.lock();
            while *epoch == seen && !shared.shutdown.load(Ordering::Acquire) {
                shared.wake.wait(&mut epoch);
            }
        }
    }
}

fn run_task(id: usize, task: Task, shared: &PoolShared) {
    let started = busy_clock();
    let outcome = panic::catch_unwind(AssertUnwindSafe(task.job));
    let elapsed = busy_clock().saturating_sub(started);
    shared.busy_nanos[id].fetch_add(elapsed, Ordering::Relaxed);
    shared.morsels.fetch_add(1, Ordering::Relaxed);
    if outcome.is_err() {
        task.batch.panicked.store(true, Ordering::Release);
    }
    if task.batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _guard = task.batch.lock.lock();
        task.batch.done.notify_all();
    }
}

/// The clock a job's busy time is read from, in nanoseconds: the CPU time
/// the calling thread has used. A morsel runs for milliseconds, long
/// enough that a host with fewer free cores than pool threads preempts it
/// mid-job; on the wall clock the job would be charged the time it waited
/// for a core, and a pool wider than the host would look busier than it
/// is.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn busy_clock() -> u64 {
    /// `struct timespec` on 64-bit Linux: `time_t` and `long` are 64-bit.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's, which std links on
    // Linux; it writes one `struct timespec` — `Timespec`'s layout on
    // 64-bit Linux — through the valid, exclusive pointer it is given.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Elsewhere, the wall clock since the first read.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn busy_clock() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
}

/// The same queue fabric and acquisition discipline as [`WorkerPool`],
/// but with **no OS threads**: checkx's bounded interleaving explorer
/// drives the caller and each helper one step at a time, through the code
/// paths the threaded pool runs — [`PoolHarness::caller_step`] is the
/// loop body of [`WorkerPool::run`], and a helper's
/// [`take`](PoolHarness::take) / [`finish`](PoolHarness::finish) are the
/// two halves of one `worker_loop` round (acquire via
/// `PoolShared::next_task`, then execute with the real panic-catching
/// bookkeeping). Splitting a helper's round lets a schedule observe a job
/// in flight — taken and not yet finished — which is exactly when the
/// caller must not return. This turns the pool's no-lost-job /
/// no-double-run / panic-propagation / no-early-return invariants from
/// race-*sampled* into schedule-*enumerated* properties. The mutex-backed
/// deque shim makes each acquisition atomic, so step-granularity
/// enumeration covers every observable thread interleaving.
pub struct PoolHarness {
    shared: Arc<PoolShared>,
    /// Helper `h`'s private deque is `locals[h - 1]`.
    locals: Vec<Worker<Task>>,
    /// Helper `h`'s taken, unfinished task is `in_hand[h - 1]`.
    in_hand: Vec<Option<Task>>,
    next_rr: usize,
}

/// Observable completion state of one batch submitted to a
/// [`PoolHarness`] — what [`WorkerPool::run`] blocks on, exposed so the
/// explorer can assert it instead.
pub struct BatchHandle {
    batch: Arc<BatchState>,
}

impl BatchHandle {
    /// Jobs of this batch not yet finished.
    pub fn remaining(&self) -> usize {
        self.batch.remaining.load(Ordering::Acquire)
    }

    /// True when some job of this batch panicked (the flag
    /// [`WorkerPool::run`] re-raises on the caller's thread).
    pub fn panicked(&self) -> bool {
        self.batch.panicked.load(Ordering::Acquire)
    }
}

impl PoolHarness {
    /// A harness over a pool of width `workers` (clamped to ≥ 1): slot 0
    /// is the caller, slots `1..workers` are virtual helpers.
    pub fn new(workers: usize) -> PoolHarness {
        let (shared, locals) = build_shared(workers.max(1));
        PoolHarness {
            shared,
            in_hand: locals.iter().map(|_| None).collect(),
            locals,
            next_rr: 0,
        }
    }

    /// Pool width: the caller and its virtual helpers.
    pub fn workers(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Submit a batch exactly as [`WorkerPool::run`] would: round-robin
    /// scatter into the slots' mailboxes. Nothing runs until the caller
    /// or a helper is stepped.
    pub fn submit(&mut self, jobs: Vec<Box<dyn FnOnce() + Send + 'static>>) -> BatchHandle {
        let rr0 = self.next_rr;
        self.next_rr += jobs.len();
        BatchHandle {
            batch: scatter(&self.shared, jobs, rr0),
        }
    }

    /// One step of the caller's side of [`WorkerPool::run`] over `batch`
    /// — the very function `run` loops on. [`CallerStep::Wait`] is where
    /// the threaded caller sleeps; stepping it again later re-checks.
    pub fn caller_step(&self, batch: &BatchHandle) -> CallerStep {
        caller_step(&self.shared, &batch.batch)
    }

    /// Helper `helper` (in `1..workers`) runs one acquisition — the real
    /// drain-mailbox / pop-LIFO / steal-sibling discipline — unless it
    /// already holds a task. Returns whether it now holds one.
    pub fn take(&mut self, helper: usize) -> bool {
        let hand = &mut self.in_hand[helper - 1];
        if hand.is_none() {
            *hand = self.shared.next_task(helper, &self.locals[helper - 1]);
        }
        hand.is_some()
    }

    /// Helper `helper` executes the task it holds, with the real
    /// panic-catching bookkeeping. Returns false when it held none.
    pub fn finish(&mut self, helper: usize) -> bool {
        match self.in_hand[helper - 1].take() {
            Some(task) => {
                run_task(helper, task, &self.shared);
                true
            }
            None => false,
        }
    }

    /// True while any mailbox or helper deque still holds a task.
    pub fn has_work(&self) -> bool {
        self.shared.mailboxes.iter().any(|m| !m.is_empty())
            || self.shared.stealers.iter().any(|s| !s.is_empty())
    }

    /// Cumulative counters (morsels executed, steals), as for a real pool.
    pub fn stats(&self) -> PoolStats {
        stats_of(&self.shared)
    }
}

/// Lazily-created [`WorkerPool`]s keyed by PE, shared by the GDH and all
/// OFM actors of one machine. With `workers_per_pe <= 1` no pools are
/// ever created and every execution path stays on the serial baseline.
pub struct PoolSet {
    workers_per_pe: usize,
    pools: Mutex<HashMap<usize, Arc<WorkerPool>>>,
}

impl PoolSet {
    /// A pool set handing out `workers_per_pe`-wide pools.
    pub fn new(workers_per_pe: usize) -> Arc<PoolSet> {
        Arc::new(PoolSet {
            workers_per_pe,
            pools: Mutex::new(HashMap::new()),
        })
    }

    /// Configured worker width (1 = serial, no pools).
    pub fn workers_per_pe(&self) -> usize {
        self.workers_per_pe
    }

    /// The pool for PE `pe`, creating it on first use. `None` when the
    /// configured width is ≤ 1 — callers then run serially in-line.
    pub fn pool_for(&self, pe: usize) -> Option<Arc<WorkerPool>> {
        if self.workers_per_pe <= 1 {
            return None;
        }
        let mut pools = self.pools.lock();
        Some(Arc::clone(
            pools
                .entry(pe)
                .or_insert_with(|| WorkerPool::new(self.workers_per_pe)),
        ))
    }

    /// Aggregate counters over every pool created so far. `workers` is
    /// the configured per-PE width; `busy_nanos` sums worker-by-worker
    /// across PEs (index = worker id within its PE's pool, slot 0 the
    /// callers').
    pub fn total_stats(&self) -> PoolStats {
        let pools = self.pools.lock();
        let mut total = PoolStats {
            workers: if self.workers_per_pe > 1 {
                self.workers_per_pe
            } else {
                0
            },
            ..PoolStats::default()
        };
        for pool in pools.values() {
            let s = pool.stats();
            total.morsels += s.morsels;
            total.steals += s.steals;
            if total.busy_nanos.len() < s.busy_nanos.len() {
                total.busy_nanos.resize(s.busy_nanos.len(), 0);
            }
            for (slot, v) in total.busy_nanos.iter_mut().zip(s.busy_nanos) {
                *slot += v;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_job_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job> = (0..257)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        let stats = pool.stats();
        assert_eq!(stats.morsels, 257);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.busy_nanos.len(), 4);
    }

    #[test]
    fn jobs_borrow_from_the_caller_stack() {
        let pool = WorkerPool::new(2);
        let input = [1u64, 2, 3, 4, 5];
        let slots: Vec<AtomicU64> = input.iter().map(|_| AtomicU64::new(0)).collect();
        let jobs: Vec<Job> = input
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let slots = &slots;
                Box::new(move || {
                    slots[i].store(v * 10, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.run(jobs);
        let out: Vec<u64> = slots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn sequential_runs_reuse_the_pool() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            let jobs: Vec<Job> = (0..8)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80);
        assert_eq!(pool.stats().morsels, 80);
    }

    #[test]
    fn stragglers_get_robbed() {
        // Round-robin puts the even-indexed jobs in the caller's mailbox,
        // which it takes oldest first, so job 0 is the first it runs.
        // Making that job long pins the caller for 60ms with four short
        // jobs still in its mailbox — the helper must steal them or run()
        // would take ~64ms on the caller alone.
        let pool = WorkerPool::new(2);
        let started = std::time::Instant::now();
        let jobs: Vec<Job> = (0..10)
            .map(|i| {
                Box::new(move || {
                    let ms = if i == 0 { 60 } else { 1 };
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }) as Job
            })
            .collect();
        pool.run(jobs);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "pool wedged: {elapsed:?}"
        );
        assert!(pool.stats().steals > 0, "expected at least one steal");
    }

    #[test]
    fn the_caller_is_worker_zero() {
        // A width-2 pool is the caller and one helper thread. The caller
        // runs jobs beside the helper and is metered in slot 0.
        let pool = WorkerPool::new(2);
        assert_eq!(pool.threads.lock().len(), 1);
        let caller = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                Box::new(|| {
                    if std::thread::current().id() == caller {
                        on_caller.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }) as Job
            })
            .collect();
        pool.run(jobs);
        assert!(on_caller.load(Ordering::Relaxed) > 0, "the caller ran no job");
        let stats = pool.stats();
        assert_eq!(stats.morsels, 8);
        assert!(stats.busy_nanos[0] > 0, "slot 0 meters the caller");
        // A width-1 pool spawns no thread: the caller runs everything.
        let alone = WorkerPool::new(1);
        assert!(alone.threads.lock().is_empty());
        let counter = AtomicUsize::new(0);
        alone.run(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        assert_eq!(alone.stats().busy_nanos.len(), 1);
    }

    #[test]
    fn run_waits_for_a_job_in_flight_on_a_helper() {
        // Each call scatters job 0 to the caller's mailbox and job 1 to
        // the helper's. Job 0 holds the caller until job 1 has started on
        // the helper, and job 1 outlives it: the caller then finds nothing
        // queued with a job in flight, and run must not return before
        // that job finishes.
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let jobs: Vec<Job> = (0..2)
                .map(|i| {
                    let (started, finished) = (&started, &finished);
                    Box::new(move || {
                        if i == 0 {
                            while started.load(Ordering::Acquire) == 0 {
                                std::thread::yield_now();
                            }
                        } else {
                            started.store(1, Ordering::Release);
                            std::thread::sleep(std::time::Duration::from_millis(3));
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            pool.run(jobs);
            assert_eq!(finished.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn empty_run_is_a_noop() {
        let pool = WorkerPool::new(2);
        pool.run(Vec::new());
        assert_eq!(pool.stats().morsels, 0);
    }

    #[test]
    fn job_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| panic!("boom")) as Job]);
        }));
        assert!(result.is_err());
        // The pool survives a panicking job.
        let counter = AtomicUsize::new(0);
        pool.run(vec![Box::new(|| {
            counter.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_set_is_lazy_and_serial_when_narrow() {
        let serial = PoolSet::new(1);
        assert!(serial.pool_for(0).is_none());
        assert_eq!(serial.total_stats().morsels, 0);

        let set = PoolSet::new(2);
        let a = set.pool_for(3).unwrap();
        let b = set.pool_for(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        a.run(vec![Box::new(|| {}) as Job]);
        set.pool_for(5)
            .unwrap()
            .run(vec![Box::new(|| {}) as Job, Box::new(|| {}) as Job]);
        let total = set.total_stats();
        assert_eq!(total.morsels, 3);
        assert_eq!(total.workers, 2);
    }
}
