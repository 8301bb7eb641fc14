//! Concrete systems-under-test for the [`crate::explore`] enumerator.
//!
//! Two families:
//!
//! * **Deque linearizability** ([`DequeState`]): every op runs against
//!   the real `crossbeam::deque` shim *and* a sequential [`SpecDeque`]
//!   oracle, in the same schedule order, and the results must agree.
//!   Because the shim's ops are atomic (mutex-held for their whole
//!   body), the schedule order *is* the linearization order — so a
//!   single mismatch anywhere in an exhaustive sweep refutes
//!   linearizability, and zero mismatches across all schedules proves it
//!   at the explored bounds.
//! * **Pool scheduling** ([`PoolState`]): the real worker-pool
//!   acquisition discipline, driven thread-free through
//!   [`prisma_poolx::PoolHarness`] — the production caller step of
//!   `WorkerPool::run` and the helpers' `next_task` + task bookkeeping,
//!   not a model. The explorer interleaves the caller's steps with each
//!   helper's take and finish, so a schedule can see a helper's job in
//!   flight. Invariants checked over every interleaving: no job lost, no
//!   job run twice, the caller returns only once the batch's `remaining`
//!   is 0, and a panicking job still completes its batch and is re-raised
//!   on the caller.
//!
//! [`StaleEmptyStealer`] is the *intentionally buggy* deque variant the
//! test-suite uses to prove the explorer can refute, not just confirm:
//! it caches one "observed empty" result — a plausible optimization that
//! is only wrong under schedules where the owner pushes *after* the
//! failed steal, exactly the kind of ordering bug that survives unit
//! tests and dies under exhaustive interleaving.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::deque::{Steal, Stealer, Worker};
use prisma_poolx::{BatchHandle, CallerStep, PoolHarness};

use crate::explore::Op;

/// Sequential specification of the pool's deque: owner end is LIFO,
/// thief end is FIFO, over one `VecDeque`.
#[derive(Default)]
pub struct SpecDeque {
    q: VecDeque<u32>,
}

impl SpecDeque {
    /// Owner push (hot end).
    pub fn push(&mut self, v: u32) {
        self.q.push_back(v);
    }

    /// Owner pop — most recent push.
    pub fn pop(&mut self) -> Option<u32> {
        self.q.pop_back()
    }

    /// Thief steal — oldest entry.
    pub fn steal(&mut self) -> Steal<u32> {
        match self.q.pop_front() {
            Some(v) => Steal::Success(v),
            None => Steal::Empty,
        }
    }
}

/// The thief end under test: the real [`Stealer`] or a buggy variant.
pub trait StealEnd {
    /// Attempt to take the oldest entry.
    fn steal(&mut self) -> Steal<u32>;
}

impl StealEnd for Stealer<u32> {
    fn steal(&mut self) -> Steal<u32> {
        Stealer::steal(self)
    }
}

/// Deliberately broken stealer: remembers having seen the deque empty
/// and short-circuits every later attempt. Sound if the deque could
/// never grow again; wrong the moment a push races in after the miss.
/// Exists so `tests/explorer.rs` can prove the enumerator detects real
/// schedule-dependent bugs (and pins *which* schedule shape exposes it).
pub struct StaleEmptyStealer {
    inner: Stealer<u32>,
    saw_empty: bool,
}

impl StaleEmptyStealer {
    /// Wrap a real stealer with the stale-empty cache.
    pub fn new(inner: Stealer<u32>) -> StaleEmptyStealer {
        StaleEmptyStealer {
            inner,
            saw_empty: false,
        }
    }
}

impl StealEnd for StaleEmptyStealer {
    fn steal(&mut self) -> Steal<u32> {
        if self.saw_empty {
            return Steal::Empty;
        }
        let r = self.inner.steal();
        if r.is_empty() {
            self.saw_empty = true;
        }
        r
    }
}

/// Shared state of one deque-vs-spec replay.
pub struct DequeState<St: StealEnd> {
    worker: Worker<u32>,
    thief: St,
    spec: SpecDeque,
    /// Mismatches between implementation and oracle, in schedule order.
    pub violations: Vec<String>,
}

/// Fresh state over the real stealer.
pub fn real_deque() -> DequeState<Stealer<u32>> {
    let worker = Worker::new_lifo();
    let thief = worker.stealer();
    DequeState {
        worker,
        thief,
        spec: SpecDeque::default(),
        violations: Vec::new(),
    }
}

/// Fresh state over the intentionally buggy stealer.
pub fn buggy_deque() -> DequeState<StaleEmptyStealer> {
    let worker = Worker::new_lifo();
    let thief = StaleEmptyStealer::new(worker.stealer());
    DequeState {
        worker,
        thief,
        spec: SpecDeque::default(),
        violations: Vec::new(),
    }
}

impl<St: StealEnd + 'static> DequeState<St> {
    /// Op: owner pushes `v` (implementation and oracle agree by
    /// construction — pushes return nothing).
    pub fn op_push(v: u32) -> Op<Self> {
        Box::new(move |s| {
            s.worker.push(v);
            s.spec.push(v);
        })
    }

    /// Op: owner pops; result must match the oracle.
    pub fn op_pop() -> Op<Self> {
        Box::new(|s| {
            let got = s.worker.pop();
            let want = s.spec.pop();
            if got != want {
                s.violations
                    .push(format!("pop returned {got:?}, spec says {want:?}"));
            }
        })
    }

    /// Op: thief steals; result must match the oracle.
    pub fn op_steal() -> Op<Self> {
        Box::new(|s| {
            let got = s.thief.steal();
            let want = s.spec.steal();
            if got != want {
                s.violations
                    .push(format!("steal returned {got:?}, spec says {want:?}"));
            }
        })
    }

    /// Invariant check for [`crate::explore::explore`]: no recorded
    /// mismatch, and the implementation drained iff the oracle did.
    pub fn check(s: &Self) -> Result<(), String> {
        if let Some(v) = s.violations.first() {
            return Err(v.clone());
        }
        let got = s.worker.len();
        let want = s.spec.q.len();
        if got != want {
            return Err(format!("{got} tasks left in deque, spec says {want}"));
        }
        Ok(())
    }
}

/// Shared state of one pool replay: a thread-free harness over the real
/// acquisition discipline, one submitted batch, a per-job run counter the
/// jobs bump, and what the caller saw when it returned.
pub struct PoolState {
    /// The harness — the caller and virtual helpers stepped by the
    /// explorer.
    pub harness: PoolHarness,
    /// Completion state of the submitted batch.
    pub handle: BatchHandle,
    /// `runs[i]` = times job `i` has executed (must end at exactly 1).
    pub runs: Arc<Vec<AtomicUsize>>,
    /// Set when a caller step found nothing queued with a job in flight.
    pub waited: bool,
    /// Set when the caller's step returned [`CallerStep::Done`].
    pub returned: Option<Returned>,
}

/// The batch as the caller saw it at the step `run` returned on.
#[derive(Debug, Clone)]
pub struct Returned {
    /// The batch's `remaining` count.
    pub remaining: usize,
    /// Each job's run count.
    pub runs: Vec<usize>,
    /// Whether `run` re-raises a job's panic.
    pub panicked: bool,
}

impl PoolState {
    fn returned_now(&self, panicked: bool) -> Returned {
        Returned {
            remaining: self.handle.remaining(),
            runs: self.runs.iter().map(|r| r.load(Ordering::Relaxed)).collect(),
            panicked,
        }
    }
}

/// Fresh pool state: a pool of width `workers` (the caller and
/// `workers − 1` helpers) with `jobs` counting jobs scattered round-robin;
/// job `panic_job` (if any) panics after counting. Panics are caught by
/// the pool's own task bookkeeping — the same `catch_unwind` path the
/// threaded pool uses.
pub fn pool_state(workers: usize, jobs: usize, panic_job: Option<usize>) -> PoolState {
    let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..jobs).map(|_| AtomicUsize::new(0)).collect());
    let mut harness = PoolHarness::new(workers);
    let batch: Vec<Box<dyn FnOnce() + Send + 'static>> = (0..jobs)
        .map(|i| {
            let runs = Arc::clone(&runs);
            Box::new(move || {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if panic_job == Some(i) {
                    panic!("checkx: seeded job panic");
                }
            }) as Box<dyn FnOnce() + Send + 'static>
        })
        .collect();
    let handle = harness.submit(batch);
    PoolState {
        harness,
        handle,
        runs,
        waited: false,
        returned: None,
    }
}

/// Op: the caller takes one step of `WorkerPool::run` — runs a queued job,
/// waits, or returns — unless it has already returned. A step that runs a
/// seeded panicking job is contained here: the panic is already caught
/// inside the pool's `run_task`, so stepping never unwinds into the
/// explorer.
pub fn op_caller() -> Op<PoolState> {
    Box::new(|s| {
        if s.returned.is_some() {
            return;
        }
        // Defensive double containment: the harness must not leak job
        // panics, and if it ever did, the violation should surface as a
        // check failure on this schedule, not abort the whole sweep.
        let step = std::panic::catch_unwind(AssertUnwindSafe(|| s.harness.caller_step(&s.handle)));
        match step {
            Ok(CallerStep::Done { panicked }) => s.returned = Some(s.returned_now(panicked)),
            Ok(CallerStep::Wait) => s.waited = true,
            _ => {}
        }
    })
}

/// Op: helper `h` takes a task — one acquisition round (drain → pop →
/// steal) — unless it already holds one.
pub fn op_take(h: usize) -> Op<PoolState> {
    Box::new(move |s| {
        s.harness.take(h);
    })
}

/// Op: helper `h` finishes the task it holds, if any (contained as in
/// [`op_caller`]).
pub fn op_finish(h: usize) -> Op<PoolState> {
    Box::new(move |s| {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| s.harness.finish(h)));
    })
}

/// A helper's program: `rounds` take-then-finish pairs, so it never ends
/// holding a task.
pub fn helper_rounds(h: usize, rounds: usize) -> Vec<Op<PoolState>> {
    (0..rounds).flat_map(|_| [op_take(h), op_finish(h)]).collect()
}

/// Invariant check over a completed pool replay, parameterized by
/// whether a panic was seeded. A caller that had not returned by the end
/// of its ops was waiting or had work left: it is stepped on (every helper
/// has finished by then) until it returns. At its return the batch's
/// `remaining` is 0, every job ran exactly once, and the panic is
/// re-raised iff one was seeded; nothing is left queued.
pub fn check_pool(expect_panic: bool) -> impl Fn(&PoolState) -> Result<(), String> {
    move |s| {
        let returned = match &s.returned {
            Some(r) => r.clone(),
            None => loop {
                match s.harness.caller_step(&s.handle) {
                    CallerStep::Ran => {}
                    CallerStep::Wait => {
                        return Err("the caller waits with no job left in flight".into())
                    }
                    CallerStep::Done { panicked } => break s.returned_now(panicked),
                }
            },
        };
        if returned.remaining != 0 {
            return Err(format!(
                "run returned with {} jobs unfinished",
                returned.remaining
            ));
        }
        if let Some((i, n)) = returned.runs.iter().enumerate().find(|&(_, &n)| n != 1) {
            return Err(format!("job {i} ran {n} times by run's return (want exactly 1)"));
        }
        for (i, r) in s.runs.iter().enumerate() {
            let n = r.load(Ordering::Relaxed);
            if n != 1 {
                return Err(format!("job {i} ran {n} times (want exactly 1)"));
            }
        }
        if s.harness.has_work() {
            return Err("queues non-empty after all jobs accounted".into());
        }
        if returned.panicked != expect_panic {
            return Err(format!(
                "run re-raises a panic: {}, want {expect_panic}",
                returned.panicked
            ));
        }
        Ok(())
    }
}
