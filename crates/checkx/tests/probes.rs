//! Probe coverage: the yield-point hooks in the crossbeam deque shim
//! and the pool discipline fire on a *real threaded* pool run. This
//! pins the instrumentation the explorer's exhaustiveness argument
//! leans on — if someone removes a probe (or reroutes the pool off the
//! instrumented queue ops), this test fails before the explorer's
//! coverage silently narrows.
//!
//! Own file: the hook registry is process-global, and no other test in
//! this binary may race it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use prisma_poolx::{Job, WorkerPool};

#[test]
fn pool_run_crosses_every_scheduling_probe() {
    static SEEN: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    crossbeam::hooks::set_hook(|point| {
        SEEN.lock().unwrap_or_else(|e| e.into_inner()).insert(point);
    });

    // The caller works beside its helper, and trivial jobs could all be
    // done before the helper wakes. So a job on the caller's thread holds
    // it until the helper has run one: the helper then surely drains its
    // mailbox into its deque and pops it.
    let pool = WorkerPool::new(2);
    let caller = std::thread::current().id();
    let (counter, on_helper) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let jobs: Vec<Job> = (0..64)
        .map(|_| {
            Box::new(|| {
                if std::thread::current().id() == caller {
                    while on_helper.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                } else {
                    on_helper.fetch_add(1, Ordering::Release);
                }
                counter.fetch_add(1, Ordering::Relaxed);
            }) as Job
        })
        .collect();
    pool.run(jobs);
    drop(pool);
    crossbeam::hooks::clear_hook();
    assert_eq!(counter.load(Ordering::Relaxed), 64);

    let seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    // Deterministically crossed on any completed run: scatter pushes to
    // mailboxes, the caller takes from its own, a helper's acquisition
    // round drains (injector steal → worker push), pops, and the rounds
    // announce themselves.
    for point in [
        "deque.injector.push",
        "deque.injector.steal",
        "deque.worker.push",
        "deque.worker.pop",
        "pool.drain",
        "pool.pop",
        "pool.caller",
    ] {
        assert!(seen.contains(point), "probe {point} never fired: {seen:?}");
    }
}
