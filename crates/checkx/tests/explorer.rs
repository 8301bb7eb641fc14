//! Exhaustive bounded interleaving runs against the *real* deque shim
//! and the *real* pool acquisition discipline — plus the refutation
//! test: a deliberately buggy deque variant the explorer must catch,
//! proving the harness detects schedule-dependent bugs rather than
//! rubber-stamping whatever it is given.

use prisma_checkx::explore::{explore, Program};
use prisma_checkx::scenarios::{
    buggy_deque, check_pool, helper_rounds, op_caller, pool_state, real_deque, DequeState,
    StaleEmptyStealer,
};

type RealDeque = DequeState<crossbeam::deque::Stealer<u32>>;
type BuggyDeque = DequeState<StaleEmptyStealer>;

#[test]
fn real_deque_is_linearizable_owner_vs_thief() {
    // Owner: push, push, pop, pop. Thief: 4 steals. Every op is checked
    // against the sequential spec in schedule order — 70 schedules.
    let program: Program<RealDeque> = Program::new()
        .thread(vec![
            RealDeque::op_push(1),
            RealDeque::op_push(2),
            RealDeque::op_pop(),
            RealDeque::op_pop(),
        ])
        .thread(vec![
            RealDeque::op_steal(),
            RealDeque::op_steal(),
            RealDeque::op_steal(),
            RealDeque::op_steal(),
        ]);
    assert_eq!(program.schedule_count(), 70);
    let stats = explore(real_deque, &program, RealDeque::check)
        .unwrap_or_else(|v| panic!("real deque refuted: {v}"));
    assert_eq!(stats.schedules, 70, "sweep must be exhaustive");
}

#[test]
fn real_deque_is_linearizable_three_threads() {
    // Owner plus two thief threads (the stealer end is stateless, so
    // two virtual thieves share one handle) — 30 schedules.
    let program: Program<RealDeque> = Program::new()
        .thread(vec![
            RealDeque::op_push(1),
            RealDeque::op_push(2),
            RealDeque::op_pop(),
            RealDeque::op_pop(),
        ])
        .thread(vec![RealDeque::op_steal()])
        .thread(vec![RealDeque::op_steal()]);
    assert_eq!(program.schedule_count(), 30);
    let stats = explore(real_deque, &program, RealDeque::check)
        .unwrap_or_else(|v| panic!("real deque refuted: {v}"));
    assert_eq!(stats.schedules, 30);
}

#[test]
fn buggy_deque_is_refuted_on_the_exact_racing_schedule() {
    // The stale-empty cache is only wrong when a steal observes empty
    // *before* the owner's push and another steal follows: schedule
    // [thief, owner, thief]. Unit-test-shaped schedules ([owner first]
    // or [thief twice first]) pass — which is exactly why this bug
    // class needs exhaustive interleaving, not examples.
    let program: Program<BuggyDeque> = Program::new()
        .thread(vec![BuggyDeque::op_push(7)])
        .thread(vec![BuggyDeque::op_steal(), BuggyDeque::op_steal()]);
    let violation = explore(buggy_deque, &program, BuggyDeque::check)
        .expect_err("the explorer must refute the stale-empty stealer");
    assert_eq!(violation.schedule, vec![1, 0, 1], "{violation}");
    assert!(violation.message.contains("steal"), "{violation}");

    // The identical program over the real stealer is clean — the
    // refutation is the bug's, not the harness's.
    let program: Program<RealDeque> = Program::new()
        .thread(vec![RealDeque::op_push(7)])
        .thread(vec![RealDeque::op_steal(), RealDeque::op_steal()]);
    explore(real_deque, &program, RealDeque::check)
        .unwrap_or_else(|v| panic!("real deque refuted: {v}"));
}

#[test]
fn pool_never_loses_or_doubles_a_job_two_workers() {
    // The caller (4 steps) and one helper (2 take/finish rounds) over 4
    // scattered jobs: every one of the 70 interleavings must execute each
    // job exactly once and return from run only at remaining == 0.
    let program: Program<_> = Program::new()
        .thread((0..4).map(|_| op_caller()).collect())
        .thread(helper_rounds(1, 2));
    assert_eq!(program.schedule_count(), 70);
    let stats = explore(|| pool_state(2, 4, None), &program, check_pool(false))
        .unwrap_or_else(|v| panic!("pool invariant refuted: {v}"));
    assert_eq!(stats.schedules, 70);
}

#[test]
fn pool_never_loses_or_doubles_a_job_three_workers() {
    // The caller (3 steps) and two helpers (2 rounds each) over 3 jobs —
    // 11 550 schedules, the top of the stated bounds (≤ 3 threads).
    let program: Program<_> = Program::new()
        .thread((0..3).map(|_| op_caller()).collect())
        .thread(helper_rounds(1, 2))
        .thread(helper_rounds(2, 2));
    assert_eq!(program.schedule_count(), 11_550);
    let stats = explore(|| pool_state(3, 3, None), &program, check_pool(false))
        .unwrap_or_else(|v| panic!("pool invariant refuted: {v}"));
    assert_eq!(stats.schedules, 11_550);
}

#[test]
fn pool_panic_propagation_under_every_schedule() {
    // Job 1 of 3 panics. Under every interleaving of the caller and its
    // helper: the panic is contained by the pool's own catch, the other
    // jobs still run exactly once, the batch completes, and run re-raises
    // the panic on the caller.
    let program: Program<_> = Program::new()
        .thread((0..3).map(|_| op_caller()).collect())
        .thread(helper_rounds(1, 2));
    assert_eq!(program.schedule_count(), 35);
    let stats = explore(
        || pool_state(2, 3, Some(1)),
        &program,
        check_pool(true),
    )
    .unwrap_or_else(|v| panic!("panic propagation refuted: {v}"));
    assert_eq!(stats.schedules, 35);
}

#[test]
fn the_caller_meets_a_helper_job_in_flight() {
    // Two jobs, one per mailbox. In the schedule helper-take, caller,
    // caller, helper-finish the caller runs its own job, then finds
    // nothing queued while the helper's job is in flight: it must wait,
    // not return. The sweep reaches that window, and the check holds.
    let program: Program<_> = Program::new()
        .thread(vec![op_caller(), op_caller()])
        .thread(helper_rounds(1, 1));
    let waited = std::cell::Cell::new(false);
    let check = check_pool(false);
    let stats = explore(
        || pool_state(2, 2, None),
        &program,
        |s| {
            waited.set(waited.get() || s.waited);
            check(s)
        },
    )
    .unwrap_or_else(|v| panic!("early return refuted: {v}"));
    assert_eq!(stats.schedules, 6);
    assert!(waited.get(), "no schedule left the caller waiting on a helper");
}
