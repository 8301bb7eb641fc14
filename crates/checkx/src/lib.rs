//! # prisma-checkx
//!
//! In-tree correctness tooling for the PRISMA reproduction. A
//! distributed database machine earns its keep with invariants —
//! fragments never lose tuples, workers never run a morsel twice,
//! two-phase locking never self-deadlocks the engine — and this crate
//! makes three classes of them *checked* rather than hoped for:
//!
//! 1. **Lock-order deadlock analysis** (dynamic). Every `Mutex`/`RwLock`
//!    in the workspace resolves to the in-tree `parking_lot` shim, whose
//!    [`parking_lot::lock_order`] recorder — armed via
//!    `CHECKX_LOCK_ORDER=1` — builds a global lock-order graph from real
//!    executions and reports any cycle as a potential deadlock, with the
//!    acquisition backtraces of both sides of the inversion. CI runs the
//!    whole tier-1 suite under the recorder, so a new `A→B` ordering that
//!    contradicts an existing `B→A` anywhere in the suite fails the
//!    build even if that run never actually deadlocked.
//!
//! 2. **Bounded interleaving exploration** ([`explore`]). A loom-style
//!    deterministic scheduler that replays every interleaving of small
//!    virtual-thread programs against the *real* work-stealing deque
//!    shim and the *real* worker-pool acquisition discipline
//!    (`prisma_poolx::PoolHarness` drives the same caller step
//!    `WorkerPool::run` loops on, and the same `next_task` code the
//!    production `worker_loop` runs). Because the shims are
//!    mutex-per-queue, each public queue op is atomic — so enumerating
//!    op-granularity schedules is *exhaustive* over observable thread
//!    interleavings at these bounds, not a sample. [`scenarios`] holds
//!    the sequential-spec oracles and a known-buggy deque variant the
//!    explorer must refute (proof the harness can see real races).
//!
//! 3. **Project-invariant lint** ([`lint`], `checkx-lint` binary). A
//!    lexer-level linter for rules rustc cannot express: no
//!    `unwrap()`/`expect()` on lock/channel/wire-decode results outside
//!    tests, exhaustive `GdhMsg` handling in the actor loops, no
//!    wall-clock reads in simulation-deterministic paths, and a
//!    fingerprint pinning the wire-format constants to the `PCB1`
//!    version tag so a format change without a version bump is caught at
//!    lint time, and no `pub` item in `ofm`, `storage`, `multicomputer`
//!    or `gdh` that nothing outside tests names (`dead-pub`). Suppress a
//!    finding with `// checkx:allow(<rule>)` on the same or preceding
//!    line.
//!
//! Run `cargo test -p prisma-checkx` for the explorer and fixtures,
//! `cargo run -p prisma-checkx --bin checkx-lint` for the linter, and
//! `CHECKX_LOCK_ORDER=1 cargo test` for the instrumented suite.

pub mod explore;
pub mod lint;
pub mod scenarios;
