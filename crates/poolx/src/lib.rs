//! # prisma-poolx
//!
//! A runtime reproducing the POOL-X programming model (paper §3.1):
//!
//! > "The programming model of POOL-X is a collection of dynamically
//! > created processes. Internally the processes have a control flow
//! > behaviour and they communicate via message-passing only, i.e. no
//! > shared memory. … POOL-X supports explicit allocation of the
//! > dynamically created processes onto processing elements. This allows
//! > for a proper balance between storage, processing, and communication,
//! > under the control of the implementor of the database system."
//!
//! The substitution (DESIGN.md §5): POOL-X on DOOM hardware becomes an
//! **actor runtime on one OS thread per simulated PE**. The DB-relevant
//! semantics are preserved exactly:
//!
//! * processes are created dynamically ([`PoolRuntime::spawn`]) and placed
//!   on an explicit PE — placement is the API, not an internal detail;
//! * processes share no memory: the only inter-process channel is
//!   [`PoolRuntime::send`] / [`Ctx::send`];
//! * every cross-PE message is metered against the multi-computer's
//!   communication cost model ([`TrafficLedger`]), so the allocation
//!   experiments (E8) can observe the storage/processing/communication
//!   balance the paper talks about.

pub mod ledger;
pub mod runtime;
pub mod workers;

pub use ledger::TrafficLedger;
pub use runtime::{Ctx, ExternalMailbox, PoolRuntime, Process, WireMessage, COORDINATOR_PE};
pub use workers::{BatchHandle, CallerStep, Job, PoolHarness, PoolSet, PoolStats, WorkerPool};
