//! # prisma-gdh
//!
//! The **Global Data Handler** (paper §2.2):
//!
//! > "The PRISMA DBMS consists of centralized database systems, called
//! > One-Fragment Managers (or OFM), running under the supervision of a
//! > Global Data Handler (or GDH). The GDH contains the data dictionary,
//! > the query optimizer, the transaction manager, the concurrency control
//! > unit, and the parsers for SQL and PRISMAlog […] Besides these
//! > components, there is a recovery component and a data allocation
//! > manager."
//!
//! * [`message`] — the message protocol between the GDH and the OFM
//!   actors living on poolx PEs (message passing only, §3.1). Query
//!   results ship as **batch streams**: one `BatchChunk` per produced
//!   batch plus a terminal `StreamEnd`, so the coordinator merges while
//!   fragments still scan;
//! * [`dictionary`] — the data dictionary: relations, fragmentation
//!   schemes, fragment→PE placement, statistics;
//! * [`allocation`] — the data-allocation manager's placement policies
//!   (round-robin / load-balanced / locality-aware), compared in E8;
//! * [`locks`] — the concurrency-control unit: strict two-phase locking
//!   at relation granularity with wait-for-graph deadlock detection;
//! * [`txn`] — the transaction manager: two-phase commit across the
//!   persistent OFMs of all touched relations;
//! * [`exec`] — the parallel executor: runs the lowered physical plan by
//!   cutting it at its exchange nodes — each `Gather` ships its subtree
//!   to the OFM actors as batch pipelines (grace-join buckets streamed
//!   fragment→site per batch, broadcast build sides shipped whole),
//!   reply streams reassembled per stream and merged, equal gathers run
//!   once — and runs the rest at the coordinator;
//! * [`gdh`] — the façade combining parsers, optimizer, executor and
//!   transactions into `execute_sql` / `execute_prismalog`.

pub mod allocation;
pub mod dictionary;
pub mod exec;
pub mod gdh;
pub mod locks;
pub mod message;
pub mod txn;

pub use allocation::AllocationPolicy;
pub use dictionary::{DataDictionary, FragmentHandle, RelationInfo};
pub use exec::{ExecMetrics, ParallelExecutor};
pub use gdh::{GlobalDataHandler, QueryOutcome};
pub use locks::{LockManager, LockMode};
pub use message::GdhMsg;
pub use txn::TransactionManager;
