//! # prisma-relalg
//!
//! The **extended relational algebra** that is PRISMA's common query
//! currency (paper §2.3: "The semantics of PRISMAlog is defined in terms
//! of extensions of the relational algebra"; §2.5: OFMs "support a
//! transitive closure operator for dealing with recursive queries").
//!
//! * [`table::Relation`] — a materialized table (schema + tuples);
//! * [`plan::LogicalPlan`] — the algebra tree produced by the SQL and
//!   PRISMAlog front ends and rewritten by the optimizer, including the
//!   recursive extensions [`plan::LogicalPlan::Closure`] and
//!   [`plan::LogicalPlan::Fixpoint`];
//! * [`physical::PhysicalPlan`] — the physical operator tree lowered from
//!   the logical plan: scans with fused projections, hash/nested-loop
//!   joins with a broadcast-vs-partitioned distribution strategy;
//! * [`exec`] — the pull-based batch executor that runs physical plans;
//!   OFMs execute their local subplans through it, with zero-copy
//!   [`exec::Batch`]es over `Arc`-shared relations, and expose the pull
//!   pipeline to the wire as a resumable [`exec::BatchStream`] (the seam
//!   streamed batch shipping pulls through);
//! * [`mod@eval`] — the reference evaluator, kept as the semantics oracle for
//!   tests (the executor must agree with it on every plan);
//! * [`agg`] — aggregate functions.

pub mod agg;
pub mod eval;
pub mod exec;
mod join;
pub mod morsel;
pub mod physical;
pub mod plan;
pub mod table;

pub use agg::{AggExpr, AggFunc};
pub use eval::{eval, EvalContext, RelationProvider};
pub use morsel::MORSEL_ROWS;
pub use exec::{
    chunk_scan_counters, execute_batches, execute_physical, open_batches, open_batches_pooled,
    Batch, BatchStream, Operator, BATCH_SIZE,
};
pub use physical::{lower, ExchangeKind, PhysicalPlan, ShufflePlacement};
pub use plan::{JoinKind, LogicalPlan};
pub use table::{BatchWindows, ChunkedRelation, Relation};
