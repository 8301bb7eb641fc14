//! # prisma
//!
//! Umbrella crate for the PRISMA database machine reproduction. Everything
//! lives in [`prisma_core`]; this crate re-exports it so examples and
//! integration tests sit at the workspace root, next to the paper's
//! documentation (README.md, docs/ARCHITECTURE.md).

pub use prisma_core::*;
/// Workload generators used by the examples and benches.
pub use prisma_workload as workload;
