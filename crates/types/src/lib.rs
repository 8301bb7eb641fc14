//! # prisma-types
//!
//! Foundation types shared by every crate in the PRISMA database machine
//! reproduction: values, tuples, schemas, identifiers, errors and the
//! machine configuration from the paper's §3.2 (64 processing elements,
//! 16 MB local memory, four 10 Mbit/s links, 256-bit packets).
//!
//! The PRISMA paper (Apers, Kersten, Oerlemans; EDBT 1988) describes a
//! distributed, main-memory DBMS built from One-Fragment Managers running
//! on a message-passing multi-computer. This crate deliberately contains
//! no behaviour beyond the data model itself, so that the substrate crates
//! (`prisma-multicomputer`, `prisma-storage`, ...) and the DBMS crates can
//! share vocabulary without depending on each other.

pub mod chunk;
pub mod column;
pub mod config;
pub mod error;
pub mod ids;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;
pub mod wire;

pub use chunk::{seal_every, SealedChunk, ZoneMap, DEFAULT_SEAL_EVERY};
pub use column::{ColumnVec, LazyColumns, SelVec, KEY_HASH_SEED};
pub use config::{MachineConfig, TopologyKind};
pub use error::{PrismaError, Result};
pub use ids::{FragmentId, PeId, ProcessId, QueryId, TxnId};
pub use schema::{Column, DataType, Schema};
pub use stats::{ColumnStats, FragmentStatistics, Histogram, StatsFreshness};
pub use tuple::Tuple;
pub use value::Value;
