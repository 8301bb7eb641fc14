//! # prisma-ofm
//!
//! **One-Fragment Managers** — the heart of the PRISMA DBMS architecture
//! (paper §2.5):
//!
//! > "The DBMS software is organized as a fully distributed database
//! > system in which the components are, so-called, One-Fragment Managers
//! > (or OFM). These OFMs are customized database systems that manage a
//! > single relation fragment. They contain all functions encountered in a
//! > full-blown DBMS; such as local query optimizer, transaction
//! > management, markings and cursor maintenance, and (various) storage
//! > structures. More specifically, they support a transitive closure
//! > operator for dealing with recursive queries."
//!
//! * [`fragment::Fragment`] — heap + secondary indexes, with index
//!   maintenance on every mutation, and the sealed columnar tier that
//!   serves scans and DML victim search alike;
//! * [`ofm::Ofm`] — the manager: local transactions with undo, WAL-backed
//!   durability and 2PC participant duties for the *persistent* OFM type,
//!   a local query optimizer choosing an access path for every selection,
//!   `UPDATE` and `DELETE` (1. hash index, 2. B-tree range, 3. otherwise →
//!   zone-pruned chunk scan + delta), by-value replay of a primary's
//!   shipped log for the backup role, local
//!   physical-subplan execution through the batch pipeline (including the
//!   transitive-closure operator) — opened as a resumable batch stream
//!   ([`ofm::Ofm::open_physical`]) so the actor ships each produced batch
//!   while the scan continues — and checkpoint/recovery;
//! * [`ofm::OfmKind`] — the paper's "generative approach": transient OFMs
//!   for intermediate results carry no recovery machinery at all.
//!
//! The quote's "markings and cursor maintenance" is not reproduced: no
//! query path used markings or cursors over them.

pub mod fragment;
pub mod ofm;

pub use fragment::{Fragment, FragmentStats, ZoneScan};
pub use ofm::{shuffle_extras, AccessPath, Ofm, OfmKind, SHUFFLE_LEFT, SHUFFLE_RIGHT};
