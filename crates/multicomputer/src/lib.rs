//! # prisma-multicomputer
//!
//! Models of the PRISMA multi-computer's interconnect (paper §3.2):
//!
//! * 64 processing elements (configurable), each with **four communication
//!   links running at 10 Mbit/sec** and 16 MB of local main memory;
//! * a **mesh-like** or **chordal-ring** interconnection topology;
//! * store-and-forward routing of **256-bit packets**;
//! * "various simulations show an average network throughput of up to
//!   20.000 packets (of 256 bits) per second for each processing element
//!   simultaneously" — the closed-form saturation bound of the
//!   [`topology`] tests checks that the modeled network shares this
//!   order of magnitude.
//!
//! The DBMS layers (`prisma-poolx`, `prisma-gdh`) use [`CostModel`] to
//! charge communication costs for data shipped between PEs, [`Topology`]
//! to reason about placement locality, and [`StreamReassembly`] to
//! restore per-stream chunk order when query results arrive as
//! interleaved batch streams (streamed batch shipping). A packet-level
//! simulation of the network is not reproduced: no query path used one.

pub mod cost;
pub mod stream;
pub mod topology;

pub use cost::CostModel;
pub use stream::StreamReassembly;
pub use topology::Topology;
