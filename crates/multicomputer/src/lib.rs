//! # prisma-multicomputer
//!
//! Discrete-event simulator of the PRISMA multi-computer (paper §3.2):
//!
//! * 64 processing elements (configurable), each with **four communication
//!   links running at 10 Mbit/sec** and 16 MB of local main memory;
//! * a **mesh-like** or **chordal-ring** interconnection topology;
//! * store-and-forward routing of **256-bit packets**;
//! * "various simulations show an average network throughput of up to
//!   20.000 packets (of 256 bits) per second for each processing element
//!   simultaneously" — [`traffic::throughput_sweep`] re-runs exactly
//!   this simulation.
//!
//! The crate has two consumers:
//!
//! 1. the **network throughput sweep** ([`traffic`]) drives
//!    [`NetworkSim`] directly with synthetic traffic patterns and measures
//!    saturation throughput;
//! 2. the **DBMS layers** (`prisma-poolx`, `prisma-gdh`) use [`CostModel`]
//!    to charge communication costs for data shipped between PEs,
//!    [`Topology`] to reason about placement locality, and
//!    [`StreamReassembly`] to restore per-stream chunk order when query
//!    results arrive as interleaved batch streams (streamed batch
//!    shipping).

pub mod cost;
pub mod pe;
pub mod sim;
pub mod stats;
pub mod stream;
pub mod topology;
pub mod traffic;

pub use cost::CostModel;
pub use pe::PeMemory;
pub use sim::{NetworkSim, Packet, SimTime};
pub use stats::NetworkStats;
pub use stream::StreamReassembly;
pub use topology::Topology;
pub use traffic::TrafficPattern;
