//! # e0 — the standing end-to-end benchmark
//!
//! One closed-loop client drives seven named workloads through the
//! public `PrismaMachine` façade, verifies every result, and reports the
//! end-to-end metrics of [`spec::END_TO_END`]; a second, traced run of the
//! same statements records spans *from these files* around calls into
//! each crate's public functions and derives the per-layer metrics of
//! [`spec::PER_LAYER`]. See `README.md` beside `Cargo.toml` for the
//! command lines and how to read the numbers.
//!
//! The layers are the repository's crates; nothing in the engine is
//! changed or instrumented by this package.

pub mod check;
pub mod compare;
pub mod exec;
pub mod json;
pub mod machine;
pub mod probe;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
