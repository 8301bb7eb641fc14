//! # prisma-bench
//!
//! The experiments listed in README.md, one `benches/eN_*.rs` each. Run
//! with `cargo bench -p prisma-bench`; each bench prints the paper-shape
//! series it measures in addition to its timings.
