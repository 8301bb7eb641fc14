//! # prisma-bench
//!
//! The experiments listed in README.md, one `benches/eN_*.rs` each. Run
//! with `cargo bench -p prisma-bench`; each bench prints the paper-shape
//! series it measures in addition to its timings.
//!
//! This library is the harness the JSON-writing benches share: `E*_`
//! environment knobs, the `E*_ENFORCE=1` gate CI's smoke steps set,
//! floor/median sampling (of arbitrary closures and of SQL through
//! [`PrismaMachine::query_with_metrics`]), and the writer for the
//! `BENCH_e*.json` trajectory files at the repo root.

use prisma_core::gdh::ExecMetrics;
use prisma_core::PrismaMachine;

/// An environment knob: `key` parsed as `T`, or `default` when unset or
/// unparsable.
pub fn env_knob<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether the on/off knob `key` is set to `1`.
pub fn env_flag(key: &str) -> bool {
    std::env::var(key).is_ok_and(|v| v == "1")
}

/// Whether `<experiment>_ENFORCE=1` asks the bench to exit non-zero when
/// its claims do not hold (e.g. `enforce("E12")`).
pub fn enforce(experiment: &str) -> bool {
    env_flag(&format!("{experiment}_ENFORCE"))
}

/// Take `iters` (at least one) samples of `run` and sort them by `key`:
/// the first is the floor, [`median`] picks the middle. No warm-up is
/// taken — callers whose first run is not representative run once
/// before sampling.
pub fn sorted_samples<T, K: Ord>(
    iters: usize,
    run: impl FnMut() -> T,
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let mut samples: Vec<T> = std::iter::repeat_with(run).take(iters.max(1)).collect();
    samples.sort_by_key(key);
    samples
}

/// The median of a sorted, non-empty sample set.
pub fn median<T>(sorted: &[T]) -> &T {
    &sorted[sorted.len() / 2]
}

/// One timed query execution.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    /// Result rows.
    pub rows: usize,
    /// The executor's metrics for the run (`full_result_micros` is the
    /// latency the samples are ordered by).
    pub metrics: ExecMetrics,
}

/// Warm `sql` up once, then sample it `iters` times through
/// `query_with_metrics`, passing every run (the warm-up included) to
/// `check`; the samples come back sorted by full-result latency.
pub fn query_samples(
    db: &PrismaMachine,
    sql: &str,
    iters: usize,
    check: impl Fn(&QuerySample),
) -> Vec<QuerySample> {
    let run = || {
        let (rows, metrics) = db.query_with_metrics(sql).unwrap();
        let sample = QuerySample {
            rows: rows.len(),
            metrics,
        };
        check(&sample);
        sample
    };
    let _warmup = run();
    sorted_samples(iters, run, |s| s.metrics.full_result_micros)
}

/// Write `json` to `file` at the repo root, logging the outcome under
/// `[tag]`.
pub fn write_json(tag: &str, file: &str, json: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[{tag}] wrote {}", path.display()),
        Err(e) => eprintln!("[{tag}] could not write {}: {e}", path.display()),
    }
}
