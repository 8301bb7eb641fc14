//! E12 — two-tier columnar fragment storage (PR 10).
//!
//! Fragments keep a row-oriented delta heap plus sealed column chunks
//! with zone maps and cached wire blocks. This experiment measures what
//! the sealed tier buys on the scan path against the pre-PR 10 row-heap
//! baseline (a machine whose seal threshold is set above the table size,
//! so nothing ever seals):
//!
//! 1. **Selective scans** — a predicate on the clustered key at ~2%
//!    selectivity. Zone maps refute whole chunks before any data is
//!    touched; the prune ratio (`chunks_pruned / chunks considered`) is
//!    reported alongside the speedup over the unpruned row-heap scan.
//! 2. **Full scans** — sealed chunks are served as ready-made column
//!    batches with zero row pivot and shipped as cached wire blocks; the
//!    row heap pivots and encodes every batch on every scan, so the
//!    chunked scan must be at least at par with it.
//! 3. **Cached-block re-ship** — the first scan seals and pays the block
//!    encode; re-scans of the unmutated fragments re-ship the cached
//!    frames.
//!
//! Records the trajectory in `BENCH_e12.json` at the repo root.
//!
//! Environment knobs (all optional):
//!
//! * `E12_ROWS`  — rows in the table (default 60000)
//! * `E12_FRAGS` — fragments (default 4)
//! * `E12_ITERS` — timed samples per measurement (default 7)
//! * `E12_ENFORCE=1` — exit non-zero unless the pruned selective scan is
//!   at least 2x faster than the unpruned row-heap scan (with a reported
//!   prune ratio of at least 0.5), the zero-pivot full scan is at par
//!   with the row-heap scan (10% floor-to-floor noise margin), and the
//!   cached re-scan is strictly faster than the cold scan that built the
//!   caches

use prisma_bench::{enforce, env_knob, query_samples, write_json};
use prisma_core::types::tuple;
use prisma_core::PrismaMachine;

/// Build a machine, create the table and load `rows` rows in clustered
/// key order (ids arrive ascending, so sealed chunks are id-clustered
/// and a key predicate refutes most zones).
fn load(seal_rows: usize, rows: usize, frags: usize) -> PrismaMachine {
    let db = PrismaMachine::builder()
        .pes(8)
        .seal_rows(seal_rows)
        .build()
        .unwrap();
    db.sql(&format!(
        "CREATE TABLE t (id INT, grp INT, val DOUBLE) FRAGMENTED BY HASH(id) INTO {frags}"
    ))
    .unwrap();
    let txn = db.begin();
    for chunk in (0..rows as i64)
        .map(|i| tuple![i, i % 16, (i % 1000) as f64])
        .collect::<Vec<_>>()
        .chunks(5000)
    {
        db.gdh().insert(txn, "t", chunk.to_vec()).unwrap();
    }
    db.commit(txn).unwrap();
    db.refresh_stats("t").unwrap();
    db
}

fn main() {
    let rows: usize = env_knob("E12_ROWS", 60_000);
    let frags: usize = env_knob("E12_FRAGS", 4);
    let iters: usize = env_knob("E12_ITERS", 7);
    // Floor latency (µs) over the samples, plus the floor run's metrics
    // (the chunk counters are the same on every run).
    let floor_us = |db: &PrismaMachine, sql: &str, expect_rows: usize| {
        let samples = query_samples(db, sql, iters.max(5), |s| {
            assert_eq!(s.rows, expect_rows, "scan lost rows")
        });
        (samples[0].metrics.full_result_micros, samples[0].metrics)
    };

    // Two-tier machine (1024-row sealed chunks) vs the row-heap baseline
    // (threshold above the table size: nothing ever seals).
    let chunked = load(1024, rows, frags);
    let rowheap = load(usize::MAX, rows, frags);

    // 1. Selective scan on the clustered key, ~2% selectivity.
    let cutoff = rows / 50;
    let sel_sql = format!("SELECT id, grp, val FROM t WHERE id < {cutoff}");
    let (sel_pruned_us, m) = floor_us(&chunked, &sel_sql, cutoff);
    let (sel_heap_us, _) = floor_us(&rowheap, &sel_sql, cutoff);
    let considered = m.chunks_scanned + m.chunks_pruned;
    let prune_ratio = m.chunks_pruned as f64 / considered.max(1) as f64;
    let sel_speedup = sel_heap_us as f64 / sel_pruned_us.max(1) as f64;
    eprintln!(
        "[E12-storage:selective] pruned {sel_pruned_us} µs vs row heap {sel_heap_us} µs — {sel_speedup:.2}x, prune ratio {prune_ratio:.2} ({} pruned / {considered} chunks)",
        m.chunks_pruned
    );

    // 2. Zero-pivot full scan vs the row heap.
    let full_sql = "SELECT id, grp, val FROM t";
    let (full_chunked_us, _) = floor_us(&chunked, full_sql, rows);
    let (full_heap_us, _) = floor_us(&rowheap, full_sql, rows);
    eprintln!("[E12-storage:full] chunked {full_chunked_us} µs vs row heap {full_heap_us} µs");

    // 3. Cached-block re-ship: cold seal+encode vs warm cache, on a
    // machine that has never scanned.
    let fresh = load(1024, rows, frags);
    let first_us = {
        let (r, m) = fresh.query_with_metrics(full_sql).unwrap();
        assert_eq!(r.len(), rows);
        assert!(m.chunks_scanned > 0, "first scan did not seal");
        m.full_result_micros
    };
    let (rescan_us, _) = floor_us(&fresh, full_sql, rows);
    eprintln!("[E12-storage:reship] first (seal+encode) {first_us} µs, cached re-scan {rescan_us} µs");
    fresh.shutdown();

    let json = format!(
        "{{\n  \"experiment\": \"e12_storage\",\n  \"rows\": {rows},\n  \"fragments\": {frags},\n  \"iters\": {iters},\n  \"seal_rows\": 1024,\n  \"benches\": {{\n    \"selective_scan_latency_us\": {{\"pruned\": {sel_pruned_us}, \"row_heap\": {sel_heap_us}, \"speedup\": {sel_speedup:.2}}},\n    \"selective_scan_pruning\": {{\"chunks_scanned\": {}, \"chunks_pruned\": {}, \"prune_ratio\": {prune_ratio:.2}}},\n    \"full_scan_latency_us\": {{\"chunked\": {full_chunked_us}, \"row_heap\": {full_heap_us}}},\n    \"reship_latency_us\": {{\"first\": {first_us}, \"cached\": {rescan_us}}}\n  }},\n  \"notes\": \"selective scan is ~2% selectivity on the clustered key (ids inserted ascending, so zone maps refute most chunks); the row-heap baseline is an identical machine whose seal threshold exceeds the table size, so every scan pivots and encodes its batches afresh; latencies are floors over the sample set\"\n}}\n",
        m.chunks_scanned, m.chunks_pruned
    );
    write_json("E12-storage", "BENCH_e12.json", &json);

    if enforce("E12") {
        assert!(
            sel_speedup >= 2.0,
            "zone pruning bought only {sel_speedup:.2}x on the selective scan (need >= 2x)"
        );
        assert!(
            prune_ratio >= 0.5,
            "prune ratio {prune_ratio:.2} too low on the clustered selective scan (need >= 0.5)"
        );
        assert!(
            full_chunked_us * 10 <= full_heap_us * 11,
            "zero-pivot full scan lost to the row heap: {full_chunked_us} vs {full_heap_us} µs"
        );
        assert!(
            rescan_us < first_us,
            "cached re-scan not faster than the cold seal+encode scan: {rescan_us} vs {first_us} µs"
        );
    }
    chunked.shutdown();
    rowheap.shutdown();
}
