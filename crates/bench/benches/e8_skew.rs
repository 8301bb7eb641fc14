//! E8 — skew-aware shuffle placement vs probe-side round-robin.
//!
//! A grace join's phase-2 sites are chosen by the optimizer's shuffle
//! placement map. The historical policy assigned buckets round-robin
//! over the probe relation's fragments — blind to the fact that a
//! Zipf-skewed join key concentrates most rows in a few hash buckets, so
//! one site ends up receiving far more shuffle traffic than the rest
//! and the join waits on it. With per-fragment statistics the optimizer
//! knows the key's most-common values, maps each through the executor's
//! own bucket hash, and assigns buckets greedily to the least-loaded
//! site. This experiment joins a **Zipf(1.0)** build side against a
//! uniform probe side and measures the **max-site shuffle bits**
//! (`ExecMetrics::max_site_shuffled_bits`) under both policies —
//! the shuffle-balance win — plus join latency.
//! Records the trajectory in `BENCH_e8.json` at the repo root.
//!
//! Environment knobs (all optional):
//!
//! * `E8_PROBE_ROWS` — uniform probe rows (default 40000)
//! * `E8_BUILD_ROWS` — approximate Zipf build rows (default 30000)
//! * `E8_RANKS`      — distinct Zipf key ranks (default 400)
//! * `E8_FRAGS`      — fragments per relation (default 4)
//! * `E8_PARTS`      — shuffle bucket count (default 16)
//! * `E8_ITERS`      — timed samples per measurement (default 7)
//! * `E8_ENFORCE=1`  — exit non-zero unless the skew-aware placement
//!   moves fewer max-site shuffle bits than the round-robin baseline

use prisma_bench::{enforce, env_knob, median, query_samples, write_json};
use prisma_core::optimizer::PhysicalConfig;
use prisma_core::types::tuple;
use prisma_core::types::Tuple;
use prisma_core::PrismaMachine;

/// A Zipf(1.0)-distributed key multiset: rank `r` (1-based) appears
/// `⌈C/r⌉` times, `C` chosen so the total lands near `target_rows`.
/// Deterministic — no RNG, the distribution IS the data.
fn zipf_keys(target_rows: usize, ranks: usize) -> Vec<i64> {
    let harmonic: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let c = target_rows as f64 / harmonic;
    let mut keys = Vec::with_capacity(target_rows + ranks);
    for r in 1..=ranks {
        let count = (c / r as f64).ceil() as usize;
        keys.extend(std::iter::repeat_n(r as i64 - 1, count));
    }
    keys
}

#[derive(Clone, Copy, Default)]
struct Measured {
    /// Bits the busiest phase-2 site received over the direct shuffle.
    max_site_bits: u64,
    /// Total fragment→fragment shuffle bits.
    total_shuffle_bits: u64,
    /// Full join latency, µs.
    latency_us: u64,
    /// Join output rows (result sanity cross-check).
    rows: u64,
}

fn measure(db: &PrismaMachine, sql: &str, iters: usize) -> Measured {
    let samples = query_samples(db, sql, iters, |s| {
        assert!(s.metrics.partitioned_joins >= 1, "join did not take the grace path")
    });
    // Byte counters and the output cardinality are deterministic per
    // plan; latency is the median.
    let m = median(&samples);
    Measured {
        max_site_bits: m.metrics.max_site_shuffled_bits,
        total_shuffle_bits: m.metrics.shuffled_direct_bits,
        latency_us: m.metrics.full_result_micros,
        rows: m.rows as u64,
    }
}

fn main() {
    let probe_rows: usize = env_knob("E8_PROBE_ROWS", 40_000);
    let build_rows: usize = env_knob("E8_BUILD_ROWS", 30_000);
    let ranks: usize = env_knob("E8_RANKS", 400);
    let frags: usize = env_knob("E8_FRAGS", 4);
    let parts: usize = env_knob("E8_PARTS", 16);
    let iters: usize = env_knob("E8_ITERS", 7);

    let mut db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql(&format!(
        "CREATE TABLE probe (k INT, v INT) FRAGMENTED BY HASH(v) INTO {frags}"
    ))
    .unwrap();
    db.sql(&format!(
        "CREATE TABLE build (k INT, v INT) FRAGMENTED BY HASH(v) INTO {frags}"
    ))
    .unwrap();
    let txn = db.begin();
    // Probe: uniform keys over the Zipf domain, so every build row joins.
    for chunk in (0..probe_rows as i64)
        .map(|i| tuple![i % ranks as i64, i])
        .collect::<Vec<_>>()
        .chunks(5000)
    {
        db.gdh().insert(txn, "probe", chunk.to_vec()).unwrap();
    }
    // Build: Zipf(1.0) keys — rank r appears ∝ 1/r.
    let rows: Vec<Tuple> = zipf_keys(build_rows, ranks)
        .into_iter()
        .enumerate()
        .map(|(i, k)| tuple![k, i as i64])
        .collect();
    for chunk in rows.chunks(5000) {
        db.gdh().insert(txn, "build", chunk.to_vec()).unwrap();
    }
    db.commit(txn).unwrap();
    // Per-fragment statistics: CollectStats → StatsReport → dictionary.
    // This is what tells the optimizer about the key skew.
    db.refresh_stats("probe").unwrap();
    db.refresh_stats("build").unwrap();

    let sql = "SELECT p.v, b.v FROM probe p, build b WHERE p.k = b.k";

    let skew_cfg = PhysicalConfig {
        broadcast_max_rows: 0.0, // force the grace path for the comparison
        shuffle_parts: Some(parts),
        skew_aware_placement: true,
    };
    let rr_cfg = PhysicalConfig {
        skew_aware_placement: false,
        ..skew_cfg
    };

    db.gdh_mut().set_physical_config(skew_cfg);
    let skew_aware = measure(&db, sql, iters);
    db.gdh_mut().set_physical_config(rr_cfg);
    let round_robin = measure(&db, sql, iters);

    assert_eq!(
        skew_aware.rows, round_robin.rows,
        "placement must not change the join result"
    );
    assert_eq!(
        skew_aware.total_shuffle_bits, round_robin.total_shuffle_bits,
        "placement moves the same rows, only to different sites"
    );

    eprintln!(
        "[E8-skew:skew-aware]  max-site {} bits of {} total shuffled, join in {} µs",
        skew_aware.max_site_bits, skew_aware.total_shuffle_bits, skew_aware.latency_us
    );
    eprintln!(
        "[E8-skew:round-robin] max-site {} bits of {} total shuffled, join in {} µs",
        round_robin.max_site_bits, round_robin.total_shuffle_bits, round_robin.latency_us
    );
    let improvement = round_robin.max_site_bits as f64 / skew_aware.max_site_bits.max(1) as f64;
    eprintln!("[E8-skew] busiest site receives {improvement:.2}x less with skew-aware placement");

    let us_per_output_row = skew_aware.latency_us as f64 / skew_aware.rows.max(1) as f64;
    let json = format!(
        "{{\n  \"experiment\": \"e8_skew\",\n  \"probe_rows\": {probe_rows},\n  \"build_rows\": {build_rows},\n  \"zipf_ranks\": {ranks},\n  \"zipf_s\": 1.0,\n  \"shuffle_parts\": {parts},\n  \"iters\": {iters},\n  \"output_rows\": {},\n  \"benches\": {{\n    \"max_site_shuffle_bits\": {{\"skew_aware\": {}, \"round_robin\": {}, \"improvement\": {improvement:.2}}},\n    \"total_shuffle_bits\": {{\"skew_aware\": {}, \"round_robin\": {}}},\n    \"join_latency_us\": {{\"skew_aware\": {}, \"round_robin\": {}}}\n  }},\n  \"notes\": \"output cardinality explains the join latency: every build row matches probe_rows/zipf_ranks probe rows, so {} input rows produce output_rows result rows, all shipped to and merged at the coordinator ({us_per_output_row:.2} us per output row); the shuffle this experiment compares moves {} bits\"\n}}\n",
        skew_aware.rows,
        skew_aware.max_site_bits,
        round_robin.max_site_bits,
        skew_aware.total_shuffle_bits,
        round_robin.total_shuffle_bits,
        skew_aware.latency_us,
        round_robin.latency_us,
        probe_rows + build_rows,
        skew_aware.total_shuffle_bits,
    );
    write_json("E8-skew", "BENCH_e8.json", &json);

    if enforce("E8") {
        assert!(
            skew_aware.max_site_bits < round_robin.max_site_bits,
            "skew-aware placement did not reduce max-site shuffle bits: {} vs {}",
            skew_aware.max_site_bits,
            round_robin.max_site_bits
        );
    }
    db.shutdown();
}
