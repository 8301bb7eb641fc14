//! The benchmark's fixed vocabulary: workload names, metric names, units
//! and regression bounds. `BENCHMARK.json` at the repository root repeats
//! these tables for the driver; the smoke test checks the two agree.

/// Environment variables that silently change the engine's configuration.
/// The benchmark sets every such knob through `MachineConfig` and refuses
/// to run when one of these is present, so two result files always
/// describe the same machine.
pub const FORBIDDEN_ENV: [&str; 6] = [
    "OFM_WORKERS",
    "SEAL_EVERY",
    "PRISMA_ROW_WIRE",
    "FAULT_SEED",
    "REPLY_TIMEOUT_SECS",
    "CHECKX_LOCK_ORDER",
];

/// One workload: its name, the tail percentile `iter_tail_ms` reports for
/// it, and the one-line reason it exists (copied into `BENCHMARK.json`).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// Percentile (0–1) reported as `iter_tail_ms`, fixed per workload so
    /// the metric means the same thing in every run: the highest of
    /// p95/p90/p50 the workload's iteration rate supports (each of the
    /// eight tail segments of a run holds ≈ 375 iterations on `oltp_txn`,
    /// 12 on `join_shuffle`, one on `failover`).
    pub tail: f64,
    /// Untimed warm-up iterations (they belong to `setup_s`).
    pub warmup: u64,
    /// Why the workload exists and which layers it isolates.
    pub why: &'static str,
}

/// The seven workloads.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "scan_ship",
        tail: 0.95,
        warmup: 10,
        why: "150000 rows cross the wire per iteration from warm cached blocks: ofm chunk scan, types wire, gdh merge, relalg collect; kernels, optimizer and joins do almost nothing",
    },
    WorkloadSpec {
        name: "filter_agg",
        tail: 0.95,
        warmup: 10,
        why: "same table, opposite profile: storage kernels, zone pruning, relalg aggregation and the poolx morsel pool work, the wire carries under 2% of the rows",
    },
    WorkloadSpec {
        name: "join_shuffle",
        tail: 0.90,
        warmup: 10,
        why: "grace, broadcast and join+group-by joins: direct fragment-to-fragment shuffle, relalg hash-join build and probe, optimizer strategy choice",
    },
    WorkloadSpec {
        name: "oltp_txn",
        tail: 0.95,
        warmup: 50,
        why: "transfers, point reads and inserts under 1 ms each: sqlfe, optimizer, gdh locks, 2PC, replica ack, stable WAL and mailbox round trips dominate; scans do nothing",
    },
    WorkloadSpec {
        name: "recursive",
        tail: 0.95,
        warmup: 10,
        why: "the second interface: SQL CLOSURE, PRISMAlog linear recursion (fixpoint) and mutual recursion, which takes the coordinator semi-naive fallback",
    },
    WorkloadSpec {
        name: "scan_after_dml",
        tail: 0.95,
        warmup: 10,
        why: "point DML dissolves sealed chunks and drops cached wire blocks, the scans that follow re-seal and re-encode: storage trade-offs show here and on scan_ship with opposite sign",
    },
    WorkloadSpec {
        name: "failover",
        tail: 0.50,
        warmup: 1,
        why: "a PE is killed three messages into a grace join on a fresh 4-PE machine: recovery costs one reply deadline today, the result must equal the fault-free run",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name in results and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` (and the driver) reject; `None` for per-layer
    /// metrics, which explain and never gate.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the machine sees, reported for every workload from the
/// untraced run. (`fail_share` of the issue's table is the result line's
/// `failed`/`attempted` pair: the contract wants metrics that are never 0.)
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("iter_p50_ms", "ms", "lower", 0.25),
    e2e("iter_tail_ms", "ms", "lower", 0.25),
    e2e("iters_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_iter", "ms", "lower", 0.25),
    e2e("wire_kb_per_iter", "KB", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Single-layer metrics of the traced run, all per iteration. Times are
/// the mean of the middle half of the per-iteration values, counts the
/// mean.
pub const PER_LAYER: [MetricSpec; 52] = [
    layer("sqlfe.compile_us", "us", "lower"),
    layer("optimizer.optimize_us", "us", "lower"),
    layer("optimizer.lower_physical_us", "us", "lower"),
    layer("prismalog.compile_us", "us", "lower"),
    layer("prismalog.seminaive_us", "us", "lower"),
    layer("gdh.query_us", "us", "lower"),
    layer("gdh.first_batch_us", "us", "lower"),
    layer("gdh.null_query_us", "us", "lower"),
    layer("gdh.dml_us", "us", "lower"),
    layer("gdh.commit_us", "us", "lower"),
    layer("gdh.fragment_tasks", "count", "lower"),
    layer("gdh.batches_shipped", "count", "lower"),
    layer("gdh.tuples_shipped", "count", "lower"),
    layer("gdh.shuffled_direct_kb", "KB", "lower"),
    layer("gdh.max_site_shuffled_kb", "KB", "lower"),
    layer("gdh.recovery_ms", "ms", "lower"),
    layer("gdh.failovers", "count", "lower"),
    layer("gdh.streams_rerequested", "count", "lower"),
    layer("ofm.open_physical_us", "us", "lower"),
    layer("ofm.chunks_scanned", "count", "lower"),
    layer("ofm.chunks_pruned", "count", "higher"),
    layer("ofm.prune_ratio", "ratio", "higher"),
    layer("ofm.seal_load_us", "us", "lower"),
    layer("ofm.seal_us", "us", "lower"),
    layer("ofm.insert_us", "us", "lower"),
    layer("ofm.update_where_us", "us", "lower"),
    layer("ofm.delete_where_us", "us", "lower"),
    layer("ofm.prepare_commit_us", "us", "lower"),
    layer("ofm.replica_apply_us", "us", "lower"),
    layer("relalg.exec_serial_us", "us", "lower"),
    layer("relalg.exec_pooled_us", "us", "lower"),
    layer("relalg.hash_join_us", "us", "lower"),
    layer("relalg.partition_us", "us", "lower"),
    layer("relalg.merge_us", "us", "lower"),
    layer("relalg.closure_us", "us", "lower"),
    layer("storage.kernel_us", "us", "lower"),
    layer("types.wire_encode_us", "us", "lower"),
    layer("types.wire_decode_us", "us", "lower"),
    layer("types.wire_bytes_per_row", "B", "lower"),
    layer("multicomputer.remote_kb", "KB", "lower"),
    layer("multicomputer.remote_msgs", "count", "lower"),
    layer("multicomputer.coord_recv_kb", "KB", "lower"),
    layer("multicomputer.modeled_transfer_ms", "ms", "lower"),
    layer("multicomputer.reassembly_us", "us", "lower"),
    layer("poolx.morsels", "count", "lower"),
    layer("poolx.steals", "count", "lower"),
    layer("poolx.busy_total_us", "us", "lower"),
    layer("poolx.busy_max_us", "us", "lower"),
    layer("poolx.work_inflation", "ratio", "lower"),
    layer("stable.wal_append_us", "us", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.accounted_share", "ratio", "higher"),
];

/// Seconds one run measures for (`--seconds` in the driver's command).
pub const RUN_SECONDS: u32 = 12;

/// The text of `BENCHMARK.json`: the driver's view of these tables.
/// `e0 --benchmark-json` prints it; the smoke test holds the checked-in
/// file to it, so the tables are edited in one place.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricSpec| match m.bound {
        Some(b) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
            m.name, m.unit, m.better
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ),
    };
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"e0/Cargo.toml\", \"--\"],\n  \"paths\": [\"e0\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}
