//! E10 — mid-query failover: a PE is killed in the middle of a
//! hash-partitioned (grace) join and the query completes against the
//! dead PE's backup replicas.
//!
//! Every fragment has a backup replica on a distinct PE, kept in sync by
//! log-record shipping over the GDH stream protocol (`ReplicaAppend` /
//! `ReplicaAck`; 2PC commits only after the backup acks). When the
//! coordinator's reply deadline fires, the data dictionary promotes each
//! dead primary's backup, the lost streams are retired (stale chunks are
//! rejected by `StreamReassembly`) and **only** the lost fragments' work
//! is re-issued — completed streams are kept, and the merged result is
//! bit-identical to the fault-free run (asserted every iteration).
//!
//! Reported per run:
//!
//! * baseline and failover wall latency for the same join — their
//!   difference is the **recovery time**, dominated by the reply
//!   deadline (`timeout_ms`) plus the replay of the lost streams;
//! * `streams_rerequested` vs `streams_total` — the fraction of the
//!   fan-out that had to be recomputed (a full restart would be 1.0,
//!   and the point of per-stream failover is staying below it when the
//!   machine is larger than the blast radius);
//! * `failovers` — backup promotions recorded by the dictionary.
//!
//! The fault script is seeded and deterministic: kill one PE at its 3rd
//! delivered message after the join starts (`E10_SEED` varies the tie-
//! breaking RNG, not the script).
//!
//! Environment knobs (all optional):
//!
//! * `E10_ROWS`      — emp rows (default 2000)
//! * `E10_ITERS`     — timed samples per measurement (default 3)
//! * `E10_SEED`      — injector seed (default 20260807)
//! * `E10_ENFORCE=1` — exit non-zero unless recovery completed within
//!   2.5 reply deadlines of the baseline and fewer than all streams
//!   were re-requested per recovery round

use prisma_bench::{enforce, env_knob, median, sorted_samples, write_json};
use prisma_core::faultx::{FaultInjector, FaultSpec};
use prisma_core::gdh::exec::ExecMetrics;
use prisma_core::optimizer::PhysicalConfig;
use prisma_core::stable::DiskProfile;
use prisma_core::types::{MachineConfig, PeId, TopologyKind};
use prisma_core::{AllocationPolicy, GlobalDataHandler, Relation};

const TIMEOUT_SECS: u64 = 1;
const VICTIM_PE: u32 = 2;

fn boot() -> GlobalDataHandler {
    let cfg = MachineConfig {
        num_pes: 4,
        topology: TopologyKind::Mesh,
        ..MachineConfig::default()
    }
    .with_reply_timeout_secs(TIMEOUT_SECS);
    let mut gdh =
        GlobalDataHandler::boot(cfg, AllocationPolicy::LoadBalanced, DiskProfile::instant())
            .unwrap();
    // Force the grace path: it has the most mid-flight state to lose.
    gdh.set_physical_config(PhysicalConfig {
        broadcast_max_rows: 0.0,
        ..PhysicalConfig::default()
    });
    gdh
}

fn load(gdh: &GlobalDataHandler, rows: u64) {
    gdh.execute_sql(
        "CREATE TABLE emp (id INT, dept INT, sal DOUBLE) FRAGMENTED BY HASH(id) INTO 4",
    )
    .unwrap();
    gdh.execute_sql("CREATE TABLE dept (id INT, name STRING) FRAGMENTED BY HASH(id) INTO 2")
        .unwrap();
    let mut values = String::new();
    for i in 0..rows {
        if i > 0 {
            values.push(',');
        }
        values.push_str(&format!("({i}, {}, {}.0)", i % 20, 100 + i % 1000));
    }
    gdh.execute_sql(&format!("INSERT INTO emp VALUES {values}"))
        .unwrap();
    let depts: Vec<String> = (0..20).map(|d| format!("({d}, 'd{d}')")).collect();
    gdh.execute_sql(&format!("INSERT INTO dept VALUES {}", depts.join(",")))
        .unwrap();
    gdh.refresh_stats("emp").unwrap();
    gdh.refresh_stats("dept").unwrap();
}

const JOIN: &str = "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id ORDER BY e.id";

/// One measured run: wall µs plus the executor's recovery counters.
struct Sample {
    wall_us: u64,
    rows: Relation,
    metrics: ExecMetrics,
}

fn run(gdh: &GlobalDataHandler) -> Sample {
    let t0 = std::time::Instant::now();
    let (rows, metrics) = gdh.query_sql_with_metrics(JOIN).unwrap();
    Sample {
        wall_us: t0.elapsed().as_micros() as u64,
        rows,
        metrics,
    }
}

fn main() {
    let rows: u64 = env_knob("E10_ROWS", 2000);
    let iters: usize = env_knob("E10_ITERS", 3).max(1);
    let seed: u64 = env_knob("E10_SEED", 20_260_807);

    // Baseline: the fault-free join (median of `iters` on one machine).
    let gdh = boot();
    load(&gdh, rows);
    let oracle = run(&gdh);
    let base_us = *median(&sorted_samples(iters, || run(&gdh).wall_us, |&us| us));
    gdh.shutdown();

    // Failover: each sample needs a fresh machine (the killed PE stays
    // dead), scripted to kill one PE three messages into the join.
    let mut sample_seed = seed;
    let failover_run = || {
        let faults = FaultInjector::scripted(sample_seed, vec![]);
        sample_seed += 1;
        let mut gdh = boot();
        gdh.set_fault_injector(faults.clone());
        load(&gdh, rows);
        faults.script(vec![FaultSpec::KillPeAtMessage {
            pe: PeId(VICTIM_PE),
            at: faults.messages_seen(PeId(VICTIM_PE)) + 3,
        }]);
        let s = run(&gdh);
        assert_eq!(
            s.rows.tuples(),
            oracle.rows.tuples(),
            "recovered result diverged from the fault-free oracle"
        );
        assert!(
            s.metrics.failovers >= 1,
            "no backup promotion recorded: {:?}",
            s.metrics
        );
        assert!(
            faults.events().iter().any(|e| e.contains("kill")),
            "scripted kill never fired: {:?}",
            faults.events()
        );
        gdh.shutdown();
        s
    };
    let fail_samples = sorted_samples(iters, failover_run, |s| s.wall_us);
    let med = median(&fail_samples);
    let recovery_ms = med.wall_us.saturating_sub(base_us) / 1_000;
    // The initial fan-out's reply streams (phase-2 site installs).
    let streams_total = med.metrics.fragment_tasks;
    let rerequested = med.metrics.streams_rerequested;

    eprintln!(
        "[E10-failover] baseline {} µs, with kill+failover {} µs (recovery {} ms over a {} ms deadline)",
        base_us,
        med.wall_us,
        recovery_ms,
        TIMEOUT_SECS * 1000
    );
    eprintln!(
        "[E10-failover] {} of {} stream(s) re-requested, {} backup promotion(s), result bit-identical to oracle",
        rerequested, streams_total, med.metrics.failovers
    );

    let json = format!(
        "{{\n  \"experiment\": \"e10_failover\",\n  \"pes\": 4,\n  \"victim_pe\": {VICTIM_PE},\n  \"rows\": {rows},\n  \"iters\": {iters},\n  \"seed\": {seed},\n  \"timeout_ms\": {},\n  \"baseline_wall_us\": {base_us},\n  \"failover_wall_us\": {},\n  \"recovery_ms\": {recovery_ms},\n  \"streams_total\": {streams_total},\n  \"streams_rerequested\": {rerequested},\n  \"failovers\": {},\n  \"result_bit_identical\": true\n}}\n",
        TIMEOUT_SECS * 1000,
        med.wall_us,
        med.metrics.failovers,
    );
    write_json("E10-failover", "BENCH_e10.json", &json);

    if enforce("E10") {
        let budget_us = base_us + TIMEOUT_SECS * 2_500_000;
        assert!(
            med.wall_us <= budget_us,
            "recovery too slow: {} µs against a {} µs budget (2.5 deadlines)",
            med.wall_us,
            budget_us
        );
        // Per-stream failover, not a restart: across both recovery
        // rounds the re-requested streams must stay below re-running
        // the whole fan-out twice.
        assert!(
            rerequested < streams_total * 2,
            "re-requested {rerequested} of {streams_total} streams — failover degenerated into restarts"
        );
    }
}
