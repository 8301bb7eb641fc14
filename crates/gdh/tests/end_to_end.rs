//! End-to-end tests of the Global Data Handler: SQL, PRISMAlog,
//! transactions, concurrency, recovery — on a small simulated machine.

use prisma_gdh::{AllocationPolicy, GlobalDataHandler};
use prisma_stable::DiskProfile;
use prisma_types::{tuple, MachineConfig, TopologyKind};

fn machine(pes: usize) -> GlobalDataHandler {
    let cfg = MachineConfig {
        num_pes: pes,
        topology: if pes >= 4 {
            TopologyKind::Mesh
        } else {
            TopologyKind::FullyConnected
        },
        ..MachineConfig::default()
    };
    GlobalDataHandler::boot(cfg, AllocationPolicy::LoadBalanced, DiskProfile::instant()).unwrap()
}

fn setup_emp(gdh: &GlobalDataHandler) {
    gdh.execute_sql(
        "CREATE TABLE emp (id INT, dept INT, sal DOUBLE) FRAGMENTED BY HASH(id) INTO 4",
    )
    .unwrap();
    gdh.execute_sql("CREATE TABLE dept (id INT, name STRING) FRAGMENTED INTO 2")
        .unwrap();
    let mut values = String::new();
    for i in 0..100 {
        if i > 0 {
            values.push(',');
        }
        values.push_str(&format!("({i}, {}, {}.0)", i % 5, 100 + i));
    }
    let n = gdh
        .execute_sql(&format!("INSERT INTO emp VALUES {values}"))
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 100);
    gdh.execute_sql(
        "INSERT INTO dept VALUES (0,'eng'), (1,'sales'), (2,'hr'), (3,'ops'), (4,'lab')",
    )
    .unwrap();
    gdh.refresh_stats("emp").unwrap();
    gdh.refresh_stats("dept").unwrap();
}

#[test]
fn sql_select_where_orderby() {
    let gdh = machine(8);
    setup_emp(&gdh);
    let rows = gdh
        .execute_sql("SELECT id FROM emp WHERE sal >= 195.0 ORDER BY id")
        .unwrap()
        .rows()
        .unwrap();
    let ids: Vec<i64> = rows
        .tuples()
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![95, 96, 97, 98, 99]);
    gdh.shutdown();
}

#[test]
fn sql_distributed_join_matches_expectation() {
    let gdh = machine(8);
    setup_emp(&gdh);
    let rows = gdh
        .execute_sql(
            "SELECT e.id, d.name FROM emp e, dept d \
             WHERE e.dept = d.id AND d.name = 'eng' ORDER BY e.id",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 20); // dept 0 has ids 0,5,10,...,95
    assert_eq!(rows.tuples()[0], tuple![0, "eng"]);
    gdh.shutdown();
}

#[test]
fn sql_parallel_aggregation() {
    let gdh = machine(8);
    setup_emp(&gdh);
    let rows = gdh
        .execute_sql(
            "SELECT dept, COUNT(*) AS n, SUM(sal) AS total FROM emp \
             GROUP BY dept ORDER BY dept",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 5);
    for t in rows.tuples() {
        assert_eq!(t.get(1).as_int(), Some(20));
    }
    // Global aggregate.
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n, AVG(sal) AS a FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(100));
    let avg = rows.tuples()[0].get(1).as_double().unwrap();
    assert!((avg - 149.5).abs() < 1e-9);
    gdh.shutdown();
}

#[test]
fn dml_update_delete_roundtrip() {
    let gdh = machine(4);
    setup_emp(&gdh);
    let n = gdh
        .execute_sql("UPDATE emp SET sal = sal + 1000 WHERE dept = 3")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 20);
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM emp WHERE sal > 1000")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(20));
    let n = gdh
        .execute_sql("DELETE FROM emp WHERE dept = 3")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 20);
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(80));
    gdh.shutdown();
}

#[test]
fn explicit_transaction_abort_rolls_back_across_fragments() {
    let gdh = machine(4);
    setup_emp(&gdh);
    let txn = gdh.begin();
    gdh.execute_sql_in(txn, "DELETE FROM emp WHERE dept = 1")
        .unwrap();
    gdh.execute_sql_in(txn, "INSERT INTO emp VALUES (999, 9, 9.0)")
        .unwrap();
    gdh.abort(txn).unwrap();
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(
        rows.tuples()[0].get(0).as_int(),
        Some(100),
        "abort must undo the delete and the insert on every fragment"
    );
    gdh.shutdown();
}

#[test]
fn two_phase_commit_makes_changes_durable_across_recovery() {
    let gdh = machine(8);
    setup_emp(&gdh);
    // Committed change.
    gdh.execute_sql("UPDATE emp SET sal = 0.0 WHERE id = 7")
        .unwrap();
    // Crash every stable device's unsynced tail, then rebuild the
    // relation from checkpoints + committed WAL suffixes.
    gdh.recover_relation("emp").unwrap();
    let rows = gdh
        .execute_sql("SELECT sal FROM emp WHERE id = 7")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.tuples()[0].get(0).as_double(), Some(0.0));
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(100));
    gdh.shutdown();
}

#[test]
fn checkpoint_bounds_recovery_replay() {
    let gdh = machine(4);
    setup_emp(&gdh);
    gdh.checkpoint("emp").unwrap();
    gdh.execute_sql("DELETE FROM emp WHERE id = 0").unwrap();
    gdh.recover_relation("emp").unwrap();
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(99));
    gdh.shutdown();
}

#[test]
fn prismalog_transitive_closure_over_fragmented_edb() {
    let gdh = machine(4);
    gdh.execute_sql("CREATE TABLE parent (p STRING, c STRING) FRAGMENTED BY HASH(p) INTO 3")
        .unwrap();
    gdh.execute_sql(
        "INSERT INTO parent VALUES ('john','mary'), ('mary','sue'), ('sue','tim'), ('ann','john')",
    )
    .unwrap();
    let rows = gdh
        .execute_prismalog(
            "ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
            "?- ancestor(ann, X).",
        )
        .unwrap();
    assert_eq!(rows.len(), 4);
    gdh.shutdown();
}

#[test]
fn prismalog_mutual_recursion_falls_back_to_seminaive() {
    let gdh = machine(4);
    gdh.execute_sql("CREATE TABLE succ (a INT, b INT) FRAGMENTED INTO 2")
        .unwrap();
    gdh.execute_sql("INSERT INTO succ VALUES (0,1),(1,2),(2,3),(3,4),(4,5)")
        .unwrap();
    let rows = gdh
        .execute_prismalog(
            "even(0).
             even(Y) :- succ(X, Y), odd(X).
             odd(Y) :- succ(X, Y), even(X).",
            "?- even(X).",
        )
        .unwrap();
    let mut evens: Vec<i64> = rows
        .tuples()
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect();
    evens.sort_unstable();
    assert_eq!(evens, vec![0, 2, 4]);
    gdh.shutdown();
}

#[test]
fn sql_closure_table_function_distributed() {
    let gdh = machine(4);
    gdh.execute_sql("CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 3")
        .unwrap();
    gdh.execute_sql("INSERT INTO edge VALUES (1,2),(2,3),(3,4),(10,11)")
        .unwrap();
    let rows = gdh
        .execute_sql("SELECT * FROM CLOSURE(edge) c WHERE c.src = 1 ORDER BY c.dst")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 3); // 1→2, 1→3, 1→4
    gdh.shutdown();
}

#[test]
fn explain_shows_the_closure_seed_and_analyze_counts_the_seeded_rows() {
    let gdh = machine(4);
    gdh.execute_sql("CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 3")
        .unwrap();
    gdh.execute_sql("INSERT INTO edge VALUES (0,1),(1,2),(2,3),(10,11),(11,12)")
        .unwrap();
    // e0's R1: the selection on the source becomes the closure's seed in
    // the optimized and the physical plan; the unoptimized plan keeps it
    // above the closure.
    let sql = "SELECT c.dst FROM CLOSURE(edge) c WHERE c.src = 0";
    let explain = gdh.explain_sql(sql).unwrap();
    assert_eq!(
        explain.matches("TransitiveClosure seed: (#0 = 0)").count(),
        2,
        "{explain}"
    );
    assert!(
        explain.contains("push-selection: 1 factor(s) into a closure's seed"),
        "{explain}"
    );
    // The analyze walk evaluates the seeded closure whole: 0→1, 0→2, 0→3.
    let analyze = gdh.explain_analyze_sql(sql).unwrap();
    let closure_line = analyze
        .lines()
        .find(|l| l.trim_start().starts_with("Closure:"))
        .unwrap_or_else(|| panic!("{analyze}"));
    assert!(closure_line.ends_with("actual 3"), "{analyze}");
    let rows = gdh.execute_sql(sql).unwrap().rows().unwrap();
    assert_eq!(
        rows.canonicalized().tuples(),
        &[tuple![1], tuple![2], tuple![3]]
    );
    gdh.shutdown();
}

#[test]
fn inter_query_parallelism_on_disjoint_relations() {
    use std::sync::Arc;
    let gdh = Arc::new(machine(8));
    setup_emp(&gdh);
    gdh.execute_sql("CREATE TABLE other (x INT) FRAGMENTED INTO 2")
        .unwrap();
    gdh.execute_sql("INSERT INTO other VALUES (1),(2),(3)")
        .unwrap();
    let mut handles = Vec::new();
    for i in 0..6 {
        let gdh = gdh.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                let sql = if i % 2 == 0 {
                    "SELECT COUNT(*) AS n FROM emp WHERE sal > 120.0"
                } else {
                    "SELECT COUNT(*) AS n FROM other"
                };
                let rows = gdh.execute_sql(sql).unwrap().rows().unwrap();
                assert_eq!(rows.len(), 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    gdh.shutdown();
}

#[test]
fn writers_serialize_on_the_same_relation() {
    use std::sync::Arc;
    let gdh = Arc::new(machine(4));
    gdh.execute_sql("CREATE TABLE counter (id INT, v INT) FRAGMENTED INTO 1")
        .unwrap();
    gdh.execute_sql("INSERT INTO counter VALUES (1, 0)").unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let gdh = gdh.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                gdh.execute_sql("UPDATE counter SET v = v + 1 WHERE id = 1")
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let rows = gdh
        .execute_sql("SELECT v FROM counter WHERE id = 1")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(
        rows.tuples()[0].get(0).as_int(),
        Some(40),
        "strict 2PL must serialize the 40 increments"
    );
    gdh.shutdown();
}

#[test]
fn explain_shows_rule_firings() {
    let gdh = machine(4);
    setup_emp(&gdh);
    let plan = gdh
        .explain_sql(
            "SELECT e.id FROM emp e, dept d WHERE e.dept = d.id AND e.sal > 150.0",
        )
        .unwrap();
    assert!(plan.contains("extract-join-keys"), "{plan}");
    assert!(plan.contains("push-selection"), "{plan}");
    gdh.shutdown();
}

#[test]
fn union_except_and_set_semantics() {
    let gdh = machine(4);
    setup_emp(&gdh);
    let rows = gdh
        .execute_sql(
            "SELECT dept FROM emp UNION SELECT id FROM dept",
        )
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 5); // depts 0..4 in both
    let rows = gdh
        .execute_sql("SELECT id FROM dept EXCEPT SELECT dept FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 0);
    gdh.shutdown();
}

#[test]
fn errors_are_clean_not_panics() {
    let gdh = machine(4);
    assert!(gdh.execute_sql("SELECT * FROM ghost").is_err());
    assert!(gdh.execute_sql("CREATE TABLE t (a WIBBLE)").is_err());
    gdh.execute_sql("CREATE TABLE t (a INT)").unwrap();
    assert!(gdh.execute_sql("CREATE TABLE t (a INT)").is_err());
    assert!(gdh.execute_sql("INSERT INTO t VALUES ('str')").is_err());
    // The machine still works after errors.
    gdh.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    gdh.shutdown();
}

#[test]
fn stats_report_round_trip_through_dictionary() {
    use prisma_optimizer::StatsSource;
    use prisma_types::{StatsFreshness, Value};

    let gdh = machine(8);
    gdh.execute_sql("CREATE TABLE t (k INT, v INT) FRAGMENTED BY HASH(k) INTO 4")
        .unwrap();
    let mut values = String::new();
    for i in 0..500 {
        if i > 0 {
            values.push(',');
        }
        // k uniform 0..500; v skewed: 7 half the time.
        values.push_str(&format!("({i}, {})", if i % 2 == 0 { 7 } else { i }));
    }
    gdh.execute_sql(&format!("INSERT INTO t VALUES {values}"))
        .unwrap();

    // Before any refresh: nothing collected.
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Absent);

    // CollectStats → StatsReport → dictionary cache.
    gdh.refresh_stats("t").unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Fresh);
    let frags = gdh.dictionary().fragment_stats("t").unwrap();
    assert_eq!(frags.len(), 4, "every fragment reports");
    assert_eq!(frags.iter().map(|(_, s)| s.rows).sum::<u64>(), 500);
    for (_, s) in &frags {
        assert_eq!(s.columns.len(), 2);
        assert!(s.columns[0].histogram.is_some(), "histograms travel");
    }

    // The merged table-level view the estimator consumes.
    let ts = StatsSource::table_stats(&**gdh.dictionary(), "t").unwrap();
    assert_eq!(ts.rows, 500);
    assert_eq!(ts.min[0], Some(Value::Int(0)));
    assert_eq!(ts.max[0], Some(Value::Int(499)));
    assert!(ts.hist_of(0).is_some());
    // The skewed column's heavy hitter survives the MCV merge.
    // 7 appears for every even i (250×) plus i = 7 itself.
    assert_eq!(ts.mcv_of(1).first().unwrap().0, Value::Int(7));
    assert_eq!(ts.mcv_of(1).first().unwrap().1, 251);

    // DML bumps the epoch: stale until the next refresh, with the row
    // delta tracked meanwhile.
    gdh.execute_sql("INSERT INTO t VALUES (1000, 1000)").unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Stale);
    assert_eq!(
        StatsSource::table_stats(&**gdh.dictionary(), "t").unwrap().rows,
        501
    );
    gdh.refresh_stats("t").unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Fresh);
    assert_eq!(
        StatsSource::table_stats(&**gdh.dictionary(), "t").unwrap().rows,
        501
    );

    // DML that changes nothing leaves the reports exact — no staling.
    gdh.execute_sql("DELETE FROM t WHERE k = -42").unwrap();
    gdh.execute_sql("UPDATE t SET v = 0 WHERE k = -42").unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Fresh);
    // A value-changing UPDATE (row count unchanged) does stale them.
    gdh.execute_sql("UPDATE t SET v = 1 WHERE k = 1").unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Stale);

    // An aborted transaction's DML never reaches the dictionary: the
    // fragments rolled back, so the reports stay exact and row
    // estimates must not count the phantom rows.
    gdh.refresh_stats("t").unwrap();
    let before = StatsSource::table_stats(&**gdh.dictionary(), "t")
        .unwrap()
        .rows;
    let txn = gdh.begin();
    gdh.execute_sql_in(txn, "INSERT INTO t VALUES (9001, 1), (9002, 2)")
        .unwrap();
    gdh.abort(txn).unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Fresh);
    assert_eq!(
        StatsSource::table_stats(&**gdh.dictionary(), "t").unwrap().rows,
        before
    );
    // The same DML committed does land.
    let txn = gdh.begin();
    gdh.execute_sql_in(txn, "INSERT INTO t VALUES (9001, 1), (9002, 2)")
        .unwrap();
    gdh.commit(txn).unwrap();
    assert_eq!(gdh.dictionary().stats_freshness("t"), StatsFreshness::Stale);
    assert_eq!(
        StatsSource::table_stats(&**gdh.dictionary(), "t").unwrap().rows,
        before + 2
    );
    gdh.shutdown();
}

#[test]
fn explain_names_cardinalities_and_stats_freshness() {
    let gdh = machine(8);
    setup_emp(&gdh);
    let out = gdh
        .explain_sql("SELECT e.id FROM emp e, dept d WHERE e.dept = d.id AND e.sal > 150.0")
        .unwrap();
    assert!(
        out.contains("stats-source: emp: fresh"),
        "missing emp freshness:\n{out}"
    );
    assert!(
        out.contains("stats-source: dept: fresh"),
        "missing dept freshness:\n{out}"
    );
    assert!(
        out.contains("physical-cardinality: Scan(emp): est 100 row(s)"),
        "missing scan estimate:\n{out}"
    );

    // EXPLAIN ANALYZE adds per-operator actuals.
    let out = gdh
        .explain_analyze_sql("SELECT id FROM emp WHERE sal > 150.0")
        .unwrap();
    assert!(out.contains("== estimated vs actual =="), "{out}");
    assert!(out.contains("actual 49"), "49 rows satisfy sal>150:\n{out}");
    assert!(out.contains("[stats fresh]"), "{out}");

    // A never-profiled relation is called out as absent.
    gdh.execute_sql("CREATE TABLE ghostly (a INT)").unwrap();
    let out = gdh.explain_sql("SELECT a FROM ghostly").unwrap();
    assert!(out.contains("stats-source: ghostly: absent"), "{out}");
    gdh.shutdown();
}

// ---------------- mid-query failover (E10) ----------------

/// A 4-PE machine with a 1-second reply deadline, so a scripted PE kill
/// surfaces as a fast failover instead of a minute-long stall.
fn failover_machine() -> GlobalDataHandler {
    let cfg = MachineConfig {
        num_pes: 4,
        topology: TopologyKind::Mesh,
        ..MachineConfig::default()
    }
    .with_reply_timeout_secs(1);
    GlobalDataHandler::boot(cfg, AllocationPolicy::LoadBalanced, DiskProfile::instant()).unwrap()
}

/// Every join in these tests is forced onto the hash-partitioned (grace)
/// path — the protocol with the most mid-flight state to lose.
fn grace() -> prisma_optimizer::PhysicalConfig {
    prisma_optimizer::PhysicalConfig {
        broadcast_max_rows: 0.0,
        ..prisma_optimizer::PhysicalConfig::default()
    }
}

/// Run `sql` on a fault-free machine and on one whose PE 2 — host of an
/// `emp` primary, hence of a phase-2 shuffle site — is killed three
/// messages into the query; the two results must be identical and the
/// recovery must show in the metrics.
fn assert_pe_kill_mid_query_is_invisible(sql: &str) {
    use prisma_faultx::{FaultInjector, FaultSpec};
    use prisma_types::PeId;

    // Oracle: the same machine shape and data, no faults.
    let mut oracle_gdh = failover_machine();
    oracle_gdh.set_physical_config(grace());
    setup_emp(&oracle_gdh);
    let (oracle, oracle_metrics) = oracle_gdh.query_sql_with_metrics(sql).unwrap();
    assert_eq!(oracle_metrics.partitioned_joins, 1, "{oracle_metrics:?}");
    assert_eq!(oracle_metrics.failovers, 0);
    assert_eq!(oracle_metrics.streams_rerequested, 0);
    oracle_gdh.shutdown();

    // Victim: an armed (but initially empty) scripted injector, so the
    // per-PE message clock ticks from boot and the kill can be scripted
    // relative to "now" after setup.
    let faults = FaultInjector::scripted(0x2026_0807, vec![]);
    let mut gdh = failover_machine();
    gdh.set_fault_injector(faults.clone());
    gdh.set_physical_config(grace());
    setup_emp(&gdh);
    let emp = gdh.dictionary().relation("emp").unwrap();
    assert!(
        emp.fragments.iter().any(|f| f.pe == PeId(2)),
        "PE 2 must host a phase-2 site (an emp fragment)"
    );

    // Kill PE 2 three messages into the join: mid-shuffle, after it has
    // accepted (at most) its phase-2 task and one subplan, its actors —
    // an emp primary among them — fall silent.
    faults.script(vec![FaultSpec::KillPeAtMessage {
        pe: PeId(2),
        at: faults.messages_seen(PeId(2)) + 3,
    }]);
    let (rows, metrics) = gdh.query_sql_with_metrics(sql).unwrap();

    // The reply deadline fired, the dictionary promoted the dead PE's
    // backup replicas, and the lost streams were re-requested — and the
    // merged result is bit-identical to the fault-free run.
    assert_eq!(rows.tuples(), oracle.tuples());
    assert!(
        metrics.failovers >= 1,
        "no backup promotion recorded: {metrics:?}"
    );
    assert!(
        metrics.streams_rerequested >= 1,
        "no stream re-requested: {metrics:?}"
    );
    assert!(
        faults.events().iter().any(|e| e.contains("kill")),
        "scripted kill never fired: {:?}",
        faults.events()
    );
    gdh.shutdown();
}

#[test]
fn pe_killed_mid_grace_join_fails_over_to_backup_replica() {
    assert_pe_kill_mid_query_is_invisible(
        "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id ORDER BY e.id",
    );
}

/// The lost site's partial aggregate is recomputed at the backup and
/// counted once: staged partials of the dead attempt are discarded.
#[test]
fn pe_killed_mid_aggregate_over_grace_join_counts_no_partial_twice() {
    assert_pe_kill_mid_query_is_invisible(
        "SELECT d.name, COUNT(*) AS n, SUM(e.sal) AS s, MIN(e.id) AS lo FROM emp e, dept d \
         WHERE e.dept = d.id GROUP BY d.name ORDER BY d.name",
    );
}

#[test]
fn dropped_chunk_is_rerequested_from_the_living_primary() {
    use prisma_faultx::{FaultInjector, FaultSpec};
    use prisma_types::PeId;

    let sql = "SELECT id FROM emp WHERE sal >= 150.0 ORDER BY id";

    let oracle_gdh = failover_machine();
    setup_emp(&oracle_gdh);
    let (oracle, _) = oracle_gdh.query_sql_with_metrics(sql).unwrap();
    oracle_gdh.shutdown();

    // Drop the first stream chunk each of two PEs ships. Setup ships no
    // stream chunks (DML and stats travel as replies), so ordinal 1 is
    // the query's first batch from that PE.
    let faults = FaultInjector::scripted(
        7,
        vec![
            FaultSpec::DropChunk { pe: PeId(1), nth: 1 },
            FaultSpec::DropChunk { pe: PeId(3), nth: 1 },
        ],
    );
    let mut gdh = failover_machine();
    gdh.set_fault_injector(faults.clone());
    setup_emp(&gdh);
    let (rows, metrics) = gdh.query_sql_with_metrics(sql).unwrap();

    // The starved streams were re-asked of their (living) primaries:
    // no backup promotion, same rows.
    assert_eq!(rows.tuples(), oracle.tuples());
    assert_eq!(metrics.failovers, 0, "{metrics:?}");
    assert!(
        metrics.streams_rerequested >= 1,
        "no stream re-requested: {metrics:?}"
    );
    gdh.shutdown();
}

#[test]
fn crash_during_2pc_prepare_aborts_and_names_the_silent_participant() {
    use prisma_faultx::{FaultInjector, FaultSpec, TwoPcPhase};
    use prisma_types::PeId;

    let faults = FaultInjector::scripted(
        11,
        vec![FaultSpec::CrashDuring2pc {
            pe: PeId(1),
            phase: TwoPcPhase::Prepare,
        }],
    );
    let mut gdh = failover_machine();
    gdh.set_fault_injector(faults.clone());
    gdh.execute_sql("CREATE TABLE t (k INT, v INT) FRAGMENTED BY HASH(k) INTO 4")
        .unwrap();

    let txn = gdh.begin();
    gdh.execute_sql_in(txn, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        .unwrap();
    let err = gdh.commit(txn).unwrap_err().to_string();
    assert!(err.contains("2PC prepare reply timeout"), "{err}");
    assert!(err.contains("participant(s) silent"), "{err}");
    assert!(
        faults.events().iter().any(|e| e.contains("2PC")),
        "{:?}",
        faults.events()
    );

    // The machine survives: the aborted rows are absent and new work on
    // the surviving PEs proceeds.
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM t")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(0));
    gdh.shutdown();
}

// ---------------- wire corruption ----------------

#[test]
fn corrupted_batch_chunk_fails_the_query_and_spares_the_machine() {
    use prisma_faultx::{FaultInjector, FaultSpec};
    use prisma_types::PeId;

    // Mangle the first stream chunk every PE ships: whichever fragment
    // replies first, its encoded frame arrives bit-damaged. The decoder
    // must reject it as a protocol error — never panic, never hand the
    // merge silently wrong rows.
    let faults = FaultInjector::scripted(
        21,
        (0..4)
            .map(|pe| FaultSpec::CorruptChunk { pe: PeId(pe), nth: 1 })
            .collect(),
    );
    let mut gdh = machine(4);
    gdh.set_fault_injector(faults.clone());
    setup_emp(&gdh);
    let err = gdh
        .execute_sql("SELECT id FROM emp ORDER BY id")
        .unwrap_err()
        .to_string();
    assert!(err.contains("wire"), "not a wire protocol error: {err}");
    assert!(
        faults.events().iter().any(|e| e.contains("Corrupt")),
        "scripted corruption never fired: {:?}",
        faults.events()
    );
    // The damage was confined to the one query: the machine keeps
    // serving, and a clean re-run returns the full relation.
    let rows = gdh
        .execute_sql("SELECT id FROM emp ORDER BY id")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 100);
    gdh.shutdown();
}

#[test]
fn corrupted_shuffle_chunk_fails_the_join_with_a_wire_error() {
    use prisma_faultx::{FaultInjector, FaultSpec};
    use prisma_types::PeId;

    // Same fault, but during a grace join's fragment→fragment shuffle:
    // the first chunk any PE ships is a ShuffleChunk, so the mangled
    // frame is decoded at a phase-2 *site*, which must tear the exchange
    // down and fail the query through its reply stream.
    let faults = FaultInjector::scripted(
        22,
        (0..4)
            .map(|pe| FaultSpec::CorruptChunk { pe: PeId(pe), nth: 1 })
            .collect(),
    );
    let mut gdh = failover_machine();
    gdh.set_fault_injector(faults.clone());
    gdh.set_physical_config(grace());
    setup_emp(&gdh);
    let err = gdh
        .execute_sql("SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id")
        .unwrap_err()
        .to_string();
    assert!(err.contains("wire"), "not a wire protocol error: {err}");
    gdh.shutdown();
}

#[test]
fn shuffle_stats_fold_once_across_failover_rerequests() {
    use prisma_faultx::{FaultInjector, FaultSpec};
    use prisma_types::PeId;

    // Regression: shuffle traffic stats used to fold into the query
    // metrics at every StreamEnd, so a site stream whose end arrived but
    // was then retired (lost chunk → failover re-request) was counted
    // once for the dead attempt and again for its replacement —
    // shuffled_direct_bits roughly doubled.
    let sql = "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id ORDER BY e.id";
    let faults = FaultInjector::scripted(0x2026_0811, vec![]);
    let mut gdh = failover_machine();
    gdh.set_fault_injector(faults.clone());
    gdh.set_physical_config(grace());
    setup_emp(&gdh);

    // Fault-free run: the oracle for both rows and traffic accounting.
    // It also calibrates the chunk clock: each PE ships its shuffle
    // chunks first and its site's reply batch *last*, and the second
    // run repeats the same sends, so "twice this PE's count" is the
    // ordinal of its final reply chunk in the run below.
    let (oracle, baseline) = gdh.query_sql_with_metrics(sql).unwrap();
    assert!(baseline.shuffled_direct_bits > 0, "{baseline:?}");
    let specs: Vec<FaultSpec> = (0..4)
        .map(PeId)
        .filter(|&pe| faults.chunks_seen(pe) > 0)
        .map(|pe| FaultSpec::DropChunk { pe, nth: 2 * faults.chunks_seen(pe) })
        .collect();
    assert!(!specs.is_empty());
    faults.script(specs);

    // Victim run: every site's final reply chunk is dropped, so its
    // StreamEnd arrives while the stream is still open, the reply
    // deadline retires it, and the join is re-requested at that site.
    let (rows, metrics) = gdh.query_sql_with_metrics(sql).unwrap();
    assert_eq!(rows.tuples(), oracle.tuples());
    assert!(
        metrics.streams_rerequested >= 1,
        "no stream was re-requested — the drop never bit: {metrics:?}"
    );
    assert_eq!(metrics.failovers, 0, "no PE died: {metrics:?}");
    assert_eq!(
        metrics.shuffled_direct_bits, baseline.shuffled_direct_bits,
        "retired attempts must not inflate the shuffle ledger: {metrics:?} vs {baseline:?}"
    );
    gdh.shutdown();
}

/// A machine whose fragments seal a column chunk every `seal_rows`
/// delta rows, so small test tables exercise the two-tier layout
/// without depending on the process-wide `SEAL_EVERY` default.
fn sealing_machine(pes: usize, seal_rows: usize) -> GlobalDataHandler {
    let cfg = MachineConfig {
        num_pes: pes,
        topology: TopologyKind::Mesh,
        seal_rows,
        ..MachineConfig::default()
    };
    GlobalDataHandler::boot(cfg, AllocationPolicy::LoadBalanced, DiskProfile::instant()).unwrap()
}

#[test]
fn sealing_on_scan_is_not_a_mutation() {
    let gdh = sealing_machine(8, 8);
    setup_emp(&gdh);
    let epoch_before = gdh.dictionary().mutation_epoch("emp");

    // The scan seals every fragment's delta (25 rows each, threshold 8)
    // and then serves the sealed chunks through the columnar path.
    let (rows, metrics) = gdh
        .query_sql_with_metrics("SELECT id FROM emp WHERE sal >= 100.0 ORDER BY id")
        .unwrap();
    assert_eq!(rows.len(), 100);
    assert!(
        metrics.chunks_scanned > 0,
        "scan did not reach sealed chunks — sealing never happened: {metrics:?}"
    );

    // Sealing reorganises storage without changing the row multiset:
    // the staleness model must not see it as DML.
    assert_eq!(
        gdh.dictionary().mutation_epoch("emp"),
        epoch_before,
        "sealing bumped the mutation epoch"
    );

    // Real DML still bumps it.
    gdh.execute_sql("UPDATE emp SET sal = sal + 1.0 WHERE dept = 0")
        .unwrap();
    assert!(gdh.dictionary().mutation_epoch("emp") > epoch_before);
    gdh.shutdown();
}

#[test]
fn zone_pruning_end_to_end_skips_chunks_and_keeps_results_exact() {
    // Ids arrive in increasing order, so each fragment's chunks are
    // clustered on id and a selective id predicate refutes most zones.
    let gdh = sealing_machine(8, 8);
    setup_emp(&gdh);
    let sql = "SELECT id, sal FROM emp WHERE id < 20 ORDER BY id";

    let (rows, metrics) = gdh.query_sql_with_metrics(sql).unwrap();
    assert_eq!(rows.len(), 20);
    assert!(
        metrics.chunks_pruned > 0,
        "no chunk was zone-pruned: {metrics:?}"
    );
    assert!(
        metrics.chunks_scanned + metrics.chunks_pruned > 0,
        "no sealed chunk was even considered: {metrics:?}"
    );

    // The plan surfaces the hint.
    let explain = gdh.explain_sql(sql).unwrap();
    assert!(
        explain.contains("prune"),
        "EXPLAIN does not show the prune hint:\n{explain}"
    );

    // Oracle: same data on a machine that never seals (threshold above
    // the table size), so every row flows through the row heap.
    let oracle_gdh = sealing_machine(8, 1_000_000);
    setup_emp(&oracle_gdh);
    let (oracle, oracle_metrics) = oracle_gdh.query_sql_with_metrics(sql).unwrap();
    assert_eq!(oracle_metrics.chunks_scanned + oracle_metrics.chunks_pruned, 0);
    assert_eq!(rows.tuples(), oracle.tuples());
    oracle_gdh.shutdown();
    gdh.shutdown();
}

#[test]
fn dml_after_sealing_dissolves_chunks_and_stays_exact() {
    let gdh = sealing_machine(4, 8);
    setup_emp(&gdh);

    // Seal via a scan, then mutate sealed rows: updates and deletes
    // dissolve the covering chunks back into the delta heap.
    let (_, metrics) = gdh
        .query_sql_with_metrics("SELECT COUNT(*) AS n FROM emp")
        .unwrap();
    assert!(metrics.chunks_scanned > 0);
    let n = gdh
        .execute_sql("UPDATE emp SET sal = 0.0 WHERE dept = 1")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 20);
    let n = gdh
        .execute_sql("DELETE FROM emp WHERE dept = 2")
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 20);

    let rows = gdh
        .execute_sql("SELECT id FROM emp WHERE sal = 0.0 ORDER BY id")
        .unwrap()
        .rows()
        .unwrap();
    let ids: Vec<i64> = rows
        .tuples()
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect();
    let expect: Vec<i64> = (0..100).filter(|i| i % 5 == 1).collect();
    assert_eq!(ids, expect);
    let rows = gdh
        .execute_sql("SELECT COUNT(*) AS n FROM emp")
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(80));
    gdh.shutdown();
}
