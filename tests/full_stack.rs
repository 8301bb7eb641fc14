//! Cross-crate integration tests: the distributed machine must agree with
//! the single-node reference evaluator on every query, and the two front
//! ends (SQL and PRISMAlog) must agree with each other.

use std::collections::HashMap;

use prisma::relalg::{eval, Relation};
use prisma::sqlfe::{self, PlannedStatement};
use prisma::workload::{graph_edges, values_clause, wisconsin_rows, GraphShape};
use prisma::{PrismaMachine, Value};

/// Load the same data into the distributed machine and into a local map,
/// then check a battery of queries for agreement.
#[test]
fn distributed_execution_matches_reference_evaluator() {
    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql(
        "CREATE TABLE wisc (unique1 INT, unique2 INT, two INT, ten INT, hundred INT, string4 STRING) \
         FRAGMENTED BY HASH(unique1) INTO 4",
    )
    .unwrap();
    let rows = wisconsin_rows(800, 9);
    db.sql(&format!("INSERT INTO wisc VALUES {}", values_clause(&rows)))
        .unwrap();
    db.refresh_stats("wisc").unwrap();

    let schema = prisma::workload::wisconsin_schema();
    let mut reference: HashMap<String, Relation> = HashMap::new();
    reference.insert("wisc".to_owned(), Relation::new(schema.clone(), rows));

    let catalog: HashMap<String, prisma::Schema> =
        [("wisc".to_owned(), schema)].into_iter().collect();

    let queries = [
        "SELECT unique2 FROM wisc WHERE unique1 < 50",
        "SELECT two, ten, COUNT(*) AS n, SUM(hundred) AS s FROM wisc GROUP BY two, ten",
        "SELECT COUNT(*) AS n, MIN(unique1) AS lo, MAX(unique1) AS hi FROM wisc",
        "SELECT string4, COUNT(*) AS n FROM wisc WHERE ten BETWEEN 2 AND 5 GROUP BY string4",
        "SELECT a.unique2 FROM wisc a, wisc b \
         WHERE a.unique1 = b.unique2 AND b.ten = 3 AND a.two = 1",
        "SELECT unique2 FROM wisc WHERE two = 0 EXCEPT SELECT unique2 FROM wisc WHERE ten = 4",
        "SELECT DISTINCT hundred FROM wisc WHERE unique2 < 500",
        "SELECT unique1 FROM wisc WHERE unique1 < 100 ORDER BY unique1 DESC LIMIT 7",
    ];
    for sql in queries {
        let via_machine = db.query(sql).unwrap().canonicalized();
        let stmt = sqlfe::parse_statement(sql).unwrap();
        let PlannedStatement::Query(plan) = sqlfe::plan(&stmt, &catalog).unwrap() else {
            panic!("{sql} is not a query")
        };
        let via_reference = eval(&plan, &reference).unwrap().canonicalized();
        assert_eq!(
            via_machine.tuples(),
            via_reference.tuples(),
            "machine and reference disagree on: {sql}"
        );
    }
    db.shutdown();
}

/// Two large relations (above the broadcast threshold) and a small one,
/// loaded into an 8-PE machine and into the reference evaluator's map,
/// with the catalog the SQL planner needs.
fn join_tables() -> (
    PrismaMachine,
    HashMap<String, Relation>,
    HashMap<String, prisma::Schema>,
) {
    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql("CREATE TABLE big_l (k INT, grp INT, v INT) FRAGMENTED BY HASH(k) INTO 4")
        .unwrap();
    db.sql("CREATE TABLE big_r (k INT, grp INT, v INT) FRAGMENTED BY HASH(grp) INTO 3")
        .unwrap();
    db.sql("CREATE TABLE tiny (k INT, label STRING) FRAGMENTED INTO 2")
        .unwrap();
    let lrows: Vec<prisma::Tuple> = (0..1500)
        .map(|i| prisma::types::tuple![i, i % 40, i * 2])
        .collect();
    let rrows: Vec<prisma::Tuple> = (0..1300)
        .map(|i| prisma::types::tuple![i, i % 40, i * 3])
        .collect();
    let trows: Vec<prisma::Tuple> = (0..30)
        .map(|i| prisma::types::tuple![i, format!("t{i}")])
        .collect();
    db.sql(&format!("INSERT INTO big_l VALUES {}", values_clause(&lrows)))
        .unwrap();
    db.sql(&format!("INSERT INTO big_r VALUES {}", values_clause(&rrows)))
        .unwrap();
    db.sql(&format!("INSERT INTO tiny VALUES {}", values_clause(&trows)))
        .unwrap();
    for t in ["big_l", "big_r", "tiny"] {
        db.refresh_stats(t).unwrap();
    }

    let mut reference: HashMap<String, Relation> = HashMap::new();
    let lr_schema = prisma::Schema::new(vec![
        prisma::types::Column::new("k", prisma::types::DataType::Int),
        prisma::types::Column::new("grp", prisma::types::DataType::Int),
        prisma::types::Column::new("v", prisma::types::DataType::Int),
    ]);
    let tiny_schema = prisma::Schema::new(vec![
        prisma::types::Column::new("k", prisma::types::DataType::Int),
        prisma::types::Column::new("label", prisma::types::DataType::Str),
    ]);
    reference.insert("big_l".into(), Relation::new(lr_schema.clone(), lrows));
    reference.insert("big_r".into(), Relation::new(lr_schema.clone(), rrows));
    reference.insert("tiny".into(), Relation::new(tiny_schema.clone(), trows));
    let catalog: HashMap<String, prisma::Schema> = [
        ("big_l".to_owned(), lr_schema.clone()),
        ("big_r".to_owned(), lr_schema),
        ("tiny".to_owned(), tiny_schema),
    ]
    .into_iter()
    .collect();
    (db, reference, catalog)
}

/// The rows of `sql` on the machine, checked against the reference
/// evaluator on the unoptimized plan, with the executor's metrics.
fn checked(
    db: &PrismaMachine,
    reference: &HashMap<String, Relation>,
    catalog: &HashMap<String, prisma::Schema>,
    sql: &str,
) -> prisma::gdh::exec::ExecMetrics {
    let (rows, metrics) = db.query_with_metrics(sql).unwrap();
    let stmt = sqlfe::parse_statement(sql).unwrap();
    let PlannedStatement::Query(plan) = sqlfe::plan(&stmt, catalog).unwrap() else {
        panic!("{sql} is not a query")
    };
    let via_reference = eval(&plan, reference).unwrap().canonicalized();
    assert_eq!(
        rows.canonicalized().tuples(),
        via_reference.tuples(),
        "machine and reference disagree on: {sql}"
    );
    metrics
}

/// Two large relations (above the broadcast threshold) must take the
/// hash-partitioned grace-join path and still agree with the reference
/// evaluator; a small build side must stay on the broadcast path.
#[test]
fn partitioned_and_broadcast_joins_agree_with_reference() {
    let (db, reference, catalog) = join_tables();
    let check = |sql: &str| checked(&db, &reference, &catalog, sql);

    // Both sides large: grace join.
    let m = check("SELECT l.v, r.v FROM big_l l, big_r r WHERE l.k = r.k");
    assert!(m.partitioned_joins >= 1, "expected a grace join: {m:?}");
    assert_eq!(m.repartition_tasks, 7, "4 left + 3 right fragments: {m:?}");
    assert!(m.batches_shipped > 0, "{m:?}");

    // Residual predicates survive the partitioned path.
    let m = check(
        "SELECT l.k FROM big_l l, big_r r WHERE l.k = r.k AND l.v < r.v",
    );
    assert!(m.partitioned_joins >= 1, "{m:?}");

    // Small build side: broadcast.
    let m = check("SELECT l.v, t.label FROM big_l l, tiny t WHERE l.grp = t.k");
    assert!(m.broadcast_joins >= 1, "expected broadcast: {m:?}");
    assert_eq!(m.partitioned_joins, 0, "{m:?}");

    // Decomposable aggregate over the grace join: each of the 4 phase-2
    // sites folds its own buckets and ships at most one row per group
    // (40) — the 1300 joined rows never cross to the coordinator.
    let m = check(
        "SELECT l.grp, COUNT(*) AS n, SUM(r.v) AS s FROM big_l l, big_r r \
         WHERE l.k = r.k GROUP BY l.grp",
    );
    assert!(m.partitioned_joins >= 1, "{m:?}");
    assert!(m.tuples_shipped <= 40 * 4, "partials only: {m:?}");

    // A predicate over both sides sits between the aggregate and the join.
    let m = check(
        "SELECT l.grp, MIN(r.v) AS lo, MAX(l.v) AS hi FROM big_l l, big_r r \
         WHERE l.k = r.k AND l.v + r.v > 1000 GROUP BY l.grp",
    );
    assert!(m.partitioned_joins >= 1, "{m:?}");
    assert!(m.tuples_shipped <= 40 * 4, "partials only: {m:?}");

    // A global aggregate over a join that matches nothing: one row, COUNT 0.
    let m = check(
        "SELECT COUNT(*) AS n, SUM(r.v) AS s FROM big_l l, big_r r \
         WHERE l.k = r.k AND l.v + r.v < 0",
    );
    assert!(m.tuples_shipped <= 4, "one partial per site: {m:?}");

    // The same below a broadcast join: one partial per big_l fragment,
    // plus tiny's 30 build rows assembling at the coordinator.
    let m = check(
        "SELECT t.label, COUNT(*) AS n, SUM(l.v) AS s FROM big_l l, tiny t \
         WHERE l.grp = t.k GROUP BY t.label",
    );
    assert!(m.broadcast_joins >= 1, "{m:?}");
    assert!(m.tuples_shipped <= 30 * 4 + 30, "partials only: {m:?}");

    // Every decomposable aggregate over a predicate that matches nothing,
    // global and grouped, below a scan, a grace join and a broadcast join:
    // the coordinator's merge of empty partials must equal the oracle.
    let aggs = "COUNT(*) AS n, COUNT(l.v) AS c, SUM(l.v) AS s, MIN(l.v) AS lo, MAX(l.v) AS hi";
    for (from, route) in [
        ("big_l l WHERE l.v < 0", "scan"),
        (
            "big_l l, big_r r WHERE l.k = r.k AND l.v + r.v < 0",
            "grace",
        ),
        (
            "big_l l, tiny t WHERE l.grp = t.k AND l.v + t.k < 0",
            "broadcast",
        ),
    ] {
        for group in ["", " GROUP BY l.grp"] {
            let keys = if group.is_empty() { "" } else { "l.grp, " };
            let m = check(&format!("SELECT {keys}{aggs} FROM {from}{group}"));
            match route {
                "grace" => assert!(m.partitioned_joins >= 1, "{m:?}"),
                "broadcast" => assert!(m.broadcast_joins >= 1, "{m:?}"),
                _ => assert_eq!(m.partitioned_joins + m.broadcast_joins, 0, "{m:?}"),
            }
        }
    }

    // AVG is not decomposable: it takes the generic route and still agrees.
    let m =
        check("SELECT l.grp, AVG(r.v) AS a FROM big_l l, big_r r WHERE l.k = r.k GROUP BY l.grp");
    assert!(m.tuples_shipped >= 1300, "the joined rows ship: {m:?}");

    // EXPLAIN prints the plan the executor runs: the partial aggregate
    // below the one `Gather`, over a join of two shuffles to 4 sites,
    // and the final aggregate above it at the coordinator.
    let plan = db
        .explain(
            "SELECT l.grp, COUNT(*) AS n, SUM(r.v) AS s FROM big_l l, big_r r \
             WHERE l.k = r.k GROUP BY l.grp",
        )
        .unwrap();
    for expected in [
        "SeqScan big_l cols=[0, 1]",
        "SeqScan big_r cols=[0, 2]",
        "prune-columns: join inputs narrowed 3→2 and 3→2 columns",
        "  HashAggregate group=[0] aggs=[SUM, SUM]\n    Gather\n      HashAggregate group=[0] aggs=[COUNT(*), SUM]\n",
        "Shuffle on [0] 4×buckets→4 site(s)\n              SeqScan big_l cols=[0, 1]\n",
    ] {
        assert!(plan.contains(expected), "missing {expected:?} in:\n{plan}");
    }
    // No scan streams to the coordinator: the join's result is the only
    // thing gathered.
    assert_eq!(plan.matches("Gather").count(), 1, "{plan}");
    db.shutdown();
}

/// What the exchange nodes of an EXPLAIN `== physical ==` section say the
/// executor will do: `(partitioned_joins, broadcast_joins,
/// fragment_tasks)`. A join over `Shuffle` inputs is a grace join; each
/// `Broadcast` ships one build side; each distinct `Gather` fans out to
/// its shuffle sites, or else to the fragments of the relation it scans.
fn predicted_counters(physical: &str, fragments: &HashMap<&str, u64>) -> (u64, u64, u64) {
    let nodes: Vec<(usize, &str)> = physical
        .lines()
        .map(|l| {
            let label = l.trim_start();
            ((l.len() - label.len()) / 2, label)
        })
        .collect();
    // The node's subtree: the lines after it, while they are deeper.
    let subtree = |i: usize| {
        let depth = nodes[i].0;
        nodes[i + 1..]
            .iter()
            .take_while(move |(d, _)| *d > depth)
            .copied()
    };
    let mut partitioned = 0;
    let mut gathers: Vec<Vec<(usize, &str)>> = Vec::new();
    for (i, &(depth, label)) in nodes.iter().enumerate() {
        let child_shuffles = subtree(i)
            .filter(|&(d, l)| d == depth + 1 && l.starts_with("Shuffle"))
            .count();
        if child_shuffles == 2 {
            partitioned += 1;
        }
        if label == "Gather" {
            // Relative depths, so equal subtrees compare equal anywhere.
            let below: Vec<_> = subtree(i).map(|(d, l)| (d - depth, l)).collect();
            if !gathers.contains(&below) {
                gathers.push(below);
            }
        }
    }
    let broadcasts = nodes.iter().filter(|(_, l)| *l == "Broadcast").count() as u64;
    let mut tasks = 0;
    for below in &gathers {
        // Skip what a nested `Broadcast` ships: its own gathers count.
        let mut own = Vec::new();
        let mut skip_deeper_than = usize::MAX;
        for &(d, l) in below {
            if d <= skip_deeper_than {
                skip_deeper_than = usize::MAX;
                if l == "Broadcast" {
                    skip_deeper_than = d;
                    continue;
                }
                own.push(l);
            }
        }
        tasks += match own.iter().find(|l| l.starts_with("Shuffle")) {
            Some(shuffle) => {
                let sites = shuffle.rsplit('→').next().expect("a placed shuffle names its sites");
                sites.trim_end_matches(" site(s)").parse::<u64>().expect("site count")
            }
            None => {
                let scan = own.iter().find(|l| l.starts_with("SeqScan ")).expect("a gathered scan");
                let relation = scan.split_whitespace().nth(1).expect("scan names a relation");
                fragments[relation]
            }
        };
    }
    (partitioned, broadcasts, tasks)
}

/// EXPLAIN prints the plan the machine runs: for a scan, a grace join, a
/// broadcast join, an aggregate over a join, a sort and limit over an
/// aggregate and a union of two equal filtered scans, the exchange nodes
/// predict the executor's fan-out counters, and the rows equal the
/// reference evaluator's.
#[test]
fn explain_prints_the_exchanges_the_machine_runs() {
    let (db, reference, catalog) = join_tables();
    let fragments = HashMap::from([("big_l", 4), ("big_r", 3), ("tiny", 2)]);
    let union = "SELECT k FROM big_l WHERE v < 100 UNION ALL SELECT k FROM big_l WHERE v < 100";
    for sql in [
        "SELECT k, v FROM big_l WHERE v < 600",
        "SELECT l.v, r.v FROM big_l l, big_r r WHERE l.k = r.k",
        "SELECT l.v, t.label FROM big_l l, tiny t WHERE l.grp = t.k",
        "SELECT l.grp, COUNT(*) AS n, SUM(r.v) AS s FROM big_l l, big_r r \
         WHERE l.k = r.k GROUP BY l.grp",
        "SELECT grp, COUNT(*) AS n FROM big_l GROUP BY grp ORDER BY grp DESC LIMIT 5",
        union,
    ] {
        let explain = db.explain(sql).unwrap();
        let physical = explain
            .split("== physical ==\n")
            .nth(1)
            .and_then(|rest| rest.split("== knowledge-base").next())
            .expect("EXPLAIN has a physical section");
        let m = checked(&db, &reference, &catalog, sql);
        assert_eq!(
            (m.partitioned_joins, m.broadcast_joins, m.fragment_tasks),
            predicted_counters(physical, &fragments),
            "{sql}:\n{physical}"
        );
    }
    // The union's two equal gathers run once: one fan-out over big_l's
    // 4 fragments.
    assert_eq!(checked(&db, &reference, &catalog, union).fragment_tasks, 4);
    db.shutdown();
}

#[test]
fn streamed_batch_shipping_overlaps_scan_and_merge() {
    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql("CREATE TABLE s (a INT, b INT) FRAGMENTED BY HASH(a) INTO 4")
        .unwrap();
    let rows: Vec<prisma::Tuple> = (0..6000).map(|i| prisma::types::tuple![i, i % 11]).collect();
    for chunk in rows.chunks(500) {
        db.sql(&format!("INSERT INTO s VALUES {}", values_clause(chunk)))
            .unwrap();
    }
    let sql = "SELECT a, b FROM s WHERE b < 9";

    // The first merged batch lands while other fragments are still
    // scanning, so first-batch latency is measured and bounded by the
    // full-result latency; every fragment's stream was in flight at once.
    let (streamed, m) = db.query_with_metrics(sql).unwrap();
    assert!(m.batches_shipped >= 4, "{m:?}");
    assert!(
        m.first_batch_micros > 0 && m.first_batch_micros <= m.full_result_micros,
        "scan/merge overlap not observed: {m:?}"
    );
    assert_eq!(m.max_in_flight_streams, 4, "{m:?}");

    // Every qualifying row arrives exactly once, and only those ship.
    let want: Vec<prisma::Tuple> = rows
        .iter()
        .filter(|t| t.get(1).as_int() < Some(9))
        .cloned()
        .collect();
    assert_eq!(streamed.canonicalized().tuples(), want);
    assert_eq!(m.tuples_shipped, want.len() as u64);
    db.shutdown();
}

#[test]
fn sql_closure_and_prismalog_agree_on_reachability() {
    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql("CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 4")
        .unwrap();
    let edges = graph_edges(GraphShape::Random { out_degree: 2 }, 60, 4);
    db.sql(&format!("INSERT INTO edge VALUES {}", values_clause(&edges)))
        .unwrap();

    let via_sql = db
        .query("SELECT c.dst FROM CLOSURE(edge) c WHERE c.src = 0")
        .unwrap();
    let via_rules = db
        .prismalog(
            "reach(X, Y) :- edge(X, Y).
             reach(X, Y) :- edge(X, Z), reach(Z, Y).",
            "?- reach(0, Y).",
        )
        .unwrap();
    let mut a: Vec<i64> = via_sql
        .tuples()
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect();
    let mut b: Vec<i64> = via_rules
        .tuples()
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect();
    a.sort_unstable();
    a.dedup();
    b.sort_unstable();
    assert_eq!(a, b, "SQL CLOSURE and PRISMAlog recursion must agree");
    db.shutdown();
}

#[test]
fn optimizer_ablations_agree_on_results() {
    use prisma::optimizer::OptimizerConfig;
    let mut db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql("CREATE TABLE t (a INT, b INT) FRAGMENTED BY HASH(a) INTO 4")
        .unwrap();
    db.sql("CREATE TABLE u (b INT, c STRING) FRAGMENTED INTO 2")
        .unwrap();
    let trows: Vec<prisma::Tuple> = (0..500)
        .map(|i| prisma::types::tuple![i, i % 20])
        .collect();
    db.sql(&format!("INSERT INTO t VALUES {}", values_clause(&trows)))
        .unwrap();
    let urows: Vec<prisma::Tuple> = (0..20)
        .map(|i| prisma::types::tuple![i, format!("u{i}")])
        .collect();
    db.sql(&format!("INSERT INTO u VALUES {}", values_clause(&urows)))
        .unwrap();

    let sql = "SELECT t.a, u.c FROM t, u WHERE t.b = u.b AND t.a < 100 ORDER BY t.a";
    let with_rules = db.query(sql).unwrap();
    db.gdh_mut().set_optimizer_config(OptimizerConfig::disabled());
    let without_rules = db.query(sql).unwrap();
    assert_eq!(with_rules.tuples(), without_rules.tuples());
    assert_eq!(with_rules.len(), 100);
    db.shutdown();
}

#[test]
fn money_conservation_under_concurrent_transfers() {
    use std::sync::Arc;
    let db = Arc::new(PrismaMachine::builder().pes(8).build().unwrap());
    db.sql("CREATE TABLE acct (id INT, bal INT) FRAGMENTED BY HASH(id) INTO 4")
        .unwrap();
    let rows: Vec<prisma::Tuple> = (0..50).map(|i| prisma::types::tuple![i, 100]).collect();
    db.sql(&format!("INSERT INTO acct VALUES {}", values_clause(&rows)))
        .unwrap();
    let mut handles = Vec::new();
    for seed in 0..3u64 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for t in prisma::workload::transfer_stream(50, 30, seed) {
                let txn = db.begin();
                let ok = db
                    .sql_in(
                        txn,
                        &format!(
                            "UPDATE acct SET bal = bal - {} WHERE id = {}",
                            t.amount, t.from
                        ),
                    )
                    .and_then(|_| {
                        db.sql_in(
                            txn,
                            &format!(
                                "UPDATE acct SET bal = bal + {} WHERE id = {}",
                                t.amount, t.to
                            ),
                        )
                    })
                    .is_ok();
                if ok {
                    db.commit(txn).unwrap();
                } else {
                    let _ = db.abort(txn);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = db.query("SELECT SUM(bal) AS t FROM acct").unwrap();
    assert_eq!(total.tuples()[0].get(0), &Value::Int(5000));
    db.shutdown();
}

#[test]
fn durability_of_committed_work_after_machine_recovery() {
    let db = PrismaMachine::builder().pes(8).build().unwrap();
    db.sql("CREATE TABLE log_t (k INT, v INT) FRAGMENTED BY HASH(k) INTO 4")
        .unwrap();
    for i in 0..20 {
        db.sql(&format!("INSERT INTO log_t VALUES ({i}, {})", i * 2))
            .unwrap();
    }
    db.checkpoint("log_t").unwrap();
    db.sql("UPDATE log_t SET v = 0 WHERE k < 5").unwrap();
    db.sql("DELETE FROM log_t WHERE k = 19").unwrap();
    db.recover("log_t").unwrap();
    let rows = db
        .query("SELECT COUNT(*) AS n, SUM(v) AS s FROM log_t")
        .unwrap();
    assert_eq!(rows.tuples()[0].get(0).as_int(), Some(19));
    // sum = Σ(2i for i in 5..19) = 2*(5+..+18) = 2*161 = 322
    assert_eq!(rows.tuples()[0].get(1).as_int(), Some(322));
    db.shutdown();
}
