//! Property tests for the two-tier fragment storage layer.
//!
//! A fragment driven through a random interleaving of inserts (NULL-heavy
//! batches included), deletes, updates and reseal points lands in an
//! arbitrary mixed sealed/delta state. Whatever that state is, a
//! zone-pruned chunked scan — serial or pooled — must return exactly what
//! the row-oriented `relalg::eval` oracle returns, and the same property
//! must hold end-to-end through SQL on both wire formats. CI re-runs this
//! file under `OFM_WORKERS=4`, `SEAL_EVERY=8` and the `FAULT_SEED`
//! chunk-delay matrix, so the single invariant is exercised across the
//! whole configuration grid.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use prisma_gdh::{AllocationPolicy, GlobalDataHandler};
use prisma_ofm::Fragment;
use prisma_relalg::{
    eval, execute_physical, lower, open_batches_pooled, Batch, ChunkedRelation, LogicalPlan,
    Relation, RelationProvider,
};
use prisma_stable::DiskProfile;
use prisma_storage::expr::{CmpOp, ScalarExpr};
use prisma_types::{
    Column, DataType, FragmentId, MachineConfig, Result, Schema, TopologyKind, Tuple, Value,
};

/// Splitmix64 step: deterministic randomness so a failing case
/// reproduces from the generated seed alone.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn frag_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("grp", DataType::Int),
        Column::nullable("val", DataType::Double),
    ])
}

/// Drive a fragment through `n_ops` random operations. Inserts come in
/// batches (some NULL-heavy, so whole chunks can seal with all-NULL
/// columns), deletes and updates hit sealed and delta rows alike
/// (dissolving chunks), and explicit reseal points reseal mid-history.
fn drive(seed: &mut u64, seal_rows: usize, n_ops: usize) -> Fragment {
    let mut frag = Fragment::new(FragmentId(0), frag_schema());
    frag.set_seal_rows(seal_rows);
    let mut next_id = 0i64;
    for _ in 0..n_ops {
        match next(seed) % 10 {
            0..=4 => {
                // Insert a batch; roughly one batch in four is NULL-heavy.
                let rows = (next(seed) % (2 * seal_rows as u64 + 1)) as usize;
                let null_heavy = next(seed).is_multiple_of(4);
                for _ in 0..rows {
                    let grp = if null_heavy || next(seed).is_multiple_of(8) {
                        Value::Null
                    } else {
                        Value::Int((next(seed) % 5) as i64)
                    };
                    let val = if null_heavy {
                        Value::Null
                    } else {
                        Value::Double((next(seed) % 100) as f64)
                    };
                    frag.insert(Tuple::new(vec![Value::Int(next_id), grp, val]))
                        .unwrap();
                    next_id += 1;
                }
            }
            5 | 6 => {
                // Delete a random live row (sealed or delta).
                let rids = frag.heap().rids();
                if !rids.is_empty() {
                    let rid = rids[(next(seed) as usize) % rids.len()];
                    frag.delete(rid);
                }
            }
            7 | 8 => {
                // Update a random live row in place.
                let rids = frag.heap().rids();
                if !rids.is_empty() {
                    let rid = rids[(next(seed) as usize) % rids.len()];
                    let mut vals = frag.heap().get(rid).unwrap().values().to_vec();
                    vals[2] = Value::Double((next(seed) % 100) as f64);
                    frag.update(rid, Tuple::new(vals)).unwrap();
                }
            }
            _ => frag.seal(), // explicit reseal point
        }
    }
    frag
}

/// Provider snapshotting a fragment both ways: the flat row multiset
/// (oracle path) and the sealed-chunks + delta two-tier form.
struct FragDb {
    rows: HashMap<String, Relation>,
    chunked: Option<Arc<ChunkedRelation>>,
}

impl FragDb {
    fn snapshot(frag: &Fragment) -> FragDb {
        let rows = HashMap::from([(
            "t".to_owned(),
            Relation::new(frag.schema().clone(), frag.all_tuples()),
        )]);
        let chunked = (frag.sealed_count() > 0).then(|| {
            Arc::new(ChunkedRelation::new(
                frag.sealed_chunks(),
                Relation::new(frag.schema().clone(), frag.delta_tuples()),
            ))
        });
        FragDb { rows, chunked }
    }
}

impl RelationProvider for FragDb {
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.rows.relation(name)
    }
    fn chunked(&self, name: &str) -> Option<Arc<ChunkedRelation>> {
        (name == "t").then(|| self.chunked.clone()).flatten()
    }
}

/// A random predicate whose constants cluster around chunk-boundary ids,
/// so zone refutation decides right at min/max edges; IS NULL and
/// NULL-literal comparisons keep Kleene semantics honest.
fn random_predicate(seed: &mut u64, seal_rows: usize, max_id: i64) -> ScalarExpr {
    let boundary = if max_id > 0 {
        let chunk = (next(seed) % (max_id as u64 / seal_rows as u64 + 1)) as i64;
        let jitter = (next(seed) % 3) as i64 - 1; // straddle the zone edge
        chunk * seal_rows as i64 + jitter
    } else {
        0
    };
    let op = match next(seed) % 4 {
        0 => CmpOp::Lt,
        1 => CmpOp::Ge,
        2 => CmpOp::Eq,
        _ => CmpOp::Le,
    };
    let base = ScalarExpr::cmp(op, ScalarExpr::col(0), ScalarExpr::lit(boundary));
    match next(seed) % 5 {
        0 => ScalarExpr::and(
            base,
            ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(2),
                ScalarExpr::lit((next(seed) % 100) as f64),
            ),
        ),
        1 => ScalarExpr::IsNull(Box::new(ScalarExpr::col(1))),
        2 => ScalarExpr::and(
            base,
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(1), ScalarExpr::lit(Value::Null)),
        ),
        _ => base,
    }
}

proptest! {
    /// Core storage property: for any mixed sealed/delta state and any
    /// zone-straddling predicate, the pruned chunked scan (serial and
    /// under a 4-worker pool), the unhinted chunked scan and the row
    /// oracle all agree.
    #[test]
    fn pruned_chunked_scan_agrees_with_row_oracle(
        seed in 0u64..u64::MAX,
        seal_rows in 4usize..24,
        n_ops in 10usize..60,
    ) {
        let mut s = seed;
        let frag = drive(&mut s, seal_rows, n_ops);
        let db = FragDb::snapshot(&frag);
        let max_id = frag.len() as i64;

        for _ in 0..4 {
            let pred = random_predicate(&mut s, seal_rows, max_id);
            let plan = LogicalPlan::scan("t", frag_schema()).select(pred);
            let oracle = eval(&plan, &db.rows).unwrap().canonicalized();

            let mut hinted = lower(&plan).unwrap();
            hinted.push_prune_hints();
            let (s0, p0) = prisma_relalg::chunk_scan_counters();
            let got = execute_physical(&hinted, &db).unwrap().canonicalized();
            prop_assert_eq!(&got, &oracle, "hinted scan diverged (seed {})", seed);
            if db.chunked.is_some() {
                // Every sealed chunk was either served or zone-pruned.
                let (s1, p1) = prisma_relalg::chunk_scan_counters();
                prop_assert!(
                    (s1 - s0) + (p1 - p0) >= frag.sealed_count() as u64,
                    "chunked path not exercised (seed {})", seed
                );
            }

            let unhinted = lower(&plan).unwrap();
            let got = execute_physical(&unhinted, &db).unwrap().canonicalized();
            prop_assert_eq!(&got, &oracle, "unhinted scan diverged (seed {})", seed);

            let pool = prisma_poolx::WorkerPool::new(4);
            let pooled: Vec<Tuple> = open_batches_pooled(&hinted, &db, Some(pool))
                .unwrap()
                .drain()
                .unwrap()
                .into_iter()
                .flat_map(Batch::into_tuples)
                .collect();
            let pooled = Relation::new(frag_schema(), pooled).canonicalized();
            prop_assert_eq!(&pooled, &oracle, "pooled scan diverged (seed {})", seed);
        }
    }
}

fn boot(seal_rows: usize) -> GlobalDataHandler {
    let cfg = MachineConfig {
        num_pes: 4,
        topology: TopologyKind::Mesh,
        seal_rows,
        ..MachineConfig::default()
    };
    GlobalDataHandler::boot(cfg, AllocationPolicy::LoadBalanced, DiskProfile::instant()).unwrap()
}

/// Apply one random DML step through SQL to both machines.
fn sql_step(seed: &mut u64, next_id: &mut i64, gdhs: [&GlobalDataHandler; 2]) {
    let stmt = match next(seed) % 6 {
        0..=2 => {
            let rows = 1 + next(seed) % 24;
            let mut values = String::new();
            for _ in 0..rows {
                if !values.is_empty() {
                    values.push(',');
                }
                let grp = if next(seed).is_multiple_of(5) {
                    "NULL".to_owned()
                } else {
                    (next(seed) % 4).to_string()
                };
                values.push_str(&format!("({}, {grp}, {}.0)", *next_id, next(seed) % 50));
                *next_id += 1;
            }
            format!("INSERT INTO t VALUES {values}")
        }
        3 => format!("DELETE FROM t WHERE id >= {} AND id < {}",
            next(seed) % 40, next(seed) % 80),
        4 => format!("UPDATE t SET val = {}.0 WHERE grp = {}",
            next(seed) % 50, next(seed) % 4),
        // A scan is a reseal point: the OFM seals eligible deltas first.
        _ => "SELECT COUNT(*) AS n FROM t".to_owned(),
    };
    for gdh in gdhs {
        gdh.execute_sql(&stmt).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end property: after an identical random DML history, a
    /// machine that seals every 4 rows and a machine that never seals
    /// answer zone-straddling queries identically.
    #[test]
    fn sealed_and_unsealed_machines_agree_over_sql(
        seed in 0u64..u64::MAX,
        n_ops in 4usize..12,
    ) {
        let mut s = seed;
        let sealing = boot(4);
        let flat = boot(1_000_000);
        for gdh in [&sealing, &flat] {
            gdh.execute_sql("CREATE TABLE t (id INT, grp INT NULL, val DOUBLE) \
                             FRAGMENTED BY HASH(id) INTO 4")
                .unwrap();
        }
        let mut next_id = 0i64;
        for _ in 0..n_ops {
            sql_step(&mut s, &mut next_id, [&sealing, &flat]);
        }
        let boundary = next(&mut s) % (next_id.max(1) as u64);
        let queries = [
            format!("SELECT id, grp, val FROM t WHERE id < {boundary} ORDER BY id"),
            format!("SELECT id FROM t WHERE id >= {boundary} AND val < 25.0 ORDER BY id"),
            "SELECT id FROM t WHERE grp IS NULL ORDER BY id".to_owned(),
            "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp".to_owned(),
        ];
        for q in &queries {
            let got = sealing.execute_sql(q).unwrap().rows().unwrap();
            let want = flat.execute_sql(q).unwrap().rows().unwrap();
            prop_assert_eq!(got.tuples(), want.tuples(), "{} diverged (seed {})", q, seed);
        }
        sealing.shutdown();
        flat.shutdown();
    }
}

// ---------------- aggregates below the exchange, over joins ----------------

/// `jl(k NULL, g, v)` over 4 fragments, `jr(k NULL, w)` over 3, and an
/// empty `nobody(k, w)` over 2 — with NULL join keys on both sides.
fn join_tables() -> HashMap<String, Relation> {
    let jl = Schema::new(vec![
        Column::nullable("k", DataType::Int),
        Column::new("g", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let jr = Schema::new(vec![
        Column::nullable("k", DataType::Int),
        Column::new("w", DataType::Int),
    ]);
    let key = |i: i64, null_every: i64| {
        if i % null_every == 0 {
            Value::Null
        } else {
            Value::Int(i)
        }
    };
    let lrows = (0..600i64)
        .map(|i| Tuple::new(vec![key(i, 17), Value::Int(i % 6), Value::Int(i)]))
        .collect();
    let rrows = (0..900i64)
        .map(|i| Tuple::new(vec![key(i / 2, 11), Value::Int(i % 9 - 4)]))
        .collect();
    HashMap::from([
        ("jl".to_owned(), Relation::new(jl, lrows)),
        ("jr".to_owned(), Relation::new(jr.clone(), rrows)),
        ("nobody".to_owned(), Relation::new(jr, Vec::new())),
    ])
}

fn boot_join_machine(tables: &HashMap<String, Relation>) -> GlobalDataHandler {
    let gdh = boot(64);
    for ddl in [
        "CREATE TABLE jl (k INT NULL, g INT, v INT) FRAGMENTED BY HASH(v) INTO 4",
        "CREATE TABLE jr (k INT NULL, w INT) FRAGMENTED BY HASH(w) INTO 3",
        "CREATE TABLE nobody (k INT NULL, w INT) FRAGMENTED BY HASH(k) INTO 2",
    ] {
        gdh.execute_sql(ddl).unwrap();
    }
    for (name, rel) in tables {
        let txn = gdh.begin();
        gdh.insert(txn, name, rel.tuples().to_vec()).unwrap();
        gdh.commit(txn).unwrap();
        gdh.refresh_stats(name).unwrap();
    }
    gdh
}

/// Aggregate-over-join plans in the shapes the SQL planner emits, with
/// the group count the shipped-rows bound needs (`None` = the aggregate
/// is not decomposable and must take the generic route).
fn aggregate_over_join_plans(
    tables: &HashMap<String, Relation>,
) -> Vec<(&'static str, LogicalPlan, Option<u64>)> {
    use prisma_relalg::{AggExpr, AggFunc};
    let scan = |name: &str| LogicalPlan::scan(name, tables[name].schema().clone());
    let join = |right: &str| scan("jl").join(scan(right), vec![(0, 0)]);
    let agg =
        |input: LogicalPlan, group_by: Vec<usize>, aggs: Vec<AggExpr>| LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by,
            aggs,
        };
    // Columns of jl ⋈ jr: k g v k w.
    let decomposable = || {
        vec![
            AggExpr::new(AggFunc::CountStar, 0, "n"),
            AggExpr::new(AggFunc::Sum, 4, "s"),
            AggExpr::new(AggFunc::Min, 2, "lo"),
            AggExpr::new(AggFunc::Max, 4, "hi"),
            AggExpr::new(AggFunc::Count, 3, "nk"),
        ]
    };
    let global = || {
        vec![
            AggExpr::new(AggFunc::CountStar, 0, "n"),
            AggExpr::new(AggFunc::Sum, 4, "s"),
        ]
    };
    vec![
        ("grouped", agg(join("jr"), vec![1], decomposable()), Some(6)),
        (
            "select and project between aggregate and join",
            agg(
                join("jr")
                    .select(ScalarExpr::cmp(
                        CmpOp::Gt,
                        ScalarExpr::col(2),
                        ScalarExpr::col(4),
                    ))
                    .project_cols(&[1, 4, 2])
                    .unwrap(),
                vec![0],
                vec![
                    AggExpr::new(AggFunc::CountStar, 0, "n"),
                    AggExpr::new(AggFunc::Sum, 1, "s"),
                    AggExpr::new(AggFunc::Max, 2, "hi"),
                ],
            ),
            Some(6),
        ),
        ("global", agg(join("jr"), vec![], global()), Some(1)),
        (
            "global over an empty join",
            agg(join("nobody"), vec![], global()),
            Some(1),
        ),
        (
            "grouped over an empty side",
            agg(join("nobody"), vec![1], decomposable()),
            Some(0),
        ),
        (
            "AVG falls back",
            agg(
                join("jr"),
                vec![1],
                vec![AggExpr::new(AggFunc::Avg, 4, "a")],
            ),
            None,
        ),
    ]
}

/// The distributed aggregate-over-join agrees with the oracle under both
/// join strategies — and when the aggregate is decomposable only
/// partials cross to the coordinator.
#[test]
fn aggregate_over_join_matches_oracle_and_ships_only_partials() {
    let tables = join_tables();
    let mut gdh = boot_join_machine(&tables);
    let (sites, build_rows) = (4u64, tables["jr"].len() as u64);
    for (strategy, broadcast_max_rows) in [("partitioned", -1.0), ("broadcast", 1e12)] {
        gdh.set_physical_config(prisma_optimizer::PhysicalConfig {
            broadcast_max_rows,
            ..prisma_optimizer::PhysicalConfig::default()
        });
        for (shape, plan, groups) in aggregate_over_join_plans(&tables) {
            let case = format!("{shape} / {strategy}");
            let want = eval(&plan, &tables).unwrap();
            let (got, m) = gdh.query(&plan).unwrap();
            assert_eq!(got.schema(), want.schema(), "{case}");
            if shape.starts_with("global") {
                assert_eq!(got.len(), 1, "{case}");
            }
            assert_eq!(got.canonicalized(), want.canonicalized(), "{case}");
            let (partitioned, broadcast) = (m.partitioned_joins, m.broadcast_joins);
            match strategy {
                "partitioned" => assert_eq!((partitioned, broadcast), (1, 0), "{case}: {m:?}"),
                _ => assert_eq!((partitioned, broadcast), (0, 1), "{case}: {m:?}"),
            }
            let Some(groups) = groups else {
                continue;
            };
            let bound = match strategy {
                "partitioned" => groups * sites,
                _ => groups * sites + build_rows,
            };
            assert!(
                m.tuples_shipped <= bound,
                "{case}: {} row(s) shipped, bound {bound}: {m:?}",
                m.tuples_shipped
            );
        }
    }
    gdh.shutdown();
}
