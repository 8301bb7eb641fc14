//! Property-based tests over the core invariants.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use prisma::relalg::eval::{transitive_closure, transitive_closure_naive};
use prisma::relalg::{eval, execute_physical, lower, AggExpr, AggFunc, LogicalPlan, Relation};
use prisma::stable::encoding;
use prisma::storage::expr::{ArithOp, CmpOp, ScalarExpr};
use prisma::types::wire::BlockChunk;
use prisma::types::{
    tuple, Column, ColumnVec, DataType, LazyColumns, PrismaError, Schema, SelVec, Tuple, Value,
};
use prisma::workload::values_clause;
use prisma::PrismaMachine;

// ---------- strategies ----------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-z]{0,12}".prop_map(Value::Str),
    ]
}

fn arb_tuple(max_arity: usize) -> impl Strategy<Value = Tuple> {
    prop::collection::vec(arb_value(), 0..=max_arity).prop_map(Tuple::new)
}

/// Expressions over a fixed 3-int-column schema, with depth control.
fn arb_int_expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(ScalarExpr::Col),
        (-50i64..50).prop_map(|v| ScalarExpr::Lit(Value::Int(v))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::arith(
                ArithOp::Add,
                a,
                b
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::arith(
                ArithOp::Mul,
                a,
                b
            )),
            inner.clone().prop_map(|a| ScalarExpr::Neg(Box::new(a))),
        ]
    })
}

fn arb_predicate() -> impl Strategy<Value = ScalarExpr> {
    let cmp = (
        arb_int_expr(),
        arb_cmp_op(),
        arb_int_expr(),
    )
        .prop_map(|(l, op, r)| ScalarExpr::cmp(op, l, r));
    cmp.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::or(a, b)),
            inner.clone().prop_map(|a| ScalarExpr::Not(Box::new(a))),
        ]
    })
}

fn int3_schema() -> Schema {
    Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("c", DataType::Int),
    ])
}

// ---------- strategies for the vectorized-kernel properties ----------

/// Nullable mixed-type schema the vectorized kernels are exercised over:
/// Int, Double, Int — so comparisons and arithmetic hit the typed
/// Int/Int, Double/Double and widened Int/Double paths as well as NULLs.
fn mixed_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("a", DataType::Int),
        Column::nullable("b", DataType::Double),
        Column::nullable("c", DataType::Int),
    ])
}

fn arb_null_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-40i64..40).prop_map(Value::Int),
    ]
}

fn arb_null_double() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-80i64..80).prop_map(|v| Value::Double(v as f64 / 2.0)),
    ]
}

/// Rows over [`mixed_schema`], including the empty batch.
fn arb_mixed_rows(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((arb_null_int(), arb_null_double(), arb_null_int()), 0..=max)
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(a, b, c)| Tuple::new(vec![a, b, c]))
                .collect()
        })
}

/// Numeric expressions over the mixed schema (Int and Double literals, so
/// Int/Double widening shows up mid-tree).
fn arb_mixed_expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(ScalarExpr::Col),
        (-20i64..20).prop_map(|v| ScalarExpr::Lit(Value::Int(v))),
        (-40i64..40).prop_map(|v| ScalarExpr::Lit(Value::Double(v as f64 / 2.0))),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ScalarExpr::arith(ArithOp::Add, a, b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ScalarExpr::arith(ArithOp::Sub, a, b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| ScalarExpr::arith(ArithOp::Mul, a, b)),
            inner.clone().prop_map(|a| ScalarExpr::Neg(Box::new(a))),
        ]
    })
}

/// Boolean predicates over the mixed schema: comparisons (all six ops,
/// mixed Int/Double operands), IS NULL, and Kleene connectives.
fn arb_mixed_predicate() -> impl Strategy<Value = ScalarExpr> {
    let cmp = (
        arb_mixed_expr(),
        arb_cmp_op(),
        arb_mixed_expr(),
    )
        .prop_map(|(l, op, r)| ScalarExpr::cmp(op, l, r));
    let leaf = prop_oneof![
        cmp,
        arb_mixed_expr().prop_map(|e| ScalarExpr::IsNull(Box::new(e))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::or(a, b)),
            inner.clone().prop_map(|a| ScalarExpr::Not(Box::new(a))),
        ]
    })
}

// ---------- edge values under the one arithmetic rule ----------

/// Int edge values: the overflow and division boundaries, NULL, and a
/// few small ints.
fn arb_edge_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0), Just(-1)].prop_map(Value::Int),
        (-3i64..4).prop_map(Value::Int),
    ]
}

/// Double edge values: NaN, ±0.0, ±∞, NULL, and a few halves.
fn arb_edge_double() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop_oneof![
            Just(f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
        .prop_map(Value::Double),
        (-6i64..6).prop_map(|v| Value::Double(v as f64 / 2.0)),
    ]
}

/// Rows over [`mixed_schema`] drawn from the edge values, including the
/// empty batch.
fn arb_edge_rows(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((arb_edge_int(), arb_edge_double(), arb_edge_int()), 0..=max).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(a, b, c)| Tuple::new(vec![a, b, c]))
                .collect()
        },
    )
}

fn arb_arith_op() -> impl Strategy<Value = ArithOp> {
    prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
        Just(ArithOp::Rem),
    ]
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge)
    ]
}

/// Arithmetic over [`mixed_schema`]: every operator and unary minus over
/// columns and edge literals of both numeric types, so Int/Double mixes
/// (and `%` over a Double) show up mid-tree.
fn arb_edge_expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(ScalarExpr::Col),
        (0usize..3).prop_map(ScalarExpr::Col),
        arb_edge_int().prop_map(ScalarExpr::Lit),
        arb_edge_double().prop_map(ScalarExpr::Lit),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (arb_arith_op(), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| ScalarExpr::arith(op, a, b)),
            inner.clone().prop_map(|a| ScalarExpr::Neg(Box::new(a))),
        ]
    })
}

/// Predicates over the edge expressions: comparisons, IS NULL, Kleene
/// connectives, and guards — `c <> 0 AND e / c <op> e'` — that only the
/// stop rule keeps from faulting.
fn arb_edge_predicate() -> impl Strategy<Value = ScalarExpr> {
    let cmp = (arb_edge_expr(), arb_cmp_op(), arb_edge_expr())
        .prop_map(|(l, op, r)| ScalarExpr::cmp(op, l, r));
    let guarded = (
        arb_edge_expr(),
        arb_cmp_op(),
        arb_edge_expr(),
        any::<bool>(),
    )
        .prop_map(|(l, op, r, rem)| {
            let div = if rem { ArithOp::Rem } else { ArithOp::Div };
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Ne, ScalarExpr::col(2), ScalarExpr::lit(0)),
                ScalarExpr::cmp(op, ScalarExpr::arith(div, l, ScalarExpr::col(2)), r),
            )
        });
    let leaf = prop_oneof![
        cmp,
        guarded,
        arb_edge_expr().prop_map(|e| ScalarExpr::IsNull(Box::new(e))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| ScalarExpr::or(a, b)),
            inner.clone().prop_map(|a| ScalarExpr::Not(Box::new(a))),
        ]
    })
}

/// Every other row of an `n`-row batch.
fn every_other(n: usize) -> SelVec {
    SelVec::from_indices(n, (0..n as u32).step_by(2).collect())
}

/// Wrap rows in the executor's own lazily-pivoting column set
/// (`LazyColumns`), so kernels are tested over exactly the columns the
/// pipeline would build. For the empty batch, where arity is unknowable
/// from the rows, three empty columns stand in so kernels still see
/// every ordinal they reference.
fn pivot_columns(rows: &[Tuple]) -> LazyColumns {
    if rows.is_empty() {
        return LazyColumns::from_cols(
            (0..3).map(|_| Arc::new(ColumnVec::Mixed(Vec::new()))).collect(),
        );
    }
    LazyColumns::from_rows(Arc::new(rows.to_vec()))
}

// ---------- randomized plans for executor-vs-oracle properties ----------

/// One encoded plan-building step; the interpreter clamps every parameter
/// against the current arity, so any byte triple yields a valid plan.
type PlanOp = (u8, u8, u8);

fn arb_plan_ops(max_ops: usize) -> impl Strategy<Value = Vec<PlanOp>> {
    prop::collection::vec((0u8..7, 0u8..255, 0u8..255), 0..=max_ops)
}

/// Interpret encoded ops into a valid plan over `l`/`r` (3 int columns).
/// Joins always key the right side on its unique first column so output
/// sizes stay bounded by the left side; limits only ever follow a total
/// sort, so results are deterministic up to row order.
fn build_plan(ops: &[PlanOp], lschema: &Schema, rschema: &Schema) -> LogicalPlan {
    let mut plan = LogicalPlan::scan("l", lschema.clone());
    for &(op, p1, p2) in ops {
        let arity = plan.output_schema().expect("valid by construction").arity();
        let c1 = p1 as usize % arity;
        let c2 = p2 as usize % arity;
        plan = match op {
            0 => {
                let cmp = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                    [p2 as usize % 6];
                plan.select(ScalarExpr::cmp(
                    cmp,
                    ScalarExpr::col(c1),
                    ScalarExpr::lit(p2 as i64 - 127),
                ))
            }
            1 => plan.project_cols(&[c1, c2]).expect("ordinals clamped"),
            2 => plan.join(LogicalPlan::scan("r", rschema.clone()), vec![(c1, 0)]),
            3 => LogicalPlan::Union {
                left: Box::new(plan.clone()),
                right: Box::new(plan),
                all: p1 % 2 == 0,
            },
            4 => {
                let aggs = if p2 % 4 == 0 {
                    // Non-decomposable: merges at the coordinator.
                    vec![
                        AggExpr::new(AggFunc::CountStar, 0, "n"),
                        AggExpr::new(AggFunc::Avg, c2, "avg"),
                    ]
                } else {
                    // Decomposable: per-fragment partials + merge.
                    vec![
                        AggExpr::new(AggFunc::CountStar, 0, "n"),
                        AggExpr::new(AggFunc::Sum, c2, "s"),
                        AggExpr::new(AggFunc::Min, c2, "mn"),
                        AggExpr::new(AggFunc::Max, c2, "mx"),
                    ]
                };
                LogicalPlan::Aggregate {
                    input: Box::new(plan),
                    group_by: vec![c1],
                    aggs,
                }
            }
            5 => LogicalPlan::Distinct {
                input: Box::new(plan),
            },
            _ => {
                let keys: Vec<(usize, bool)> = (0..arity).map(|i| (i, true)).collect();
                LogicalPlan::Limit {
                    input: Box::new(LogicalPlan::Sort {
                        input: Box::new(plan),
                        keys,
                    }),
                    n: 1 + p1 as usize % 40,
                }
            }
        };
    }
    plan
}

/// DDL + loads shared by [`shared_machine`] and its row-wire twin.
fn load_lr(db: &PrismaMachine) {
    db.sql("CREATE TABLE l (a INT, b INT, c INT) FRAGMENTED BY HASH(a) INTO 4")
        .unwrap();
    db.sql("CREATE TABLE r (a INT, b INT, c INT) FRAGMENTED BY HASH(b) INTO 3")
        .unwrap();
    let (lrows, rrows) = machine_rows();
    for chunk in lrows.chunks(500) {
        db.sql(&format!("INSERT INTO l VALUES {}", values_clause(chunk)))
            .unwrap();
    }
    for chunk in rrows.chunks(500) {
        db.sql(&format!("INSERT INTO r VALUES {}", values_clause(chunk)))
            .unwrap();
    }
    db.refresh_stats("l").unwrap();
    db.refresh_stats("r").unwrap();
}

/// The distributed machine the randomized-plan property queries; built
/// once (same rows as [`machine_reference`]), with `l` large enough that
/// scan-scan joins cross the broadcast threshold and take the
/// hash-partitioned path while filtered/aggregated sides broadcast.
fn shared_machine() -> &'static Arc<PrismaMachine> {
    static MACHINE: OnceLock<Arc<PrismaMachine>> = OnceLock::new();
    MACHINE.get_or_init(|| {
        let db = PrismaMachine::builder().pes(8).build().unwrap();
        load_lr(&db);
        Arc::new(db)
    })
}

fn machine_rows() -> (Vec<Tuple>, Vec<Tuple>) {
    let l = (0..1200i64).map(|i| tuple![i, i % 37, (i * 7) % 50]).collect();
    let r = (0..1100i64).map(|i| tuple![i, i % 37, (i * 11) % 50]).collect();
    (l, r)
}

fn machine_reference() -> &'static HashMap<String, Relation> {
    static REFERENCE: OnceLock<HashMap<String, Relation>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (lrows, rrows) = machine_rows();
        let mut m = HashMap::new();
        m.insert("l".to_owned(), Relation::new(int3_schema(), lrows));
        m.insert("r".to_owned(), Relation::new(int3_schema(), rrows));
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Value's total order really is total, antisymmetric and transitive
    // enough for sorting (we check sort stability round-trips).
    #[test]
    fn value_total_order_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) == Ordering::Equal {
            prop_assert_eq!(a.total_cmp(&c), b.total_cmp(&c));
        }
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    // Eq ⇒ same hash (join/index correctness).
    #[test]
    fn value_eq_implies_hash_eq(a in arb_value(), b in arb_value()) {
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = std::collections::hash_map::DefaultHasher::new();
            let mut hb = std::collections::hash_map::DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    // Stable-storage encoding round-trips every tuple exactly.
    #[test]
    fn tuple_encoding_roundtrip(t in arb_tuple(6)) {
        let mut out = bytes_mut();
        encoding::encode_tuple(&t, &mut out);
        let mut buf = out.freeze();
        let back = encoding::decode_tuple(&mut buf).unwrap();
        prop_assert_eq!(back, t);
        prop_assert!(buf.is_empty());
    }

    // Selection pushdown / constant folding etc. preserve semantics on
    // random filtered joins (checked through the optimizer driver).
    #[test]
    fn optimizer_preserves_select_join_semantics(
        pred in arb_predicate(),
        left in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 0..30),
        right in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 0..30),
    ) {
        use prisma::optimizer::{Optimizer, stats::NoStats};
        let schema = int3_schema();
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("l".into(), Relation::new(schema.clone(), left.into_iter().map(|(a,b,c)| tuple![a,b,c]).collect()));
        db.insert("r".into(), Relation::new(schema.clone(), right.into_iter().map(|(a,b,c)| tuple![a,b,c]).collect()));
        // Join predicate references the 6-wide concatenated schema: remap
        // half the columns to the right side.
        let join_pred = pred.remap_columns(&|c| if c % 2 == 0 { c } else { c + 3 });
        let plan = LogicalPlan::scan("l", schema.clone())
            .join(LogicalPlan::scan("r", schema), vec![])
            .select(join_pred);
        let opt = Optimizer::new(&NoStats);
        let (optimized, _) = opt.optimize(&plan).unwrap();
        let before = eval(&plan, &db);
        let after = eval(&optimized, &db);
        match (before, after) {
            (Ok(b), Ok(a)) => {
                let (b, a) = (b.canonicalized(), a.canonicalized());
                prop_assert_eq!(b.tuples(), a.tuples());
            }
            (Err(_), _) => {} // interpreter-side arithmetic error: skip
            (Ok(_), Err(e)) => prop_assert!(false, "optimized plan failed: {e}"),
        }
    }

    // Transitive closure: semi-naive and naive agree on arbitrary graphs,
    // and the closure is idempotent (TC(TC(G)) = TC(G)).
    #[test]
    fn closure_agreement_and_idempotence(
        edges in prop::collection::vec((0i64..12, 0i64..12), 0..40),
    ) {
        let schema = Schema::new(vec![
            Column::new("s", DataType::Int),
            Column::new("d", DataType::Int),
        ]);
        let rel = Relation::new(
            schema,
            edges.into_iter().map(|(a, b)| tuple![a, b]).collect(),
        ).distinct();
        let semi = transitive_closure(&rel).unwrap().canonicalized();
        let naive = transitive_closure_naive(&rel).unwrap().canonicalized();
        prop_assert_eq!(semi.tuples(), naive.tuples());
        let twice = transitive_closure(&semi).unwrap().canonicalized();
        prop_assert_eq!(twice.tuples(), semi.tuples());
    }

    // Schema tuple checking accepts exactly what try_new accepts.
    #[test]
    fn relation_validation_consistency(rows in prop::collection::vec(arb_tuple(2), 0..10)) {
        let schema = Schema::new(vec![
            Column::nullable("x", DataType::Int),
            Column::nullable("y", DataType::Str),
        ]);
        let all_ok = rows.iter().all(|t| schema.check_tuple(t.values()).is_ok());
        let built = Relation::try_new(schema, rows);
        prop_assert_eq!(all_ok, built.is_ok());
    }
}

/// Put one more operator on top of a [`build_plan`] plan, for the shapes
/// the op interpreter does not reach: semi/anti joins with a residual,
/// and a computing projection under a `COUNT(*)` that reads no column.
fn with_tail(plan: LogicalPlan, (kind, p1, p2): PlanOp, rschema: &Schema) -> LogicalPlan {
    use prisma::relalg::JoinKind;
    let arity = plan.output_schema().expect("valid by construction").arity();
    let (c1, c2) = (p1 as usize % arity, p2 as usize % arity);
    match kind {
        1 | 2 => LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::scan("r", rschema.clone())),
            kind: if kind == 1 {
                JoinKind::Semi
            } else {
                JoinKind::Anti
            },
            on: vec![(c1, 0)],
            residual: Some(ScalarExpr::cmp(
                CmpOp::Le,
                ScalarExpr::col(c2),
                ScalarExpr::col(arity + 1 + p2 as usize % 2),
            )),
        }
        .project_cols(&[c2])
        .expect("ordinal clamped"),
        3 => LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(plan),
                exprs: vec![
                    ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(c1), ScalarExpr::col(c2)),
                    ScalarExpr::lit(7),
                ],
                schema: Schema::new(vec![
                    Column::nullable("sum", DataType::Int),
                    Column::new("seven", DataType::Int),
                ]),
            }),
            group_by: vec![],
            aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n")],
        },
        _ => plan,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The required-columns pass closes the commuting square on random
    // plans: the oracle returns the same rows for the pruned plan, the
    // root schema is untouched, the plan validates, and a second pass
    // changes nothing.
    #[test]
    fn column_pruning_commutes_with_the_oracle(
        ops in arb_plan_ops(7),
        tail in (0u8..4, 0u8..255, 0u8..255),
        lrows in prop::collection::vec((-30i64..30, -30i64..30, -30i64..30), 0..25),
        rrows in prop::collection::vec((-30i64..30, -30i64..30, -30i64..30), 0..20),
    ) {
        use prisma::optimizer::{prune::prune_columns, Trace};
        let schema = int3_schema();
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert(
            "l".into(),
            Relation::new(schema.clone(), lrows.into_iter().map(|(a, b, c)| tuple![a, b, c]).collect()),
        );
        db.insert(
            "r".into(),
            Relation::new(schema.clone(), rrows.into_iter().map(|(a, b, c)| tuple![a, b, c]).collect()),
        );
        let plan = with_tail(build_plan(&ops, &schema, &schema), tail, &schema);
        let pruned = prune_columns(plan.clone(), &mut Trace::default()).unwrap();
        prop_assert!(pruned.validate().is_ok(), "invalid:\n{}", pruned);
        prop_assert_eq!(pruned.output_schema().unwrap(), plan.output_schema().unwrap());
        let before = eval(&plan, &db).unwrap().canonicalized();
        let after = eval(&pruned, &db).unwrap().canonicalized();
        prop_assert_eq!(before.tuples(), after.tuples(), "plan:\n{}\npruned:\n{}", plan, pruned);
        let again = prune_columns(pruned.clone(), &mut Trace::default()).unwrap();
        prop_assert_eq!(&again, &pruned, "not idempotent:\n{}", pruned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The pull-based batch executor agrees with the reference evaluator
    // on arbitrary plans over arbitrary data (up to row order).
    #[test]
    fn batch_executor_matches_reference_evaluator(
        ops in arb_plan_ops(6),
        lrows in prop::collection::vec((-30i64..30, -30i64..30, -30i64..30), 0..25),
        rrows in prop::collection::vec((-30i64..30, -30i64..30, -30i64..30), 0..20),
    ) {
        let schema = int3_schema();
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert(
            "l".into(),
            Relation::new(schema.clone(), lrows.into_iter().map(|(a, b, c)| tuple![a, b, c]).collect()),
        );
        db.insert(
            "r".into(),
            Relation::new(schema.clone(), rrows.into_iter().map(|(a, b, c)| tuple![a, b, c]).collect()),
        );
        let plan = build_plan(&ops, &schema, &schema);
        let physical = lower(&plan).unwrap();
        let via_exec = execute_physical(&physical, &db).unwrap().canonicalized();
        let via_eval = eval(&plan, &db).unwrap().canonicalized();
        prop_assert_eq!(via_exec.tuples(), via_eval.tuples(), "plan:\n{}", plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Streamed batch shipping: however BatchChunk arrivals interleave
    // across fragments — and however chunks *within* one fragment's
    // stream are reordered, end markers overtaking chunks included —
    // reassembly releases every stream's chunks in sequence order and
    // the merged result matches the reference evaluator's answer for
    // the unfragmented relation.
    #[test]
    fn shuffled_stream_delivery_matches_eval_oracle(
        frag_sizes in prop::collection::vec(0usize..700, 2..5),
        chunk_rows in 37usize..300,
        keys in prop::collection::vec(any::<u64>(), 80),
    ) {
        use prisma::multicomputer::StreamReassembly;
        use prisma::relalg::Batch;

        enum Ev {
            Chunk(u64, u64, Batch),
            End(u64, u64),
        }

        let schema = int3_schema();
        let mut all_rows: Vec<Tuple> = Vec::new();
        let mut events: Vec<Ev> = Vec::new();
        for (tag, &n) in frag_sizes.iter().enumerate() {
            let rows: Vec<Tuple> = (0..n as i64)
                .map(|i| tuple![tag as i64, i, i % 7])
                .collect();
            all_rows.extend(rows.iter().cloned());
            let chunks: Vec<Batch> = rows
                .chunks(chunk_rows)
                .map(|c| Batch::owned(c.to_vec()))
                .collect();
            events.push(Ev::End(tag as u64, chunks.len() as u64));
            for (seq, b) in chunks.into_iter().enumerate() {
                events.push(Ev::Chunk(tag as u64, seq as u64, b));
            }
        }
        // Deterministic shuffle driven by the generated keys: every
        // arrival order across (and within) streams is fair game.
        let mut keyed: Vec<(u64, Ev)> = events
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let k = keys[i % keys.len()] ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (k, e)
            })
            .collect();
        keyed.sort_by_key(|(k, _)| *k);

        let mut reassembly: StreamReassembly<Batch> =
            StreamReassembly::expecting(0..frag_sizes.len() as u64);
        let mut per_stream: Vec<Vec<Tuple>> = vec![Vec::new(); frag_sizes.len()];
        let mut released: Vec<Batch> = Vec::new();
        for (_, ev) in keyed {
            match ev {
                Ev::Chunk(tag, seq, batch) => {
                    released.clear();
                    reassembly.accept(tag, seq, batch, &mut released).unwrap();
                    for b in released.drain(..) {
                        per_stream[tag as usize].extend(b.into_tuples());
                    }
                }
                Ev::End(tag, count) => reassembly.finish(tag, count).unwrap(),
            }
        }
        prop_assert!(reassembly.all_complete());

        // In-stream order is restored exactly (column 1 counts 0..n).
        for (tag, rows) in per_stream.iter().enumerate() {
            prop_assert_eq!(rows.len(), frag_sizes[tag]);
            for (i, t) in rows.iter().enumerate() {
                prop_assert_eq!(t.get(1), &Value::Int(i as i64));
            }
        }

        // The merged union matches the oracle over the whole relation.
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("t".into(), Relation::new(schema.clone(), all_rows));
        let oracle = eval(&LogicalPlan::scan("t", schema.clone()), &db)
            .unwrap()
            .canonicalized();
        let merged: Vec<Tuple> = per_stream.into_iter().flatten().collect();
        let merged = Relation::new(schema, merged).canonicalized();
        prop_assert_eq!(merged.tuples(), oracle.tuples());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Direct fragment→fragment shuffle: a grace join whose buckets are
    // addressed straight at the phase-2 site actors (never relayed
    // through the coordinator) matches the reference evaluator for the
    // unfragmented relations — across mismatched fragment counts (3
    // left, 2 right), bucket counts below/at/above the fragment count,
    // and whatever chunk arrival order the multi-threaded runtime
    // produces. The coordinator receives result rows only.
    #[test]
    fn direct_shuffle_grace_join_matches_eval_oracle(
        lrows in prop::collection::vec((-25i64..25, -25i64..25, -25i64..25), 0..120),
        rrows in prop::collection::vec((-25i64..25, -25i64..25, -25i64..25), 0..100),
        parts in prop_oneof![Just(None), (1usize..9).prop_map(Some)],
        key in 0usize..3,
    ) {
        use prisma::optimizer::PhysicalConfig;

        let schema = int3_schema();
        let to_rel = |rows: &[(i64, i64, i64)]| {
            Relation::new(
                schema.clone(),
                rows.iter().map(|&(a, b, c)| tuple![a, b, c]).collect(),
            )
        };
        let mut db = PrismaMachine::builder().pes(4).build().unwrap();
        db.sql("CREATE TABLE l (a INT, b INT, c INT) FRAGMENTED BY HASH(a) INTO 3")
            .unwrap();
        db.sql("CREATE TABLE r (a INT, b INT, c INT) FRAGMENTED BY HASH(c) INTO 2")
            .unwrap();
        for (name, rows) in [("l", &lrows), ("r", &rrows)] {
            let rel = to_rel(rows);
            if !rel.is_empty() {
                db.sql(&format!(
                    "INSERT INTO {name} VALUES {}",
                    values_clause(rel.tuples())
                ))
                .unwrap();
            }
        }
        // Broadcast cap 0 forces the partitioned (grace) path for every
        // equi-join.
        db.gdh_mut().set_physical_config(PhysicalConfig {
            broadcast_max_rows: 0.0,
            shuffle_parts: parts,
            ..PhysicalConfig::default()
        });

        let plan = LogicalPlan::scan("l", schema.clone())
            .join(LogicalPlan::scan("r", schema.clone()), vec![(key, key)]);
        let mut reference: HashMap<String, Relation> = HashMap::new();
        reference.insert("l".into(), to_rel(&lrows));
        reference.insert("r".into(), to_rel(&rrows));
        let oracle = eval(&plan, &reference).unwrap().canonicalized();

        let (rows, metrics) = db.gdh().query(&plan).unwrap();
        prop_assert_eq!(metrics.partitioned_joins, 1, "not a grace join: {:?}", metrics);
        prop_assert_eq!(
            metrics.tuples_shipped,
            rows.len() as u64,
            "the coordinator must receive result rows only: {:?}",
            metrics
        );
        let got = rows.canonicalized();
        prop_assert_eq!(
            got.tuples(),
            oracle.tuples(),
            "grace join disagrees with the oracle (parts={:?}, key={})",
            parts,
            key
        );
        db.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The shuffle wire protocol itself, deterministically shuffled: per
    // (source, site) bucket streams delivered in arbitrary order —
    // chunks reordered within streams, end markers overtaking chunks,
    // sites interleaved — reassemble into exactly the bucket contents
    // the oracle join expects, whatever the bucket→site placement.
    #[test]
    fn shuffled_bucket_stream_delivery_matches_eval_join_oracle(
        lrows in prop::collection::vec((-15i64..15, -15i64..15), 0..160),
        rrows in prop::collection::vec((-15i64..15, -15i64..15), 0..140),
        parts in 1usize..7,
        n_sites in 1usize..4,
        chunk_rows in 7usize..40,
        keys in prop::collection::vec(any::<u64>(), 64),
    ) {
        use prisma::multicomputer::StreamReassembly;
        use prisma::relalg::exec::partition_positions;
        use prisma::relalg::Batch;

        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let to_rel = |rows: &[(i64, i64)]| {
            Relation::new(
                schema.clone(),
                rows.iter().map(|&(a, b)| tuple![a, b]).collect(),
            )
        };
        // Placement: bucket j is owned by site j % n_sites. Two source
        // fragments per side.
        let site_of = |bucket: usize| bucket % n_sites;
        let lsrc: Vec<Vec<Tuple>> = {
            let rel = to_rel(&lrows);
            let mid = rel.len() / 2;
            vec![rel.tuples()[..mid].to_vec(), rel.tuples()[mid..].to_vec()]
        };
        let rsrc: Vec<Vec<Tuple>> = {
            let rel = to_rel(&rrows);
            let mid = rel.len() / 3;
            vec![rel.tuples()[..mid].to_vec(), rel.tuples()[mid..].to_vec()]
        };

        // Build every (side, source, site) stream: sources partition each
        // produced "batch", encode each bucket's positions as one wire
        // frame and group the frames per owning site, with per-site
        // sequence numbers — exactly the ShuffleChunk shape.
        type Payload = Vec<(usize, BlockChunk)>;
        enum Ev {
            Chunk { site: usize, side: usize, tag: u64, seq: u64, payload: Payload },
            End { site: usize, side: usize, tag: u64, seq_count: u64 },
        }
        let mut events: Vec<Ev> = Vec::new();
        for (side, sources) in [&lsrc, &rsrc].into_iter().enumerate() {
            for (tag, rows) in sources.iter().enumerate() {
                let mut seqs = vec![0u64; n_sites];
                for batch_rows in rows.chunks(chunk_rows.max(1)) {
                    let batch = Batch::owned(batch_rows.to_vec());
                    let mut per_site: Vec<Payload> = vec![Vec::new(); n_sites];
                    for (j, pos) in partition_positions(&batch, &[0], parts).iter().enumerate() {
                        if !pos.is_empty() {
                            per_site[site_of(j)].push((j, batch.encode_positions(pos)));
                        }
                    }
                    for (site, payload) in per_site.into_iter().enumerate() {
                        if payload.is_empty() {
                            continue;
                        }
                        events.push(Ev::Chunk {
                            site,
                            side,
                            tag: tag as u64,
                            seq: seqs[site],
                            payload,
                        });
                        seqs[site] += 1;
                    }
                }
                for (site, &seq_count) in seqs.iter().enumerate() {
                    events.push(Ev::End {
                        site,
                        side,
                        tag: tag as u64,
                        seq_count,
                    });
                }
            }
        }
        // Deterministic shuffle over every stream of every site.
        let mut keyed: Vec<(u64, Ev)> = events
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let k = keys[i % keys.len()] ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (k, e)
            })
            .collect();
        keyed.sort_by_key(|(k, _)| *k);

        // Each site reassembles its two sides' peer streams.
        let mut sites: Vec<[StreamReassembly<Payload>; 2]> = (0..n_sites)
            .map(|_| {
                [
                    StreamReassembly::expecting(0..lsrc.len() as u64),
                    StreamReassembly::expecting(0..rsrc.len() as u64),
                ]
            })
            .collect();
        let mut collected: Vec<[Vec<Tuple>; 2]> =
            (0..n_sites).map(|_| [Vec::new(), Vec::new()]).collect();
        let mut released: Vec<Payload> = Vec::new();
        for (_, ev) in keyed {
            match ev {
                Ev::Chunk { site, side, tag, seq, payload } => {
                    released.clear();
                    sites[site][side].accept(tag, seq, payload, &mut released).unwrap();
                    for payload in released.drain(..) {
                        for (bucket, frame) in payload {
                            prop_assert_eq!(site_of(bucket), site, "chunk at wrong site");
                            collected[site][side]
                                .extend(Batch::from_block(&frame).unwrap().into_tuples());
                        }
                    }
                }
                Ev::End { site, side, tag, seq_count } => {
                    sites[site][side].finish(tag, seq_count).unwrap();
                }
            }
        }
        for site in &sites {
            prop_assert!(site[0].all_complete() && site[1].all_complete());
        }

        // Per-site local joins over the collected buckets, merged, must
        // equal the oracle join of the unfragmented relations.
        let join = |l: &Relation, r: &Relation| -> Relation {
            let plan = LogicalPlan::scan("l", schema.clone())
                .join(LogicalPlan::scan("r", schema.clone()), vec![(0, 0)]);
            let mut db: HashMap<String, Relation> = HashMap::new();
            db.insert("l".into(), l.clone());
            db.insert("r".into(), r.clone());
            execute_physical(&lower(&plan).unwrap(), &db).unwrap()
        };
        let mut merged: Vec<Tuple> = Vec::new();
        for [l, r] in collected {
            merged.extend(
                join(&Relation::new(schema.clone(), l), &Relation::new(schema.clone(), r))
                    .into_tuples(),
            );
        }
        let join_schema = schema.join(&schema);
        let merged = Relation::new(join_schema, merged).canonicalized();
        let oracle = join(&to_rel(&lrows), &to_rel(&rrows)).canonicalized();
        prop_assert_eq!(merged.tuples(), oracle.tuples());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The distributed machine — physical subplans shipped to fragments,
    // broadcast AND hash-partitioned joins (the scans are sized across
    // the broadcast threshold), decomposable-aggregate merges, CSE memo
    // hits from the union arm — agrees with the reference evaluator on
    // randomized plans.
    #[test]
    fn distributed_batch_pipeline_matches_reference_evaluator(
        ops in arb_plan_ops(5),
    ) {
        let db = shared_machine();
        let plan = build_plan(&ops, &int3_schema(), &int3_schema());
        let (rows, _metrics) = db.gdh().query(&plan).unwrap();
        let via_machine = rows.canonicalized();
        let via_reference = eval(&plan, machine_reference()).unwrap().canonicalized();
        prop_assert_eq!(
            via_machine.tuples(),
            via_reference.tuples(),
            "machine and reference disagree on:\n{}",
            plan
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The one rule, expression by expression: the kernel tree agrees with
    // the interpreter over edge values — on each row alone exactly, value
    // or error; over a batch and over a narrower selection, on every
    // value, and it faults exactly when some selected row does.
    #[test]
    fn kernel_expressions_match_the_interpreter(
        e in arb_edge_expr(),
        rows in arb_edge_rows(24),
    ) {
        let kernel = e.compile_vec();
        for t in &rows {
            let one = kernel.eval(&pivot_columns(std::slice::from_ref(t)), &SelVec::all(1));
            prop_assert_eq!(one.map(|c| c.value_at(0)), e.eval(t), "expr {} row {}", e, t);
        }
        let cols = pivot_columns(&rows);
        for sel in [SelVec::all(rows.len()), every_other(rows.len())] {
            let want: Vec<_> = sel.iter().map(|i| e.eval(&rows[i])).collect();
            match kernel.eval(&cols, &sel) {
                Ok(out) => {
                    prop_assert_eq!(out.len(), sel.count());
                    for (p, w) in want.into_iter().enumerate() {
                        prop_assert_eq!(Ok(out.value_at(p)), w, "expr {}", e);
                    }
                }
                Err(err) => {
                    prop_assert!(matches!(err, PrismaError::Arithmetic(_)), "expr {}: {}", e, err);
                    prop_assert!(want.iter().any(Result::is_err), "expr {}: {} on no row", e, err);
                }
            }
        }
    }

    // The same square for predicates, where the stop rule holds: a row a
    // top-level conjunct rejects never reaches the later ones, in the
    // kernel's narrowing selection as in `eval_predicate`.
    #[test]
    fn kernel_predicates_match_the_interpreter(
        p in arb_edge_predicate(),
        rows in arb_edge_rows(24),
    ) {
        let mut kernel = p.compile_vec_predicate();
        let mut got = Vec::new();
        for t in &rows {
            let one = kernel
                .select(&pivot_columns(std::slice::from_ref(t)), &SelVec::all(1), &mut got)
                .map(|()| got == [0]);
            prop_assert_eq!(one, p.eval_predicate(t), "predicate {} row {}", p, t);
        }
        let cols = pivot_columns(&rows);
        for sel in [SelVec::all(rows.len()), every_other(rows.len())] {
            let want: Result<Vec<u32>, _> = sel
                .iter()
                .filter_map(|i| p.eval_predicate(&rows[i]).map(|keep| keep.then_some(i as u32)).transpose())
                .collect();
            match (kernel.select(&cols, &sel, &mut got), want) {
                (Ok(()), Ok(want)) => prop_assert_eq!(&got, &want, "predicate {}", p),
                (Err(PrismaError::Arithmetic(_)), Err(PrismaError::Arithmetic(_))) => {}
                (got, want) => prop_assert!(false, "predicate {}: kernel {:?}, interpreter {:?}", p, got, want),
            }
        }
    }

    // The executor's vectorized Filter → Project → Aggregate pipeline
    // agrees with the reference evaluator over nullable edge values, on
    // the rows or on the fault: one plan, so the same rows reach every
    // expression.
    #[test]
    fn vectorized_executor_matches_oracle_with_nulls(
        pred in arb_edge_predicate(),
        e1 in arb_edge_expr(),
        e2 in arb_edge_expr(),
        rows in arb_edge_rows(24),
    ) {
        let schema = mixed_schema();
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("m".into(), Relation::new(schema.clone(), rows));

        let filtered = LogicalPlan::scan("m", schema.clone()).select(pred);
        let project = LogicalPlan::Project {
            input: Box::new(filtered.clone()),
            exprs: vec![e1.clone(), e2.clone(), ScalarExpr::col(1)],
            schema: Schema::new(vec![
                Column::nullable("x", e1.check(&schema).unwrap_or(DataType::Int)),
                Column::nullable("y", e2.check(&schema).unwrap_or(DataType::Int)),
                Column::nullable("b", DataType::Double),
            ]),
        };
        let aggregate = LogicalPlan::Aggregate {
            input: Box::new(filtered.clone()),
            group_by: vec![0],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Sum, 2, "s"),
                AggExpr::new(AggFunc::Min, 1, "mn"),
                AggExpr::new(AggFunc::Max, 1, "mx"),
            ],
        };
        for plan in [filtered, project, aggregate] {
            let physical = lower(&plan).unwrap();
            match (execute_physical(&physical, &db), eval(&plan, &db)) {
                (Ok(got), Ok(oracle)) => {
                    let (got, oracle) = (got.canonicalized(), oracle.canonicalized());
                    prop_assert_eq!(got.tuples(), oracle.tuples(), "plan:\n{}", plan);
                }
                (Err(PrismaError::Arithmetic(_)), Err(PrismaError::Arithmetic(_))) => {}
                (got, oracle) => prop_assert!(
                    false, "plan:\n{}\nexecutor {:?}, oracle {:?}", plan, got.err(), oracle.err()
                ),
            }
        }
    }
}

// ---------- morsel-driven parallel execution vs the oracle ----------

/// Tile `seed` rows up to `target`, shifting the first column per copy so
/// join keys stay near-unique (bounding join fan-out). The pool takes a
/// scan only when it holds at least two morsels (`2 × MORSEL_ROWS` rows,
/// some 131 000): below that every width runs inline, so a case meant to
/// cover pooled execution tiles past it and asserts that the pool ran.
fn tile_rows(seed: &[(i64, i64, i64)], target: usize) -> Vec<Tuple> {
    if seed.is_empty() {
        return Vec::new();
    }
    let copies = target.div_ceil(seed.len());
    let mut rows = Vec::with_capacity(copies * seed.len());
    for copy in 0..copies {
        for &(a, b, c) in seed {
            rows.push(tuple![a + copy as i64 * 61, b, c]);
        }
    }
    rows
}

/// Flatten a (possibly pooled) batch stream into its exact tuple
/// sequence — order preserved, so two runs can be compared bit-for-bit.
fn run_pooled(
    physical: &prisma::relalg::PhysicalPlan,
    db: &HashMap<String, Relation>,
    pool: Option<Arc<prisma::poolx::WorkerPool>>,
) -> Vec<Tuple> {
    prisma::relalg::open_batches_pooled(physical, db, pool)
        .unwrap()
        .drain()
        .unwrap()
        .into_iter()
        .flat_map(prisma::relalg::Batch::into_tuples)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Execution on a pool is **deterministic and bit-identical to
    // serial** on arbitrary plans: the same tuples in the same order at
    // 1, 2 and 4 workers, twice at each width, and the result agrees with
    // the reference evaluator. These inputs stay under two morsels, so
    // they pin the inline path at every width; empty relations exercise
    // the zero-morsel edge. Pooled execution over morsels is
    // `pooled_execution_over_morsels_matches_serial_and_oracle`.
    #[test]
    fn pooled_execution_deterministic_and_matches_oracle(
        ops in arb_plan_ops(4),
        lseed in prop::collection::vec((-30i64..30, -30i64..30, -30i64..30), 0..20),
        rseed in prop::collection::vec((-30i64..30, -30i64..30, -30i64..30), 0..12),
    ) {
        let schema = int3_schema();
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("l".into(), Relation::new(schema.clone(), tile_rows(&lseed, 1600)));
        db.insert("r".into(), Relation::new(schema.clone(), tile_rows(&rseed, 520)));
        let plan = build_plan(&ops, &schema, &schema);
        let physical = lower(&plan).unwrap();

        let serial = run_pooled(&physical, &db, None);
        for workers in [1usize, 2, 4] {
            let pool = prisma::poolx::WorkerPool::new(workers);
            for round in 0..2 {
                let pooled = run_pooled(&physical, &db, Some(Arc::clone(&pool)));
                prop_assert_eq!(
                    &pooled, &serial,
                    "workers={} round={} plan:\n{}", workers, round, plan
                );
            }
        }

        let got = Relation::new(plan.output_schema().unwrap(), serial).canonicalized();
        let oracle = eval(&plan, &db).unwrap().canonicalized();
        prop_assert_eq!(got.tuples(), oracle.tuples(), "plan:\n{}", plan);
    }

    // Same pinning over NULL-heavy nullable mixed-type data: filters,
    // projections and grouped aggregates must not let worker count change
    // NULL handling or row order. These inputs stay under two morsels, so
    // every width runs them inline. (An oracle-side arithmetic fault skips
    // the oracle half, as in the other compiled-path properties.)
    #[test]
    fn pooled_execution_handles_nulls_like_serial(
        pred in arb_mixed_predicate(),
        e1 in arb_mixed_expr(),
        seed in arb_mixed_rows(24),
    ) {
        let schema = mixed_schema();
        // Repeat the seed verbatim: duplicate group keys across batches
        // are what stresses the group table.
        let copies = if seed.is_empty() { 0 } else { 1500_usize.div_ceil(seed.len()) };
        let rows: Vec<Tuple> = std::iter::repeat_n(seed.iter().cloned(), copies).flatten().collect();
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("m".into(), Relation::new(schema.clone(), rows));

        let filtered = LogicalPlan::scan("m", schema.clone()).select(pred);
        let project = LogicalPlan::Project {
            input: Box::new(filtered.clone()),
            exprs: vec![e1.clone(), ScalarExpr::col(1)],
            schema: Schema::new(vec![
                Column::nullable("x", e1.check(&schema).unwrap_or(DataType::Int)),
                Column::nullable("b", DataType::Double),
            ]),
        };
        let aggregate = LogicalPlan::Aggregate {
            input: Box::new(filtered.clone()),
            group_by: vec![0],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Sum, 2, "s"),
                AggExpr::new(AggFunc::Avg, 1, "avg"),
                AggExpr::new(AggFunc::Min, 1, "mn"),
                AggExpr::new(AggFunc::Max, 1, "mx"),
            ],
        };
        for plan in [filtered, project, aggregate] {
            let physical = lower(&plan).unwrap();
            let serial = run_pooled(&physical, &db, None);
            for workers in [2usize, 4] {
                let pool = prisma::poolx::WorkerPool::new(workers);
                let pooled = run_pooled(&physical, &db, Some(Arc::clone(&pool)));
                prop_assert_eq!(&pooled, &serial, "workers={} plan:\n{}", workers, plan);
            }
            if let Ok(oracle) = eval(&plan, &db) {
                let got = Relation::new(plan.output_schema().unwrap(), serial).canonicalized();
                let oracle = oracle.canonicalized();
                prop_assert_eq!(got.tuples(), oracle.tuples(), "plan:\n{}", plan);
            }
        }
    }
}


// Morsel-parallel execution over inputs of two morsels and more: the same
// tuples in the same order inline and at 2 and 4 workers (two pools, two
// steal interleavings), with the pool really running morsels, and the
// oracle's rows.
// Fixed plans stand in for proptest's: each case tiles past
// `2 × MORSEL_ROWS` rows, too many for two dozen random cases.
#[test]
fn pooled_execution_over_morsels_matches_serial_and_oracle() {
    let schema = int3_schema();
    let lseed: Vec<(i64, i64, i64)> =
        (0..23).map(|i| (i * 5 - 40, (i * 7) % 11 - 5, (i * 13) % 17 - 8)).collect();
    let rseed: Vec<(i64, i64, i64)> = (0..9).map(|i| (i * 3 - 12, i % 4, 2 * i)).collect();
    let mut db: HashMap<String, Relation> = HashMap::new();
    let l = tile_rows(&lseed, 2 * prisma::relalg::MORSEL_ROWS + 5000);
    db.insert("l".into(), Relation::new(schema.clone(), l));
    db.insert("r".into(), Relation::new(schema.clone(), tile_rows(&rseed, 520)));
    // A filter, a projected join probe, a filtered group-by, a bare one.
    let plans: [&[PlanOp]; 4] = [
        &[(0, 1, 130)],
        &[(2, 0, 0), (1, 4, 1)],
        &[(0, 2, 120), (4, 1, 2)],
        &[(4, 1, 4)],
    ];
    for ops in plans {
        let plan = build_plan(ops, &schema, &schema);
        let physical = lower(&plan).unwrap();
        let serial = run_pooled(&physical, &db, None);
        for workers in [2usize, 4] {
            let pool = prisma::poolx::WorkerPool::new(workers);
            let pooled = run_pooled(&physical, &db, Some(Arc::clone(&pool)));
            assert!(pooled == serial, "workers={workers} plan:\n{plan}");
            assert!(pool.stats().morsels > 0, "pool unused at {workers} workers:\n{plan}");
        }
        let got = Relation::new(plan.output_schema().unwrap(), serial).canonicalized();
        let oracle = eval(&plan, &db).unwrap().canonicalized();
        assert!(got.tuples() == oracle.tuples(), "plan:\n{plan}");
    }
}

fn bytes_mut() -> bytes::BytesMut {
    bytes::BytesMut::new()
}

// ---------- per-fragment statistics: histogram estimation bounds ----------

proptest! {
    /// An equi-depth histogram's range-selectivity estimate is within
    /// one bucket's mass of the true selectivity — for any value
    /// multiset (including heavy skew from the small domain) and any
    /// probe point.
    #[test]
    fn histogram_range_selectivity_within_one_bucket_mass(
        values in prop::collection::vec(-40i64..40, 1..400),
        probe in -60i64..60,
        buckets in 2usize..33,
    ) {
        use prisma::types::Histogram;
        let mut counts: std::collections::BTreeMap<Value, u64> =
            std::collections::BTreeMap::new();
        for &v in &values {
            *counts.entry(Value::Int(v)).or_default() += 1;
        }
        let h = Histogram::equi_depth(counts.iter(), buckets).unwrap();
        prop_assert_eq!(h.rows(), values.len() as u64, "mass is conserved");
        let total = values.len() as f64;
        let bound = h.max_bucket_rows() as f64 / total;
        for inclusive in [false, true] {
            let truth = values
                .iter()
                .filter(|&&v| if inclusive { v <= probe } else { v < probe })
                .count() as f64
                / total;
            let est = h.fraction_below(&Value::Int(probe), inclusive);
            prop_assert!(
                (est - truth).abs() <= bound + 1e-9,
                "inclusive={inclusive}: est {est} truth {truth} bound {bound}"
            );
        }
    }

    /// Equality selectivity from the histogram is within one bucket's
    /// mass of the truth, and exact (not merely bounded) for any value
    /// the most-common-value list carries.
    #[test]
    fn histogram_eq_selectivity_within_one_bucket_mass(
        values in prop::collection::vec(-20i64..20, 1..300),
        probe in -25i64..25,
    ) {
        use prisma::types::Histogram;
        let mut counts: std::collections::BTreeMap<Value, u64> =
            std::collections::BTreeMap::new();
        for &v in &values {
            *counts.entry(Value::Int(v)).or_default() += 1;
        }
        let h = Histogram::equi_depth(counts.iter(), 8).unwrap();
        let total = values.len() as f64;
        let bound = h.max_bucket_rows() as f64 / total;
        let truth = values.iter().filter(|&&v| v == probe).count() as f64 / total;
        let est = h.selectivity_eq(&Value::Int(probe)).unwrap_or(0.0);
        prop_assert!(
            (est - truth).abs() <= bound + 1e-9,
            "est {est} truth {truth} bound {bound}"
        );
        // MCV hits are exact.
        let mut mcv: Vec<(Value, u64)> = counts.iter().map(|(v, &c)| (v.clone(), c)).collect();
        mcv.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        if let Some((v, c)) = mcv.first() {
            if *v == Value::Int(probe) {
                prop_assert!((truth - *c as f64 / total).abs() < 1e-12);
            }
        }
    }
}

// ---------- columnar wire format: round-trip and corruption ----------

/// Slots generated per column plan; each case truncates every plan to one
/// shared row count, so a block's columns line up without needing a
/// flat-map combinator.
const WIRE_SLOTS: usize = 40;

/// One column's generation plan: per-slot `Option` values (None = NULL),
/// or a `Mixed` row-tagged value vector.
#[derive(Debug, Clone)]
enum WireCol {
    Int(Vec<Option<i64>>),
    Double(Vec<Option<f64>>),
    Bool(Vec<Option<bool>>),
    Str(Vec<Option<String>>),
    Mixed(Vec<Value>),
}

/// Canonical data/mask split: defaults under NULL slots, mask present
/// only when at least one slot is NULL — the exact invariant
/// `BlockChunk::decode` reconstructs, so round-trips compare equal.
fn canonical<T: Default + Clone>(slots: &[Option<T>]) -> (Vec<T>, Option<Vec<bool>>) {
    let data = slots.iter().map(|s| s.clone().unwrap_or_default()).collect();
    let nulls = slots
        .iter()
        .any(Option::is_none)
        .then(|| slots.iter().map(Option::is_none).collect());
    (data, nulls)
}

impl WireCol {
    /// Truncate to `rows` and build the canonical [`ColumnVec`].
    fn build(&self, rows: usize) -> ColumnVec {
        match self {
            WireCol::Int(s) => {
                let (data, nulls) = canonical(&s[..rows]);
                ColumnVec::Int { data, nulls }
            }
            WireCol::Double(s) => {
                let (data, nulls) = canonical(&s[..rows]);
                ColumnVec::Double { data, nulls }
            }
            WireCol::Bool(s) => {
                let (data, nulls) = canonical(&s[..rows]);
                ColumnVec::Bool { data, nulls }
            }
            WireCol::Str(s) => {
                let (data, nulls) = canonical(&s[..rows]);
                ColumnVec::Str { data, nulls }
            }
            WireCol::Mixed(vals) => ColumnVec::Mixed(vals[..rows].to_vec()),
        }
    }
}

/// Column plans spanning every encoder and its selection heuristic:
/// full-range ints (raw), small-range ints (delta/bitpack), constant
/// columns, all-NULL columns, bit-pattern doubles (NaN payloads,
/// infinities, signed zeros), bools, high-cardinality strings (raw),
/// low-cardinality strings (dictionary, RLE when runs dominate), and the
/// `Mixed` row-tagged fallback. Roughly 1-in-8 slots are NULL in the
/// nullable arms.
fn arb_wire_col() -> impl Strategy<Value = WireCol> {
    let null_int = (0u8..8, any::<i64>()).prop_map(|(t, v)| (t != 0).then_some(v));
    let small_int = (0u8..8, -200i64..200).prop_map(|(t, v)| (t != 0).then_some(v));
    let null_double = (0u8..8, any::<f64>()).prop_map(|(t, v)| (t != 0).then_some(v));
    let null_bool = (0u8..8, any::<bool>()).prop_map(|(t, v)| (t != 0).then_some(v));
    let null_str = (0u8..8, "[a-z]{0,12}").prop_map(|(t, v)| (t != 0).then_some(v));
    prop_oneof![
        prop::collection::vec(null_int, WIRE_SLOTS).prop_map(WireCol::Int),
        prop::collection::vec(small_int, WIRE_SLOTS).prop_map(WireCol::Int),
        any::<i64>().prop_map(|v| WireCol::Int(vec![Some(v); WIRE_SLOTS])),
        Just(WireCol::Int(vec![None; WIRE_SLOTS])),
        prop::collection::vec(null_double, WIRE_SLOTS).prop_map(WireCol::Double),
        prop::collection::vec(null_bool, WIRE_SLOTS).prop_map(WireCol::Bool),
        prop::collection::vec(null_str, WIRE_SLOTS).prop_map(WireCol::Str),
        // Low cardinality: every value drawn from a pool of at most four
        // short strings, so the dictionary (and, with long runs, RLE)
        // encoders win the cost comparison.
        (
            prop::collection::vec("[a-z]{0,4}", 1..5),
            prop::collection::vec((0u8..8, 0usize..8), WIRE_SLOTS),
        )
            .prop_map(|(pool, picks)| {
                WireCol::Str(
                    picks
                        .into_iter()
                        .map(|(t, i)| (t != 0).then(|| pool[i % pool.len()].clone()))
                        .collect(),
                )
            }),
        Just(WireCol::Str(vec![None; WIRE_SLOTS])),
        prop::collection::vec(arb_value(), WIRE_SLOTS).prop_map(WireCol::Mixed),
    ]
}

/// Column equality with `Double` payloads compared bit-for-bit: NaN
/// payloads and signed zeros must survive the wire exactly, and plain
/// `PartialEq` would reject `NaN == NaN`.
fn cols_bit_eq(a: &ColumnVec, b: &ColumnVec) -> bool {
    match (a, b) {
        (
            ColumnVec::Double { data: da, nulls: na },
            ColumnVec::Double { data: db, nulls: nb },
        ) => {
            na == nb
                && da.len() == db.len()
                && da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (ColumnVec::Mixed(va), ColumnVec::Mixed(vb)) => {
            va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| match (x, y) {
                    (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
                    _ => x == y,
                })
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // encode → decode is bit-identical for arbitrary canonical columns:
    // every encoder (raw/delta ints, dict/RLE strings, bool bitmaps, the
    // Mixed fallback) and every shape (nullable, empty, all-NULL,
    // single-value, high/low-cardinality Str), whatever codec the
    // selection heuristics pick. Re-encoding the decoded columns must
    // reproduce the same frame bytes — the canonical form is a fixed
    // point of the codec.
    #[test]
    fn wire_block_roundtrip_is_bit_identical(
        rows in 0usize..WIRE_SLOTS + 1,
        plans in prop::collection::vec(arb_wire_col(), 1..6),
    ) {
        let cols: Vec<ColumnVec> = plans.iter().map(|p| p.build(rows)).collect();
        let block = BlockChunk::from_columns(rows, cols.iter().map(Cow::Borrowed));
        prop_assert_eq!(block.rows(), rows);
        prop_assert_eq!(block.wire_bits(), block.as_bytes().len() as u64 * 8);
        let decoded = block.decode().unwrap();
        prop_assert_eq!(decoded.len(), cols.len());
        for (i, (orig, back)) in cols.iter().zip(&decoded).enumerate() {
            prop_assert!(
                cols_bit_eq(orig, back),
                "column {} mis-decoded:\n  sent {:?}\n  got  {:?}",
                i,
                orig,
                back
            );
        }
        let again = BlockChunk::from_columns(rows, decoded.iter().map(Cow::Borrowed));
        prop_assert_eq!(again.as_bytes(), block.as_bytes(), "re-encode is not a fixed point");
    }

    // A frame mangled at an arbitrary offset — bit flip in any payload
    // byte (even seeds) or truncation (odd seeds), the same mutation the
    // fault injector's CorruptChunk applies on the live wire — must
    // always surface as a `wire:` protocol error: never a panic, never a
    // silent mis-decode.
    #[test]
    fn corrupted_wire_block_never_decodes(
        rows in 0usize..WIRE_SLOTS + 1,
        plans in prop::collection::vec(arb_wire_col(), 1..6),
        seed in any::<u64>(),
    ) {
        let cols: Vec<ColumnVec> = plans.iter().map(|p| p.build(rows)).collect();
        let mut block = BlockChunk::from_columns(rows, cols.iter().map(Cow::Borrowed));
        block.corrupt_in_place(seed);
        match block.decode() {
            Ok(_) => prop_assert!(false, "corrupt frame decoded (seed {:#x})", seed),
            Err(e) => prop_assert!(
                e.to_string().contains("wire:"),
                "not a wire protocol error: {} (seed {:#x})",
                e,
                seed
            ),
        }
    }
}

// ---------- columns → rows: the owned and the borrowing pivot ----------

/// Whether two rows are equal bit for bit — [`row_bits`]' equality,
/// without spelling the rows.
fn same_bits(a: &Tuple, b: &Tuple) -> bool {
    a.arity() == b.arity()
        && a.values().iter().zip(b.values()).all(|(x, y)| match (x, y) {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            _ => std::mem::discriminant(x) == std::mem::discriminant(y) && x == y,
        })
}

/// A row spelled bit-for-bit: `Value`'s equality is `total_cmp`, under
/// which `Int(1) == Double(1.0)` and NaN payloads coincide.
fn row_bits(t: &Tuple) -> Vec<String> {
    t.values()
        .iter()
        .map(|v| match v {
            Value::Double(d) => format!("Double({:#018x})", d.to_bits()),
            other => format!("{other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The commuting square of the row pivot. For any column set — typed
    // with and without NULL masks, `Mixed`, all-NULL, zero rows — under a
    // full or a partial selection, three routes from columns to rows agree
    // bit for bit: `value_at` row by row (the definition), the borrowing
    // pivot (`Batch::tuples`, and `into_tuples` on a batch whose columns
    // something else still holds), and the owned pivot (`into_tuples` on a
    // batch that is the only holder of its columns, which moves strings
    // and `Mixed` values out instead of cloning them).
    #[test]
    fn owned_pivot_equals_borrowing_pivot_equals_value_at(
        rows in 0usize..WIRE_SLOTS + 1,
        plans in prop::collection::vec(arb_wire_col(), 1..6),
        picks in prop::collection::vec(any::<bool>(), WIRE_SLOTS),
        partial in any::<bool>(),
    ) {
        use prisma::relalg::Batch;
        let build = || -> Vec<Arc<ColumnVec>> {
            plans.iter().map(|p| Arc::new(p.build(rows))).collect()
        };
        let sel = if partial {
            SelVec::from_indices(rows, (0..rows as u32).filter(|&i| picks[i as usize]).collect())
        } else {
            SelVec::all(rows)
        };
        let cols = build();
        let want: Vec<Vec<String>> = sel
            .iter()
            .map(|i| row_bits(&cols.iter().map(|c| c.value_at(i)).collect()))
            .collect();
        let bits = |rows: &[Tuple]| rows.iter().map(row_bits).collect::<Vec<_>>();

        let borrowed = Batch::columns(build(), sel.clone());
        prop_assert_eq!(bits(borrowed.tuples()), want.clone(), "borrowing pivot");
        // `cols` stays alive: every column has a second holder.
        let shared = Batch::columns(cols.clone(), sel.clone()).into_tuples();
        prop_assert_eq!(bits(&shared), want.clone(), "into_tuples over Arc-shared columns");
        let owned = Batch::columns(build(), sel.clone()).into_tuples();
        prop_assert_eq!(bits(&owned), want.clone(), "owned pivot");
        // The shared route left the columns it borrowed intact.
        for (c, fresh) in cols.iter().zip(build()) {
            prop_assert!(cols_bit_eq(c, &fresh), "borrowing pivot disturbed a column");
        }
        // And a decoded wire block — the owned pivot's real input.
        let block = BlockChunk::from_columns(rows, cols.iter().map(|c| Cow::Borrowed(&**c)));
        let decoded = Batch::from_block(&block).unwrap().into_tuples();
        let all: Vec<Vec<String>> = (0..rows)
            .map(|i| row_bits(&cols.iter().map(|c| c.value_at(i)).collect()))
            .collect();
        prop_assert_eq!(bits(&decoded), all, "owned pivot of a decoded block");
    }
}

// ---------- the columnar join: typed key hashes, the commuting square ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Typed partitioning is the `Value`/`key_hash` definition. For any
    // set of key columns — Int, Double, Str, Bool, `Mixed`, with and
    // without NULL masks, all-NULL, one to three of them — under a full
    // or a partial selection, `partition_positions` (per-type hash loops
    // over the columns) puts every live row where hashing its key
    // `Value`s with `key_hash` puts it, and drops exactly the rows with a
    // NULL key component. The row-backed form of the same rows partitions
    // identically, and an Int key meets the Double key of equal value in
    // the same bucket.
    #[test]
    fn typed_partitioning_matches_value_key_hash(
        rows in 0usize..WIRE_SLOTS + 1,
        plans in prop::collection::vec(arb_wire_col(), 1..4),
        picks in prop::collection::vec(any::<bool>(), WIRE_SLOTS),
        partial in any::<bool>(),
        parts in 1usize..9,
        ints in prop::collection::vec(-40i64..40, WIRE_SLOTS),
    ) {
        use prisma::relalg::exec::{key_hash, partition_positions};
        use prisma::relalg::Batch;
        let sel = if partial {
            SelVec::from_indices(rows, (0..rows as u32).filter(|&i| picks[i as usize]).collect())
        } else {
            SelVec::all(rows)
        };
        let cols: Vec<Arc<ColumnVec>> = plans.iter().map(|p| Arc::new(p.build(rows))).collect();
        let key_cols: Vec<usize> = (0..cols.len()).rev().collect();
        let batch = Batch::columns(cols, sel);
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); parts];
        let mut key = Vec::new();
        for row in 0..batch.len() {
            batch.key_at(row, &key_cols, &mut key);
            if !key.iter().any(Value::is_null) {
                want[(key_hash(&key) % parts as u64) as usize].push(row as u32);
            }
        }
        prop_assert_eq!(&partition_positions(&batch, &key_cols, parts), &want, "typed columns");
        let as_rows = Batch::owned(batch.tuples().to_vec());
        prop_assert_eq!(&partition_positions(&as_rows, &key_cols, parts), &want, "row-backed");

        let int_keys = ColumnVec::Int { data: ints[..rows].to_vec(), nulls: None };
        let double_keys = ColumnVec::Double {
            data: ints[..rows].iter().map(|&i| i as f64).collect(),
            nulls: None,
        };
        let of = |col: ColumnVec| {
            partition_positions(&Batch::columns(vec![Arc::new(col)], SelVec::all(rows)), &[0], parts)
        };
        prop_assert_eq!(of(int_keys), of(double_keys), "Int(n) and Double(n) part ways");
    }

    // The typed group table is the `Value`-keyed definition. Group by a
    // low-cardinality numeric column that spells equal numbers as `Int`
    // and `Double` by turns, by one or two generated columns of any wire
    // type (NULL masks, all-NULL, `Mixed`), or by both; aggregate any
    // generated column with COUNT(*), COUNT, SUM, MIN, MAX and AVG; select
    // all rows or some; fold one batch or two uneven ones. `GroupTable`
    // forms exactly the groups `eval`'s `Accumulator`s form, in the same
    // first-seen order, with bit-identical keys and results — and a SUM
    // that overflows is an error on both sides.
    #[test]
    fn typed_group_by_commutes_with_the_eval_oracle(
        rows in 0usize..WIRE_SLOTS + 1,
        keys in prop::collection::vec(arb_wire_col(), 1..3),
        value in arb_wire_col(),
        small in prop::collection::vec(-3i64..3, WIRE_SLOTS),
        picks in prop::collection::vec(any::<bool>(), WIRE_SLOTS),
        partial in any::<bool>(),
        cut in 0usize..WIRE_SLOTS + 1,
    ) {
        use prisma::relalg::agg::GroupTable;
        use prisma::relalg::Batch;
        let twin = ColumnVec::Mixed(
            small[..rows]
                .iter()
                .enumerate()
                .map(|(i, &n)| if i % 2 == 0 { Value::Int(n) } else { Value::Double(n as f64) })
                .collect(),
        );
        let mut cols = vec![Arc::new(twin)];
        cols.extend(keys.iter().map(|k| Arc::new(k.build(rows))));
        cols.push(Arc::new(value.build(rows)));
        let arity = cols.len();
        let live: Vec<u32> = (0..rows as u32).filter(|&i| !partial || picks[i as usize]).collect();
        let batch = Batch::columns(cols.clone(), SelVec::from_indices(rows, live.clone()));
        let schema = Schema::new((0..arity).map(|c| Column::new(format!("c{c}"), DataType::Int)).collect());
        let db = HashMap::from([("t".to_owned(), Relation::new(schema.clone(), batch.tuples().to_vec()))]);
        // The batch's live rows, cut in two, as columns gathered out of it.
        let cut = cut.min(live.len());
        let halves: Vec<Batch> = [&live[..cut], &live[cut..]]
            .iter()
            .map(|idx| {
                let gathered = cols.iter().map(|c| Arc::new(c.gather(idx))).collect();
                Batch::columns(gathered, SelVec::all(idx.len()))
            })
            .collect();
        let v = arity - 1;
        let aggs: Vec<AggExpr> = [AggFunc::CountStar, AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg]
            .into_iter()
            .map(|f| AggExpr::new(f, v, format!("{f}")))
            .collect();
        let last_key = arity - 2;
        for group_by in [vec![0], vec![1], vec![0, last_key], (1..=last_key).collect(), vec![]] {
            let plan = LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::scan("t", schema.clone())),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            };
            let want = eval(&plan, &db).map(|r| r.tuples().iter().map(row_bits).collect::<Vec<_>>());
            for inputs in [std::slice::from_ref(&batch), &halves[..]] {
                let mut table = GroupTable::new(&group_by, &aggs);
                let got = inputs
                    .iter()
                    .try_for_each(|b| table.fold(b))
                    .map(|()| table.finish().iter().map(row_bits).collect::<Vec<_>>());
                match (&got, &want) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "by {:?} over {} batch(es)", group_by, inputs.len()),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "by {:?}: table {:?}, eval {:?}", group_by, got, want),
                }
            }
        }
    }
}

/// One generated join input row: two nullable key parts and two payloads.
type JoinRow = (Option<i64>, Option<i64>, i64, String);

/// `(k1, k2, v, s)` rows. `k1` is an Int on the left and — cross-type —
/// a Double of the same small domain on the right when `double_k1`; `k2`
/// spells its small domain as Int, Str, or a `Mixed` column (`style` 0, 1,
/// 2: Int for even values, Double for odd ones — still equal to the other
/// side's spelling of the same number).
fn join_rows(seed: &[JoinRow], copies: usize, double_k1: bool, style: u8) -> Vec<Tuple> {
    let k2 = |v: i64| match style {
        0 => Value::Int(v),
        1 => Value::Str(format!("k{v}")),
        _ if v % 2 == 0 => Value::Int(v),
        _ => Value::Double(v as f64),
    };
    std::iter::repeat_n(seed, copies)
        .flatten()
        .map(|(k1, k2v, v, s)| {
            let k1 = match k1 {
                None => Value::Null,
                Some(k) if double_k1 => Value::Double(*k as f64),
                Some(k) => Value::Int(*k),
            };
            Tuple::new(vec![k1, k2v.map_or(Value::Null, k2), Value::Int(*v), Value::Str(s.clone())])
        })
        .collect()
}

fn arb_join_rows(max: usize) -> impl Strategy<Value = Vec<JoinRow>> {
    let key = || (0u8..6, -4i64..4).prop_map(|(t, v)| (t != 0).then_some(v));
    prop::collection::vec((key(), key(), -9i64..9, "[a-c]{0,2}"), 0..=max)
}

fn join_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("k1", DataType::Double),
        Column::nullable("k2", DataType::Str),
        Column::new("v", DataType::Int),
        Column::new("s", DataType::Str),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The commuting square of the join: rows → columns → columnar join ≡
    // rows → `relalg::eval`, with the output in the **same order** — probe
    // row by probe row, matches in build insertion order. Inner, semi and
    // anti joins; one- and two-column keys with NULLs, duplicates on both
    // sides, cross-type numeric keys (Int probe, Double build) and Str or
    // `Mixed` key columns; with and without a residual over both sides;
    // with and without a projection above the join; either side empty.
    // Over three physical forms of the same inputs — row relations, sealed
    // chunks plus a delta tail, and wire blocks decoded and appended into
    // batch windows (what a grace-join site holds) — serially and on
    // pools of 1, 2 and 4 workers.
    #[test]
    fn columnar_join_commutes_with_the_eval_oracle(
        lseed in arb_join_rows(24),
        rseed in arb_join_rows(10),
        kind in 0u8..3,
        two_keys in any::<bool>(),
        residual in any::<bool>(),
        project in any::<bool>(),
        double_k1 in any::<bool>(),
        style in 0u8..3,
        big_probe in any::<bool>(),
    ) {
        use prisma::relalg::JoinKind;
        // A probe side of several batches, still under two morsels: every
        // width runs it inline. `columnar_join_pools_a_probe_of_two_morsels`
        // is the pooled probe.
        let lcopies = if big_probe && !lseed.is_empty() { 2600_usize.div_ceil(lseed.len()) } else { 1 };
        let lrows = join_rows(&lseed, lcopies, false, style);
        let rrows = join_rows(&rseed, 3, double_k1, style);
        let schema = join_schema();
        let kind = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti][kind as usize];
        let mut plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("l", schema.clone())),
            right: Box::new(LogicalPlan::scan("r", schema.clone())),
            kind,
            on: if two_keys { vec![(0, 0), (1, 1)] } else { vec![(0, 0)] },
            residual: residual
                .then(|| ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(2), ScalarExpr::col(6))),
        };
        if project {
            let keep: &[usize] = if kind == JoinKind::Inner { &[3, 6, 0] } else { &[3, 2] };
            plan = plan.project_cols(keep).unwrap();
        }
        match columnar_join_at_widths(&plan, &lrows, &rrows, &[0, 1, 2, 4]) {
            Ok(morsels) => prop_assert_eq!(morsels, 0, "under two morsels every width runs inline"),
            Err(e) => prop_assert!(false, "{}", e),
        }
    }
}

/// One case of `columnar_join_commutes_with_the_eval_oracle`: `plan` over
/// `l` and `r` held in three physical forms — row relations, sealed chunks
/// plus a delta tail, and wire blocks decoded and appended into batch
/// windows (what a grace-join site holds) — run serially (width 0) and on
/// pools of each of `widths`, must give the oracle's rows bit for bit and
/// in its order. Returns the morsels the pools ran.
fn columnar_join_at_widths(
    plan: &LogicalPlan,
    lrows: &[Tuple],
    rrows: &[Tuple],
    widths: &[usize],
) -> Result<u64, String> {
    use prisma::relalg::{open_batches_pooled, Batch, BatchWindows, ChunkedRelation, BATCH_SIZE};
    let physical = lower(plan).unwrap();
    let schema = join_schema();

    let mut rows_db: HashMap<String, Relation> = HashMap::new();
    rows_db.insert("l".into(), Relation::new(schema.clone(), lrows.to_vec()));
    rows_db.insert("r".into(), Relation::new(schema.clone(), rrows.to_vec()));
    let oracle = eval(plan, &rows_db).unwrap();

    // Sealed chunks of 700 rows over a prefix, the rest a delta tail.
    let sealed = |rows: &[Tuple]| {
        let cut = rows.len() / 700 * 700;
        let chunks = rows[..cut]
            .chunks(700)
            .map(|run| Arc::new(prisma::types::SealedChunk::seal(run.to_vec())))
            .collect();
        Arc::new(ChunkedRelation::new(chunks, Relation::new(schema.clone(), rows[cut..].to_vec())))
    };
    // Wire blocks of 300 rows, decoded and appended into full windows.
    let decoded = |rows: &[Tuple]| {
        let mut windows = BatchWindows::new(BATCH_SIZE);
        for run in rows.chunks(300) {
            let block = Batch::owned(run.to_vec()).encode_columnar();
            windows.push(&Batch::from_block(&block).unwrap());
        }
        Arc::new(ChunkedRelation::from_batches(schema.clone(), windows.finish()))
    };
    let form = |f: &dyn Fn(&[Tuple]) -> Arc<ChunkedRelation>| {
        HashMap::from([("l".to_owned(), f(lrows)), ("r".to_owned(), f(rrows))])
    };
    let (chunk_db, wire_db) = (form(&sealed), form(&decoded));
    let forms: [(&str, &dyn prisma::relalg::RelationProvider); 3] =
        [("rows", &rows_db), ("sealed chunks", &chunk_db), ("decoded blocks", &wire_db)];
    let mut morsels = 0;
    for (name, db) in forms {
        for &workers in widths {
            let pool = (workers > 0).then(|| prisma::poolx::WorkerPool::new(workers));
            let got: Vec<Tuple> = open_batches_pooled(&physical, db, pool.clone())
                .unwrap()
                .drain()
                .unwrap()
                .into_iter()
                .flat_map(Batch::into_tuples)
                .collect();
            if got.len() != oracle.len() || got.iter().zip(oracle.tuples()).any(|(a, b)| !same_bits(a, b)) {
                return Err(format!("{name} at {workers} workers, plan:\n{plan}"));
            }
            morsels += pool.map_or(0, |p| p.stats().morsels);
        }
    }
    Ok(morsels)
}

// The pooled probe of the columnar join property: a probe side of two
// morsels and more, joined inner on one key with a residual and a
// projection, runs on the pool in every physical form and still gives the
// oracle's rows in its order. One fixed case: tiled past `2 × MORSEL_ROWS`
// rows, it is too large for proptest's dozens.
#[test]
fn columnar_join_pools_a_probe_of_two_morsels() {
    let lseed: Vec<JoinRow> = (0..12i64)
        .map(|i| ((i % 5 != 4).then_some(i % 6 - 2), (i % 3 != 2).then_some(i % 4), i - 6, "ab"[..(i % 3) as usize].to_owned()))
        .collect();
    let rseed: Vec<JoinRow> = (-2..4i64).map(|k| (Some(k), Some(k % 4), 3 - k, "c".to_owned())).collect();
    let copies = (2 * prisma::relalg::MORSEL_ROWS).div_ceil(lseed.len()) + 40;
    let (lrows, rrows) = (join_rows(&lseed, copies, false, 1), join_rows(&rseed, 1, true, 1));
    let schema = join_schema();
    let plan = LogicalPlan::Join {
        left: Box::new(LogicalPlan::scan("l", schema.clone())),
        right: Box::new(LogicalPlan::scan("r", schema.clone())),
        kind: prisma::relalg::JoinKind::Inner,
        on: vec![(0, 0)],
        residual: Some(ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(2), ScalarExpr::col(6))),
    }
    .project_cols(&[3, 6, 0])
    .unwrap();
    let morsels = columnar_join_at_widths(&plan, &lrows, &rrows, &[0, 2]).unwrap_or_else(|e| panic!("{e}"));
    assert!(morsels > 0, "no pool ran the probe");
}

// ---------- the wire under mid-query failover and corruption ----------

/// A 4-PE machine with a 1-second reply deadline, so a dropped reply
/// chunk retires its stream quickly instead of stalling for the default
/// deadline (the shape `end_to_end.rs` uses for the E10 failover tests).
fn failover_db() -> PrismaMachine {
    let cfg = prisma::types::MachineConfig {
        num_pes: 4,
        topology: prisma::types::TopologyKind::Mesh,
        ..prisma::types::MachineConfig::default()
    }
    .with_reply_timeout_secs(1);
    PrismaMachine::builder().config(cfg).build().unwrap()
}

/// Create `l` (hash-fragmented on `a` into `l_frags`) and `r` (on `c`
/// into 2) on a machine whose every equi-join takes the grace route, and
/// load them with `reference`'s rows.
fn create_and_load_lr(db: &mut PrismaMachine, reference: &HashMap<String, Relation>, l_frags: usize) {
    db.gdh_mut().set_physical_config(prisma::optimizer::PhysicalConfig {
        broadcast_max_rows: 0.0,
        ..prisma::optimizer::PhysicalConfig::default()
    });
    db.sql(&format!(
        "CREATE TABLE l (a INT, b INT, c INT) FRAGMENTED BY HASH(a) INTO {l_frags}"
    ))
    .unwrap();
    db.sql("CREATE TABLE r (a INT, b INT, c INT) FRAGMENTED BY HASH(c) INTO 2")
        .unwrap();
    for name in ["l", "r"] {
        db.sql(&format!(
            "INSERT INTO {name} VALUES {}",
            values_clause(reference[name].tuples())
        ))
        .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Mid-query failover: a grace join whose reply streams lose randomly
    // chosen chunks (forcing retire + re-request under the PR 7 failover
    // protocol) still matches the eval oracle exactly. The
    // armed-but-empty injector calibrates the per-PE chunk clock on a
    // fault-free run, so drops can be scripted at each victim's first
    // chunk of the *next* run.
    #[test]
    fn failover_rerequests_match_eval_oracle(
        lrows in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 30..90),
        rrows in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 20..70),
        victims in prop::collection::vec(0usize..4, 1..3),
        seed in any::<u64>(),
    ) {
        use prisma::faultx::{FaultInjector, FaultSpec};
        use prisma::types::PeId;

        let schema = int3_schema();
        let to_rel = |rows: &[(i64, i64, i64)]| {
            Relation::new(
                schema.clone(),
                rows.iter().map(|&(a, b, c)| tuple![a, b, c]).collect(),
            )
        };
        let faults = FaultInjector::scripted(seed, vec![]);
        let mut db = failover_db();
        db.gdh_mut().set_fault_injector(faults.clone());
        let mut reference: HashMap<String, Relation> = HashMap::new();
        reference.insert("l".into(), to_rel(&lrows));
        reference.insert("r".into(), to_rel(&rrows));
        create_and_load_lr(&mut db, &reference, 3);
        let plan = LogicalPlan::scan("l", schema.clone())
            .join(LogicalPlan::scan("r", schema.clone()), vec![(0, 0)]);
        let oracle = eval(&plan, &reference).unwrap().canonicalized();

        // Fault-free calibration run (also pins the no-fault answer).
        let (calm, calm_metrics) = db.gdh().query(&plan).unwrap();
        prop_assert_eq!(calm_metrics.partitioned_joins, 1, "{:?}", calm_metrics);
        let calm = calm.canonicalized();
        prop_assert_eq!(calm.tuples(), oracle.tuples());

        // The faulted run: chunk ordinals are scripted against the clock
        // the calibration run left behind.
        let specs: Vec<FaultSpec> = victims
            .iter()
            .map(|&pe| PeId(pe as u32))
            .filter(|&pe| faults.chunks_seen(pe) > 0)
            .map(|pe| FaultSpec::DropChunk { pe, nth: faults.chunks_seen(pe) + 1 })
            .collect();
        let expect_rerequest = !specs.is_empty();
        faults.script(specs);
        let (rows, metrics) = db.gdh().query(&plan).unwrap();
        let rows = rows.canonicalized();
        prop_assert_eq!(
            rows.tuples(),
            oracle.tuples(),
            "faulted run disagrees with the oracle"
        );
        if expect_rerequest {
            prop_assert!(
                metrics.streams_rerequested >= 1,
                "no stream was re-requested — the drop never bit: {:?}",
                metrics
            );
        }
        prop_assert_eq!(metrics.failovers, 0, "no PE died: {:?}", metrics);
        db.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Corruption is never silent anywhere on the wire: whichever chunk a
    // scripted `CorruptChunk` lands on — a cached sealed-chunk frame of a
    // streamed scan, a shuffle bucket of a grace join, a site's
    // partial-aggregate reply — and at whatever ordinal of its PE's chunk
    // clock, a run in which the fault fired fails with a `wire:` protocol
    // error and a run in which it did not returns exactly the oracle's
    // rows. Once the ordinal is behind the clock the machine answers the
    // same query in full.
    //
    // The fourth leg aims the fault deep into long streams: a scan of two
    // 50 000-row streams of 1024-row chunks on a machine with four
    // workers per PE, the ordinals spread over a stream's ~50 chunks. The
    // coordinator stages every chunk until `StreamEnd`, so the bad frame
    // is found only when the completed stream is decoded — and must still
    // come back as the query's `wire:` error, with nothing of the stream
    // in the result.
    #[test]
    fn corrupted_chunk_is_never_silent_on_any_stream(
        lrows in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 200..400),
        rrows in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 100..200),
        targets in prop::collection::vec((0u32..4, 0u64..12), 4),
        seed in any::<u64>(),
    ) {
        use prisma::faultx::{FaultInjector, FaultSpec};
        use prisma::types::PeId;

        let schema = int3_schema();
        let to_rel = |rows: &[(i64, i64, i64)]| {
            Relation::new(
                schema.clone(),
                rows.iter().map(|&(a, b, c)| tuple![a, b, c]).collect(),
            )
        };
        let mut reference: HashMap<String, Relation> = HashMap::new();
        reference.insert("l".into(), to_rel(&lrows));
        reference.insert("r".into(), to_rel(&rrows));
        let join = LogicalPlan::scan("l", schema.clone())
            .join(LogicalPlan::scan("r", schema.clone()), vec![(0, 0)]);
        let scan = LogicalPlan::scan("l", schema.clone());
        let plans = [
            scan.clone(),
            join.clone(),
            LogicalPlan::Aggregate {
                input: Box::new(join),
                group_by: vec![1],
                aggs: vec![
                    AggExpr::new(AggFunc::CountStar, 0, "n"),
                    AggExpr::new(AggFunc::Sum, 5, "s"),
                ],
            },
            scan,
        ];
        let mut long_reference = reference.clone();
        long_reference.insert(
            "l".into(),
            Relation::new(schema.clone(), tile_rows(&lrows[..60], 100_000)),
        );
        // One machine per plan, so a fault whose ordinal one plan never
        // reached cannot leak into the next plan's clean run.
        for (leg, (plan, &(pe, offset))) in plans.iter().zip(&targets).enumerate() {
            // Legs 0–2: 32-row sealed chunks, so every fragment ships
            // several chunks, cached frames among them, in every lane.
            // Leg 3: 1024-row chunks in two long streams, four workers.
            let long = leg == 3;
            let (reference, cfg, l_frags, stride) = if long {
                let cfg = prisma::types::MachineConfig::default().with_ofm_workers(4);
                (&long_reference, cfg, 2, 4)
            } else {
                (&reference, prisma::types::MachineConfig::default(), 3, 1)
            };
            let oracle = eval(plan, reference).unwrap().canonicalized();
            let faults = FaultInjector::scripted(seed, vec![]);
            let mut db = PrismaMachine::builder()
                .config(cfg)
                .pes(4)
                .seal_rows(if long { 1024 } else { 32 })
                .build()
                .unwrap();
            db.gdh_mut().set_fault_injector(faults.clone());
            create_and_load_lr(&mut db, reference, l_frags);

            let pe = PeId(pe);
            // The long leg spreads its ordinals over a stream's ~50 chunks.
            let nth = faults.chunks_seen(pe) + 1 + offset * stride;
            faults.script(vec![FaultSpec::CorruptChunk { pe, nth }]);
            // Run until the PE's chunk clock has passed the ordinal (or
            // the PE turns out to ship nothing for this plan).
            loop {
                let (clock, logged) = (faults.chunks_seen(pe), faults.events().len());
                let result = db.gdh().query(plan);
                let fired = faults.events()[logged..].iter().any(|e| e.contains("Corrupt"));
                match result {
                    Err(e) => {
                        prop_assert!(fired, "query failed with no corruption injected: {}", e);
                        prop_assert!(
                            e.to_string().contains("wire:"),
                            "not a wire protocol error: {}",
                            e
                        );
                    }
                    Ok((rows, _)) => {
                        prop_assert!(
                            !fired,
                            "chunk {} of {} was corrupted and the query succeeded:\n{}",
                            nth,
                            pe,
                            plan
                        );
                        let rows = rows.canonicalized();
                        prop_assert_eq!(rows.tuples(), oracle.tuples());
                    }
                }
                let now = faults.chunks_seen(pe);
                if fired || now >= nth || now == clock {
                    break;
                }
            }
            // The damage was confined to the run it landed in.
            let (rows, _) = db.gdh().query(plan).unwrap();
            let rows = rows.canonicalized();
            prop_assert_eq!(rows.tuples(), oracle.tuples(), "clean re-run of:\n{}", plan);
            db.shutdown();
        }
    }
}

// ---------- the coordinator's merge does not depend on pool width ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The fragments behind a query run their plans on worker pools of
    // whatever width the machine was built with; the coordinator merges
    // each completed reply stream in chunk order. Whatever the width — 1
    // (no pools), 2 or 4 — a scan, a grace join and a join + GROUP BY
    // over streams of several chunks return the oracle's rows, ship the
    // same number of tuples and batches, and a scan's rows keep their
    // order within each fragment's stream (streams themselves complete in
    // arrival order). The bare join's batch count is not pinned: a site
    // probes in windows over rows in the order its peers' shuffle streams
    // arrived, so which windows find a match — and emit a batch — is a
    // race at any pool width.
    #[test]
    fn merged_result_does_not_depend_on_pool_width(
        lseed in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 20..60),
        rseed in prop::collection::vec((-20i64..20, -20i64..20, -20i64..20), 10..40),
    ) {
        let schema = int3_schema();
        let mut reference: HashMap<String, Relation> = HashMap::new();
        reference.insert("l".into(), Relation::new(schema.clone(), tile_rows(&lseed, 9000)));
        reference.insert("r".into(), Relation::new(schema.clone(), tile_rows(&rseed, 2500)));
        let join = LogicalPlan::scan("l", schema.clone())
            .join(LogicalPlan::scan("r", schema.clone()), vec![(0, 0)]);
        let plans = [
            LogicalPlan::scan("l", schema.clone()),
            join.clone(),
            LogicalPlan::Aggregate {
                input: Box::new(join),
                group_by: vec![1],
                aggs: vec![
                    AggExpr::new(AggFunc::CountStar, 0, "n"),
                    AggExpr::new(AggFunc::Sum, 5, "s"),
                ],
            },
        ];
        let oracles: Vec<Relation> = plans
            .iter()
            .map(|p| eval(p, &reference).unwrap().canonicalized())
            .collect();

        // Per plan, what the 1-worker machine answered: the scan's rows
        // split by home fragment, and the shipping counters.
        let mut serial: Vec<(Vec<Vec<Tuple>>, u64, u64)> = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = prisma::types::MachineConfig::default()
                .with_pes(4)
                .with_ofm_workers(workers);
            let mut db = PrismaMachine::builder().config(cfg).build().unwrap();
            create_and_load_lr(&mut db, &reference, 3);
            let l_info = db.gdh().dictionary().relation("l").unwrap();
            for (i, (plan, oracle)) in plans.iter().zip(&oracles).enumerate() {
                let (rows, m) = db.gdh().query(plan).unwrap();
                prop_assert_eq!(m.pool_workers, workers as u64);
                if workers == 1 {
                    prop_assert_eq!(m.pool_morsels, 0, "{:?}", m);
                }
                let mut by_stream = vec![Vec::new(); l_info.fragments.len()];
                if i == 0 {
                    for t in rows.tuples() {
                        by_stream[l_info.route(t.values()).unwrap()].push(t.clone());
                    }
                }
                let canonical = rows.canonicalized();
                prop_assert_eq!(
                    canonical.tuples(), oracle.tuples(),
                    "workers={} plan:\n{}", workers, plan
                );
                match serial.get(i) {
                    None => serial.push((by_stream, m.batches_shipped, m.tuples_shipped)),
                    Some((streams, batches, tuples)) => {
                        prop_assert_eq!(m.tuples_shipped, *tuples, "workers={}:\n{}", workers, plan);
                        if i != 1 {
                            prop_assert_eq!(
                                m.batches_shipped, *batches,
                                "workers={} plan:\n{}", workers, plan
                            );
                        }
                        prop_assert!(
                            &by_stream == streams,
                            "workers={}: a stream's rows changed order", workers
                        );
                    }
                }
            }
            db.shutdown();
        }
    }
}

// The same over a fragment of two morsels and more, which the PE's pool
// runs: `l` is one fragment of some 135 000 rows on a one-PE machine with
// two workers. A filtered scan and a GROUP BY (whose fragment-side partial
// folds inside its morsels) run their morsels on the pool and return the
// oracle's rows; the scan ships each of them once, as the inline path
// would. One fixed case at one width: a load this size is too slow for
// proptest's cases, and pooled ≡ inline is pinned below the machine
// (`pooled_execution_over_morsels_matches_serial_and_oracle`).
#[test]
fn merged_result_over_morsels_pools_and_matches_the_oracle() {
    let schema = int3_schema();
    let seed: Vec<(i64, i64, i64)> = (0..40).map(|i| (i, (i * 7) % 13 - 6, (i * 11) % 19)).collect();
    let rows = tile_rows(&seed, 2 * prisma::relalg::MORSEL_ROWS + 4000);
    let reference = HashMap::from([("l".to_owned(), Relation::new(schema.clone(), rows.clone()))]);
    let scan = LogicalPlan::scan("l", schema.clone());
    let plans = [
        scan.clone().select(ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::lit(-3))),
        LogicalPlan::Aggregate {
            input: Box::new(scan),
            group_by: vec![1],
            aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n"), AggExpr::new(AggFunc::Sum, 2, "s")],
        },
    ];
    let cfg = prisma::types::MachineConfig::default().with_pes(1).with_ofm_workers(2);
    let db = PrismaMachine::builder().config(cfg).build().unwrap();
    db.sql("CREATE TABLE l (a INT, b INT, c INT) FRAGMENTED BY HASH(a) INTO 1").unwrap();
    let txn = db.gdh().begin();
    db.gdh().insert(txn, "l", rows).unwrap();
    db.gdh().commit(txn).unwrap();
    for (i, plan) in plans.iter().enumerate() {
        let oracle = eval(plan, &reference).unwrap().canonicalized();
        let (got, m) = db.gdh().query(plan).unwrap();
        assert!(got.canonicalized().tuples() == oracle.tuples(), "plan:\n{plan}");
        assert!(m.pool_morsels > 0, "the pool ran no morsel:\n{plan}\n{m:?}");
        if i == 0 {
            assert_eq!(m.tuples_shipped, oracle.len() as u64, "{m:?}");
        }
    }
    db.shutdown();
}

// ---------------- placement of hash-fragmented rows ----------------

/// Splitmix64 step for the DML script below.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One random DML statement over `p (k INT, v INT NULL, d DOUBLE)`
/// (hash-fragmented on `k`) or `q (d DOUBLE, n INT)` (on `d`): inserts
/// with colliding keys, key-pinned and broadcast deletes and updates.
fn placement_stmt(seed: &mut u64) -> String {
    let mut pick = |n: u64| splitmix(seed) % n;
    let key = |k: u64| k as i64 - 3;
    match pick(9) {
        0 | 1 => {
            let rows: Vec<String> = (0..1 + pick(12))
                .map(|_| {
                    let v = match pick(4) {
                        0 => "NULL".to_owned(),
                        v => v.to_string(),
                    };
                    format!("({}, {v}, {}.5)", key(pick(24)), pick(9))
                })
                .collect();
            format!("INSERT INTO p VALUES {}", rows.join(", "))
        }
        2 => {
            let rows: Vec<String> = (0..1 + pick(6))
                .map(|_| format!("({}.5, {})", pick(12), pick(5)))
                .collect();
            format!("INSERT INTO q VALUES {}", rows.join(", "))
        }
        3 => format!("DELETE FROM p WHERE k = {}", key(pick(24))),
        4 => format!("DELETE FROM p WHERE v = {} AND d < {}.0", pick(4), pick(9)),
        5 => format!(
            "UPDATE p SET v = {}, d = d + 1.0 WHERE k = {}",
            pick(4),
            key(pick(24))
        ),
        6 => format!("UPDATE p SET d = d - 1.0 WHERE v = {}", pick(4)),
        7 => format!("UPDATE q SET n = n + 1 WHERE d = {}.5", pick(12)),
        _ => format!("DELETE FROM q WHERE d = {}.5 AND n > {}", pick(12), pick(4)),
    }
}

/// Every live row of `table` is held by the fragment its key routes to: a
/// `DELETE … WHERE key = k` reaches that one fragment only, so it must
/// find as many rows as a full scan shows for `k`. The probe rolls back.
fn assert_rows_sit_where_their_key_routes(db: &PrismaMachine, table: &str, key: &str) {
    let mut per_key: HashMap<String, usize> = HashMap::new();
    for t in db
        .query(&format!("SELECT {key} FROM {table}"))
        .unwrap()
        .tuples()
    {
        let literal = match t.get(0) {
            Value::Double(d) => format!("{d:?}"),
            other => other.to_string(),
        };
        *per_key.entry(literal).or_default() += 1;
    }
    for (literal, rows) in per_key {
        let txn = db.begin();
        let pinned = format!("DELETE FROM {table} WHERE {key} = {literal}");
        let found = db.sql_in(txn, &pinned).unwrap().affected().unwrap();
        db.abort(txn).unwrap();
        assert_eq!(
            found, rows,
            "{pinned}: its home fragment holds {found} of {rows} row(s)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fragment elimination makes placement load-bearing. Whatever DML
    /// ran — committed, rolled back (undo re-inserts deleted rows), or
    /// refused because it would rewrite a fragmentation key in place —
    /// every row stays where `route(row)` says.
    #[test]
    fn hash_fragmented_rows_sit_where_their_key_routes(
        seed in 0u64..u64::MAX,
        n_txns in 4usize..14,
    ) {
        let mut s = seed;
        let db = PrismaMachine::builder().pes(4).seal_rows(8).build().unwrap();
        db.sql("CREATE TABLE p (k INT, v INT NULL, d DOUBLE) FRAGMENTED BY HASH(k) INTO 4").unwrap();
        db.sql("CREATE TABLE q (d DOUBLE, n INT) FRAGMENTED BY HASH(d) INTO 3").unwrap();
        for round in 0..n_txns {
            let txn = db.begin();
            for _ in 0..1 + splitmix(&mut s) % 4 {
                db.sql_in(txn, &placement_stmt(&mut s)).unwrap();
            }
            let moves_a_key = ["UPDATE p SET k = k + 1 WHERE v = 1", "UPDATE q SET d = 0.5"]
                [(splitmix(&mut s) % 2) as usize];
            let refused = db.sql_in(txn, moves_a_key).unwrap_err();
            prop_assert!(
                matches!(refused, prisma::types::PrismaError::FragmentKeyUpdate { .. }),
                "{}: {}", moves_a_key, refused
            );
            if splitmix(&mut s).is_multiple_of(3) {
                db.abort(txn).unwrap();
            } else {
                db.commit(txn).unwrap();
            }
            if round % 3 == 2 || round + 1 == n_txns {
                assert_rows_sit_where_their_key_routes(&db, "p", "k");
                assert_rows_sit_where_their_key_routes(&db, "q", "d");
            }
        }
        db.shutdown();
    }
}

// ---------------- recursion: the seeded closure and the TC route ----------------

/// A graph node id: small ints (so cycles, self-loops and duplicate edges
/// are common), NULL, and `Double(3.0)`, which equals `Int(3)`.
fn arb_node() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..7).prop_map(Value::Int),
        (0i64..7).prop_map(Value::Int),
        (0i64..7).prop_map(Value::Int),
        Just(Value::Null),
        Just(Value::Double(3.0)),
    ]
}

fn arb_graph(max_edges: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((arb_node(), arb_node()), 0..=max_edges).prop_map(|edges| {
        edges
            .into_iter()
            .map(|(a, b)| Tuple::new(vec![a, b]))
            .collect()
    })
}

fn edge_schema() -> Schema {
    Schema::new(vec![
        Column::nullable("src", DataType::Int),
        Column::nullable("dst", DataType::Int),
    ])
}

/// Encoded selection over a closure's output: `(source kind, a, b,
/// destination kind)`.
type ClosureWhere = (u8, i64, i64, u8);

fn arb_closure_where() -> impl Strategy<Value = ClosureWhere> {
    (0u8..8, 0i64..8, 0i64..8, 0u8..3)
}

/// The selection as a predicate over `(src, dst)` and as SQL over alias
/// `c`: one factor on the source (`=`, `<`, `BETWEEN`, `OR`, `IS NULL`,
/// one no node passes, one every node passes) and, optionally, one on the
/// destination, which must stay above the closure.
fn closure_where((kind, a, b, dst): ClosureWhere) -> (ScalarExpr, String) {
    let col = ScalarExpr::col;
    let lit = ScalarExpr::lit;
    let is_null = |c| ScalarExpr::IsNull(Box::new(ScalarExpr::col(c)));
    let (lo, hi) = (a.min(b), a.max(b));
    let (src, src_sql) = match kind {
        0 => (ScalarExpr::eq(col(0), lit(a)), format!("c.src = {a}")),
        1 => (
            ScalarExpr::cmp(CmpOp::Lt, col(0), lit(a)),
            format!("c.src < {a}"),
        ),
        2 => (
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Ge, col(0), lit(lo)),
                ScalarExpr::cmp(CmpOp::Le, col(0), lit(hi)),
            ),
            format!("c.src BETWEEN {lo} AND {hi}"),
        ),
        3 => (is_null(0), "c.src IS NULL".to_owned()),
        4 => (
            ScalarExpr::or(ScalarExpr::eq(col(0), lit(a)), is_null(0)),
            format!("(c.src = {a} OR c.src IS NULL)"),
        ),
        5 => (
            ScalarExpr::or(
                ScalarExpr::cmp(CmpOp::Lt, col(0), lit(a)),
                ScalarExpr::eq(col(0), lit(b)),
            ),
            format!("(c.src < {a} OR c.src = {b})"),
        ),
        // An empty seed set.
        6 => (ScalarExpr::eq(col(0), lit(99)), "c.src = 99".to_owned()),
        // A seed that admits every node.
        _ => (
            ScalarExpr::or(is_null(0), ScalarExpr::cmp(CmpOp::Ge, col(0), lit(0))),
            "(c.src IS NULL OR c.src >= 0)".to_owned(),
        ),
    };
    match dst {
        0 => (src, src_sql),
        1 => (
            ScalarExpr::and(src, ScalarExpr::cmp(CmpOp::Lt, col(1), lit(b))),
            format!("{src_sql} AND c.dst < {b}"),
        ),
        _ => (
            ScalarExpr::and(src, is_null(1)),
            format!("{src_sql} AND c.dst IS NULL"),
        ),
    }
}

fn contains_node(plan: &LogicalPlan, pred: &dyn Fn(&LogicalPlan) -> bool) -> bool {
    pred(plan) || plan.children().into_iter().any(|c| contains_node(c, pred))
}

/// A fresh relation name per machine case, so cases never see each
/// other's rows on the shared machine.
fn fresh_name(prefix: &str) -> String {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    format!("{prefix}{n}")
}

/// The machine the recursion properties query; built once.
fn recursion_machine() -> &'static Arc<PrismaMachine> {
    static MACHINE: OnceLock<Arc<PrismaMachine>> = OnceLock::new();
    MACHINE.get_or_init(|| Arc::new(PrismaMachine::builder().pes(4).build().unwrap()))
}

/// Create `name (src, dst)` on the machine, fragmented on `src`, holding
/// `edges`.
fn load_edges(db: &PrismaMachine, name: &str, edges: &[Tuple]) {
    db.sql(&format!(
        "CREATE TABLE {name} (src INT NULL, dst INT NULL) FRAGMENTED BY HASH(src) INTO 3"
    ))
    .unwrap();
    if !edges.is_empty() {
        db.sql(&format!(
            "INSERT INTO {name} VALUES {}",
            values_clause(edges)
        ))
        .unwrap();
    }
}

/// The three transitive-closure program shapes over edge relation `q`.
fn tc_program(shape: u8, q: &str) -> String {
    let right = format!("p(X, Y) :- {q}(X, Z), p(Z, Y).");
    let left = format!("p(X, Y) :- p(X, Z), {q}(Z, Y).");
    let base = format!("p(X, Y) :- {q}(X, Y).");
    match shape {
        0 => format!("{base} {right}"),
        1 => format!("{base} {left}"),
        _ => format!("{base} {left} {right}"),
    }
}

/// `?- p(c, X).`, `?- p(X, c).`, `?- p(X, Y).` or `?- p(X, X).`
fn tc_query(kind: u8, c: i64) -> String {
    match kind {
        0 => format!("?- p({c}, X)."),
        1 => format!("?- p(X, {c})."),
        2 => "?- p(X, Y).".to_owned(),
        _ => "?- p(X, X).".to_owned(),
    }
}

/// A recursive program assembled from one base-rule shape and one to
/// three recursive-rule shapes, with whether it is a transitive closure.
/// The near-misses — a constant argument, a repeated variable, swapped
/// head arguments, a comparison literal, a different q in the base and
/// the step, a second base — must stay `Fixpoint`s.
fn shaped_program(base: u8, recs: &[u8]) -> (String, bool) {
    const BASES: [&str; 6] = [
        "p(X, Y) :- edge(X, Y).",
        "p(X, Y) :- edge(X, Y).",
        "p(X, Y) :- edge(X, Y).",
        "p(X, Y) :- edge(Y, X).",
        "p(X, Y) :- edge(X, Y), X > 1.",
        "p(X, Y) :- edge(X, Y). p(1, 2).",
    ];
    const RECS: [&str; 9] = [
        "p(X, Y) :- edge(X, Z), p(Z, Y).",
        "p(X, Y) :- p(X, Z), edge(Z, Y).",
        "p(X, Y) :- p(Z, Y), edge(X, Z).",
        "p(X, Y) :- edge(Z, Y), p(X, Z).",
        "p(X, Y) :- edge(X, 2), p(2, Y).",
        "p(X, Y) :- edge(X, Y), p(Y, Y).",
        "p(Y, X) :- edge(X, Z), p(Z, Y).",
        "p(X, Y) :- edge(X, Z), p(Z, Y), Z > 0.",
        "p(X, Y) :- link(X, Z), p(Z, Y).",
    ];
    let mut text = BASES[base as usize % BASES.len()].to_owned();
    for &r in recs {
        text.push(' ');
        text.push_str(RECS[r as usize % RECS.len()]);
    }
    let tc = base as usize % BASES.len() < 3 && recs.iter().all(|&r| (r as usize % RECS.len()) < 4);
    (text, tc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // σ(TC(e)) on a source predicate: the optimizer moves exactly the
    // source factors into the closure's seed, the executor's seeded loop
    // equals the oracle's filtered closure, and both equal the
    // unoptimized plan — over graphs with cycles, self-loops, duplicate
    // edges, NULL endpoints and Int/Double-equal ids.
    #[test]
    fn seeded_closure_commutes_with_the_selection(
        edges in arb_graph(24),
        sel in arb_closure_where(),
    ) {
        use prisma::optimizer::{stats::NoStats, Optimizer};
        let (predicate, _) = closure_where(sel);
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("e".into(), Relation::new(edge_schema(), edges));
        let plan = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("e", edge_schema())),
            seed: None,
        }
        .select(predicate);
        let (optimized, trace) = Optimizer::new(&NoStats).optimize(&plan).unwrap();
        prop_assert!(trace.count_of("push-selection") > 0, "{:?}", trace.fired);
        // The seed holds the source factors, a destination factor stays.
        prop_assert!(contains_node(&optimized, &|p| matches!(
            p,
            LogicalPlan::Closure { seed: Some(s), .. } if s.columns() == [0]
        )), "{optimized}");
        prop_assert_eq!(
            contains_node(&optimized, &|p| matches!(p, LogicalPlan::Select { .. })),
            sel.3 != 0,
            "{}", optimized
        );
        let want = eval(&plan, &db).unwrap().canonicalized();
        let got = execute_physical(&lower(&optimized).unwrap(), &db).unwrap().canonicalized();
        prop_assert_eq!(got.tuples(), want.tuples(), "{}", optimized);
        let oracle = eval(&optimized, &db).unwrap().canonicalized();
        prop_assert_eq!(oracle.tuples(), want.tuples());
    }

    // The translator emits `Closure` exactly for the transitive-closure
    // shapes, and whichever operator it emits, the algebra answers what
    // the direct semi-naive evaluator answers.
    #[test]
    fn translator_emits_closure_exactly_for_transitive_closures(
        base in 0u8..6,
        recs in prop::collection::vec(0u8..9, 1..=3),
        graphs in (arb_graph(16), arb_graph(8)),
        query in (0u8..4, 0i64..7),
    ) {
        use prisma::prismalog as plog;
        let (program, is_tc) = shaped_program(base, &recs);
        let (edge, link) = graphs;
        let mut db: HashMap<String, Relation> = HashMap::new();
        db.insert("edge".into(), Relation::new(edge_schema(), edge));
        db.insert("link".into(), Relation::new(edge_schema(), link));
        let schemas: HashMap<String, Schema> =
            db.iter().map(|(k, v)| (k.clone(), v.schema().clone())).collect();
        let prog = plog::parse_program(&program).unwrap();
        let atom = plog::parse_query(&tc_query(query.0, query.1)).unwrap();
        let plan = plog::compile_query(&prog, &atom, &schemas).unwrap();
        prop_assert_eq!(
            contains_node(&plan, &|p| matches!(p, LogicalPlan::Closure { .. })),
            is_tc,
            "{}\n{}", program, plan
        );
        prop_assert_eq!(
            contains_node(&plan, &|p| matches!(p, LogicalPlan::Fixpoint { .. })),
            !is_tc,
            "{}\n{}", program, plan
        );
        let via_algebra = eval(&plan, &db).unwrap().canonicalized();
        let (idb, _) = plog::evaluate(&prog, &db).unwrap();
        let via_seminaive = plog::seminaive::answer_query(&atom, &idb, &db)
            .unwrap()
            .canonicalized();
        prop_assert_eq!(via_algebra.tuples(), via_seminaive.tuples(), "{}", program);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The machine's `SELECT … FROM CLOSURE(e) c WHERE …` equals the
    // oracle on the *unoptimized* plan: a wrong seed pushdown cannot hide
    // behind an oracle that evaluates the optimized one.
    #[test]
    fn machine_closure_select_equals_unoptimized_oracle(
        edges in arb_graph(20),
        sel in arb_closure_where(),
    ) {
        use prisma::sqlfe::{self, PlannedStatement};
        let db = recursion_machine();
        let name = fresh_name("ce");
        load_edges(db, &name, &edges);
        let (_, where_sql) = closure_where(sel);
        let sql = format!("SELECT c.src, c.dst FROM CLOSURE({name}) c WHERE {where_sql}");
        let Ok(PlannedStatement::Query(plan)) = sqlfe::compile(&sql, &**db.gdh().dictionary())
        else {
            panic!("{sql} plans as a query");
        };
        let mut reference: HashMap<String, Relation> = HashMap::new();
        reference.insert(name.clone(), Relation::new(edge_schema(), edges));
        let want = eval(&plan, &reference).unwrap().canonicalized();
        let got = db.query(&sql).unwrap().canonicalized();
        prop_assert_eq!(got.tuples(), want.tuples(), "{}", sql);
        db.sql(&format!("DROP TABLE {name}")).unwrap();
    }

    // Right-, left- and mixed-linear transitive-closure programs compile
    // to the closure operator and agree across the machine, the direct
    // semi-naive evaluator and the algebra oracle.
    #[test]
    fn prismalog_closure_programs_agree_on_machine_seminaive_and_eval(
        edges in arb_graph(20),
        shape in 0u8..3,
        query in (0u8..4, 0i64..7),
    ) {
        use prisma::prismalog as plog;
        let db = recursion_machine();
        let name = fresh_name("pe");
        load_edges(db, &name, &edges);
        let program = tc_program(shape, &name);
        let query = tc_query(query.0, query.1);
        let mut reference: HashMap<String, Relation> = HashMap::new();
        reference.insert(name.clone(), Relation::new(edge_schema(), edges));
        let prog = plog::parse_program(&program).unwrap();
        let atom = plog::parse_query(&query).unwrap();
        let plan = plog::compile_query(&prog, &atom, &**db.gdh().dictionary()).unwrap();
        prop_assert!(
            contains_node(&plan, &|p| matches!(p, LogicalPlan::Closure { .. })),
            "{}\n{}", program, plan
        );
        let via_eval = eval(&plan, &reference).unwrap().canonicalized();
        let (idb, _) = plog::evaluate(&prog, &reference).unwrap();
        let via_seminaive = plog::seminaive::answer_query(&atom, &idb, &reference)
            .unwrap()
            .canonicalized();
        let via_machine = db.prismalog(&program, &query).unwrap().canonicalized();
        prop_assert_eq!(via_eval.tuples(), via_seminaive.tuples(), "{} {}", program, query);
        prop_assert_eq!(via_machine.tuples(), via_eval.tuples(), "{} {}", program, query);
        db.sql(&format!("DROP TABLE {name}")).unwrap();
    }
}

// ---------------- a projection above a join ----------------

fn arb_small_or_null() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..5).prop_map(Value::Int),
        (0i64..5).prop_map(Value::Int),
        (0i64..5).prop_map(Value::Int),
        Just(Value::Null),
    ]
}

/// `(k, x)` rows: `k` a join key drawn like a graph node (NULL, and
/// `Double(3.0)` beside `Int(3)`), `x` a small int or NULL.
fn arb_keyed_rows(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((arb_node(), arb_small_or_null()), 0..=max).prop_map(|rows| {
        rows.into_iter()
            .map(|(k, x)| Tuple::new(vec![k, x]))
            .collect()
    })
}

/// Encoded query over `a (k, v) ⋈ b (k, w)`: `(SELECT items as a bit mask,
/// cross-side predicate, second cross-side predicate, tail)`.
type JoinQuery = (u8, u8, u8, u8);

fn arb_join_query() -> impl Strategy<Value = JoinQuery> {
    (1u8..128, 0u8..3, 0u8..3, 0u8..4)
}

/// The SQL of a [`JoinQuery`]: column references and arithmetic over an
/// equi-join on `k`, each item aliased `c<i>`; optionally two non-key
/// predicates across the sides, and an ORDER BY over every output
/// column, that ORDER BY with a LIMIT, or DISTINCT.
fn join_query_sql(a: &str, b: &str, (mask, p1, p2, tail): JoinQuery) -> String {
    const ITEMS: [&str; 7] = ["a.v", "b.w", "a.v + b.w", "a.v * 2 - b.w", "b.w - 1", "a.k", "b.k"];
    let chosen: Vec<usize> = (0..ITEMS.len()).filter(|i| mask & (1 << i) != 0).collect();
    let items: Vec<String> = chosen.iter().map(|&i| format!("{} AS c{i}", ITEMS[i])).collect();
    let aliases: Vec<String> = chosen.iter().map(|&i| format!("c{i}")).collect();
    let p1 = ["", " AND a.v < b.w", " AND a.v + b.w > 3"][p1 as usize];
    let p2 = ["", " AND (a.v = 1 OR b.w = 2)", " AND (a.v IS NULL OR b.w >= a.v)"][p2 as usize];
    let distinct = if tail == 3 { "DISTINCT " } else { "" };
    let order = match tail {
        1 => format!(" ORDER BY {}", aliases.join(", ")),
        2 => format!(" ORDER BY {} LIMIT {}", aliases.join(", "), 1 + mask % 5),
        _ => String::new(),
    };
    format!(
        "SELECT {distinct}{} FROM {a} a, {b} b WHERE a.k = b.k{p1}{p2}{order}",
        items.join(", ")
    )
}

/// `plan` with the selection over its cross join `a × b` folded into the
/// join: `a.k = b.k` as the join key, every other conjunct as the residual.
fn with_residual_join(plan: &LogicalPlan) -> LogicalPlan {
    let key = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::col(2));
    plan.transform_up(&mut |node| match node {
        LogicalPlan::Select { input, predicate } if matches!(*input, LogicalPlan::Join { .. }) => {
            let LogicalPlan::Join { left, right, kind, .. } = *input else {
                unreachable!()
            };
            let rest: Vec<ScalarExpr> = predicate
                .split_conjunction()
                .into_iter()
                .filter(|factor| *factor != key)
                .collect();
            LogicalPlan::Join {
                left,
                right,
                kind,
                on: vec![(0, 0)],
                residual: (!rest.is_empty()).then(|| ScalarExpr::conjunction(rest)),
            }
        }
        other => other,
    })
}

/// The machine the projected-join property queries, its join strategy
/// set per case. Join ordering is off: it would lift a two-way join's
/// residual back into a selection above the join.
fn join_machine() -> &'static std::sync::Mutex<PrismaMachine> {
    static MACHINE: OnceLock<std::sync::Mutex<PrismaMachine>> = OnceLock::new();
    MACHINE.get_or_init(|| {
        let mut db = PrismaMachine::builder().pes(4).build().unwrap();
        db.gdh_mut().set_optimizer_config(prisma::optimizer::OptimizerConfig {
            join_order: false,
            ..Default::default()
        });
        std::sync::Mutex::new(db)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The commuting square for a Select/Project chain over an inner join:
    // whatever the chain ships with the join to the grace sites or the
    // probed fragments, the machine's rows equal the oracle on the
    // *unoptimized* plan. The SQL keeps its cross-side predicates as a
    // selection above the join; the same query folded into the join
    // carries them as the join's residual.
    #[test]
    fn machine_projected_join_equals_unoptimized_oracle(
        lrows in arb_keyed_rows(40),
        rrows in arb_keyed_rows(30),
        query in arb_join_query(),
        grace in any::<bool>(),
    ) {
        use prisma::optimizer::PhysicalConfig;
        use prisma::sqlfe::{self, PlannedStatement};
        let mut db = join_machine().lock().unwrap_or_else(|e| e.into_inner());
        db.gdh_mut().set_physical_config(PhysicalConfig {
            broadcast_max_rows: if grace { 0.0 } else { 1e12 },
            ..PhysicalConfig::default()
        });
        let (a, b) = (fresh_name("pa"), fresh_name("pb"));
        let mut reference: HashMap<String, Relation> = HashMap::new();
        for (name, other, frag, rows) in [(&a, "v", "k", &lrows), (&b, "w", "w", &rrows)] {
            db.sql(&format!(
                "CREATE TABLE {name} (k INT NULL, {other} INT NULL) \
                 FRAGMENTED BY HASH({frag}) INTO 3"
            ))
            .unwrap();
            if !rows.is_empty() {
                db.sql(&format!("INSERT INTO {name} VALUES {}", values_clause(rows)))
                    .unwrap();
            }
            let schema = db.gdh().dictionary().relation(name).unwrap().schema;
            reference.insert(name.clone(), Relation::new(schema, rows.clone()));
        }
        let sql = join_query_sql(&a, &b, query);
        let Ok(PlannedStatement::Query(plan)) = sqlfe::compile(&sql, &**db.gdh().dictionary())
        else {
            panic!("{sql} plans as a query");
        };
        // Ordered on every output column, the order itself is fixed.
        let ordered = matches!(query.3, 1 | 2);
        let bag = |rel: Relation| if ordered { rel } else { rel.canonicalized() };
        let want = bag(eval(&plan, &reference).unwrap());
        // The SQL, and the same query with its WHERE folded into the join
        // (the key as the join key, the other conjuncts as its residual).
        let runs = [
            db.query_with_metrics(&sql).unwrap(),
            db.gdh().query(&with_residual_join(&plan)).unwrap(),
        ];
        for (got, m) in runs {
            prop_assert_eq!(m.partitioned_joins, u64::from(grace), "{}: {:?}", sql, m);
            prop_assert_eq!(m.broadcast_joins, u64::from(!grace), "{}: {:?}", sql, m);
            let got = bag(got);
            prop_assert_eq!(got.tuples(), want.tuples(), "{}", sql);
        }
        db.sql(&format!("DROP TABLE {a}")).unwrap();
        db.sql(&format!("DROP TABLE {b}")).unwrap();
    }
}

// ---------------- one arithmetic rule: the machine against the oracle ----------------

/// `(k, a, b, x)` rows: `k` a small fragmentation key, `a` an Int edge
/// value, `b` a divisor (0, -1, small, NULL), `x` a Double edge value.
fn arb_fault_rows(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    let divisor = prop_oneof![Just(Value::Null), (-1i64..3).prop_map(Value::Int)];
    prop::collection::vec(
        (
            arb_small_or_null(),
            arb_edge_int(),
            divisor,
            arb_edge_double(),
        ),
        0..=max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(k, a, b, x)| Tuple::new(vec![k, a, b, x]))
            .collect()
    })
}

/// Queries over `t (k, a, b, x)` and `u (k, c)` whose arithmetic can
/// fault, with guards in front of a division, behind it, under an OR,
/// and across a join, where pushdown moves the guard.
fn fault_query_sql(t: &str, u: &str, query: u8) -> String {
    const ITEMS: [&str; 4] = ["k, a + 1, a / b", "a % b, -a", "x / b, a * b", "k, a - b"];
    const WHERES: [&str; 7] = [
        "",
        " WHERE b <> 0 AND a / b > 1",
        " WHERE a / b > 1 AND b <> 0",
        " WHERE b <> 0 AND a % b = 0 AND a > 0",
        " WHERE b = 0 OR a / b > 0",
        " WHERE a < 3 AND a + 1 > 0",
        " WHERE x / b > 0.5 AND k = 1",
    ];
    const JOINS: [&str; 4] = [
        "SELECT t.k, t.a / u.c FROM {t} t, {u} u WHERE t.k = u.k AND u.c <> 0 AND t.a / u.c > 0",
        "SELECT t.k FROM {t} t, {u} u WHERE t.k = u.k AND t.a / u.c > 0 AND u.c <> 0",
        "SELECT t.a + u.c, t.b FROM {t} t, {u} u WHERE t.k = u.k AND t.a < 5",
        "SELECT k, COUNT(*), SUM(b) FROM {t} WHERE b <> 0 AND a / b >= 0 GROUP BY k",
    ];
    let singles = ITEMS.len() * WHERES.len();
    let q = query as usize % (singles + JOINS.len());
    if q < singles {
        format!(
            "SELECT {} FROM {t}{}",
            ITEMS[q % ITEMS.len()],
            WHERES[q / ITEMS.len()]
        )
    } else {
        JOINS[q - singles].replace("{t}", t).replace("{u}", u)
    }
}

fn fault_machine() -> &'static PrismaMachine {
    static MACHINE: OnceLock<PrismaMachine> = OnceLock::new();
    MACHINE.get_or_init(|| PrismaMachine::builder().pes(4).build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The one arithmetic rule end to end, under the placement rule: the
    // machine's SQL and `eval` of the *optimized* plan agree exactly, on
    // the rows or on an `Arithmetic` fault; against `eval` of the
    // *unoptimized* plan they agree whenever both succeed (a guard that
    // pushdown moves below a join may spare or expose a row), and every
    // failure on either side is `Arithmetic`.
    #[test]
    fn machine_arithmetic_follows_the_oracle_under_the_placement_rule(
        trows in arb_fault_rows(30),
        urows in prop::collection::vec((arb_small_or_null(), arb_small_or_null()), 0..12),
        queries in prop::collection::vec(0u8..255, 4..5),
    ) {
        use prisma::optimizer::Optimizer;
        use prisma::sqlfe::{self, PlannedStatement};
        let db = fault_machine();
        let (t, u) = (fresh_name("ft"), fresh_name("fu"));
        db.sql(&format!(
            "CREATE TABLE {t} (k INT NULL, a INT NULL, b INT NULL, x DOUBLE NULL) \
             FRAGMENTED BY HASH(k) INTO 3"
        ))
        .unwrap();
        db.sql(&format!("CREATE TABLE {u} (k INT NULL, c INT NULL) FRAGMENTED BY HASH(k) INTO 2"))
            .unwrap();
        let urows: Vec<Tuple> = urows.into_iter().map(|(k, c)| Tuple::new(vec![k, c])).collect();
        let mut reference: HashMap<String, Relation> = HashMap::new();
        for (name, rows) in [(&t, trows), (&u, urows)] {
            let txn = db.gdh().begin();
            db.gdh().insert(txn, name, rows.clone()).unwrap();
            db.gdh().commit(txn).unwrap();
            let schema = db.gdh().dictionary().relation(name).unwrap().schema;
            reference.insert(name.clone(), Relation::new(schema, rows));
        }
        let arithmetic = |r: &Result<Relation, PrismaError>| matches!(r, Err(PrismaError::Arithmetic(_)));
        for query in queries {
            let sql = fault_query_sql(&t, &u, query);
            let Ok(PlannedStatement::Query(plan)) = sqlfe::compile(&sql, &**db.gdh().dictionary())
            else {
                panic!("{sql} plans as a query");
            };
            let (optimized, _) = Optimizer::new(&**db.gdh().dictionary()).optimize(&plan).unwrap();
            let machine = db.query_with_metrics(&sql).map(|(rows, _)| rows.canonicalized());
            let exact = eval(&optimized, &reference).map(Relation::canonicalized);
            let unoptimized = eval(&plan, &reference).map(Relation::canonicalized);
            match (&machine, &exact) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.tuples(), want.tuples(), "{}", sql),
                _ => prop_assert!(
                    arithmetic(&machine) && arithmetic(&exact),
                    "{}: machine {:?}, optimized oracle {:?}", sql, machine.as_ref().err(), exact.as_ref().err()
                ),
            }
            match (&machine, &unoptimized) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.tuples(), want.tuples(), "{}", sql),
                (Ok(_), err) | (err, _) => prop_assert!(
                    arithmetic(err), "{}: {:?}", sql, err.as_ref().err()
                ),
            }
        }
        db.sql(&format!("DROP TABLE {t}")).unwrap();
        db.sql(&format!("DROP TABLE {u}")).unwrap();
    }
}
