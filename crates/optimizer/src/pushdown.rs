//! Join-key extraction and selection pushdown — the workhorse logical
//! transformations. The SQL planner deliberately emits `Select` over cross
//! joins; these rules recover equi-joins and move filters to the data.

use prisma_relalg::{JoinKind, LogicalPlan};
use prisma_storage::expr::{CmpOp, ScalarExpr};

use crate::Trace;

/// Rewrite `Select(p) over Join{on: [], ...}` (and joins with partial key
/// sets) so that conjuncts of the shape `left.col = right.col` become hash
/// join keys.
pub fn extract_join_keys(plan: LogicalPlan, trace: &mut Trace) -> LogicalPlan {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Select { input, predicate } = node else {
            return node;
        };
        let LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            mut on,
            residual,
        } = *input
        else {
            return LogicalPlan::Select { input, predicate };
        };
        let larity = match left.output_schema() {
            Ok(s) => s.arity(),
            Err(_) => {
                return LogicalPlan::Select {
                    input: Box::new(LogicalPlan::Join {
                        left,
                        right,
                        kind: JoinKind::Inner,
                        on,
                        residual,
                    }),
                    predicate,
                }
            }
        };
        let mut keep = Vec::new();
        let mut extracted = 0;
        for factor in predicate.split_conjunction() {
            if let Some((l, r)) = as_cross_equality(&factor, larity) {
                on.push((l, r));
                extracted += 1;
            } else {
                keep.push(factor);
            }
        }
        if extracted > 0 {
            trace.note(
                "extract-join-keys",
                format!("moved {extracted} equality conjunct(s) into the join"),
            );
        }
        let mut rebuilt = LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
            residual,
        };
        if !keep.is_empty() {
            rebuilt = rebuilt.select(ScalarExpr::conjunction(keep));
        }
        rebuilt
    })
}

/// `col_i = col_j` with i on the left side, j on the right (or flipped):
/// returns `(left ordinal, right-local ordinal)`.
fn as_cross_equality(e: &ScalarExpr, larity: usize) -> Option<(usize, usize)> {
    let ScalarExpr::Cmp(CmpOp::Eq, l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
            if *a < larity && *b >= larity {
                Some((*a, *b - larity))
            } else if *b < larity && *a >= larity {
                Some((*b, *a - larity))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Push selection conjuncts towards the leaves: through projections
/// (by substitution), into join sides, through sorts/limits-free paths,
/// into union branches and the left side of differences, and below
/// aggregates when the factor touches only group-by outputs.
pub fn push_selections(plan: LogicalPlan, trace: &mut Trace) -> LogicalPlan {
    // Iterate to a fixpoint (each pass pushes one level).
    let mut current = plan;
    for _ in 0..16 {
        let before = current.clone();
        current = push_once(current, trace);
        if current == before {
            break;
        }
    }
    current
}

fn push_once(plan: LogicalPlan, trace: &mut Trace) -> LogicalPlan {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Select { input, predicate } = node else {
            return node;
        };
        match *input {
            LogicalPlan::Select {
                input: inner,
                predicate: p2,
            } => {
                // Merge stacked selects so factors push as one batch.
                LogicalPlan::Select {
                    input: inner,
                    predicate: ScalarExpr::and(p2, predicate),
                }
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                residual,
            } => {
                let Ok(lschema) = left.output_schema() else {
                    return LogicalPlan::Select {
                        input: Box::new(LogicalPlan::Join {
                            left,
                            right,
                            kind,
                            on,
                            residual,
                        }),
                        predicate,
                    };
                };
                let larity = lschema.arity();
                let mut to_left = Vec::new();
                let mut to_right = Vec::new();
                let mut keep = Vec::new();
                for factor in predicate.split_conjunction() {
                    let cols = factor.columns();
                    if cols.iter().all(|&c| c < larity) {
                        to_left.push(factor);
                    } else if kind == JoinKind::Inner && cols.iter().all(|&c| c >= larity) {
                        to_right.push(factor.remap_columns(&|c| c - larity));
                    } else {
                        keep.push(factor);
                    }
                }
                if !to_left.is_empty() || !to_right.is_empty() {
                    trace.note(
                        "push-selection",
                        format!(
                            "{} factor(s) to the left, {} to the right of a join",
                            to_left.len(),
                            to_right.len()
                        ),
                    );
                }
                let new_left = if to_left.is_empty() {
                    left
                } else {
                    Box::new(left.select(ScalarExpr::conjunction(to_left)))
                };
                let new_right = if to_right.is_empty() {
                    right
                } else {
                    Box::new(right.select(ScalarExpr::conjunction(to_right)))
                };
                let mut rebuilt = LogicalPlan::Join {
                    left: new_left,
                    right: new_right,
                    kind,
                    on,
                    residual,
                };
                if !keep.is_empty() {
                    rebuilt = rebuilt.select(ScalarExpr::conjunction(keep));
                }
                rebuilt
            }
            LogicalPlan::Project {
                input: inner,
                exprs,
                schema,
            } => {
                // Substitute projection expressions into the predicate and
                // push the whole selection below (always sound: projection
                // is per-tuple and deterministic).
                let substituted = substitute(&predicate, &exprs);
                trace.note("push-selection", "through a projection");
                LogicalPlan::Project {
                    input: Box::new(inner.select(substituted)),
                    exprs,
                    schema,
                }
            }
            LogicalPlan::Union { left, right, all } => {
                trace.note("push-selection", "into both union branches");
                LogicalPlan::Union {
                    left: Box::new(left.select(predicate.clone())),
                    right: Box::new(right.select(predicate)),
                    all,
                }
            }
            LogicalPlan::Difference { left, right } => {
                // σ(L − R) = σ(L) − R; pushing into R would be unsound.
                trace.note("push-selection", "into the left side of a difference");
                LogicalPlan::Difference {
                    left: Box::new(left.select(predicate)),
                    right,
                }
            }
            LogicalPlan::Distinct { input: inner } => LogicalPlan::Distinct {
                input: Box::new(inner.select(predicate)),
            },
            LogicalPlan::Sort { input: inner, keys } => LogicalPlan::Sort {
                input: Box::new(inner.select(predicate)),
                keys,
            },
            LogicalPlan::Closure { input: inner, seed } => {
                // σ_p(TC(e)) with p over the source column only starts the
                // recursion from the pairs whose source passes p: a step
                // keeps each pair's source. Anything else stays above.
                let (to_seed, keep): (Vec<_>, Vec<_>) = predicate
                    .split_conjunction()
                    .into_iter()
                    .partition(|f| f.columns() == [0]);
                if !to_seed.is_empty() {
                    trace.note(
                        "push-selection",
                        format!("{} factor(s) into a closure's seed", to_seed.len()),
                    );
                }
                let seeds: Vec<ScalarExpr> = seed.into_iter().chain(to_seed).collect();
                let mut rebuilt = LogicalPlan::Closure {
                    input: inner,
                    seed: (!seeds.is_empty()).then(|| ScalarExpr::conjunction(seeds)),
                };
                if !keep.is_empty() {
                    rebuilt = rebuilt.select(ScalarExpr::conjunction(keep));
                }
                rebuilt
            }
            LogicalPlan::Aggregate {
                input: inner,
                group_by,
                aggs,
            } => {
                // Factors over group-by outputs filter groups ⇔ filter rows.
                let mut push = Vec::new();
                let mut keep = Vec::new();
                for factor in predicate.split_conjunction() {
                    if factor.columns().iter().all(|&c| c < group_by.len()) {
                        push.push(factor.remap_columns(&|c| group_by[c]));
                    } else {
                        keep.push(factor);
                    }
                }
                if !push.is_empty() {
                    trace.note(
                        "push-selection",
                        format!("{} group factor(s) below an aggregate", push.len()),
                    );
                }
                let new_input = if push.is_empty() {
                    inner
                } else {
                    Box::new(inner.select(ScalarExpr::conjunction(push)))
                };
                let mut rebuilt = LogicalPlan::Aggregate {
                    input: new_input,
                    group_by,
                    aggs,
                };
                if !keep.is_empty() {
                    rebuilt = rebuilt.select(ScalarExpr::conjunction(keep));
                }
                rebuilt
            }
            other => LogicalPlan::Select {
                input: Box::new(other),
                predicate,
            },
        }
    })
}

/// Replace `Col(i)` with `exprs[i]` throughout.
fn substitute(pred: &ScalarExpr, exprs: &[ScalarExpr]) -> ScalarExpr {
    match pred {
        ScalarExpr::Col(i) => exprs
            .get(*i)
            .cloned()
            .unwrap_or(ScalarExpr::Col(*i)),
        ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
        ScalarExpr::Cmp(op, l, r) => {
            ScalarExpr::cmp(*op, substitute(l, exprs), substitute(r, exprs))
        }
        ScalarExpr::Arith(op, l, r) => {
            ScalarExpr::arith(*op, substitute(l, exprs), substitute(r, exprs))
        }
        ScalarExpr::And(l, r) => ScalarExpr::and(substitute(l, exprs), substitute(r, exprs)),
        ScalarExpr::Or(l, r) => ScalarExpr::or(substitute(l, exprs), substitute(r, exprs)),
        ScalarExpr::Not(x) => ScalarExpr::Not(Box::new(substitute(x, exprs))),
        ScalarExpr::IsNull(x) => ScalarExpr::IsNull(Box::new(substitute(x, exprs))),
        ScalarExpr::Neg(x) => ScalarExpr::Neg(Box::new(substitute(x, exprs))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_relalg::{eval, Relation};
    use prisma_types::{tuple, Column, DataType, Schema};
    use std::collections::HashMap;

    fn db() -> HashMap<String, Relation> {
        let t = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let u = Schema::new(vec![
            Column::new("c", DataType::Int),
            Column::new("d", DataType::Int),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "t".to_owned(),
            Relation::new(t, (0..20).map(|i| tuple![i, i % 4]).collect()),
        );
        db.insert(
            "u".to_owned(),
            Relation::new(u, (0..4).map(|i| tuple![i, i * 100]).collect()),
        );
        db
    }

    fn naive_join_plan(db: &HashMap<String, Relation>) -> LogicalPlan {
        LogicalPlan::scan("t", db["t"].schema().clone())
            .join(LogicalPlan::scan("u", db["u"].schema().clone()), vec![])
            .select(ScalarExpr::and(
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2)),
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(10)),
            ))
    }

    #[test]
    fn keys_extracted_and_filter_pushed() {
        let db = db();
        let plan = naive_join_plan(&db);
        let mut trace = Trace::default();
        let keyed = extract_join_keys(plan.clone(), &mut trace);
        let pushed = push_selections(keyed, &mut trace);
        // Join now carries the key and the filter sits on the left scan.
        fn find_join_keys(p: &LogicalPlan) -> usize {
            match p {
                LogicalPlan::Join { on, left, right, .. } => {
                    on.len() + find_join_keys(left) + find_join_keys(right)
                }
                _ => p.children().iter().map(|c| find_join_keys(c)).sum(),
            }
        }
        assert_eq!(find_join_keys(&pushed), 1);
        let before = eval(&plan, &db).unwrap().canonicalized();
        let after = eval(&pushed, &db).unwrap().canonicalized();
        assert_eq!(before, after);
        assert!(trace.count_of("push-selection") > 0);
    }

    #[test]
    fn pushdown_through_projection_substitutes() {
        let db = db();
        let scan = LogicalPlan::scan("t", db["t"].schema().clone());
        let proj = LogicalPlan::Project {
            input: Box::new(scan),
            exprs: vec![ScalarExpr::arith(
                prisma_storage::expr::ArithOp::Mul,
                ScalarExpr::col(0),
                ScalarExpr::lit(2),
            )],
            schema: Schema::new(vec![Column::new("a2", DataType::Int)]),
        };
        let plan = proj.select(ScalarExpr::cmp(
            CmpOp::Ge,
            ScalarExpr::col(0),
            ScalarExpr::lit(20),
        ));
        let mut trace = Trace::default();
        let pushed = push_selections(plan.clone(), &mut trace);
        // Select sits below the projection now.
        assert!(matches!(pushed, LogicalPlan::Project { .. }));
        assert_eq!(
            eval(&plan, &db).unwrap().canonicalized(),
            eval(&pushed, &db).unwrap().canonicalized()
        );
    }

    #[test]
    fn difference_pushes_left_only() {
        let db = db();
        let l = LogicalPlan::scan("t", db["t"].schema().clone());
        let r = LogicalPlan::scan("t", db["t"].schema().clone())
            .select(ScalarExpr::cmp(
                CmpOp::Ge,
                ScalarExpr::col(0),
                ScalarExpr::lit(10),
            ));
        let plan = LogicalPlan::Difference {
            left: Box::new(l),
            right: Box::new(r),
        }
        .select(ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(1),
            ScalarExpr::lit(2),
        ));
        let mut trace = Trace::default();
        let pushed = push_selections(plan.clone(), &mut trace);
        assert!(matches!(pushed, LogicalPlan::Difference { .. }));
        assert_eq!(
            eval(&plan, &db).unwrap().canonicalized(),
            eval(&pushed, &db).unwrap().canonicalized()
        );
    }

    #[test]
    fn source_selection_seeds_a_closure_and_the_rest_stays_above() {
        let db = db();
        let closure = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("t", db["t"].schema().clone())),
            seed: None,
        };
        // src = 3 AND dst < 2 AND (src < 10 OR src IS NULL): two factors on
        // the source seed the closure, the one on the destination stays.
        let src_or = ScalarExpr::or(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(10)),
            ScalarExpr::IsNull(Box::new(ScalarExpr::col(0))),
        );
        let plan = closure.select(ScalarExpr::conjunction(vec![
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(3)),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::lit(2)),
            src_or,
        ]));
        let mut trace = Trace::default();
        let pushed = push_selections(plan.clone(), &mut trace);
        let LogicalPlan::Select { input, predicate } = &pushed else {
            panic!("the destination factor stays above: {pushed}");
        };
        assert_eq!(predicate.columns(), vec![1]);
        let LogicalPlan::Closure {
            seed: Some(seed), ..
        } = input.as_ref()
        else {
            panic!("the source factors seed the closure: {pushed}");
        };
        assert_eq!(seed.clone().split_conjunction().len(), 2);
        assert_eq!(
            trace.count_of("push-selection: 2 factor(s) into a closure's seed"),
            1
        );
        assert!(
            pushed.to_string().contains("TransitiveClosure seed: "),
            "{pushed}"
        );
        assert_eq!(
            eval(&plan, &db).unwrap().canonicalized(),
            eval(&pushed, &db).unwrap().canonicalized()
        );
        pushed.validate().unwrap();
    }

    #[test]
    fn aggregate_group_filter_pushed_below() {
        use prisma_relalg::{AggExpr, AggFunc};
        let db = db();
        let agg = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("t", db["t"].schema().clone())),
            group_by: vec![1],
            aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n")],
        };
        let plan = agg.select(ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(2)));
        let mut trace = Trace::default();
        let pushed = push_selections(plan.clone(), &mut trace);
        assert!(
            matches!(pushed, LogicalPlan::Aggregate { .. }),
            "select over group col should vanish below: {pushed}"
        );
        assert_eq!(
            eval(&plan, &db).unwrap().canonicalized(),
            eval(&pushed, &db).unwrap().canonicalized()
        );
        // A filter over the aggregate output column must NOT push.
        let agg2 = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("t", db["t"].schema().clone())),
            group_by: vec![1],
            aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n")],
        };
        let plan2 = agg2.select(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(1),
            ScalarExpr::lit(3),
        ));
        let pushed2 = push_selections(plan2.clone(), &mut trace);
        assert_eq!(
            eval(&plan2, &db).unwrap().canonicalized(),
            eval(&pushed2, &db).unwrap().canonicalized()
        );
    }
}
