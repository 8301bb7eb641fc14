//! Column pruning: ship only the columns a query actually uses.
//!
//! On a shared-nothing machine, narrower intermediate results mean fewer
//! 256-bit packets between PEs, so pruning is a *communication* rule as
//! much as a memory one. The pass is one top-down **required-columns**
//! walk: every node is asked for the output columns its parent reads,
//! adds what it reads itself, and asks its inputs for exactly that.
//!
//! | node | asks its input(s) for |
//! |---|---|
//! | `Project` | the columns of the expressions its parent reads (unread expressions are dropped) |
//! | `Select`, `Sort` | the parent's columns plus its own predicate / sort keys |
//! | `Limit` | the parent's columns |
//! | `Aggregate` | its `group_by` columns and the argument column of every aggregate but `COUNT(*)` |
//! | `Join` | the parent's columns plus keys and residual, split left/right; a side that still carries unread columns is narrowed with a sub-projection |
//! | `Distinct`, `Union`, `Difference`, `Closure`, `Fixpoint` | everything (their result depends on whole tuples) |
//!
//! The root is asked for everything, so the plan's output schema is
//! preserved exactly. Every operator that counts rows keeps at least one
//! column below it (`COUNT(*)` over a join still needs the join's rows).

use std::collections::BTreeSet;

use prisma_relalg::{AggFunc, JoinKind, LogicalPlan};
use prisma_types::Result;

use crate::Trace;

/// Prune unread columns throughout the plan. The plan's output schema is
/// preserved exactly.
pub fn prune_columns(plan: LogicalPlan, trace: &mut Trace) -> Result<LogicalPlan> {
    let pruned = prune(plan, Need::All, trace)?;
    debug_assert!(
        pruned.map.iter().enumerate().all(|(i, m)| *m == Some(i)),
        "asking the root for every column must keep its schema"
    );
    Ok(pruned.plan)
}

/// The output columns of a node that its parent reads.
#[derive(Debug, Clone)]
enum Need {
    All,
    Cols(BTreeSet<usize>),
}

impl Need {
    fn cols(cols: impl IntoIterator<Item = usize>) -> Need {
        Need::Cols(cols.into_iter().collect())
    }

    /// This need plus the node's own reads.
    fn with(mut self, cols: impl IntoIterator<Item = usize>) -> Need {
        if let Need::Cols(set) = &mut self {
            set.extend(cols);
        }
        self
    }

    fn contains(&self, col: usize) -> bool {
        match self {
            Need::All => true,
            Need::Cols(set) => set.contains(&col),
        }
    }

    /// The part of this need that falls in `lo..hi`, re-based to 0.
    fn slice(&self, lo: usize, hi: usize) -> Need {
        match self {
            Need::All => Need::All,
            Need::Cols(set) => Need::cols(set.range(lo..hi).map(|c| c - lo)),
        }
    }
}

/// A rewritten subtree, with the new ordinal of each of the original
/// subtree's output columns (`None` = dropped; relative order is kept).
struct Pruned {
    plan: LogicalPlan,
    map: Vec<Option<usize>>,
}

impl Pruned {
    fn unchanged(plan: LogicalPlan, arity: usize) -> Pruned {
        Pruned {
            plan,
            map: (0..arity).map(Some).collect(),
        }
    }

    /// Columns the rewritten subtree outputs.
    fn arity(&self) -> usize {
        self.map.iter().flatten().count()
    }

    /// Old ordinal → new ordinal, for the parent's expressions. An ordinal
    /// the subtree never had is left alone for `validate()` to report.
    fn col(&self, c: usize) -> usize {
        self.map.get(c).copied().flatten().unwrap_or(c)
    }

    /// Drop the columns `need` does not read with a sub-projection (the
    /// physical lowering fuses it into a scan directly below). At least
    /// one column stays, so the subtree still carries its row count.
    fn narrowed_to(self, need: &Need) -> Result<Pruned> {
        let Need::Cols(set) = need else {
            return Ok(self);
        };
        let mut keep: Vec<usize> = (0..self.map.len())
            .filter(|c| set.contains(c) && self.map[*c].is_some())
            .collect();
        if keep.is_empty() {
            keep.extend(self.map.iter().position(Option::is_some));
        }
        if keep.len() == self.arity() {
            return Ok(self);
        }
        let new_cols: Vec<usize> = keep.iter().map(|&c| self.col(c)).collect();
        let mut map = vec![None; self.map.len()];
        for (new, &old) in keep.iter().enumerate() {
            map[old] = Some(new);
        }
        Ok(Pruned {
            plan: self.plan.project_cols(&new_cols)?,
            map,
        })
    }
}

fn prune(plan: LogicalPlan, need: Need, trace: &mut Trace) -> Result<Pruned> {
    Ok(match plan {
        LogicalPlan::Scan { ref schema, .. } | LogicalPlan::Values { ref schema, .. } => {
            let arity = schema.arity();
            Pruned::unchanged(plan, arity)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let mut keep: Vec<usize> = (0..exprs.len()).filter(|&i| need.contains(i)).collect();
            if keep.is_empty() && !exprs.is_empty() {
                keep.push(0);
            }
            let input = prune(
                *input,
                Need::cols(keep.iter().flat_map(|&i| exprs[i].columns())),
                trace,
            )?;
            if keep.len() < exprs.len() {
                trace.note(
                    "prune-columns",
                    format!(
                        "projection narrowed {}→{} expressions",
                        exprs.len(),
                        keep.len()
                    ),
                );
            }
            let mut map = vec![None; exprs.len()];
            for (new, &old) in keep.iter().enumerate() {
                map[old] = Some(new);
            }
            let kept = keep
                .iter()
                .map(|&i| exprs[i].remap_columns(&|c| input.col(c)))
                .collect();
            Pruned {
                plan: LogicalPlan::Project {
                    input: Box::new(input.plan),
                    exprs: kept,
                    schema: if keep.len() < exprs.len() {
                        schema.project(&keep)
                    } else {
                        schema
                    },
                },
                map,
            }
        }
        LogicalPlan::Select { input, predicate } => {
            let input = prune(*input, need.with(predicate.columns()), trace)?;
            let predicate = predicate.remap_columns(&|c| input.col(c));
            Pruned {
                plan: LogicalPlan::Select {
                    input: Box::new(input.plan),
                    predicate,
                },
                map: input.map,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let input = prune(*input, need.with(keys.iter().map(|&(c, _)| c)), trace)?;
            let keys = keys.iter().map(|&(c, asc)| (input.col(c), asc)).collect();
            Pruned {
                plan: LogicalPlan::Sort {
                    input: Box::new(input.plan),
                    keys,
                },
                map: input.map,
            }
        }
        LogicalPlan::Limit { input, n } => {
            let input = prune(*input, need, trace)?;
            Pruned {
                plan: LogicalPlan::Limit {
                    input: Box::new(input.plan),
                    n,
                },
                map: input.map,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let reads = group_by.iter().copied().chain(
                aggs.iter()
                    .filter(|a| a.func != AggFunc::CountStar)
                    .map(|a| a.col),
            );
            let input = prune(*input, Need::cols(reads), trace)?;
            let arity = group_by.len() + aggs.len();
            let group_by = group_by.iter().map(|&c| input.col(c)).collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    // COUNT(*) ignores its column; keep the ordinal in range.
                    a.col = if a.func == AggFunc::CountStar {
                        0
                    } else {
                        input.col(a.col)
                    };
                    a
                })
                .collect();
            let plan = LogicalPlan::Aggregate {
                input: Box::new(input.plan),
                group_by,
                aggs,
            };
            Pruned::unchanged(plan, arity)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            let larity = left.output_schema()?.arity();
            let rarity = right.output_schema()?.arity();
            let reads: BTreeSet<usize> = on
                .iter()
                .flat_map(|&(l, r)| [l, larity + r])
                .chain(residual.iter().flat_map(|p| p.columns()))
                .collect();
            let lneed = need.slice(0, larity).with(reads.range(..larity).copied());
            // Semi/anti joins output the left schema only: the parent's
            // need never reaches the right side.
            let rneed = match kind {
                JoinKind::Inner => need.slice(larity, larity + rarity),
                JoinKind::Semi | JoinKind::Anti => Need::cols([]),
            }
            .with(reads.range(larity..).map(|c| c - larity));
            let left = prune(*left, lneed.clone(), trace)?.narrowed_to(&lneed)?;
            let right = prune(*right, rneed.clone(), trace)?.narrowed_to(&rneed)?;
            let (new_larity, new_rarity) = (left.arity(), right.arity());
            if new_larity < larity || new_rarity < rarity {
                trace.note(
                    "prune-columns",
                    format!(
                        "join inputs narrowed {larity}→{new_larity} and {rarity}→{new_rarity} columns"
                    ),
                );
            }
            let mut map = left.map.clone();
            if kind == JoinKind::Inner {
                map.extend(right.map.iter().map(|m| m.map(|c| new_larity + c)));
            }
            let on = on
                .iter()
                .map(|&(l, r)| (left.col(l), right.col(r)))
                .collect();
            let residual = residual.map(|p| {
                p.remap_columns(&|c| {
                    if c < larity {
                        left.col(c)
                    } else {
                        new_larity + right.col(c - larity)
                    }
                })
            });
            let plan = LogicalPlan::Join {
                left: Box::new(left.plan),
                right: Box::new(right.plan),
                kind,
                on,
                residual,
            };
            Pruned { plan, map }
        }
        // Whole-tuple operators: duplicate elimination, set difference and
        // recursion compare entire rows, so nothing below them is unread
        // (UNION ALL would not need this; it is kept with its siblings).
        LogicalPlan::Distinct { input } => {
            let input = prune(*input, Need::All, trace)?;
            Pruned {
                plan: LogicalPlan::Distinct {
                    input: Box::new(input.plan),
                },
                map: input.map,
            }
        }
        LogicalPlan::Closure { input, seed } => {
            let input = prune(*input, Need::All, trace)?;
            Pruned {
                plan: LogicalPlan::Closure {
                    input: Box::new(input.plan),
                    seed,
                },
                map: input.map,
            }
        }
        LogicalPlan::Union { left, right, all } => {
            let left = prune(*left, Need::All, trace)?;
            let right = prune(*right, Need::All, trace)?;
            Pruned {
                plan: LogicalPlan::Union {
                    left: Box::new(left.plan),
                    right: Box::new(right.plan),
                    all,
                },
                map: left.map,
            }
        }
        LogicalPlan::Difference { left, right } => {
            let left = prune(*left, Need::All, trace)?;
            let right = prune(*right, Need::All, trace)?;
            Pruned {
                plan: LogicalPlan::Difference {
                    left: Box::new(left.plan),
                    right: Box::new(right.plan),
                },
                map: left.map,
            }
        }
        LogicalPlan::Fixpoint { name, base, step } => {
            let base = prune(*base, Need::All, trace)?;
            let step = prune(*step, Need::All, trace)?;
            Pruned {
                plan: LogicalPlan::Fixpoint {
                    name,
                    base: Box::new(base.plan),
                    step: Box::new(step.plan),
                },
                map: base.map,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_relalg::{eval, AggExpr, Relation};
    use prisma_storage::expr::{CmpOp, ScalarExpr};
    use prisma_types::{tuple, Column, DataType, Schema};
    use std::collections::HashMap;

    fn db() -> HashMap<String, Relation> {
        let wide = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Str),
            Column::new("d", DataType::Str),
        ]);
        let narrow = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "wide".to_owned(),
            Relation::new(
                wide,
                (0..50)
                    .map(|i| tuple![i, i % 5, format!("c{i}"), format!("d{i}")])
                    .collect(),
            ),
        );
        db.insert(
            "narrow".to_owned(),
            Relation::new(narrow, (0..5).map(|i| tuple![i, format!("v{i}")]).collect()),
        );
        db
    }

    fn scan(db: &HashMap<String, Relation>, name: &str) -> LogicalPlan {
        LogicalPlan::scan(name, db[name].schema().clone())
    }

    /// `wide ⋈ narrow ON wide.b = narrow.k` (columns a b c d k v).
    fn wide_join_narrow(db: &HashMap<String, Relation>) -> LogicalPlan {
        scan(db, "wide").join(scan(db, "narrow"), vec![(1, 0)])
    }

    /// The commuting square every pruning test closes: same rows from
    /// the oracle, same root schema, a valid plan, and a second pass
    /// that finds nothing left to do.
    fn pruned_and_checked(
        plan: &LogicalPlan,
        db: &HashMap<String, Relation>,
    ) -> (LogicalPlan, Trace) {
        let mut trace = Trace::default();
        let pruned = prune_columns(plan.clone(), &mut trace).unwrap();
        pruned.validate().unwrap();
        let before = eval(plan, db).unwrap();
        let after = eval(&pruned, db).unwrap();
        assert_eq!(before.schema(), after.schema());
        assert_eq!(before.canonicalized(), after.canonicalized());
        let again = prune_columns(pruned.clone(), &mut Trace::default()).unwrap();
        assert_eq!(again, pruned, "pruning must be idempotent");
        (pruned, trace)
    }

    /// Input arities of the first join found, top-down.
    fn join_arities(p: &LogicalPlan) -> Option<(usize, usize)> {
        match p {
            LogicalPlan::Join { left, right, .. } => Some((
                left.output_schema().unwrap().arity(),
                right.output_schema().unwrap().arity(),
            )),
            _ => p.children().iter().find_map(|c| join_arities(c)),
        }
    }

    #[test]
    fn join_inputs_are_narrowed() {
        let db = db();
        // SELECT wide.a, narrow.v FROM wide JOIN narrow ON wide.b = narrow.k
        let plan = LogicalPlan::Project {
            input: Box::new(wide_join_narrow(&db)),
            exprs: vec![ScalarExpr::Col(0), ScalarExpr::Col(5)],
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("v", DataType::Str),
            ]),
        };
        let (pruned, trace) = pruned_and_checked(&plan, &db);
        assert_eq!(trace.count_of("prune-columns"), 1);
        let (l, r) = join_arities(&pruned).unwrap();
        assert_eq!(l, 2, "left should keep only a and the key b");
        assert_eq!(r, 2, "right keeps k (key) and v");
    }

    #[test]
    fn no_prune_when_all_columns_used() {
        let db = db();
        let join = scan(&db, "narrow").join(scan(&db, "narrow"), vec![(0, 0)]);
        let plan = LogicalPlan::Project {
            input: Box::new(join),
            exprs: (0..4).map(ScalarExpr::Col).collect(),
            schema: db["narrow"].schema().join(db["narrow"].schema()),
        };
        let (pruned, trace) = pruned_and_checked(&plan, &db);
        assert_eq!(pruned, plan);
        assert_eq!(trace.count_of("prune-columns"), 0);
    }

    #[test]
    fn aggregate_reads_only_its_group_and_argument_columns() {
        let db = db();
        // The SQL planner's shape: a pre-projection of every FROM column
        // plus one computed column per aggregate argument.
        let mut cols = db["wide"]
            .schema()
            .join(db["narrow"].schema())
            .columns()
            .to_vec();
        cols.push(Column::nullable("__agg_arg1", DataType::Int));
        let pre = LogicalPlan::Project {
            input: Box::new(wide_join_narrow(&db)),
            exprs: (0..6)
                .map(ScalarExpr::Col)
                .chain([ScalarExpr::Col(0)])
                .collect(),
            schema: Schema::new(cols),
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(pre),
            group_by: vec![5],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Sum, 6, "s"),
            ],
        };
        let (pruned, trace) = pruned_and_checked(&plan, &db);
        // 7 pre-projection expressions → v and the SUM argument; the join
        // sides keep (a, b) and (k, v).
        assert_eq!(trace.count_of("prune-columns"), 2, "{:?}", trace.fired);
        assert!(trace.fired.iter().any(|f| f.contains("7→2 expressions")));
        assert!(trace.fired.iter().any(|f| f.contains("4→2 and 2→2")));
        assert_eq!(join_arities(&pruned), Some((2, 2)));
    }

    #[test]
    fn count_star_alone_keeps_one_column_per_side() {
        let db = db();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan(&db, "wide").join(scan(&db, "narrow"), vec![])),
                exprs: (0..6).map(ScalarExpr::Col).collect(),
                schema: db["wide"].schema().join(db["narrow"].schema()),
            }),
            group_by: vec![],
            aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n")],
        };
        let (pruned, _) = pruned_and_checked(&plan, &db);
        // Nothing is read, but the cross join's row count must survive.
        assert_eq!(join_arities(&pruned), Some((1, 1)));
        assert_eq!(eval(&pruned, &db).unwrap().tuples()[0].get(0), &250.into());
    }

    #[test]
    fn sort_and_select_add_their_own_columns() {
        let db = db();
        // SELECT a FROM (wide ⋈ narrow) WHERE v <> 'v0' ORDER BY c
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(wide_join_narrow(&db).select(ScalarExpr::cmp(
                    CmpOp::Ne,
                    ScalarExpr::col(5),
                    ScalarExpr::lit("v0"),
                ))),
                keys: vec![(2, false)],
            }),
            exprs: vec![ScalarExpr::Col(0)],
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
        };
        let (pruned, _) = pruned_and_checked(&plan, &db);
        // Left keeps a (output), b (key), c (sort key); right k and v.
        assert_eq!(join_arities(&pruned), Some((3, 2)));
    }

    #[test]
    fn semi_join_right_side_keeps_only_its_keys() {
        let db = db();
        let semi = LogicalPlan::Join {
            left: Box::new(scan(&db, "narrow")),
            right: Box::new(scan(&db, "wide")),
            kind: JoinKind::Semi,
            on: vec![(0, 1)],
            residual: Some(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(2),
                ScalarExpr::lit(10),
            )),
        };
        let plan = semi.project_cols(&[1]).unwrap();
        let (pruned, _) = pruned_and_checked(&plan, &db);
        // narrow keeps k and v; wide keeps b (key) and a (residual).
        assert_eq!(join_arities(&pruned), Some((2, 2)));
    }

    #[test]
    fn whole_tuple_operators_prune_nothing_below_them() {
        let db = db();
        let distinct = LogicalPlan::Distinct {
            input: Box::new(wide_join_narrow(&db)),
        }
        .project_cols(&[0])
        .unwrap();
        let union = LogicalPlan::Union {
            left: Box::new(wide_join_narrow(&db)),
            right: Box::new(wide_join_narrow(&db)),
            all: false,
        }
        .project_cols(&[0])
        .unwrap();
        let difference = LogicalPlan::Difference {
            left: Box::new(wide_join_narrow(&db)),
            right: Box::new(wide_join_narrow(&db).select(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(0),
                ScalarExpr::lit(10),
            ))),
        }
        .project_cols(&[0])
        .unwrap();
        for plan in [distinct, union, difference] {
            let (pruned, trace) = pruned_and_checked(&plan, &db);
            assert_eq!(pruned, plan);
            assert_eq!(trace.count_of("prune-columns"), 0);
        }
    }
}
