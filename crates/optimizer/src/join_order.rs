//! Cardinality-driven join ordering.
//!
//! The SQL planner emits FROM-order joins; this rule flattens each
//! contiguous inner-join region into sources + predicates, greedily
//! re-orders the sources (smallest filtered source first, then always the
//! cheapest estimated next join, preferring connected sources to avoid
//! cross products), and rebuilds a left-deep tree with a final projection
//! restoring the original column order.

use prisma_relalg::{JoinKind, LogicalPlan};
use prisma_storage::expr::{CmpOp, ScalarExpr};
use prisma_types::{Result, Schema};

use crate::cardinality::estimate_rows;
use crate::stats::StatsSource;
use crate::Trace;

/// Reorder all join regions in `plan`.
pub fn reorder_joins(
    plan: LogicalPlan,
    stats: &dyn StatsSource,
    trace: &mut Trace,
) -> Result<LogicalPlan> {
    rewrite(plan, stats, trace)
}

fn rewrite(plan: LogicalPlan, stats: &dyn StatsSource, trace: &mut Trace) -> Result<LogicalPlan> {
    // Region root: Select over a join, or a bare join.
    let is_region_root = matches!(
        &plan,
        LogicalPlan::Select { input, .. }
            if matches!(**input, LogicalPlan::Join { kind: JoinKind::Inner, .. })
    ) || matches!(&plan, LogicalPlan::Join { kind: JoinKind::Inner, .. });

    if is_region_root {
        let (top_pred, join) = match plan {
            LogicalPlan::Select { input, predicate } => (Some(predicate), *input),
            other => (None, other),
        };
        let mut leaves = Vec::new();
        let mut preds = Vec::new();
        flatten(join, &mut leaves, &mut preds)?;
        if let Some(p) = top_pred {
            preds.extend(p.split_conjunction());
        }
        // Recurse into the leaves first (they may contain nested regions).
        let leaves: Vec<LogicalPlan> = leaves
            .into_iter()
            .map(|l| rewrite(l, stats, trace))
            .collect::<Result<_>>()?;
        if leaves.len() <= 2 {
            // Nothing to reorder; rebuild as-was.
            return rebuild_in_order(leaves, preds, None, stats, trace);
        }
        return greedy_rebuild(leaves, preds, stats, trace);
    }

    // Not a region root: rebuild children recursively via transform of
    // direct structure (manual match to keep Result-returning recursion).
    Ok(match plan {
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(rewrite(*input, stats, trace)?),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(rewrite(*input, stats, trace)?),
            exprs,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => LogicalPlan::Join {
            left: Box::new(rewrite(*left, stats, trace)?),
            right: Box::new(rewrite(*right, stats, trace)?),
            kind,
            on,
            residual,
        },
        LogicalPlan::Union { left, right, all } => LogicalPlan::Union {
            left: Box::new(rewrite(*left, stats, trace)?),
            right: Box::new(rewrite(*right, stats, trace)?),
            all,
        },
        LogicalPlan::Difference { left, right } => LogicalPlan::Difference {
            left: Box::new(rewrite(*left, stats, trace)?),
            right: Box::new(rewrite(*right, stats, trace)?),
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(rewrite(*input, stats, trace)?),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(*input, stats, trace)?),
            group_by,
            aggs,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(*input, stats, trace)?),
            keys,
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(rewrite(*input, stats, trace)?),
            n,
        },
        LogicalPlan::Closure { input, seed } => LogicalPlan::Closure {
            input: Box::new(rewrite(*input, stats, trace)?),
            seed,
        },
        LogicalPlan::Fixpoint { name, base, step } => LogicalPlan::Fixpoint {
            name,
            base: Box::new(rewrite(*base, stats, trace)?),
            step: Box::new(rewrite(*step, stats, trace)?),
        },
        leaf => leaf,
    })
}

/// Flatten a tree of inner joins into leaves + conjuncts in the frame of
/// the concatenated leaves.
fn flatten(
    plan: LogicalPlan,
    leaves: &mut Vec<LogicalPlan>,
    preds: &mut Vec<ScalarExpr>,
) -> Result<()> {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
            residual,
        } => {
            let before = leaves
                .iter()
                .map(|l| l.output_schema().map(|s| s.arity()))
                .sum::<Result<usize>>()?;
            flatten(*left, leaves, preds)?;
            let larity = leaves
                .iter()
                .map(|l| l.output_schema().map(|s| s.arity()))
                .sum::<Result<usize>>()?
                - before;
            let mut right_preds = Vec::new();
            flatten(*right, leaves, &mut right_preds)?;
            // right-side predicate frames shift by the left arity (they
            // were collected relative to the right subtree, whose leaves
            // now start at before + larity... they were already absolute
            // within the recursion because we push into the same vec.)
            preds.extend(right_preds);
            let offset = before;
            for (l, r) in on {
                preds.push(ScalarExpr::eq(
                    ScalarExpr::Col(offset + l),
                    ScalarExpr::Col(offset + larity + r),
                ));
            }
            if let Some(res) = residual {
                preds.push(res.remap_columns(&|c| offset + c));
            }
            Ok(())
        }
        other => {
            leaves.push(other);
            Ok(())
        }
    }
}

/// Offsets of each leaf in the concatenation.
fn offsets(leaves: &[LogicalPlan]) -> Result<Vec<usize>> {
    let mut out = Vec::with_capacity(leaves.len());
    let mut acc = 0;
    for l in leaves {
        out.push(acc);
        acc += l.output_schema()?.arity();
    }
    Ok(out)
}

/// Which leaves a predicate (in the original concatenated frame) touches.
fn leaves_of_pred(pred: &ScalarExpr, offs: &[usize], arities: &[usize]) -> Vec<usize> {
    let mut touched = Vec::new();
    for c in pred.columns() {
        for (i, (&o, &a)) in offs.iter().zip(arities).enumerate() {
            if c >= o && c < o + a && !touched.contains(&i) {
                touched.push(i);
            }
        }
    }
    touched.sort_unstable();
    touched
}

fn greedy_rebuild(
    leaves: Vec<LogicalPlan>,
    preds: Vec<ScalarExpr>,
    stats: &dyn StatsSource,
    trace: &mut Trace,
) -> Result<LogicalPlan> {
    let offs = offsets(&leaves)?;
    let arities: Vec<usize> = leaves
        .iter()
        .map(|l| l.output_schema().map(|s| s.arity()))
        .collect::<Result<_>>()?;
    let n = leaves.len();

    // Classify predicates by the leaf set they touch.
    let mut leaf_preds: Vec<Vec<ScalarExpr>> = vec![Vec::new(); n];
    let mut multi: Vec<(Vec<usize>, ScalarExpr)> = Vec::new();
    for p in preds {
        let touched = leaves_of_pred(&p, &offs, &arities);
        match touched.len() {
            0 | 1 => {
                let i = touched.first().copied().unwrap_or(0);
                leaf_preds[i].push(p);
            }
            _ => multi.push((touched, p)),
        }
    }

    // Filtered leaves + their estimates.
    let filtered: Vec<LogicalPlan> = leaves
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut p = l.clone();
            if !leaf_preds[i].is_empty() {
                let local = ScalarExpr::conjunction(
                    leaf_preds[i]
                        .iter()
                        .map(|e| e.remap_columns(&|c| c - offs[i]))
                        .collect(),
                );
                p = p.select(local);
            }
            p
        })
        .collect();
    let est: Vec<f64> = filtered.iter().map(|p| estimate_rows(p, stats)).collect();

    // Greedy: smallest first, then cheapest estimated join, preferring
    // connected leaves.
    let connected = |placed: &[usize], cand: usize| {
        multi.iter().any(|(touched, p)| {
            matches!(p, ScalarExpr::Cmp(CmpOp::Eq, _, _))
                && touched.contains(&cand)
                && touched.iter().all(|t| *t == cand || placed.contains(t))
        })
    };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let start = remaining
        .iter()
        .copied()
        .min_by(|&a, &b| est[a].total_cmp(&est[b]))
        .expect("non-empty");
    order.push(start);
    remaining.retain(|&x| x != start);
    let mut cur_est = est[start];
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ca = connected(&order, a);
                let cb = connected(&order, b);
                // Connected beats disconnected; then smaller estimate.
                cb.cmp(&ca).then(est[a].total_cmp(&est[b]))
            })
            .expect("non-empty");
        // Joining a connected leaf divides by its key cardinality; a
        // disconnected one multiplies. Either way track a rough estimate.
        cur_est = if connected(&order, pick) {
            (cur_est * est[pick]).sqrt().max(1.0)
        } else {
            cur_est * est[pick]
        };
        order.push(pick);
        remaining.retain(|&x| x != pick);
    }

    if order.windows(2).all(|w| w[0] < w[1]) {
        // Already in source order: rebuild without the restoring project.
        trace.note("join-order", "kept FROM order (already optimal)");
        let plans: Vec<LogicalPlan> = order.iter().map(|&i| filtered[i].clone()).collect();
        return rebuild_in_order(
            plans,
            multi.into_iter().map(|(_, p)| p).collect(),
            None,
            stats,
            trace,
        );
    }
    trace.note(
        "join-order",
        format!("reordered {n} sources to {order:?} (estimates {est:?})"),
    );

    // New frame: mapping old global ordinal -> new global ordinal.
    let mut new_off = vec![0usize; n];
    let mut acc = 0;
    for &leaf in &order {
        new_off[leaf] = acc;
        acc += arities[leaf];
    }
    let total = acc;
    let old_to_new = |old: usize| -> usize {
        for (i, (&o, &a)) in offs.iter().zip(&arities).enumerate() {
            if old >= o && old < o + a {
                return new_off[i] + (old - o);
            }
        }
        old
    };

    // Build the left-deep tree in the greedy order, attaching each multi-
    // leaf predicate at the earliest point all its leaves are present.
    let mut plan = filtered[order[0]].clone();
    let mut placed = vec![order[0]];
    let mut pending = multi;
    for &leaf in &order[1..] {
        let right = filtered[leaf].clone();
        placed.push(leaf);
        // Predicates now fully placed.
        let (ready, rest): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|(touched, _)| touched.iter().all(|t| placed.contains(t)));
        pending = rest;
        let mut on = Vec::new();
        let mut residual_parts = Vec::new();
        let left_arity: usize = placed[..placed.len() - 1]
            .iter()
            .map(|&i| arities[i])
            .sum();
        for (_, p) in ready {
            let remapped = p.remap_columns(&old_to_new);
            // Equality across the boundary becomes a join key.
            if let ScalarExpr::Cmp(CmpOp::Eq, l, r) = &remapped {
                if let (ScalarExpr::Col(a), ScalarExpr::Col(b)) = (l.as_ref(), r.as_ref()) {
                    let (a, b) = (*a, *b);
                    if a < left_arity && b >= left_arity {
                        on.push((a, b - left_arity));
                        continue;
                    }
                    if b < left_arity && a >= left_arity {
                        on.push((b, a - left_arity));
                        continue;
                    }
                }
            }
            residual_parts.push(remapped);
        }
        let residual = if residual_parts.is_empty() {
            None
        } else {
            Some(ScalarExpr::conjunction(residual_parts))
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            kind: JoinKind::Inner,
            on,
            residual,
        };
    }
    debug_assert!(pending.is_empty());

    // Restore the original column order with a projection.
    let new_schema = plan.output_schema()?;
    let mut exprs = Vec::with_capacity(total);
    let mut cols = Vec::with_capacity(total);
    for old in 0..total {
        let new = old_to_new(old);
        exprs.push(ScalarExpr::Col(new));
        cols.push(new_schema.column(new).expect("in range").clone());
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(cols),
    })
}

/// Rebuild leaves in their given order with all predicates attached as a
/// top select (used when no reordering is wanted/possible).
fn rebuild_in_order(
    leaves: Vec<LogicalPlan>,
    preds: Vec<ScalarExpr>,
    _hint: Option<()>,
    _stats: &dyn StatsSource,
    _trace: &mut Trace,
) -> Result<LogicalPlan> {
    let mut it = leaves.into_iter();
    let mut plan = it
        .next()
        .ok_or_else(|| prisma_types::PrismaError::Execution("empty join region".into()))?;
    for right in it {
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            kind: JoinKind::Inner,
            on: vec![],
            residual: None,
        };
    }
    if !preds.is_empty() {
        plan = plan.select(ScalarExpr::conjunction(preds));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;
    use prisma_relalg::{eval, Relation};
    use prisma_types::{tuple, Column, DataType};
    use std::collections::HashMap;

    /// big (1000 rows) × mid (100) × small (10), star-joined on small's key.
    fn db() -> HashMap<String, Relation> {
        let mk = |n: i64, fanout: i64| -> Vec<prisma_types::Tuple> {
            (0..n).map(|i| tuple![i, i % fanout]).collect()
        };
        let schema = |a: &str, b: &str| {
            Schema::new(vec![
                Column::new(a, DataType::Int),
                Column::new(b, DataType::Int),
            ])
        };
        let mut db = HashMap::new();
        db.insert(
            "big".to_owned(),
            Relation::new(schema("b_id", "b_k"), mk(1000, 10)),
        );
        db.insert(
            "mid".to_owned(),
            Relation::new(schema("m_id", "m_k"), mk(100, 10)),
        );
        db.insert(
            "small".to_owned(),
            Relation::new(schema("s_id", "s_k"), mk(10, 10)),
        );
        db
    }

    fn stats(db: &HashMap<String, Relation>) -> HashMap<String, TableStats> {
        db.iter()
            .map(|(k, v)| (k.clone(), TableStats::from_relation(v)))
            .collect()
    }

    #[test]
    fn reorder_preserves_semantics_and_column_order() {
        let db = db();
        let st = stats(&db);
        // FROM big, mid, small WHERE big.b_k = small.s_id AND mid.m_k = small.s_id
        let plan = LogicalPlan::scan("big", db["big"].schema().clone())
            .join(LogicalPlan::scan("mid", db["mid"].schema().clone()), vec![])
            .join(LogicalPlan::scan("small", db["small"].schema().clone()), vec![])
            .select(ScalarExpr::and(
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(4)),
                ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::col(4)),
            ));
        let mut trace = Trace::default();
        let reordered = reorder_joins(plan.clone(), &st, &mut trace).unwrap();
        let before = eval(&plan, &db).unwrap();
        let after = eval(&reordered, &db).unwrap();
        assert_eq!(
            before.schema(),
            after.schema(),
            "column order must be restored"
        );
        assert_eq!(before.canonicalized(), after.canonicalized());
        assert!(trace.count_of("join-order") > 0);
    }

    #[test]
    fn smallest_source_becomes_the_leftmost() {
        let db = db();
        let st = stats(&db);
        let plan = LogicalPlan::scan("big", db["big"].schema().clone())
            .join(LogicalPlan::scan("small", db["small"].schema().clone()), vec![])
            .join(LogicalPlan::scan("mid", db["mid"].schema().clone()), vec![])
            .select(ScalarExpr::and(
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2)),
                ScalarExpr::eq(ScalarExpr::col(3), ScalarExpr::col(5)),
            ));
        let mut trace = Trace::default();
        let reordered = reorder_joins(plan, &st, &mut trace).unwrap();
        // Walk to the leftmost leaf.
        fn leftmost(p: &LogicalPlan) -> &LogicalPlan {
            match p {
                LogicalPlan::Join { left, .. } => leftmost(left),
                LogicalPlan::Project { input, .. } | LogicalPlan::Select { input, .. } => {
                    leftmost(input)
                }
                other => other,
            }
        }
        let lm = leftmost(&reordered);
        assert!(
            matches!(lm, LogicalPlan::Scan { relation, .. } if relation == "small"),
            "expected small leftmost, got {lm}"
        );
    }

    #[test]
    fn two_way_join_untouched() {
        let db = db();
        let st = stats(&db);
        let plan = LogicalPlan::scan("big", db["big"].schema().clone()).join(
            LogicalPlan::scan("small", db["small"].schema().clone()),
            vec![(1, 0)],
        );
        let mut trace = Trace::default();
        let out = reorder_joins(plan.clone(), &st, &mut trace).unwrap();
        assert_eq!(
            eval(&plan, &db).unwrap().canonicalized(),
            eval(&out, &db).unwrap().canonicalized()
        );
    }
}
