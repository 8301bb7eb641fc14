//! Intermediate-result size estimation (paper §2.4's second rule family).
//!
//! Comparison selectivities are **histogram-backed** when the scanned
//! relation was profiled through the per-fragment statistics pipeline:
//! equality consults the most-common values first (exact for heavy
//! hitters) and falls back to the containing histogram bucket; range
//! predicates integrate the histogram mass below/above the literal
//! instead of assuming the uniform 1/3 default. Relations without
//! histograms keep the classic uniform heuristics.

use prisma_relalg::{JoinKind, LogicalPlan};
use prisma_storage::expr::{CmpOp, ScalarExpr};
use prisma_types::Value;

use crate::stats::{StatsSource, TableStats};

/// Default row count assumed for relations without statistics.
const DEFAULT_ROWS: f64 = 1_000.0;
/// Default selectivity of an opaque predicate.
const DEFAULT_SEL: f64 = 0.25;
/// Selectivity of a range comparison.
const RANGE_SEL: f64 = 1.0 / 3.0;

/// Estimate the output cardinality of a plan.
pub fn estimate_rows(plan: &LogicalPlan, stats: &dyn StatsSource) -> f64 {
    match plan {
        LogicalPlan::Scan { relation, .. } => stats
            .table_stats(relation)
            .map(|s| s.rows as f64)
            .unwrap_or(DEFAULT_ROWS),
        LogicalPlan::Values { rows, .. } => rows.len() as f64,
        LogicalPlan::Select { input, predicate } => {
            let base = estimate_rows(input, stats);
            base * predicate_selectivity(predicate, input, stats)
        }
        LogicalPlan::Project { input, .. } => estimate_rows(input, stats),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            let l = estimate_rows(left, stats);
            let r = estimate_rows(right, stats);
            let mut est = match kind {
                JoinKind::Inner | JoinKind::Semi => {
                    if on.is_empty() {
                        l * r // cross join
                    } else {
                        // |L ⋈ R| ≈ |L||R| / max(d_L, d_R) per key pair.
                        let mut denom = 1.0f64;
                        for &(lc, rc) in on {
                            let dl = column_distinct(left, lc, stats);
                            let dr = column_distinct(right, rc, stats);
                            denom *= dl.max(dr).max(1.0);
                        }
                        (l * r / denom).min(l * r)
                    }
                }
                JoinKind::Anti => l * 0.5,
            };
            if *kind == JoinKind::Semi {
                est = est.min(l);
            }
            if residual.is_some() {
                est *= DEFAULT_SEL;
            }
            est.max(0.0)
        }
        LogicalPlan::Union { left, right, all } => {
            let sum = estimate_rows(left, stats) + estimate_rows(right, stats);
            if *all {
                sum
            } else {
                sum * 0.8
            }
        }
        LogicalPlan::Difference { left, .. } => estimate_rows(left, stats) * 0.5,
        LogicalPlan::Distinct { input } => estimate_rows(input, stats) * 0.8,
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                let mut groups = 1.0f64;
                for &c in group_by {
                    groups *= column_distinct(input, c, stats);
                }
                groups.min(estimate_rows(input, stats))
            }
        }
        LogicalPlan::Sort { input, .. } => estimate_rows(input, stats),
        LogicalPlan::Limit { input, n } => estimate_rows(input, stats).min(*n as f64),
        // Closure of a graph with E edges and d distinct sources: the
        // classic heuristic |TC| ≈ E · avg-path-length; we use E · log2(E).
        // A seed keeps the share of that its selectivity over the unseeded
        // closure predicts, so σ(Closure) and Closure{seed} estimate alike.
        LogicalPlan::Closure { input, seed } => {
            let e = estimate_rows(input, stats).max(1.0);
            let tc = e * e.log2().max(1.0);
            match seed {
                None => tc,
                Some(p) => {
                    let unseeded = LogicalPlan::Closure {
                        input: input.clone(),
                        seed: None,
                    };
                    tc * predicate_selectivity(p, &unseeded, stats)
                }
            }
        }
        LogicalPlan::Fixpoint { base, step, .. } => {
            let b = estimate_rows(base, stats).max(1.0);
            let s = estimate_rows(step, stats).max(1.0);
            (b + s) * b.log2().max(1.0)
        }
    }
}

/// Distinct values flowing out of `plan`'s column `col` (best effort:
/// precise for scans with stats, damped defaults elsewhere).
fn column_distinct(plan: &LogicalPlan, col: usize, stats: &dyn StatsSource) -> f64 {
    match plan {
        LogicalPlan::Scan { relation, .. } => stats
            .table_stats(relation)
            .map(|s| s.distinct_of(col))
            .unwrap_or(DEFAULT_ROWS / 10.0),
        LogicalPlan::Select { input, .. } => column_distinct(input, col, stats) * 0.5,
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col) {
            Some(ScalarExpr::Col(i)) => column_distinct(input, *i, stats),
            _ => estimate_rows(plan, stats) / 10.0,
        },
        LogicalPlan::Join { left, right, .. } => {
            let larity = left
                .output_schema()
                .map(|s| s.arity())
                .unwrap_or(usize::MAX);
            if col < larity {
                column_distinct(left, col, stats)
            } else {
                column_distinct(right, col - larity, stats)
            }
        }
        _ => (estimate_rows(plan, stats) / 10.0).max(1.0),
    }
}

/// Selectivity of a predicate over `input`'s output.
pub fn predicate_selectivity(
    pred: &ScalarExpr,
    input: &LogicalPlan,
    stats: &dyn StatsSource,
) -> f64 {
    match pred {
        ScalarExpr::Lit(v) => {
            if v.as_bool() == Some(true) {
                1.0
            } else {
                0.0
            }
        }
        ScalarExpr::And(l, r) => {
            predicate_selectivity(l, input, stats) * predicate_selectivity(r, input, stats)
        }
        ScalarExpr::Or(l, r) => {
            let a = predicate_selectivity(l, input, stats);
            let b = predicate_selectivity(r, input, stats);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        ScalarExpr::Not(e) => 1.0 - predicate_selectivity(e, input, stats),
        ScalarExpr::Cmp(op, l, r) => {
            // `col <op> literal` in either orientation; the operator
            // flips with the operands.
            let col_lit = match (l.as_ref(), r.as_ref()) {
                (ScalarExpr::Col(i), ScalarExpr::Lit(v)) => Some((*i, v, *op)),
                (ScalarExpr::Lit(v), ScalarExpr::Col(i)) => Some((*i, v, op.flip())),
                _ => None,
            };
            match col_lit {
                Some((i, v, CmpOp::Eq)) => eq_selectivity(input, i, v, stats),
                Some((i, v, CmpOp::Ne)) => 1.0 - eq_selectivity(input, i, v, stats),
                Some((i, v, op @ (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge))) => {
                    range_selectivity(input, i, v, op, stats).unwrap_or(RANGE_SEL)
                }
                None if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) => {
                    RANGE_SEL
                }
                _ => DEFAULT_SEL,
            }
        }
        ScalarExpr::IsNull(_) => 0.1,
        _ => DEFAULT_SEL,
    }
}

/// Trace `plan`'s output column `col` back to a base-relation column:
/// `Some((relation, column))` when the column flows unchanged through
/// Select/Project/Join operators from a scan — the shape under which
/// table-level histograms and most-common values describe the column's
/// distribution.
pub(crate) fn base_column(plan: &LogicalPlan, col: usize) -> Option<(&str, usize)> {
    match plan {
        LogicalPlan::Scan { relation, .. } => Some((relation, col)),
        LogicalPlan::Select { input, .. } => base_column(input, col),
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col) {
            Some(ScalarExpr::Col(i)) => base_column(input, *i),
            _ => None,
        },
        LogicalPlan::Join { left, right, .. } => {
            let larity = left.output_schema().map(|s| s.arity()).ok()?;
            if col < larity {
                base_column(left, col)
            } else {
                base_column(right, col - larity)
            }
        }
        _ => None,
    }
}

/// Table-level stats of the base relation behind `plan`'s column `col`,
/// plus the base column ordinal.
fn base_column_stats(
    plan: &LogicalPlan,
    col: usize,
    stats: &dyn StatsSource,
) -> Option<(std::sync::Arc<TableStats>, usize)> {
    let (rel, base_col) = base_column(plan, col)?;
    Some((stats.table_stats(rel)?, base_col))
}

/// Selectivity of `col = v`: exact from the most-common values when `v`
/// is one of them, histogram-bucket estimate otherwise, uniform
/// 1/distinct fallback without a histogram. A literal **outside** every
/// histogram bucket also falls back to 1/distinct rather than 0 — the
/// histogram may simply predate the value (stale stats under an
/// append-heavy workload), and a zero estimate would poison every
/// upstream join estimate.
fn eq_selectivity(input: &LogicalPlan, col: usize, v: &Value, stats: &dyn StatsSource) -> f64 {
    if let Some((ts, base_col)) = base_column_stats(input, col, stats) {
        if ts.rows > 0 {
            if let Some((_, count)) = ts.mcv_of(base_col).iter().find(|(mv, _)| mv == v) {
                return (*count as f64 / ts.rows as f64).clamp(0.0, 1.0);
            }
            if let Some(sel) = ts.hist_of(base_col).and_then(|h| h.selectivity_eq(v)) {
                // Not a known heavy hitter: the containing bucket's
                // average-value mass.
                return sel.clamp(0.0, 1.0);
            }
        }
    }
    1.0 / column_distinct(input, col, stats).max(1.0)
}

/// Histogram-integrated selectivity of a range comparison; `None` when
/// no histogram describes the column (caller falls back to the uniform
/// [`RANGE_SEL`]).
fn range_selectivity(
    input: &LogicalPlan,
    col: usize,
    v: &Value,
    op: CmpOp,
    stats: &dyn StatsSource,
) -> Option<f64> {
    let (ts, base_col) = base_column_stats(input, col, stats)?;
    let h = ts.hist_of(base_col)?;
    let sel = match op {
        CmpOp::Lt => h.fraction_below(v, false),
        CmpOp::Le => h.fraction_below(v, true),
        CmpOp::Gt => 1.0 - h.fraction_below(v, true),
        CmpOp::Ge => 1.0 - h.fraction_below(v, false),
        _ => return None,
    };
    Some(sel.clamp(0.0, 1.0))
}

/// Convenience: full stats for a scan, if available.
pub fn scan_stats(plan: &LogicalPlan, stats: &dyn StatsSource) -> Option<std::sync::Arc<TableStats>> {
    if let LogicalPlan::Scan { relation, .. } = plan {
        stats.table_stats(relation)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{NoStats, TableStats};
    use prisma_types::{Column, DataType, Schema};
    use std::collections::HashMap;

    fn schema2() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ])
    }

    fn stats() -> HashMap<String, TableStats> {
        let mut m = HashMap::new();
        m.insert(
            "t".to_owned(),
            TableStats {
                rows: 1000,
                distinct: vec![1000, 10],
                min: vec![None, None],
                max: vec![None, None],
                ..TableStats::default()
            },
        );
        m.insert(
            "u".to_owned(),
            TableStats {
                rows: 100,
                distinct: vec![100, 100],
                min: vec![None, None],
                max: vec![None, None],
                ..TableStats::default()
            },
        );
        m
    }

    #[test]
    fn equality_selectivity_uses_distinct() {
        let s = stats();
        let scan = LogicalPlan::scan("t", schema2());
        let eq_pk = scan
            .clone()
            .select(ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(5)));
        let eq_lowcard = scan
            .clone()
            .select(ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(5)));
        assert!((estimate_rows(&eq_pk, &s) - 1.0).abs() < 1e-9);
        assert!((estimate_rows(&eq_lowcard, &s) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_divides_by_max_distinct() {
        let s = stats();
        let j = LogicalPlan::scan("t", schema2())
            .join(LogicalPlan::scan("u", schema2()), vec![(0, 0)]);
        // 1000*100/max(1000,100) = 100
        assert!((estimate_rows(&j, &s) - 100.0).abs() < 1e-9);
        // Cross join multiplies.
        let x = LogicalPlan::scan("t", schema2()).join(LogicalPlan::scan("u", schema2()), vec![]);
        assert!((estimate_rows(&x, &s) - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn fallbacks_without_stats() {
        let scan = LogicalPlan::scan("mystery", schema2());
        assert!(estimate_rows(&scan, &NoStats) > 0.0);
        let sel = scan.select(ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(0),
            ScalarExpr::lit(3),
        ));
        let est = estimate_rows(&sel, &NoStats);
        assert!(est > 0.0 && est < DEFAULT_ROWS);
    }

    #[test]
    fn eq_outside_histogram_falls_back_to_distinct_not_zero() {
        use prisma_types::Histogram;
        // Histogram covers 0..=99; the probe literal 500 postdates it
        // (e.g. appended after the last refresh). The estimate must fall
        // back to 1/distinct, never to 0 (which would poison joins).
        let counts: std::collections::BTreeMap<prisma_types::Value, u64> =
            (0..100).map(|i| (prisma_types::Value::Int(i), 1)).collect();
        let mut ts = TableStats {
            rows: 100,
            distinct: vec![100, 10],
            min: vec![None, None],
            max: vec![None, None],
            ..TableStats::default()
        };
        ts.hist = vec![Histogram::equi_depth(counts.iter(), 8), None];
        let mut s = HashMap::new();
        s.insert("t".to_owned(), ts);
        let probe = LogicalPlan::scan("t", schema2())
            .select(ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(500)));
        let est = estimate_rows(&probe, &s);
        assert!((est - 1.0).abs() < 1e-9, "1/distinct fallback: {est}");
        // An in-range literal still uses the histogram.
        let probe = LogicalPlan::scan("t", schema2())
            .select(ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(50)));
        assert!(estimate_rows(&probe, &s) > 0.0);
    }

    #[test]
    fn seeded_closure_estimates_like_the_selection_it_replaces() {
        let s = stats();
        let edges = || Box::new(LogicalPlan::scan("u", schema2()));
        for seed in [
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(5)),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(5)),
        ] {
            let selected = LogicalPlan::Closure {
                input: edges(),
                seed: None,
            }
            .select(seed.clone());
            let seeded = LogicalPlan::Closure {
                input: edges(),
                seed: Some(seed),
            };
            let (a, b) = (estimate_rows(&selected, &s), estimate_rows(&seeded, &s));
            assert!(
                (a - b).abs() < 1e-9,
                "σ(Closure) {a} vs Closure{{seed}} {b}"
            );
            let full = estimate_rows(
                &LogicalPlan::Closure {
                    input: edges(),
                    seed: None,
                },
                &s,
            );
            assert!(b < full);
        }
    }

    #[test]
    fn limit_caps_estimate() {
        let s = stats();
        let p = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::scan("t", schema2())),
            n: 7,
        };
        assert_eq!(estimate_rows(&p, &s), 7.0);
    }

    #[test]
    fn aggregate_group_estimate() {
        let s = stats();
        let p = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("t", schema2())),
            group_by: vec![1],
            aggs: vec![],
        };
        assert!((estimate_rows(&p, &s) - 10.0).abs() < 1e-9);
        let global = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("t", schema2())),
            group_by: vec![],
            aggs: vec![],
        };
        assert_eq!(estimate_rows(&global, &s), 1.0);
    }
}
