//! Common-subexpression detection (paper §2.4's third rule family).
//!
//! The optimizer reports structurally identical non-trivial subplans; the
//! distributed executor memoizes them so a shared subquery (e.g. the same
//! filtered scan appearing in both branches of a UNION or a self-join)
//! executes once and its result is reused. Detection is by structural
//! equality on the canonical `Display` form of the subtree.

use std::collections::HashMap;

use prisma_relalg::LogicalPlan;

/// A detected common subexpression.
#[derive(Debug, Clone)]
pub struct CommonSubexpr {
    /// Canonical key (also used by the executor's memo table).
    pub key: String,
    /// The shared subplan.
    pub plan: LogicalPlan,
    /// Number of occurrences in the query.
    pub count: usize,
}

/// Canonical memo key of a plan (stable across clones).
pub fn plan_key(plan: &LogicalPlan) -> String {
    // Display includes operator parameters and the full subtree, which is
    // exactly the equality we need; Scan embeds the relation name.
    format!("{plan}")
}

/// Find all non-trivial subplans occurring at least twice.
///
/// "Non-trivial" excludes bare scans and values (re-scanning a base
/// fragment is free — it is already materialized in the OFM's memory) but
/// includes filtered scans, joins, aggregates and closures.
pub fn detect_common_subexpressions(plan: &LogicalPlan) -> Vec<CommonSubexpr> {
    let mut counts: HashMap<String, (LogicalPlan, usize)> = HashMap::new();
    collect(plan, &mut counts);
    let mut out: Vec<CommonSubexpr> = counts
        .into_iter()
        .filter(|(_, (_, c))| *c >= 2)
        .map(|(key, (plan, count))| CommonSubexpr { key, plan, count })
        .collect();
    // Deterministic order: biggest (deepest) first, then key.
    out.sort_by(|a, b| b.key.len().cmp(&a.key.len()).then(a.key.cmp(&b.key)));
    // Drop subexpressions fully contained in a bigger reported one (the
    // executor memoizes the outermost shared node; its insides come free).
    let mut kept: Vec<CommonSubexpr> = Vec::new();
    for c in out {
        if !kept.iter().any(|k| contains_subtree(&k.plan, &c.plan)) {
            kept.push(c);
        }
    }
    kept
}

/// True when `needle` occurs as a (strict or equal) subtree of `hay`.
fn contains_subtree(hay: &LogicalPlan, needle: &LogicalPlan) -> bool {
    hay == needle || hay.children().iter().any(|c| contains_subtree(c, needle))
}

fn collect(plan: &LogicalPlan, counts: &mut HashMap<String, (LogicalPlan, usize)>) {
    if !matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) {
        let key = plan_key(plan);
        counts
            .entry(key)
            .and_modify(|(_, c)| *c += 1)
            .or_insert_with(|| (plan.clone(), 1));
    }
    for c in plan.children() {
        collect(c, counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_storage::expr::{CmpOp, ScalarExpr};
    use prisma_types::{Column, DataType, Schema};

    fn filtered_scan() -> LogicalPlan {
        LogicalPlan::scan(
            "t",
            Schema::new(vec![Column::new("a", DataType::Int)]),
        )
        .select(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(0),
            ScalarExpr::lit(5),
        ))
    }

    #[test]
    fn detects_shared_branch_of_union() {
        let shared = filtered_scan();
        let plan = LogicalPlan::Union {
            left: Box::new(shared.clone()),
            right: Box::new(shared.clone()),
            all: true,
        };
        let cse = detect_common_subexpressions(&plan);
        assert_eq!(cse.len(), 1);
        assert_eq!(cse[0].count, 2);
        assert_eq!(cse[0].plan, shared);
    }

    #[test]
    fn nested_duplicates_report_outermost_only() {
        let inner = filtered_scan();
        let outer = LogicalPlan::Distinct {
            input: Box::new(inner.clone()),
        };
        let plan = LogicalPlan::Union {
            left: Box::new(outer.clone()),
            right: Box::new(outer.clone()),
            all: true,
        };
        let cse = detect_common_subexpressions(&plan);
        assert_eq!(cse.len(), 1, "{cse:?}");
        assert_eq!(cse[0].plan, outer);
    }

    #[test]
    fn bare_scans_not_reported() {
        let scan = LogicalPlan::scan(
            "t",
            Schema::new(vec![Column::new("a", DataType::Int)]),
        );
        let plan = scan.clone().join(scan, vec![(0, 0)]);
        assert!(detect_common_subexpressions(&plan).is_empty());
    }

    #[test]
    fn distinct_subplans_not_confused() {
        let a = filtered_scan();
        let b = LogicalPlan::scan(
            "t",
            Schema::new(vec![Column::new("a", DataType::Int)]),
        )
        .select(ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(0),
            ScalarExpr::lit(5),
        ));
        let plan = LogicalPlan::Union {
            left: Box::new(a),
            right: Box::new(b),
            all: true,
        };
        assert!(detect_common_subexpressions(&plan).is_empty());
    }

    #[test]
    fn closures_with_different_seeds_not_confused() {
        let edge = Schema::new(vec![
            Column::new("src", DataType::Int),
            Column::new("dst", DataType::Int),
        ]);
        let seeded = |v: i64| LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("e", edge.clone())),
            seed: Some(ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(v))),
        };
        let plan = LogicalPlan::Union {
            left: Box::new(seeded(1)),
            right: Box::new(seeded(2)),
            all: true,
        };
        assert!(detect_common_subexpressions(&plan).is_empty());
    }
}
