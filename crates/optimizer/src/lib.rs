//! # prisma-optimizer
//!
//! The **knowledge-based query optimizer** of the Global Data Handler
//! (paper §2.4):
//!
//! > "A knowledge-based approach to query optimization is chosen to
//! > exploit all this parallelism in a coherent way. The knowledge base
//! > contains rules concerning logical transformations, estimating sizes
//! > of intermediate results, detection of common subexpressions, and
//! > applying parallelism to minimize response time."
//!
//! The four rule families map onto modules:
//!
//! * **logical transformations** — [`fold`] (constant folding),
//!   [`pushdown`] (join-key extraction + selection pushdown),
//!   [`join_order`] (greedy cardinality-driven join ordering), [`prune`]
//!   (column pruning, which minimizes inter-PE shipping);
//! * **size estimation** — [`stats`] and [`cardinality`];
//! * **common-subexpression detection** — at the cut: the [`physical`]
//!   lowering states every data movement as an exchange node, and the
//!   distributed executor in `prisma-gdh` runs equal `Gather` subtrees
//!   of one plan once, so a shared subquery is fetched once;
//! * **parallelism allocation** — the [`physical`] lowering pass turns
//!   the optimized logical plan into a physical operator tree, placing
//!   `Gather`/`Broadcast`/`Shuffle` exchanges, choosing broadcast vs.
//!   hash-partitioned join distribution from the cardinality estimates,
//!   and fusing projections into scans; the executor in `prisma-gdh`
//!   runs that plan, cutting it at the exchanges.
//!
//! Every rule firing is recorded in an explain [`Trace`], and each rule
//! family can be disabled via [`OptimizerConfig`]:
//! `optimizer_ablations_agree_on_results` (`tests/full_stack.rs`) checks
//! that switching them all off leaves results unchanged, and
//! `machine_projected_join_equals_unoptimized_oracle`
//! (`tests/properties.rs`) runs with join ordering off.

pub mod cardinality;
pub mod fold;
pub mod join_order;
pub mod physical;
pub mod prune;
pub mod pushdown;
pub mod stats;

use prisma_relalg::LogicalPlan;
use prisma_types::Result;

pub use cardinality::estimate_rows;
pub use physical::{lower_physical, op_label, PhysicalConfig};
pub use stats::{StatsSource, TableStats};

/// Which rule families run (all on by default; the ablation tests toggle them).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Constant folding and trivial-selection elimination.
    pub fold: bool,
    /// Join-key extraction and selection pushdown.
    pub pushdown: bool,
    /// Cardinality-driven join reordering.
    pub join_order: bool,
    /// Column pruning.
    pub prune: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            fold: true,
            pushdown: true,
            join_order: true,
            prune: true,
        }
    }
}

impl OptimizerConfig {
    /// Everything off — the naive planner output runs as-is.
    pub fn disabled() -> Self {
        OptimizerConfig {
            fold: false,
            pushdown: false,
            join_order: false,
            prune: false,
        }
    }
}

/// Explain trace: which rules fired, and the estimates that drove them.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Human-readable rule firings in order.
    pub fired: Vec<String>,
    enabled: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            fired: Vec::new(),
            enabled: true,
        }
    }
}

impl Trace {
    /// A trace that records nothing — for hot paths (the executor
    /// lowers every shipped subplan) where nobody reads the firings and
    /// the per-operator cardinality walk would be pure overhead.
    pub fn sink() -> Trace {
        Trace {
            fired: Vec::new(),
            enabled: false,
        }
    }

    /// Whether this trace records firings (false for [`Trace::sink`]).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn note(&mut self, rule: &str, detail: impl std::fmt::Display) {
        if self.enabled {
            self.fired.push(format!("{rule}: {detail}"));
        }
    }

    /// Number of firings of a given rule family (prefix match).
    pub fn count_of(&self, rule: &str) -> usize {
        self.fired.iter().filter(|f| f.starts_with(rule)).count()
    }
}

/// The optimizer: a rule base applied to logical plans.
pub struct Optimizer<'a> {
    config: OptimizerConfig,
    stats: &'a dyn StatsSource,
}

impl<'a> Optimizer<'a> {
    /// Optimizer over a statistics source (the GDH data dictionary).
    pub fn new(stats: &'a dyn StatsSource) -> Self {
        Optimizer {
            config: OptimizerConfig::default(),
            stats,
        }
    }

    /// Override the rule configuration.
    pub fn with_config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Optimize a plan, returning the rewritten plan and the explain
    /// trace. The output is always semantically equivalent to the input
    /// (tests verify by evaluation).
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<(LogicalPlan, Trace)> {
        let mut trace = Trace::default();
        let mut plan = plan.clone();
        if self.config.fold {
            plan = fold::fold_constants(plan, &mut trace);
        }
        if self.config.pushdown {
            // Key extraction enables join ordering; pushdown before and
            // after ordering (ordering can expose new pushdown sites).
            plan = pushdown::extract_join_keys(plan, &mut trace);
            plan = pushdown::push_selections(plan, &mut trace);
        }
        if self.config.join_order {
            plan = join_order::reorder_joins(plan, self.stats, &mut trace)?;
            if self.config.pushdown {
                plan = pushdown::extract_join_keys(plan, &mut trace);
                plan = pushdown::push_selections(plan, &mut trace);
            }
        }
        if self.config.prune {
            plan = prune::prune_columns(plan, &mut trace)?;
        }
        plan.validate()?;
        Ok((plan, trace))
    }

    /// Estimated output rows of a plan (size-estimation rule family).
    pub fn estimate(&self, plan: &LogicalPlan) -> f64 {
        cardinality::estimate_rows(plan, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_relalg::eval;
    use prisma_relalg::Relation;
    use prisma_storage::expr::{CmpOp, ScalarExpr};
    use prisma_types::{tuple, Column, DataType, Schema};
    use std::collections::HashMap;

    fn db() -> HashMap<String, Relation> {
        let big = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("k", DataType::Int),
        ]);
        let small = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("tag", DataType::Str),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "big".to_owned(),
            Relation::new(
                big,
                (0..200).map(|i| tuple![i, i % 10]).collect(),
            ),
        );
        db.insert(
            "small".to_owned(),
            Relation::new(
                small,
                (0..10).map(|i| tuple![i, format!("t{i}")]).collect(),
            ),
        );
        db
    }

    fn stats_of(db: &HashMap<String, Relation>) -> HashMap<String, TableStats> {
        db.iter()
            .map(|(k, v)| (k.clone(), TableStats::from_relation(v)))
            .collect()
    }

    #[test]
    fn optimization_preserves_semantics_on_cross_join_query() {
        let db = db();
        let stats = stats_of(&db);
        // Naive planner shape: Select over cross join.
        let plan = LogicalPlan::scan("big", db["big"].schema().clone().qualify("b"))
            .join(
                LogicalPlan::scan("small", db["small"].schema().clone().qualify("s")),
                vec![],
            )
            .select(ScalarExpr::and(
                ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(2)),
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(50)),
            ));
        let opt = Optimizer::new(&stats);
        let (optimized, trace) = opt.optimize(&plan).unwrap();
        let before = eval(&plan, &db).unwrap().canonicalized();
        let after = eval(&optimized, &db).unwrap().canonicalized();
        assert_eq!(before, after);
        assert!(trace.count_of("extract-join-keys") > 0, "{:?}", trace.fired);
    }

    #[test]
    fn disabled_config_is_identity() {
        let db = db();
        let stats = stats_of(&db);
        let plan = LogicalPlan::scan("big", db["big"].schema().clone())
            .select(ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(3)));
        let opt = Optimizer::new(&stats).with_config(OptimizerConfig::disabled());
        let (optimized, trace) = opt.optimize(&plan).unwrap();
        assert_eq!(optimized, plan);
        assert!(trace.fired.is_empty());
    }
}
