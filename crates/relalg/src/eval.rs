//! Reference evaluator for logical plans.
//!
//! This evaluator is the single-node *semantics oracle* of the algebra:
//! the batch executor in [`crate::exec`] — which the OFMs and the
//! distributed executor in `prisma-gdh` actually run — must produce the
//! same result as evaluating the plan here against the union of all
//! fragments (tests enforce this). Keep it simple and obviously correct;
//! performance work belongs in the physical pipeline.
//!
//! Scalar expressions run through the tree-walking interpreter
//! ([`ScalarExpr::eval`] / [`ScalarExpr::eval_predicate`]), never through
//! the kernels the executor runs, so a kernel bug cannot hide behind the
//! oracle. An arithmetic fault on any row the plan shows an expression is
//! the plan's error.

use prisma_storage::expr::ScalarExpr;
use prisma_storage::{FastMap, FastSet};
use prisma_types::{PrismaError, Result, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

use crate::agg::Accumulator;
use crate::plan::{JoinKind, LogicalPlan};
use crate::table::Relation;

/// Source of named base relations.
///
/// Returns `Arc<Relation>` so providers backed by shared storage (OFM
/// fragments, executor memos, fixpoint bindings) hand out references
/// instead of deep-copying the relation on every lookup.
pub trait RelationProvider {
    /// Materialize (or reference) the relation called `name`.
    fn relation(&self, name: &str) -> Result<Arc<Relation>>;

    /// The two-tier (sealed chunks + delta) form of `name`, when the
    /// provider stores it that way. `None` (the default) routes the scan
    /// through [`RelationProvider::relation`]'s row path; a `Some` must
    /// hold exactly the same tuples `relation(name)` would return.
    fn chunked(&self, _name: &str) -> Option<Arc<crate::table::ChunkedRelation>> {
        None
    }
}

impl RelationProvider for HashMap<String, Relation> {
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.get(name)
            .map(|r| Arc::new(r.clone()))
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }
}

/// Zero-copy provider: maps that already hold `Arc`s share them directly.
impl RelationProvider for HashMap<String, Arc<Relation>> {
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.get(name)
            .map(Arc::clone)
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }
}

/// Provider over column-form intermediates: scans read the chunks and
/// batches as they are, anything else reads the materialized rows.
impl RelationProvider for HashMap<String, Arc<crate::table::ChunkedRelation>> {
    fn relation(&self, name: &str) -> Result<Arc<Relation>> {
        self.get(name)
            .map(|ch| Arc::new(ch.materialize()))
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }

    fn chunked(&self, name: &str) -> Option<Arc<crate::table::ChunkedRelation>> {
        self.get(name).map(Arc::clone)
    }
}

/// Evaluation context: a provider plus transient bindings (fixpoint
/// accumulators and deltas shadow base relations by name). Bindings are
/// `Arc`-shared, so binding the accumulator each iteration costs a
/// refcount bump, not a copy of the accumulated relation.
pub struct EvalContext<'a> {
    provider: &'a dyn RelationProvider,
    bindings: HashMap<String, Arc<Relation>>,
    /// Iteration guard for runaway fixpoints.
    max_fixpoint_iterations: usize,
}

impl<'a> EvalContext<'a> {
    /// Context over a provider.
    pub fn new(provider: &'a dyn RelationProvider) -> Self {
        EvalContext {
            provider,
            bindings: HashMap::new(),
            max_fixpoint_iterations: 1_000_000,
        }
    }

    /// Resolve a scan name: fixpoint bindings shadow the provider. Shared
    /// by this evaluator and the batch executor in [`crate::exec`], so the
    /// shadowing contract cannot diverge between oracle and executor.
    pub(crate) fn lookup(&self, name: &str) -> Result<Arc<Relation>> {
        if let Some(r) = self.bindings.get(name) {
            Ok(Arc::clone(r))
        } else {
            self.provider.relation(name)
        }
    }

    /// Resolve a scan name to its two-tier form, when the provider has
    /// one. Bindings (fixpoint accumulators/deltas) are plain relations
    /// and *shadow* the provider, so a bound name never resolves chunked.
    pub(crate) fn lookup_chunked(
        &self,
        name: &str,
    ) -> Option<Arc<crate::table::ChunkedRelation>> {
        if self.bindings.contains_key(name) {
            return None;
        }
        self.provider.chunked(name)
    }

    pub(crate) fn bind(&mut self, name: String, rel: Arc<Relation>) {
        self.bindings.insert(name, rel);
    }

    pub(crate) fn unbind(&mut self, name: &str) {
        self.bindings.remove(name);
    }

    pub(crate) fn max_fixpoint_iterations(&self) -> usize {
        self.max_fixpoint_iterations
    }
}

/// Evaluate `plan` against `provider`.
pub fn eval(plan: &LogicalPlan, provider: &dyn RelationProvider) -> Result<Relation> {
    let mut ctx = EvalContext::new(provider);
    let rel = eval_ctx(plan, &mut ctx)?;
    Ok(Arc::unwrap_or_clone(rel))
}

fn eval_ctx(plan: &LogicalPlan, ctx: &mut EvalContext<'_>) -> Result<Arc<Relation>> {
    Ok(match plan {
        LogicalPlan::Scan { relation, .. } => ctx.lookup(relation)?,
        LogicalPlan::Values { schema, rows } => {
            Arc::new(Relation::new(schema.clone(), rows.clone()))
        }
        LogicalPlan::Select { input, predicate } => {
            Arc::new(select(&*eval_ctx(input, ctx)?, predicate)?)
        }
        LogicalPlan::Project { input, exprs, schema } => {
            let rel = eval_ctx(input, ctx)?;
            let tuples = rel
                .tuples()
                .iter()
                .map(|t| {
                    Ok(Tuple::new(
                        exprs.iter().map(|e| e.eval(t)).collect::<Result<_>>()?,
                    ))
                })
                .collect::<Result<_>>()?;
            Arc::new(Relation::new(schema.clone(), tuples))
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            let l = eval_ctx(left, ctx)?;
            let r = eval_ctx(right, ctx)?;
            Arc::new(join(&l, &r, *kind, on, residual.as_ref())?)
        }
        LogicalPlan::Union { left, right, all } => {
            let l = eval_ctx(left, ctx)?;
            let r = eval_ctx(right, ctx)?;
            let mut tuples = l.tuples().to_vec();
            tuples.extend(r.tuples().iter().cloned());
            let rel = Relation::new(l.schema().clone(), tuples);
            Arc::new(if *all { rel } else { rel.distinct() })
        }
        LogicalPlan::Difference { left, right } => {
            let l = eval_ctx(left, ctx)?;
            let r = eval_ctx(right, ctx)?;
            let exclude: FastSet<&Tuple> = r.tuples().iter().collect();
            let mut seen = FastSet::default();
            Arc::new(Relation::new(
                l.schema().clone(),
                l.tuples()
                    .iter()
                    .filter(|t| !exclude.contains(t) && seen.insert((*t).clone()))
                    .cloned()
                    .collect(),
            ))
        }
        LogicalPlan::Distinct { input } => {
            let rel = eval_ctx(input, ctx)?;
            Arc::new(Relation::new(rel.schema().clone(), rel.tuples().to_vec()).distinct())
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rel = eval_ctx(input, ctx)?;
            Arc::new(aggregate(&rel, group_by, aggs, plan)?)
        }
        LogicalPlan::Sort { input, keys } => {
            let rel = eval_ctx(input, ctx)?;
            Arc::new(Relation::new(rel.schema().clone(), rel.tuples().to_vec()).sorted_by(keys))
        }
        LogicalPlan::Limit { input, n } => {
            let rel = eval_ctx(input, ctx)?;
            Arc::new(Relation::new(
                rel.schema().clone(),
                rel.tuples().iter().take(*n).cloned().collect(),
            ))
        }
        // The definition, σ_seed(TC(input)): the whole closure, then the
        // seed as a plain selection. The executor seeds the recursion
        // instead; this is what it must agree with.
        LogicalPlan::Closure { input, seed } => {
            let rel = eval_ctx(input, ctx)?;
            let tc = transitive_closure(&rel)?;
            Arc::new(match seed {
                None => tc,
                Some(p) => select(&tc, p)?,
            })
        }
        LogicalPlan::Fixpoint { name, base, step } => {
            let rel = eval_ctx(base, ctx)?;
            let base_rel =
                Relation::new(rel.schema().clone(), rel.tuples().to_vec()).distinct();
            Arc::new(fixpoint(name, base_rel, step, ctx)?)
        }
    })
}

/// The rows of `rel` that `predicate` keeps.
fn select(rel: &Relation, predicate: &ScalarExpr) -> Result<Relation> {
    let mut kept = Vec::new();
    for t in rel.tuples() {
        if predicate.eval_predicate(t)? {
            kept.push(t.clone());
        }
    }
    Ok(Relation::new(rel.schema().clone(), kept))
}

/// The residual runs over every candidate pair — a semi or anti join does
/// not stop at a row's first match — so its faults do not depend on the
/// order of the candidates.
fn join(
    l: &Relation,
    r: &Relation,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<&ScalarExpr>,
) -> Result<Relation> {
    let out_schema = match kind {
        JoinKind::Inner => l.schema().join(r.schema()),
        JoinKind::Semi | JoinKind::Anti => l.schema().clone(),
    };
    let mut out = Vec::new();
    // Joins `lt` with each of its candidates under the residual.
    let mut probe = |lt: &Tuple, candidates: &mut dyn Iterator<Item = &Tuple>| -> Result<()> {
        let mut matched = false;
        for rt in candidates {
            let joined = lt.concat(rt);
            if residual.map_or(Ok(true), |p| p.eval_predicate(&joined))? {
                matched = true;
                if kind == JoinKind::Inner {
                    out.push(joined);
                }
            }
        }
        match kind {
            JoinKind::Semi if matched => out.push(lt.clone()),
            JoinKind::Anti if !matched => out.push(lt.clone()),
            _ => {}
        }
        Ok(())
    };

    if on.is_empty() {
        // Pure theta join: nested loops.
        for lt in l.tuples() {
            probe(lt, &mut r.tuples().iter())?;
        }
        return Ok(Relation::new(out_schema, out));
    }

    // Hash join: build on the right side.
    let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let lkeys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let mut table: FastMap<Vec<Value>, Vec<&Tuple>> = FastMap::default();
    for rt in r.tuples() {
        let key = rt.key(&rkeys);
        // SQL equi-join never matches NULL keys.
        if key.iter().any(Value::is_null) {
            continue;
        }
        table.entry(key).or_default().push(rt);
    }
    for lt in l.tuples() {
        let key = lt.key(&lkeys);
        let candidates = if key.iter().any(Value::is_null) {
            &[][..]
        } else {
            table.get(&key).map(Vec::as_slice).unwrap_or(&[])
        };
        probe(lt, &mut candidates.iter().copied())?;
    }
    Ok(Relation::new(out_schema, out))
}

fn aggregate(
    rel: &Relation,
    group_by: &[usize],
    aggs: &[crate::agg::AggExpr],
    plan: &LogicalPlan,
) -> Result<Relation> {
    let out_schema = plan.output_schema()?;
    let mut groups: FastMap<Vec<Value>, Vec<Accumulator>> = FastMap::default();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for t in rel.tuples() {
        let key = t.key(group_by);
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            aggs.iter().map(|a| Accumulator::new(a.func)).collect()
        });
        for (acc, a) in accs.iter_mut().zip(aggs) {
            let v = if a.func == crate::agg::AggFunc::CountStar {
                Value::Bool(true) // placeholder; CountStar counts rows
            } else {
                t.get(a.col).clone()
            };
            acc.update(&v)?;
        }
    }
    // Global aggregate over empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        let row: Vec<Value> = aggs
            .iter()
            .map(|a| Accumulator::new(a.func).finish())
            .collect();
        return Ok(Relation::new(out_schema, vec![Tuple::new(row)]));
    }
    let mut tuples = Vec::with_capacity(groups.len());
    for key in order {
        let accs = &groups[&key];
        let mut row = key;
        row.extend(accs.iter().map(Accumulator::finish));
        tuples.push(Tuple::new(row));
    }
    Ok(Relation::new(out_schema, tuples))
}

/// Semi-naive transitive closure of a binary relation — the oracle of the
/// OFM operator. A path never continues through a NULL node: NULL has no
/// successors, as an equi-join never matches a NULL key.
pub fn transitive_closure(rel: &Relation) -> Result<Relation> {
    if rel.schema().arity() != 2 {
        return Err(PrismaError::Execution(format!(
            "closure over arity-{} relation",
            rel.schema().arity()
        )));
    }
    let schema = rel.schema().clone();
    let adj = adjacency(rel);
    let mut all: FastSet<(Value, Value)> = FastSet::default();
    let mut delta: Vec<(Value, Value)> = Vec::new();
    for t in rel.tuples() {
        let pair = (t.get(0).clone(), t.get(1).clone());
        if all.insert(pair.clone()) {
            delta.push(pair);
        }
    }
    let mut out: Vec<Tuple> = delta
        .iter()
        .map(|(a, b)| Tuple::new(vec![a.clone(), b.clone()]))
        .collect();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for (a, b) in &delta {
            if let Some(succs) = adj.get(b) {
                for c in succs {
                    let pair = (a.clone(), c.clone());
                    if all.insert(pair.clone()) {
                        out.push(Tuple::new(vec![pair.0.clone(), pair.1.clone()]));
                        next.push(pair);
                    }
                }
            }
        }
        delta = next;
    }
    Ok(Relation::new(schema, out))
}

/// Successors of every non-NULL source node.
fn adjacency(rel: &Relation) -> FastMap<Value, Vec<Value>> {
    let mut adj: FastMap<Value, Vec<Value>> = FastMap::default();
    for t in rel.tuples().iter().filter(|t| !t.get(0).is_null()) {
        adj.entry(t.get(0).clone())
            .or_default()
            .push(t.get(1).clone());
    }
    adj
}

/// Naive-iteration transitive closure (whole relation re-joined each round)
/// — the second oracle the semi-naive closure is tested against.
pub fn transitive_closure_naive(rel: &Relation) -> Result<Relation> {
    if rel.schema().arity() != 2 {
        return Err(PrismaError::Execution(format!(
            "closure over arity-{} relation",
            rel.schema().arity()
        )));
    }
    let schema = rel.schema().clone();
    let adj = adjacency(rel);
    let mut all: FastSet<(Value, Value)> = rel
        .tuples()
        .iter()
        .map(|t| (t.get(0).clone(), t.get(1).clone()))
        .collect();
    loop {
        // Join the FULL accumulated relation with the edges every round.
        let current: Vec<(Value, Value)> = all.iter().cloned().collect();
        let before = all.len();
        for (a, b) in &current {
            if let Some(succs) = adj.get(b) {
                for c in succs {
                    all.insert((a.clone(), c.clone()));
                }
            }
        }
        if all.len() == before {
            break;
        }
    }
    let out = all
        .into_iter()
        .map(|(a, b)| Tuple::new(vec![a, b]))
        .collect();
    Ok(Relation::new(schema, out))
}

fn fixpoint(
    name: &str,
    base: Relation,
    step: &LogicalPlan,
    ctx: &mut EvalContext<'_>,
) -> Result<Relation> {
    let delta_name = format!("Δ{name}");
    let schema = base.schema().clone();
    let mut all_set: FastSet<Tuple> = base.tuples().iter().cloned().collect();
    let mut acc: Vec<Tuple> = base.tuples().to_vec();
    let mut delta = base;
    let mut iterations = 0;
    while !delta.is_empty() {
        iterations += 1;
        if iterations > ctx.max_fixpoint_iterations {
            return Err(PrismaError::Execution(format!(
                "fixpoint {name} exceeded iteration limit"
            )));
        }
        ctx.bindings.insert(
            name.to_owned(),
            Arc::new(Relation::new(schema.clone(), acc.clone())),
        );
        ctx.bindings.insert(delta_name.clone(), Arc::new(delta));
        let produced = eval_ctx(step, ctx)?;
        let mut fresh = Vec::new();
        for t in produced.tuples() {
            if all_set.insert(t.clone()) {
                fresh.push(t.clone());
            }
        }
        acc.extend(fresh.iter().cloned());
        delta = Relation::new(schema.clone(), fresh);
    }
    ctx.bindings.remove(name);
    ctx.bindings.remove(&delta_name);
    Ok(Relation::new(schema, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use prisma_types::Schema;
    use prisma_storage::expr::{CmpOp, ScalarExpr};
    use prisma_types::{tuple, Column, DataType};

    fn db() -> HashMap<String, Relation> {
        let emp = Relation::new(
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Int),
                Column::new("salary", DataType::Double),
            ]),
            vec![
                tuple![1, 10, 100.0],
                tuple![2, 10, 200.0],
                tuple![3, 20, 300.0],
                tuple![4, 30, 150.0],
            ],
        );
        let dept = Relation::new(
            Schema::new(vec![
                Column::new("dept_id", DataType::Int),
                Column::new("name", DataType::Str),
            ]),
            vec![tuple![10, "eng"], tuple![20, "sales"]],
        );
        let edge = Relation::new(
            Schema::new(vec![
                Column::new("src", DataType::Int),
                Column::new("dst", DataType::Int),
            ]),
            vec![tuple![1, 2], tuple![2, 3], tuple![3, 4]],
        );
        let mut m = HashMap::new();
        m.insert("emp".to_owned(), emp);
        m.insert("dept".to_owned(), dept);
        m.insert("edge".to_owned(), edge);
        m
    }

    fn emp_scan(db: &HashMap<String, Relation>) -> LogicalPlan {
        LogicalPlan::scan("emp", db["emp"].schema().clone())
    }

    #[test]
    fn select_and_project() {
        let db = db();
        let plan = emp_scan(&db)
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(2),
                ScalarExpr::lit(150.0),
            ))
            .project_cols(&[0])
            .unwrap();
        let out = eval(&plan, &db).unwrap();
        let ids: Vec<i64> = out.tuples().iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn arc_provider_lookup_is_zero_copy() {
        let db = db();
        let shared: HashMap<String, Arc<Relation>> = db
            .iter()
            .map(|(k, v)| (k.clone(), Arc::new(v.clone())))
            .collect();
        let fetched = shared.relation("emp").unwrap();
        assert!(Arc::ptr_eq(&fetched, &shared["emp"]));
        // And the whole evaluator runs against the Arc map.
        let plan = emp_scan(&db).project_cols(&[0]).unwrap();
        assert_eq!(eval(&plan, &shared).unwrap().len(), 4);
    }

    #[test]
    fn hash_join_inner() {
        let db = db();
        let plan = emp_scan(&db).join(
            LogicalPlan::scan("dept", db["dept"].schema().clone()),
            vec![(1, 0)],
        );
        let out = eval(&plan, &db).unwrap();
        assert_eq!(out.len(), 3); // dept 30 has no match
        assert_eq!(out.schema().arity(), 5);
    }

    #[test]
    fn semi_and_anti_join() {
        let db = db();
        let semi = LogicalPlan::Join {
            left: Box::new(emp_scan(&db)),
            right: Box::new(LogicalPlan::scan("dept", db["dept"].schema().clone())),
            kind: JoinKind::Semi,
            on: vec![(1, 0)],
            residual: None,
        };
        assert_eq!(eval(&semi, &db).unwrap().len(), 3);
        let anti = LogicalPlan::Join {
            left: Box::new(emp_scan(&db)),
            right: Box::new(LogicalPlan::scan("dept", db["dept"].schema().clone())),
            kind: JoinKind::Anti,
            on: vec![(1, 0)],
            residual: None,
        };
        let out = eval(&anti, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].get(0).as_int(), Some(4));
    }

    #[test]
    fn theta_join_with_residual() {
        let db = db();
        // emp join emp on e1.salary < e2.salary (no equi keys).
        let plan = LogicalPlan::Join {
            left: Box::new(emp_scan(&db)),
            right: Box::new(emp_scan(&db)),
            kind: JoinKind::Inner,
            on: vec![],
            residual: Some(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(2),
                ScalarExpr::col(5),
            )),
        };
        let out = eval(&plan, &db).unwrap();
        // pairs with strictly increasing salary: (100,150),(100,200),(100,300),
        // (150,200),(150,300),(200,300) = 6
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn null_keys_never_join() {
        let schema = Schema::new(vec![Column::nullable("k", DataType::Int)]);
        let l = Relation::new(schema.clone(), vec![Tuple::new(vec![Value::Null])]);
        let mut db = HashMap::new();
        db.insert("l".to_owned(), l.clone());
        db.insert("r".to_owned(), l);
        let plan = LogicalPlan::scan("l", schema.clone())
            .join(LogicalPlan::scan("r", schema), vec![(0, 0)]);
        assert_eq!(eval(&plan, &db).unwrap().len(), 0);
    }

    #[test]
    fn union_difference_distinct() {
        let db = db();
        let a = emp_scan(&db).project_cols(&[1]).unwrap();
        let union = LogicalPlan::Union {
            left: Box::new(a.clone()),
            right: Box::new(a.clone()),
            all: false,
        };
        assert_eq!(eval(&union, &db).unwrap().len(), 3); // 10, 20, 30
        let union_all = LogicalPlan::Union {
            left: Box::new(a.clone()),
            right: Box::new(a.clone()),
            all: true,
        };
        assert_eq!(eval(&union_all, &db).unwrap().len(), 8);
        let diff = LogicalPlan::Difference {
            left: Box::new(a.clone()),
            right: Box::new(LogicalPlan::Values {
                schema: eval(&a, &db).unwrap().schema().clone(),
                rows: vec![tuple![10]],
            }),
        };
        let out = eval(&diff, &db).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn aggregate_with_groups() {
        let db = db();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(emp_scan(&db)),
            group_by: vec![1],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Sum, 2, "total"),
            ],
        };
        let out = eval(&plan, &db).unwrap().canonicalized();
        assert_eq!(out.len(), 3);
        // dept 10: n=2, total=300
        assert_eq!(out.tuples()[0], tuple![10, 2, 300.0]);
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let db = db();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(emp_scan(&db).select(ScalarExpr::lit(false))),
            group_by: vec![],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Sum, 2, "s"),
            ],
        };
        let out = eval(&plan, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].get(0), &Value::Int(0));
        assert!(out.tuples()[0].get(1).is_null());
    }

    #[test]
    fn sort_and_limit() {
        let db = db();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(emp_scan(&db)),
                keys: vec![(2, false)],
            }),
            n: 2,
        };
        let out = eval(&plan, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.tuples()[0].get(0).as_int(), Some(3));
    }

    #[test]
    fn closure_of_chain() {
        let db = db();
        let plan = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("edge", db["edge"].schema().clone())),
            seed: None,
        };
        let out = eval(&plan, &db).unwrap();
        // chain 1->2->3->4: pairs = 3+2+1 = 6
        assert_eq!(out.len(), 6);
        let set: FastSet<Tuple> = out.tuples().iter().cloned().collect();
        assert!(set.contains(&tuple![1, 4]));
    }

    #[test]
    fn closure_handles_cycles() {
        let schema = Schema::new(vec![
            Column::new("src", DataType::Int),
            Column::new("dst", DataType::Int),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "g".to_owned(),
            Relation::new(schema.clone(), vec![tuple![1, 2], tuple![2, 1]]),
        );
        let plan = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("g", schema)),
            seed: None,
        };
        let out = eval(&plan, &db).unwrap();
        // {(1,2),(2,1),(1,1),(2,2)}
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn seeded_closure_is_the_selection_of_the_closure() {
        let db = db();
        let edge = || Box::new(LogicalPlan::scan("edge", db["edge"].schema().clone()));
        let seed = ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(0), ScalarExpr::lit(2));
        let seeded = LogicalPlan::Closure {
            input: edge(),
            seed: Some(seed.clone()),
        };
        let selected = LogicalPlan::Closure {
            input: edge(),
            seed: None,
        }
        .select(seed);
        let out = eval(&seeded, &db).unwrap().canonicalized();
        assert_eq!(out, eval(&selected, &db).unwrap().canonicalized());
        // Sources 1 and 2 of the chain 1->2->3->4: 3 + 2 pairs.
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn closure_never_continues_through_null() {
        let schema = Schema::new(vec![
            Column::nullable("src", DataType::Int),
            Column::nullable("dst", DataType::Int),
        ]);
        let edges = Relation::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(0), Value::Null]),
                Tuple::new(vec![Value::Null, Value::Int(5)]),
                tuple![0, 1],
            ],
        );
        // The three edges are paths; no path runs 0 -> NULL -> 5.
        for tc in [transitive_closure(&edges), transitive_closure_naive(&edges)] {
            let tc = tc.unwrap();
            assert_eq!(tc.len(), 3);
            assert!(!tc.tuples().contains(&tuple![0, 5]));
        }
    }

    #[test]
    fn naive_and_seminaive_closure_agree() {
        let db = db();
        let semi = transitive_closure(&db["edge"]).unwrap().canonicalized();
        let naive = transitive_closure_naive(&db["edge"])
            .unwrap()
            .canonicalized();
        assert_eq!(semi, naive);
    }

    #[test]
    fn fixpoint_matches_closure() {
        let db = db();
        let edge_schema = db["edge"].schema().clone();
        // path(x,y) :- edge(x,y).  path(x,y) :- Δpath(x,z), edge(z,y).
        let plan = LogicalPlan::Fixpoint {
            name: "path".into(),
            base: Box::new(LogicalPlan::scan("edge", edge_schema.clone())),
            step: Box::new(
                LogicalPlan::scan("Δpath", edge_schema.clone())
                    .join(LogicalPlan::scan("edge", edge_schema.clone()), vec![(1, 0)])
                    .project_cols(&[0, 3])
                    .unwrap(),
            ),
        };
        let fp = eval(&plan, &db).unwrap().canonicalized();
        let tc = eval(
            &LogicalPlan::Closure {
                input: Box::new(LogicalPlan::scan("edge", edge_schema)),
                seed: None,
            },
            &db,
        )
        .unwrap()
        .canonicalized();
        assert_eq!(fp, tc);
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let db = db();
        let plan = LogicalPlan::scan("ghost", Schema::empty());
        assert!(matches!(
            eval(&plan, &db),
            Err(PrismaError::UnknownRelation(_))
        ));
    }
}
