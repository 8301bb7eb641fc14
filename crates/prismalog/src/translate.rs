//! Translating PRISMAlog to the extended relational algebra.
//!
//! Paper §2.3: "The semantics of PRISMAlog is defined in terms of
//! extensions of the relational algebra. Facts correspond to tuples in
//! relations in the database. Rules are view definitions including
//! recursion." — so each rule becomes a select-project-join expression,
//! each predicate a union of its rules, and a linearly self-recursive
//! predicate one of the two recursive operators:
//!
//! * a **transitive closure** — the only non-recursive rule is
//!   `p(X,Y) :- q(X,Y)` and every recursive rule is `p(X,Y) :- q(X,Z),
//!   p(Z,Y)` (right-linear) or `p(X,Y) :- p(X,Z), q(Z,Y)` (left-linear),
//!   X, Y, Z distinct variables, q one binary predicate outside p's SCC —
//!   becomes [`LogicalPlan::Closure`] over q, the same operator as SQL's
//!   `CLOSURE(q)`. A constant query argument on the source (`?- p(0, X)`)
//!   is then a selection the optimizer moves into the closure's seed;
//! * any other linear self-recursion becomes a [`LogicalPlan::Fixpoint`]
//!   evaluated semi-naively.
//!
//! Mutual recursion and non-linear rules are supported by the direct
//! evaluator ([`crate::seminaive`]) but deliberately not by the algebra
//! translator (the distributed executor runs algebra; the paper's own
//! recursive showcase — transitive closure — is linear). Both follow the
//! equi-join's NULL rule: a NULL join value matches nothing, so no
//! derivation continues through a NULL.

use std::collections::HashMap;

use prisma_relalg::{JoinKind, LogicalPlan};
use prisma_storage::expr::ScalarExpr;
use prisma_types::{Column, PrismaError, Result, Schema, Tuple};

use crate::analyze::{check_program, sccs};
use crate::ast::{Atom, Literal, Program, Rule, Term};

/// Source of EDB relation schemas (the GDH data dictionary in the full
/// machine).
pub trait SchemaSource {
    /// Schema of the EDB relation `name`.
    fn edb_schema(&self, name: &str) -> Result<Schema>;
}

impl SchemaSource for HashMap<String, Schema> {
    fn edb_schema(&self, name: &str) -> Result<Schema> {
        self.get(name)
            .cloned()
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }
}

/// Compile `?- query.` against `program` into a logical plan over the EDB
/// relations.
pub fn compile_query(
    program: &Program,
    query: &Atom,
    source: &dyn SchemaSource,
) -> Result<LogicalPlan> {
    check_program(program)?;
    let mut ctx = Ctx {
        program,
        source,
        sccs: sccs(program),
        cache: HashMap::new(),
        in_progress: HashMap::new(),
    };
    let pred_plan = ctx.predicate_plan(&query.pred)?;
    let schema = pred_plan.output_schema()?;
    if schema.arity() != query.args.len() {
        return Err(PrismaError::ArityMismatch {
            expected: schema.arity(),
            got: query.args.len(),
        });
    }
    // Constant arguments select; repeated variables equate; the output is
    // the distinct query variables in first-occurrence order.
    let mut selections = Vec::new();
    let mut var_first: Vec<(String, usize)> = Vec::new();
    for (i, arg) in query.args.iter().enumerate() {
        match arg {
            Term::Const(v) => selections.push(ScalarExpr::eq(
                ScalarExpr::Col(i),
                ScalarExpr::Lit(v.clone()),
            )),
            Term::Var(x) => {
                if let Some((_, j)) = var_first.iter().find(|(v, _)| v == x) {
                    selections.push(ScalarExpr::eq(ScalarExpr::Col(*j), ScalarExpr::Col(i)));
                } else {
                    var_first.push((x.clone(), i));
                }
            }
        }
    }
    let mut plan = pred_plan;
    if !selections.is_empty() {
        plan = plan.select(ScalarExpr::conjunction(selections));
    }
    let out_cols: Vec<Column> = var_first
        .iter()
        .map(|(v, i)| {
            let src = schema.column(*i).expect("arity checked");
            Column::nullable(v.clone(), src.dtype)
        })
        .collect();
    let plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: var_first.iter().map(|(_, i)| ScalarExpr::Col(*i)).collect(),
        schema: Schema::new(out_cols),
    };
    let plan = LogicalPlan::Distinct {
        input: Box::new(plan),
    };
    plan.validate()?;
    Ok(plan)
}

struct Ctx<'a> {
    program: &'a Program,
    source: &'a dyn SchemaSource,
    sccs: Vec<Vec<String>>,
    cache: HashMap<String, LogicalPlan>,
    /// Recursive predicates currently being compiled: name → schema. Body
    /// occurrences become delta scans.
    in_progress: HashMap<String, Schema>,
}

impl Ctx<'_> {
    fn is_defined(&self, pred: &str) -> bool {
        !self.program.rules_for(pred).is_empty()
    }

    fn scc_of(&self, pred: &str) -> Option<&[String]> {
        self.sccs
            .iter()
            .find(|c| c.iter().any(|p| p == pred))
            .map(Vec::as_slice)
    }

    fn predicate_plan(&mut self, pred: &str) -> Result<LogicalPlan> {
        if let Some(p) = self.cache.get(pred) {
            return Ok(p.clone());
        }
        if let Some(schema) = self.in_progress.get(pred) {
            // Recursive occurrence inside its own fixpoint step: scan the
            // delta (semi-naive; linearity is enforced by rule_plan's
            // caller below).
            return Ok(LogicalPlan::scan(format!("Δ{pred}"), schema.clone()));
        }
        if !self.is_defined(pred) {
            // EDB relation.
            let schema = self.source.edb_schema(pred)?;
            return Ok(LogicalPlan::scan(pred, schema));
        }
        let scc = self
            .scc_of(pred)
            .map(<[String]>::to_vec)
            .unwrap_or_default();
        if scc.len() > 1 {
            return Err(PrismaError::UnsafeRule(format!(
                "predicate {pred} is mutually recursive (SCC {scc:?}); the algebra \
                 translator supports only linear self-recursion — use the semi-naive \
                 evaluator for this program"
            )));
        }
        let rules = self.program.rules_for(pred);
        let is_recursive = rules
            .iter()
            .any(|r| r.body_atoms().any(|a| a.pred == pred));
        let (facts, base_rules, rec_rules) = split_rules(&rules, pred);

        if !is_recursive {
            let mut plan = self.union_of(pred, &facts, &base_rules, None)?;
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
            self.cache.insert(pred.to_owned(), plan.clone());
            return Ok(plan);
        }

        // Linear self-recursion → Fixpoint.
        for r in &rec_rules {
            let occurrences = r.body_atoms().filter(|a| a.pred == pred).count();
            if occurrences != 1 {
                return Err(PrismaError::UnsafeRule(format!(
                    "rule `{r}` has {occurrences} recursive occurrences; only linear \
                     recursion translates to algebra — use the semi-naive evaluator"
                )));
            }
        }
        if facts.is_empty() && base_rules.is_empty() {
            return Err(PrismaError::UnsafeRule(format!(
                "recursive predicate {pred} has no non-recursive rule"
            )));
        }
        if let Some(q) = closure_edges(pred, &facts, &base_rules, &rec_rules) {
            let edges = self.predicate_plan(q)?;
            // An edge relation whose two columns differ in type can never
            // chain; it keeps the Fixpoint route and its errors.
            if matches!(edges.output_schema()?.columns(), [a, b] if a.dtype == b.dtype) {
                let plan = LogicalPlan::Closure {
                    input: Box::new(edges),
                    seed: None,
                };
                self.cache.insert(pred.to_owned(), plan.clone());
                return Ok(plan);
            }
        }
        let base = self.union_of(pred, &facts, &base_rules, None)?;
        let base_schema = base.output_schema()?;
        self.in_progress.insert(pred.to_owned(), base_schema);
        let step_result = (|| {
            let mut step: Option<LogicalPlan> = None;
            for r in &rec_rules {
                let rp = self.rule_plan(r)?;
                step = Some(match step {
                    None => rp,
                    Some(s) => LogicalPlan::Union {
                        left: Box::new(s),
                        right: Box::new(rp),
                        all: false,
                    },
                });
            }
            step.ok_or_else(|| PrismaError::UnsafeRule(format!("{pred}: no recursive rules")))
        })();
        self.in_progress.remove(pred);
        let step = step_result?;
        let plan = LogicalPlan::Fixpoint {
            name: pred.to_owned(),
            base: Box::new(LogicalPlan::Distinct {
                input: Box::new(base),
            }),
            step: Box::new(step),
        };
        self.cache.insert(pred.to_owned(), plan.clone());
        Ok(plan)
    }

    /// Union of fact tuples and rule plans for a predicate.
    fn union_of(
        &mut self,
        pred: &str,
        facts: &[&Rule],
        rules: &[&Rule],
        schema_hint: Option<&Schema>,
    ) -> Result<LogicalPlan> {
        let mut plan: Option<LogicalPlan> = None;
        for r in rules {
            let rp = self.rule_plan(r)?;
            plan = Some(match plan {
                None => rp,
                Some(p) => LogicalPlan::Union {
                    left: Box::new(p),
                    right: Box::new(rp),
                    all: false,
                },
            });
        }
        if !facts.is_empty() {
            let rows: Vec<Tuple> = facts
                .iter()
                .map(|f| {
                    Tuple::new(
                        f.head
                            .args
                            .iter()
                            .map(|t| match t {
                                Term::Const(v) => v.clone(),
                                Term::Var(_) => unreachable!("safety checked"),
                            })
                            .collect(),
                    )
                })
                .collect();
            let schema = match (&plan, schema_hint) {
                (Some(p), _) => p.output_schema()?,
                (None, Some(s)) => s.clone(),
                (None, None) => fact_schema(pred, &rows),
            };
            let values = LogicalPlan::Values { schema, rows };
            plan = Some(match plan {
                None => values,
                Some(p) => LogicalPlan::Union {
                    left: Box::new(p),
                    right: Box::new(values),
                    all: false,
                },
            });
        }
        plan.ok_or_else(|| {
            PrismaError::UnsafeRule(format!("predicate {pred} has no rules or facts"))
        })
    }

    /// Conjunctive-query translation of one rule body + head projection.
    fn rule_plan(&mut self, rule: &Rule) -> Result<LogicalPlan> {
        let mut plan: Option<LogicalPlan> = None;
        // var name → column ordinal in the current join result.
        let mut var_cols: HashMap<String, usize> = HashMap::new();
        let mut width = 0usize;

        for lit in &rule.body {
            let Literal::Atom(atom) = lit else { continue };
            let mut aplan = self.predicate_plan(&atom.pred)?;
            let aschema = aplan.output_schema()?;
            if aschema.arity() != atom.args.len() {
                return Err(PrismaError::ArityMismatch {
                    expected: aschema.arity(),
                    got: atom.args.len(),
                });
            }
            // Per-atom constant and repeated-variable selections.
            let mut sels = Vec::new();
            let mut local: HashMap<&str, usize> = HashMap::new();
            for (i, arg) in atom.args.iter().enumerate() {
                match arg {
                    Term::Const(v) => sels.push(ScalarExpr::eq(
                        ScalarExpr::Col(i),
                        ScalarExpr::Lit(v.clone()),
                    )),
                    Term::Var(x) => {
                        if let Some(&fi) = local.get(x.as_str()) {
                            sels.push(ScalarExpr::eq(
                                ScalarExpr::Col(fi),
                                ScalarExpr::Col(i),
                            ));
                        } else {
                            local.insert(x, i);
                        }
                    }
                }
            }
            if !sels.is_empty() {
                aplan = aplan.select(ScalarExpr::conjunction(sels));
            }
            match plan {
                None => {
                    plan = Some(aplan);
                    for (x, i) in local {
                        var_cols.insert(x.to_owned(), i);
                    }
                    width = atom.args.len();
                }
                Some(p) => {
                    let mut on = Vec::new();
                    let mut fresh: Vec<(String, usize)> = Vec::new();
                    for (x, i) in &local {
                        match var_cols.get(*x) {
                            Some(&li) => on.push((li, *i)),
                            None => fresh.push(((*x).to_owned(), *i)),
                        }
                    }
                    plan = Some(LogicalPlan::Join {
                        left: Box::new(p),
                        right: Box::new(aplan),
                        kind: JoinKind::Inner,
                        on,
                        residual: None,
                    });
                    for (x, i) in fresh {
                        var_cols.insert(x, width + i);
                    }
                    width += atom.args.len();
                }
            }
        }

        let mut plan = plan.ok_or_else(|| {
            PrismaError::UnsafeRule(format!("rule `{rule}` has an empty positive body"))
        })?;

        // Comparison literals as a selection.
        let mut cmps = Vec::new();
        for lit in &rule.body {
            if let Literal::Cmp(op, l, r) = lit {
                let to_expr = |t: &Term| -> ScalarExpr {
                    match t {
                        Term::Const(v) => ScalarExpr::Lit(v.clone()),
                        Term::Var(x) => ScalarExpr::Col(var_cols[x.as_str()]),
                    }
                };
                cmps.push(ScalarExpr::cmp(*op, to_expr(l), to_expr(r)));
            }
        }
        if !cmps.is_empty() {
            plan = plan.select(ScalarExpr::conjunction(cmps));
        }

        // Head projection.
        let in_schema = plan.output_schema()?;
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for (i, arg) in rule.head.args.iter().enumerate() {
            match arg {
                Term::Var(x) => {
                    let col = var_cols[x.as_str()];
                    let src = in_schema.column(col).expect("in range");
                    exprs.push(ScalarExpr::Col(col));
                    cols.push(Column::nullable(x.clone(), src.dtype));
                }
                Term::Const(v) => {
                    exprs.push(ScalarExpr::Lit(v.clone()));
                    cols.push(Column::nullable(
                        format!("c{i}"),
                        v.data_type().unwrap_or(prisma_types::DataType::Str),
                    ));
                }
            }
        }
        Ok(LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: Schema::new(cols),
        })
    }
}

fn split_rules<'r>(
    rules: &[&'r Rule],
    pred: &str,
) -> (Vec<&'r Rule>, Vec<&'r Rule>, Vec<&'r Rule>) {
    let mut facts = Vec::new();
    let mut base = Vec::new();
    let mut rec = Vec::new();
    for r in rules {
        if r.body.is_empty() {
            facts.push(*r);
        } else if r.body_atoms().any(|a| a.pred == pred) {
            rec.push(*r);
        } else {
            base.push(*r);
        }
    }
    (facts, base, rec)
}

/// The edge predicate q when `pred` is the transitive closure of q: no
/// facts, the one non-recursive rule `p(X,Y) :- q(X,Y)`, and every
/// recursive rule `p(X,Y) :- q(X,Z), p(Z,Y)` or `p(X,Y) :- p(X,Z),
/// q(Z,Y)` (body atoms in either order) with X, Y, Z distinct variables
/// and the same q throughout. The caller has already refused mutual and
/// non-linear recursion, so q is outside p's SCC.
fn closure_edges<'r>(
    pred: &str,
    facts: &[&Rule],
    base: &[&'r Rule],
    rec: &[&'r Rule],
) -> Option<&'r str> {
    fn vars(atom: &Atom) -> Option<(&str, &str)> {
        match atom.args.as_slice() {
            [Term::Var(a), Term::Var(b)] if a != b => Some((a, b)),
            _ => None,
        }
    }
    fn atoms(rule: &Rule) -> Option<Vec<&Atom>> {
        rule.body
            .iter()
            .map(|l| match l {
                Literal::Atom(a) => Some(a),
                Literal::Cmp(..) => None,
            })
            .collect()
    }
    let ([], [base]) = (facts, base) else {
        return None;
    };
    let [edge] = atoms(base)?[..] else {
        return None;
    };
    if edge.pred == pred || vars(edge)? != vars(&base.head)? {
        return None;
    }
    let q = edge.pred.as_str();
    for rule in rec {
        let (x, y) = vars(&rule.head)?;
        let [first, second] = atoms(rule)?[..] else {
            return None;
        };
        let (rec_atom, step) = if first.pred == pred {
            (first, second)
        } else {
            (second, first)
        };
        if rec_atom.pred != pred || step.pred != q {
            return None;
        }
        // `vars` already keeps Z apart from X and Y: each atom holds two
        // distinct variables, one of them X or Y.
        let ((ra, rb), (sa, sb)) = (vars(rec_atom)?, vars(step)?);
        let right_linear = sa == x && sb == ra && rb == y; // q(X,Z), p(Z,Y)
        let left_linear = ra == x && rb == sa && sb == y; // p(X,Z), q(Z,Y)
        if !(right_linear || left_linear) {
            return None;
        }
    }
    Some(q)
}

fn fact_schema(pred: &str, rows: &[Tuple]) -> Schema {
    let arity = rows.first().map(Tuple::arity).unwrap_or(0);
    let cols = (0..arity)
        .map(|i| {
            let dtype = rows
                .first()
                .and_then(|r| r.get(i).data_type())
                .unwrap_or(prisma_types::DataType::Str);
            Column::nullable(format!("{pred}_{i}"), dtype)
        })
        .collect();
    Schema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use crate::seminaive::{answer_query, evaluate};
    use prisma_relalg::{eval, Relation};
    use prisma_types::{tuple, DataType};

    fn edb() -> (HashMap<String, Schema>, HashMap<String, Relation>) {
        let schema = Schema::new(vec![
            Column::new("src", DataType::Str),
            Column::new("dst", DataType::Str),
        ]);
        let rel = Relation::new(
            schema.clone(),
            vec![
                tuple!["john", "mary"],
                tuple!["mary", "sue"],
                tuple!["sue", "tim"],
                tuple!["ann", "john"],
            ],
        );
        let mut schemas = HashMap::new();
        schemas.insert("parent".to_owned(), schema);
        let mut db = HashMap::new();
        db.insert("parent".to_owned(), rel);
        (schemas, db)
    }

    #[test]
    fn recursive_ancestor_matches_seminaive_evaluator() {
        let prog = parse_program(
            "ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        let q = parse_query("?- ancestor(ann, X).").unwrap();
        let (schemas, db) = edb();
        // Algebra path.
        let plan = compile_query(&prog, &q, &schemas).unwrap();
        let via_algebra = eval(&plan, &db).unwrap().canonicalized();
        // Direct evaluator path.
        let (idb, _) = evaluate(&prog, &db).unwrap();
        let via_eval = answer_query(&q, &idb, &db).unwrap().canonicalized();
        assert_eq!(via_algebra.tuples(), via_eval.tuples());
        assert_eq!(via_algebra.len(), 4); // john, mary, sue, tim
    }

    #[test]
    fn non_recursive_views_and_facts() {
        let prog = parse_program(
            "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
             vip(ann).
             vip_grandchild(Z) :- vip(X), grandparent(X, Z).",
        )
        .unwrap();
        let q = parse_query("?- vip_grandchild(W).").unwrap();
        let (schemas, db) = edb();
        let plan = compile_query(&prog, &q, &schemas).unwrap();
        let out = eval(&plan, &db).unwrap();
        assert_eq!(out.tuples(), &[tuple!["mary"]]);
    }

    #[test]
    fn comparisons_translate() {
        let prog = parse_program("big(X) :- nums(X), X > 5.").unwrap();
        let mut schemas = HashMap::new();
        schemas.insert(
            "nums".to_owned(),
            Schema::new(vec![Column::new("n", DataType::Int)]),
        );
        let mut db = HashMap::new();
        db.insert(
            "nums".to_owned(),
            Relation::new(
                schemas["nums"].clone(),
                vec![tuple![3], tuple![7], tuple![9]],
            ),
        );
        let q = parse_query("?- big(X).").unwrap();
        let plan = compile_query(&prog, &q, &schemas).unwrap();
        let out = eval(&plan, &db).unwrap().canonicalized();
        assert_eq!(out.tuples(), &[tuple![7], tuple![9]]);
    }

    #[test]
    fn constant_query_argument_selects() {
        let prog = parse_program(
            "ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        let q = parse_query("?- ancestor(X, tim).").unwrap();
        let (schemas, db) = edb();
        let plan = compile_query(&prog, &q, &schemas).unwrap();
        let out = eval(&plan, &db).unwrap();
        assert_eq!(out.len(), 4); // sue, mary, john, ann
        assert_eq!(out.schema().column(0).unwrap().name, "X");
    }

    #[test]
    fn mutual_recursion_rejected_with_pointer_to_evaluator() {
        let prog = parse_program(
            "even(X) :- zero(X).
             even(Y) :- succ(X, Y), odd(X).
             odd(Y) :- succ(X, Y), even(X).",
        )
        .unwrap();
        let mut schemas = HashMap::new();
        schemas.insert(
            "zero".to_owned(),
            Schema::new(vec![Column::new("n", DataType::Int)]),
        );
        schemas.insert(
            "succ".to_owned(),
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        let q = parse_query("?- even(X).").unwrap();
        let err = compile_query(&prog, &q, &schemas).unwrap_err();
        assert!(err.to_string().contains("semi-naive"));
    }

    #[test]
    fn nonlinear_recursion_rejected() {
        let prog = parse_program(
            "path(X, Y) :- edge(X, Y).
             path(X, Y) :- path(X, Z), path(Z, Y).",
        )
        .unwrap();
        let mut schemas = HashMap::new();
        schemas.insert(
            "edge".to_owned(),
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        let q = parse_query("?- path(X, Y).").unwrap();
        assert!(compile_query(&prog, &q, &schemas).is_err());
    }

    fn int_edges() -> (HashMap<String, Schema>, HashMap<String, Relation>) {
        let schema = Schema::new(vec![
            Column::nullable("src", DataType::Int),
            Column::nullable("dst", DataType::Int),
        ]);
        let rows = vec![
            tuple![0, 1],
            tuple![1, 2],
            tuple![2, 0],
            tuple![2, 3],
            tuple![3, 3],
            Tuple::new(vec![prisma_types::Value::Int(0), prisma_types::Value::Null]),
            Tuple::new(vec![prisma_types::Value::Null, prisma_types::Value::Int(5)]),
        ];
        let mut schemas = HashMap::new();
        let mut db = HashMap::new();
        for name in ["edge", "link"] {
            schemas.insert(name.to_owned(), schema.clone());
            db.insert(name.to_owned(), Relation::new(schema.clone(), rows.clone()));
        }
        (schemas, db)
    }

    /// Compile `?- p(0, X).` and hold it to the direct evaluator; returns
    /// the plan.
    fn compile_and_check(program: &str) -> LogicalPlan {
        let (schemas, db) = int_edges();
        let prog = parse_program(program).unwrap();
        let q = parse_query("?- p(0, X).").unwrap();
        let plan = compile_query(&prog, &q, &schemas).unwrap();
        let via_algebra = eval(&plan, &db).unwrap().canonicalized();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        let via_eval = answer_query(&q, &idb, &db).unwrap().canonicalized();
        assert_eq!(via_algebra.tuples(), via_eval.tuples(), "{program}\n{plan}");
        plan
    }

    fn contains(plan: &LogicalPlan, pred: &dyn Fn(&LogicalPlan) -> bool) -> bool {
        pred(plan) || plan.children().into_iter().any(|c| contains(c, pred))
    }

    #[test]
    fn transitive_closure_programs_compile_to_the_closure_operator() {
        for program in [
            "p(X, Y) :- edge(X, Y). p(X, Y) :- edge(X, Z), p(Z, Y).",
            "p(X, Y) :- edge(X, Y). p(X, Y) :- p(X, Z), edge(Z, Y).",
            "p(X, Y) :- edge(X, Y). p(X, Y) :- p(X, Z), edge(Z, Y). \
             p(X, Y) :- edge(X, Z), p(Z, Y).",
            "p(A, B) :- edge(A, B). p(A, B) :- p(C, B), edge(A, C).",
        ] {
            let plan = compile_and_check(program);
            assert!(
                contains(&plan, &|p| matches!(
                    p,
                    LogicalPlan::Closure { input, seed: None }
                        if matches!(input.as_ref(), LogicalPlan::Scan { relation, .. } if relation == "edge")
                )),
                "{program}\n{plan}"
            );
            assert!(!contains(&plan, &|p| matches!(
                p,
                LogicalPlan::Fixpoint { .. }
            )));
        }
    }

    #[test]
    fn near_misses_of_transitive_closure_stay_fixpoints() {
        for program in [
            // A constant argument.
            "p(X, Y) :- edge(X, Y). p(X, Y) :- edge(X, 2), p(2, Y).",
            // A repeated variable.
            "p(X, Y) :- edge(X, Y). p(X, Y) :- edge(X, Y), p(Y, Y).",
            // Swapped head arguments.
            "p(X, Y) :- edge(X, Y). p(Y, X) :- edge(X, Z), p(Z, Y).",
            // A comparison literal.
            "p(X, Y) :- edge(X, Y). p(X, Y) :- edge(X, Z), p(Z, Y), Z > 0.",
            // A different q in the base and the step.
            "p(X, Y) :- edge(X, Y). p(X, Y) :- link(X, Z), p(Z, Y).",
        ] {
            let plan = compile_and_check(program);
            assert!(
                contains(&plan, &|p| matches!(p, LogicalPlan::Fixpoint { .. })),
                "{program}\n{plan}"
            );
            assert!(!contains(&plan, &|p| matches!(
                p,
                LogicalPlan::Closure { .. }
            )));
        }
    }

    #[test]
    fn recursion_does_not_continue_through_null() {
        // edge = {(0,NULL), (NULL,5), (0,1)}: the answer is {NULL, 1} on
        // every route; 5 sits only behind the NULL.
        let schema = Schema::new(vec![
            Column::nullable("src", DataType::Int),
            Column::nullable("dst", DataType::Int),
        ]);
        let null = prisma_types::Value::Null;
        let mut db = HashMap::new();
        db.insert(
            "edge".to_owned(),
            Relation::new(
                schema.clone(),
                vec![
                    Tuple::new(vec![prisma_types::Value::Int(0), null.clone()]),
                    Tuple::new(vec![null.clone(), prisma_types::Value::Int(5)]),
                    tuple![0, 1],
                ],
            ),
        );
        let schemas = HashMap::from([("edge".to_owned(), schema)]);
        let prog = parse_program("p(X,Y) :- edge(X,Y). p(X,Y) :- p(X,Z), edge(Z,Y).").unwrap();
        let q = parse_query("?- p(0, X).").unwrap();
        let plan = compile_query(&prog, &q, &schemas).unwrap();
        let want = vec![Tuple::new(vec![null]), tuple![1]];
        assert_eq!(eval(&plan, &db).unwrap().canonicalized().tuples(), want);
        let (idb, _) = evaluate(&prog, &db).unwrap();
        assert_eq!(
            answer_query(&q, &idb, &db)
                .unwrap()
                .canonicalized()
                .tuples(),
            want
        );
    }

    #[test]
    fn recursion_without_base_rejected() {
        let prog = parse_program("loop(X) :- loop(X).").unwrap();
        let schemas: HashMap<String, Schema> = HashMap::new();
        let q = parse_query("?- loop(X).").unwrap();
        assert!(compile_query(&prog, &q, &schemas).is_err());
    }
}
