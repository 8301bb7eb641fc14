//! Set-oriented bottom-up evaluation of PRISMAlog programs.
//!
//! This is the "set-oriented … more suitable for parallel evaluation"
//! semantics of paper §2.3, implemented directly: predicates denote tuple
//! sets, rules fire as joins, recursion runs to fixpoint. Two modes:
//!
//! * **semi-naive** (the default): each iteration joins only against the
//!   previous iteration's *delta*, the standard optimization;
//! * **naive**: each iteration re-joins the full relations — kept as the
//!   E6 ablation baseline.
//!
//! The evaluator handles arbitrary positive programs, including mutual
//! recursion (which the algebra translator in [`crate::translate`]
//! deliberately does not). A variable shared by two argument positions
//! is an equi-join, and NULL matches nothing — the algebra's rule — so no
//! derivation continues through a NULL.

use std::collections::HashMap;

use prisma_relalg::{Relation, RelationProvider};
use prisma_storage::{FastMap, FastSet};
use prisma_types::{Column, DataType, PrismaError, Result, Schema, Tuple, Value};

use crate::analyze::{check_program, sccs};
use crate::ast::{Atom, Literal, Program, Rule, Term};

type Row = Vec<Value>;
type TupleSet = FastSet<Row>;

/// Evaluation counters for the E6 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint iterations across all recursive SCCs.
    pub iterations: u64,
    /// Rule firings (rule × iteration instantiations).
    pub rule_firings: u64,
    /// Tuples derived (including duplicates rejected by set semantics).
    pub tuples_considered: u64,
}

/// Evaluation mode (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Join deltas only (default).
    SemiNaive,
    /// Re-join full relations each round (E6 baseline).
    Naive,
}

/// Evaluate `program` to a fixpoint. EDB predicates (used but not defined)
/// are fetched from `provider`. Returns all defined predicates as
/// relations plus the evaluation stats.
pub fn evaluate(
    program: &Program,
    provider: &dyn RelationProvider,
) -> Result<(HashMap<String, Relation>, EvalStats)> {
    evaluate_mode(program, provider, Mode::SemiNaive)
}

/// Evaluate with an explicit [`Mode`].
pub fn evaluate_mode(
    program: &Program,
    provider: &dyn RelationProvider,
    mode: Mode,
) -> Result<(HashMap<String, Relation>, EvalStats)> {
    check_program(program)?;
    let mut stats = EvalStats::default();
    let defined = program.defined_predicates();

    // Load EDB relations.
    let mut rels: HashMap<String, TupleSet> = HashMap::new();
    let mut schemas: HashMap<String, Schema> = HashMap::new();
    for rule in &program.rules {
        for atom in rule.body_atoms() {
            if !defined.contains(&atom.pred) && !rels.contains_key(&atom.pred) {
                let rel = provider.relation(&atom.pred)?;
                schemas.insert(atom.pred.clone(), rel.schema().clone());
                rels.insert(
                    atom.pred.clone(),
                    rel.tuples().iter().map(|t| t.values().to_vec()).collect(),
                );
            }
        }
    }
    for pred in &defined {
        rels.entry(pred.clone()).or_default();
    }

    // Facts seed their predicates.
    for rule in &program.rules {
        if rule.body.is_empty() {
            let row: Row = rule
                .head
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => v.clone(),
                    Term::Var(_) => unreachable!("safety check rejects variable facts"),
                })
                .collect();
            rels.get_mut(&rule.head.pred).expect("seeded").insert(row);
        }
    }

    // Evaluate SCCs dependencies-first.
    for comp in sccs(program) {
        let comp_rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| comp.contains(&r.head.pred) && !r.body.is_empty())
            .collect();
        if comp_rules.is_empty() {
            continue;
        }
        let recursive = comp.len() > 1
            || comp_rules
                .iter()
                .any(|r| r.body_atoms().any(|a| comp.contains(&a.pred)));

        if !recursive {
            for rule in &comp_rules {
                let derived = fire_rule(rule, &rels, None, &mut stats)?;
                let target = rels.get_mut(&rule.head.pred).expect("seeded");
                for row in derived {
                    target.insert(row);
                }
            }
            continue;
        }

        // Recursive SCC: iterate to fixpoint.
        let mut deltas: HashMap<String, TupleSet> = HashMap::new();
        // Round 0: fire everything naively to seed the deltas.
        stats.iterations += 1;
        for rule in &comp_rules {
            let derived = fire_rule(rule, &rels, None, &mut stats)?;
            let target = rels.get_mut(&rule.head.pred).expect("seeded");
            let delta = deltas.entry(rule.head.pred.clone()).or_default();
            for row in derived {
                if target.insert(row.clone()) {
                    delta.insert(row);
                }
            }
        }
        loop {
            if deltas.values().all(TupleSet::is_empty) {
                break;
            }
            stats.iterations += 1;
            let mut next_deltas: HashMap<String, TupleSet> = HashMap::new();
            for rule in &comp_rules {
                let rec_positions: Vec<usize> = rule
                    .body
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| match l {
                        Literal::Atom(a) if comp.contains(&a.pred) => Some(i),
                        _ => None,
                    })
                    .collect();
                if rec_positions.is_empty() {
                    continue; // base rule: already fired in round 0
                }
                match mode {
                    Mode::SemiNaive => {
                        // One firing per recursive occurrence, with that
                        // occurrence restricted to the delta.
                        for &pos in &rec_positions {
                            let Literal::Atom(a) = &rule.body[pos] else {
                                unreachable!()
                            };
                            let Some(delta) = deltas.get(&a.pred) else {
                                continue;
                            };
                            if delta.is_empty() {
                                continue;
                            }
                            let derived =
                                fire_rule(rule, &rels, Some((pos, delta)), &mut stats)?;
                            let target = rels.get_mut(&rule.head.pred).expect("seeded");
                            let nd = next_deltas.entry(rule.head.pred.clone()).or_default();
                            for row in derived {
                                if target.insert(row.clone()) {
                                    nd.insert(row);
                                }
                            }
                        }
                    }
                    Mode::Naive => {
                        let derived = fire_rule(rule, &rels, None, &mut stats)?;
                        let target = rels.get_mut(&rule.head.pred).expect("seeded");
                        let nd = next_deltas.entry(rule.head.pred.clone()).or_default();
                        for row in derived {
                            if target.insert(row.clone()) {
                                nd.insert(row);
                            }
                        }
                    }
                }
            }
            deltas = next_deltas;
        }
    }

    // Materialize defined predicates as relations.
    let mut out = HashMap::new();
    for pred in &defined {
        let rows = &rels[pred];
        let arity = program
            .rules_for(pred)
            .first()
            .map(|r| r.head.args.len())
            .unwrap_or(0);
        let schema = infer_schema(pred, arity, rows);
        let tuples: Vec<Tuple> = rows.iter().map(|r| Tuple::new(r.clone())).collect();
        out.insert(pred.clone(), Relation::new(schema, tuples));
    }
    Ok((out, stats))
}

/// Answer a query atom against evaluated predicates: constant arguments
/// filter, repeated variables must match, and the result columns are the
/// query's distinct variables in first-occurrence order.
pub fn answer_query(
    query: &Atom,
    idb: &HashMap<String, Relation>,
    provider: &dyn RelationProvider,
) -> Result<Relation> {
    let rel = match idb.get(&query.pred) {
        Some(r) => std::sync::Arc::new(r.clone()),
        None => provider.relation(&query.pred)?,
    };
    if rel.schema().arity() != query.args.len() {
        return Err(PrismaError::ArityMismatch {
            expected: rel.schema().arity(),
            got: query.args.len(),
        });
    }
    let mut var_cols: Vec<(String, usize)> = Vec::new();
    let mut out_rows = Vec::new();
    'tuples: for t in rel.tuples() {
        let mut bound: HashMap<&str, &Value> = HashMap::new();
        for (i, arg) in query.args.iter().enumerate() {
            match arg {
                Term::Const(v) => {
                    if t.get(i) != v {
                        continue 'tuples;
                    }
                }
                Term::Var(x) => {
                    if let Some(&prev) = bound.get(x.as_str()) {
                        if prev.is_null() || prev != t.get(i) {
                            continue 'tuples;
                        }
                    } else {
                        bound.insert(x, t.get(i));
                        if !var_cols.iter().any(|(v, _)| v == x) {
                            var_cols.push((x.clone(), i));
                        }
                    }
                }
            }
        }
        out_rows.push(Tuple::new(
            var_cols.iter().map(|(_, i)| t.get(*i).clone()).collect(),
        ));
    }
    // Column metadata from the variable positions.
    let cols: Vec<Column> = query
        .args
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.as_var().map(|v| (v.to_owned(), i)))
        .fold(Vec::new(), |mut acc, (v, i)| {
            if !acc.iter().any(|c: &Column| c.name == v) {
                let src = rel.schema().column(i).expect("arity checked");
                acc.push(Column::nullable(v, src.dtype));
            }
            acc
        });
    Ok(Relation::new(Schema::new(cols), out_rows).distinct())
}

fn infer_schema(pred: &str, arity: usize, rows: &TupleSet) -> Schema {
    let sample = rows.iter().next();
    let cols = (0..arity)
        .map(|i| {
            let dtype = sample
                .and_then(|r| r.get(i))
                .and_then(Value::data_type)
                .unwrap_or(DataType::Str);
            Column::nullable(format!("{pred}_{i}"), dtype)
        })
        .collect();
    Schema::new(cols)
}

/// Fire one rule against the current relations; `delta_at` restricts the
/// body atom at the given literal index to the delta set.
fn fire_rule(
    rule: &Rule,
    rels: &HashMap<String, TupleSet>,
    delta_at: Option<(usize, &TupleSet)>,
    stats: &mut EvalStats,
) -> Result<Vec<Row>> {
    stats.rule_firings += 1;
    // Bindings: rows over the variables bound so far.
    let mut var_idx: HashMap<&str, usize> = HashMap::new();
    let mut bindings: Vec<Row> = vec![Vec::new()];
    let mut pending_cmps: Vec<&Literal> = Vec::new();

    for (li, lit) in rule.body.iter().enumerate() {
        match lit {
            Literal::Cmp(..) => pending_cmps.push(lit),
            Literal::Atom(atom) => {
                let full = rels.get(&atom.pred).ok_or_else(|| {
                    PrismaError::UnknownRelation(atom.pred.clone())
                })?;
                let source: &TupleSet = match delta_at {
                    Some((pos, delta)) if pos == li => delta,
                    _ => full,
                };
                // Key positions: (binding column, atom position) for vars
                // already bound; plus constant checks; plus repeated vars
                // inside this atom.
                let mut join_keys: Vec<(usize, usize)> = Vec::new();
                let mut const_checks: Vec<(usize, &Value)> = Vec::new();
                let mut local_first: HashMap<&str, usize> = HashMap::new();
                let mut local_dups: Vec<(usize, usize)> = Vec::new();
                let mut new_vars: Vec<(&str, usize)> = Vec::new();
                for (i, arg) in atom.args.iter().enumerate() {
                    match arg {
                        Term::Const(v) => const_checks.push((i, v)),
                        Term::Var(x) => {
                            if let Some(&fi) = local_first.get(x.as_str()) {
                                local_dups.push((fi, i));
                            } else {
                                local_first.insert(x, i);
                                if let Some(&bi) = var_idx.get(x.as_str()) {
                                    join_keys.push((bi, i));
                                } else {
                                    new_vars.push((x, i));
                                }
                            }
                        }
                    }
                }
                // Index the source on the join-key positions.
                let mut index: FastMap<Row, Vec<&Row>> = FastMap::default();
                'rows: for row in source {
                    for (i, v) in &const_checks {
                        if &row[*i] != *v {
                            continue 'rows;
                        }
                    }
                    for (a, b) in &local_dups {
                        if row[*a].is_null() || row[*a] != row[*b] {
                            continue 'rows;
                        }
                    }
                    let key: Row = join_keys.iter().map(|&(_, i)| row[i].clone()).collect();
                    // NULL join keys match nothing (the equi-join rule).
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    index.entry(key).or_default().push(row);
                }
                // Join bindings with the indexed source.
                let mut next = Vec::new();
                for b in &bindings {
                    let key: Row = join_keys.iter().map(|&(bi, _)| b[bi].clone()).collect();
                    if let Some(matches) = index.get(&key) {
                        for row in matches {
                            let mut nb = b.clone();
                            for &(_, i) in &new_vars {
                                nb.push(row[i].clone());
                            }
                            next.push(nb);
                        }
                    }
                }
                for (x, _) in new_vars {
                    let idx = var_idx.len();
                    var_idx.insert(x, idx);
                }
                bindings = next;
                if bindings.is_empty() {
                    break;
                }
            }
        }
    }

    // Apply comparison literals.
    for lit in pending_cmps {
        let Literal::Cmp(op, l, r) = lit else {
            unreachable!()
        };
        let fetch = |t: &Term, b: &Row| -> Value {
            match t {
                Term::Const(v) => v.clone(),
                Term::Var(x) => b[var_idx[x.as_str()]].clone(),
            }
        };
        bindings.retain(|b| {
            let (lv, rv) = (fetch(l, b), fetch(r, b));
            lv.sql_cmp(&rv).map(|o| op.test(o)).unwrap_or(false)
        });
    }

    // Project head.
    let mut out = Vec::with_capacity(bindings.len());
    for b in &bindings {
        stats.tuples_considered += 1;
        let row: Row = rule
            .head
            .args
            .iter()
            .map(|t| match t {
                Term::Const(v) => v.clone(),
                Term::Var(x) => b[var_idx[x.as_str()]].clone(),
            })
            .collect();
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use prisma_types::tuple;

    fn edge_db() -> HashMap<String, Relation> {
        let schema = Schema::new(vec![
            Column::new("src", DataType::Str),
            Column::new("dst", DataType::Str),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "parent".to_owned(),
            Relation::new(
                schema,
                vec![
                    tuple!["john", "mary"],
                    tuple!["mary", "sue"],
                    tuple!["sue", "tim"],
                ],
            ),
        );
        db
    }

    #[test]
    fn ancestor_closure() {
        let prog = parse_program(
            "ancestor(X, Y) :- parent(X, Y).
             ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        let db = edge_db();
        let (idb, stats) = evaluate(&prog, &db).unwrap();
        assert_eq!(idb["ancestor"].len(), 6); // 3 + 2 + 1
        assert!(stats.iterations >= 2);
        let q = parse_query("?- ancestor(john, X).").unwrap();
        let ans = answer_query(&q, &idb, &db).unwrap();
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.schema().column(0).unwrap().name, "X");
    }

    #[test]
    fn naive_and_seminaive_agree_but_seminaive_fires_less() {
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("edge({i}, {}).\n", i + 1));
        }
        let prog = parse_program(&format!(
            "{facts}
             path(X, Y) :- edge(X, Y).
             path(X, Y) :- edge(X, Z), path(Z, Y)."
        ))
        .unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        let (semi, s_stats) = evaluate_mode(&prog, &db, Mode::SemiNaive).unwrap();
        let (naive, n_stats) = evaluate_mode(&prog, &db, Mode::Naive).unwrap();
        assert_eq!(
            semi["path"].clone().canonicalized(),
            naive["path"].clone().canonicalized()
        );
        assert_eq!(semi["path"].len(), 31 * 30 / 2);
        assert!(
            s_stats.tuples_considered < n_stats.tuples_considered,
            "semi-naive {s_stats:?} must consider fewer tuples than naive {n_stats:?}"
        );
    }

    #[test]
    fn mutual_recursion_even_odd() {
        let prog = parse_program(
            "num(0). num(1). num(2). num(3). num(4). num(5).
             succ(0,1). succ(1,2). succ(2,3). succ(3,4). succ(4,5).
             even(0).
             even(Y) :- succ(X, Y), odd(X).
             odd(Y) :- succ(X, Y), even(X).",
        )
        .unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        let evens: Vec<i64> = idb["even"]
            .clone()
            .canonicalized()
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(evens, vec![0, 2, 4]);
        let odds: Vec<i64> = idb["odd"]
            .clone()
            .canonicalized()
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(odds, vec![1, 3, 5]);
    }

    #[test]
    fn comparisons_filter_bindings() {
        let prog = parse_program(
            "senior(X) :- person(X, A), A >= 65.
             person(alice, 70).
             person(bob, 30).",
        )
        .unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        assert_eq!(idb["senior"].len(), 1);
        assert_eq!(idb["senior"].tuples()[0], tuple!["alice"]);
    }

    #[test]
    fn repeated_variables_in_atom() {
        let prog = parse_program(
            "selfloop(X) :- edge(X, X).
             edge(a, b). edge(b, b). edge(c, c).",
        )
        .unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        assert_eq!(idb["selfloop"].len(), 2);
    }

    #[test]
    fn constants_in_body_atoms() {
        let prog = parse_program(
            "mary_child(X) :- parent(mary, X).",
        )
        .unwrap();
        let db = edge_db();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        assert_eq!(idb["mary_child"].tuples(), &[tuple!["sue"]]);
    }

    #[test]
    fn query_with_repeated_variable() {
        let prog = parse_program(
            "edge(a, a). edge(a, b). edge(b, b).
             e(X, Y) :- edge(X, Y).",
        )
        .unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        let q = parse_query("?- e(X, X).").unwrap();
        let ans = answer_query(&q, &idb, &db).unwrap();
        assert_eq!(ans.len(), 2);
        assert_eq!(ans.schema().arity(), 1);
    }

    #[test]
    fn missing_edb_is_an_error() {
        let prog = parse_program("p(X) :- ghost(X).").unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        assert!(evaluate(&prog, &db).is_err());
    }

    #[test]
    fn no_derivation_continues_through_null() {
        let schema = Schema::new(vec![
            Column::nullable("src", DataType::Int),
            Column::nullable("dst", DataType::Int),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "edge".to_owned(),
            Relation::new(
                schema,
                vec![
                    Tuple::new(vec![Value::Int(0), Value::Null]),
                    Tuple::new(vec![Value::Null, Value::Int(5)]),
                    tuple![0, 1],
                ],
            ),
        );
        for program in [
            "p(X, Y) :- edge(X, Y). p(X, Y) :- p(X, Z), edge(Z, Y).",
            "p(X, Y) :- edge(X, Y). p(X, Y) :- edge(X, Z), p(Z, Y).",
        ] {
            let prog = parse_program(program).unwrap();
            let (idb, _) = evaluate(&prog, &db).unwrap();
            let q = parse_query("?- p(0, X).").unwrap();
            let ans = answer_query(&q, &idb, &db).unwrap().canonicalized();
            // NULL and 1 are edges out of 0; 5 is only behind the NULL.
            assert_eq!(
                ans.tuples(),
                &[Tuple::new(vec![Value::Null]), tuple![1]],
                "{program}"
            );
        }
        // A repeated variable is an equality too: NULL does not equal NULL.
        let prog = parse_program("self(X) :- edge(X, X).").unwrap();
        let mut loops = db.clone();
        loops.insert(
            "edge".to_owned(),
            Relation::new(
                db["edge"].schema().clone(),
                vec![Tuple::new(vec![Value::Null, Value::Null]), tuple![2, 2]],
            ),
        );
        let (idb, _) = evaluate(&prog, &loops).unwrap();
        assert_eq!(idb["self"].tuples(), &[tuple![2]]);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let prog = parse_program(
            "edge(a, b). edge(b, c). edge(c, a).
             path(X, Y) :- edge(X, Y).
             path(X, Y) :- path(X, Z), edge(Z, Y).",
        )
        .unwrap();
        let db: HashMap<String, Relation> = HashMap::new();
        let (idb, _) = evaluate(&prog, &db).unwrap();
        assert_eq!(idb["path"].len(), 9); // complete on {a,b,c}
    }
}
