//! Logical plans: the extended relational algebra tree.

use std::fmt;

use prisma_storage::expr::ScalarExpr;
use prisma_types::{Column, DataType, PrismaError, Result, Schema, Tuple};

use crate::agg::AggExpr;

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Matching pairs, concatenated.
    Inner,
    /// Left tuples with at least one match (output = left schema).
    Semi,
    /// Left tuples with no match (output = left schema).
    Anti,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "Join",
            JoinKind::Semi => "SemiJoin",
            JoinKind::Anti => "AntiJoin",
        };
        f.write_str(s)
    }
}

/// The algebra tree.
///
/// Leaf schemas are embedded (`Scan`, `Values`); inner nodes derive theirs
/// structurally via [`LogicalPlan::output_schema`]. The recursive
/// extensions required by PRISMAlog are [`LogicalPlan::Closure`] (the
/// paper's per-OFM transitive-closure operator, optionally seeded by a
/// selection on its source column) and
/// [`LogicalPlan::Fixpoint`] (general linear recursion evaluated
/// semi-naively: inside `step`, `Scan(name)` reads the accumulated result
/// and `Scan("Δ" + name)` reads the last iteration's delta).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a named base relation (or a fixpoint binding).
    Scan {
        /// Relation name in the data dictionary.
        relation: String,
        /// Schema as resolved by the front end.
        schema: Schema,
    },
    /// Literal rows.
    Values {
        /// Schema of the rows.
        schema: Schema,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// σ — keep tuples satisfying the predicate.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Filter predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// π — compute output expressions.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// One expression per output column, over the input schema.
        exprs: Vec<ScalarExpr>,
        /// Output schema (names chosen by the planner).
        schema: Schema,
    },
    /// ⋈ — equi-join with optional residual predicate.
    Join {
        /// Build/probe inputs.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join flavour.
        kind: JoinKind,
        /// Equi-join key pairs `(left ordinal, right ordinal)`.
        on: Vec<(usize, usize)>,
        /// Extra predicate over the concatenated schema (theta part).
        residual: Option<ScalarExpr>,
    },
    /// ∪ — union; `all` keeps duplicates (SQL UNION ALL).
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Bag semantics when true.
        all: bool,
    },
    /// − — set difference (left \ right).
    Difference {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// δ — duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// γ — grouping and aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by column ordinals (empty = one global group).
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Sort by `(column, ascending)` keys.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<(usize, bool)>,
    },
    /// Keep the first `n` tuples.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row budget.
        n: usize,
    },
    /// Transitive closure of a binary relation — the OFM operator of §2.5.
    ///
    /// Its meaning is σ_seed(TC(input)): the pairs `(a, b)` such that a
    /// path of one or more input edges leads from `a` to `b` and `a`
    /// passes `seed`. A path never continues through a NULL node (the
    /// equi-join rule: NULL matches nothing), but input pairs with NULL
    /// endpoints are paths of length one and stay in the result. Because
    /// a step keeps each pair's source, an executor may start the
    /// recursion from the seeded sources only; the optimizer moves
    /// source-column selections here (`pushdown`).
    Closure {
        /// Input plan; must produce a 2-column relation whose columns are
        /// union-compatible.
        input: Box<LogicalPlan>,
        /// Predicate over the source column (ordinal 0) only; `None`
        /// keeps every source.
        seed: Option<ScalarExpr>,
    },
    /// Semi-naive linear fixpoint (PRISMAlog recursion).
    Fixpoint {
        /// Name the recursive relation is bound to inside `step`.
        name: String,
        /// Non-recursive base case.
        base: Box<LogicalPlan>,
        /// Recursive step; may scan `name` (accumulated) and `Δname`
        /// (delta).
        step: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Convenience scan.
    pub fn scan(relation: impl Into<String>, schema: Schema) -> LogicalPlan {
        LogicalPlan::Scan {
            relation: relation.into(),
            schema,
        }
    }

    /// Convenience select.
    pub fn select(self, predicate: ScalarExpr) -> LogicalPlan {
        LogicalPlan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Convenience projection by column ordinals (names preserved).
    pub fn project_cols(self, cols: &[usize]) -> Result<LogicalPlan> {
        let in_schema = self.output_schema()?;
        let schema = in_schema.project(cols);
        Ok(LogicalPlan::Project {
            input: Box::new(self),
            exprs: cols.iter().map(|&i| ScalarExpr::Col(i)).collect(),
            schema,
        })
    }

    /// Convenience inner equi-join.
    pub fn join(self, right: LogicalPlan, on: Vec<(usize, usize)>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            kind: JoinKind::Inner,
            on,
            residual: None,
        }
    }

    /// Output schema, derived structurally.
    pub fn output_schema(&self) -> Result<Schema> {
        Ok(match self {
            LogicalPlan::Scan { schema, .. } | LogicalPlan::Values { schema, .. } => {
                schema.clone()
            }
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.output_schema()?,
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Join {
                left, right, kind, ..
            } => match kind {
                JoinKind::Inner => left.output_schema()?.join(&right.output_schema()?),
                JoinKind::Semi | JoinKind::Anti => left.output_schema()?,
            },
            LogicalPlan::Union { left, .. } => left.output_schema()?,
            LogicalPlan::Difference { left, .. } => left.output_schema()?,
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.output_schema()?;
                let mut cols: Vec<Column> = group_by
                    .iter()
                    .map(|&i| {
                        in_schema.column(i).cloned().ok_or_else(|| {
                            PrismaError::ExprType(format!("group-by ordinal {i} out of range"))
                        })
                    })
                    .collect::<Result<_>>()?;
                for a in aggs {
                    let in_ty = if a.func == crate::agg::AggFunc::CountStar {
                        DataType::Int
                    } else {
                        in_schema
                            .column(a.col)
                            .map(|c| c.dtype)
                            .ok_or_else(|| {
                                PrismaError::ExprType(format!(
                                    "aggregate ordinal {} out of range",
                                    a.col
                                ))
                            })?
                    };
                    cols.push(Column::nullable(a.name.clone(), a.output_type(in_ty)?));
                }
                Schema::new(cols)
            }
            LogicalPlan::Closure { input, .. } => input.output_schema()?,
            LogicalPlan::Fixpoint { base, .. } => base.output_schema()?,
        })
    }

    /// Validate the whole tree: schema derivation succeeds, predicates and
    /// expressions type-check, unions are compatible, closures are binary.
    pub fn validate(&self) -> Result<Schema> {
        let schema = self.output_schema()?;
        match self {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Values { schema, rows } => {
                for r in rows {
                    schema.check_tuple(r.values())?;
                }
            }
            LogicalPlan::Select { input, predicate } => {
                let in_schema = input.validate()?;
                let t = predicate.check(&in_schema)?;
                if t != DataType::Bool {
                    return Err(PrismaError::ExprType(format!(
                        "selection predicate has type {t}"
                    )));
                }
            }
            LogicalPlan::Project { input, exprs, schema } => {
                let in_schema = input.validate()?;
                if exprs.len() != schema.arity() {
                    return Err(PrismaError::ArityMismatch {
                        expected: schema.arity(),
                        got: exprs.len(),
                    });
                }
                for e in exprs {
                    e.check(&in_schema)?;
                }
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                residual,
                ..
            } => {
                let ls = left.validate()?;
                let rs = right.validate()?;
                for &(l, r) in on {
                    if l >= ls.arity() || r >= rs.arity() {
                        return Err(PrismaError::ExprType(format!(
                            "join key ({l},{r}) out of range"
                        )));
                    }
                }
                if let Some(p) = residual {
                    p.check(&ls.join(&rs))?;
                }
            }
            LogicalPlan::Union { left, right, .. } | LogicalPlan::Difference { left, right } => {
                let ls = left.validate()?;
                let rs = right.validate()?;
                if !ls.union_compatible(&rs) {
                    return Err(PrismaError::ExprType(format!(
                        "union-incompatible inputs {ls} vs {rs}"
                    )));
                }
            }
            LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => {
                input.validate()?;
            }
            LogicalPlan::Aggregate { input, .. } => {
                input.validate()?;
            }
            LogicalPlan::Closure { input, seed } => {
                let s = input.validate()?;
                if s.arity() != 2 {
                    return Err(PrismaError::ExprType(format!(
                        "transitive closure needs a binary relation, got arity {}",
                        s.arity()
                    )));
                }
                let (a, b) = (s.column(0).expect("arity 2"), s.column(1).expect("arity 2"));
                if a.dtype != b.dtype {
                    return Err(PrismaError::ExprType(
                        "closure columns must share a type".into(),
                    ));
                }
                if let Some(p) = seed {
                    check_closure_seed(p, &s)?;
                }
            }
            LogicalPlan::Fixpoint { base, step, .. } => {
                let bs = base.validate()?;
                let ss = step.validate()?;
                if !bs.union_compatible(&ss) {
                    return Err(PrismaError::ExprType(
                        "fixpoint base and step are union-incompatible".into(),
                    ));
                }
            }
        }
        Ok(schema)
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Closure { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::Union { left, right, .. }
            | LogicalPlan::Difference { left, right } => vec![left, right],
            LogicalPlan::Fixpoint { base, step, .. } => vec![base, step],
        }
    }

    /// Bottom-up rewrite: children first, then `f` on the rebuilt node.
    pub fn transform_up(&self, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let rebuilt = match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => self.clone(),
            LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
                input: Box::new(input.transform_up(f)),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { input, exprs, schema } => LogicalPlan::Project {
                input: Box::new(input.transform_up(f)),
                exprs: exprs.clone(),
                schema: schema.clone(),
            },
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                residual,
            } => LogicalPlan::Join {
                left: Box::new(left.transform_up(f)),
                right: Box::new(right.transform_up(f)),
                kind: *kind,
                on: on.clone(),
                residual: residual.clone(),
            },
            LogicalPlan::Union { left, right, all } => LogicalPlan::Union {
                left: Box::new(left.transform_up(f)),
                right: Box::new(right.transform_up(f)),
                all: *all,
            },
            LogicalPlan::Difference { left, right } => LogicalPlan::Difference {
                left: Box::new(left.transform_up(f)),
                right: Box::new(right.transform_up(f)),
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(input.transform_up(f)),
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: Box::new(input.transform_up(f)),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(input.transform_up(f)),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(input.transform_up(f)),
                n: *n,
            },
            LogicalPlan::Closure { input, seed } => LogicalPlan::Closure {
                input: Box::new(input.transform_up(f)),
                seed: seed.clone(),
            },
            LogicalPlan::Fixpoint { name, base, step } => LogicalPlan::Fixpoint {
                name: name.clone(),
                base: Box::new(base.transform_up(f)),
                step: Box::new(step.transform_up(f)),
            },
        };
        f(rebuilt)
    }

    /// Names of all base relations scanned (ignores fixpoint-internal
    /// bindings).
    pub fn scanned_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_scans(&mut out, &mut Vec::new());
        out.sort();
        out.dedup();
        out
    }

    fn collect_scans(&self, out: &mut Vec<String>, bound: &mut Vec<String>) {
        match self {
            LogicalPlan::Scan { relation, .. } => {
                let delta = relation.strip_prefix('Δ').unwrap_or(relation);
                if !bound.iter().any(|b| b == relation || b == delta) {
                    out.push(relation.clone());
                }
            }
            LogicalPlan::Fixpoint { name, base, step } => {
                base.collect_scans(out, bound);
                bound.push(name.clone());
                step.collect_scans(out, bound);
                bound.pop();
            }
            _ => {
                for c in self.children() {
                    c.collect_scans(out, bound);
                }
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan { relation, .. } => writeln!(f, "{pad}Scan {relation}")?,
            LogicalPlan::Values { rows, .. } => writeln!(f, "{pad}Values [{} rows]", rows.len())?,
            LogicalPlan::Select { predicate, .. } => writeln!(f, "{pad}Select {predicate}")?,
            LogicalPlan::Project { exprs, schema, .. } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .zip(schema.columns())
                    .map(|(e, c)| format!("{e} AS {}", c.name))
                    .collect();
                writeln!(f, "{pad}Project {}", cols.join(", "))?;
            }
            LogicalPlan::Join { kind, on, residual, .. } => {
                let keys: Vec<String> =
                    on.iter().map(|(l, r)| format!("l#{l}=r#{r}")).collect();
                write!(f, "{pad}{kind} on [{}]", keys.join(", "))?;
                if let Some(p) = residual {
                    write!(f, " filter {p}")?;
                }
                writeln!(f)?;
            }
            LogicalPlan::Union { all, .. } => {
                writeln!(f, "{pad}Union{}", if *all { "All" } else { "" })?
            }
            LogicalPlan::Difference { .. } => writeln!(f, "{pad}Difference")?,
            LogicalPlan::Distinct { .. } => writeln!(f, "{pad}Distinct")?,
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let names: Vec<String> = aggs.iter().map(|a| format!("{}", a.func)).collect();
                writeln!(f, "{pad}Aggregate group={group_by:?} aggs=[{}]", names.join(", "))?;
            }
            LogicalPlan::Sort { keys, .. } => writeln!(f, "{pad}Sort {keys:?}")?,
            LogicalPlan::Limit { n, .. } => writeln!(f, "{pad}Limit {n}")?,
            LogicalPlan::Closure { seed, .. } => fmt_closure(f, &pad, seed.as_ref())?,
            LogicalPlan::Fixpoint { name, .. } => writeln!(f, "{pad}Fixpoint {name}")?,
        }
        for c in self.children() {
            c.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

/// A closure seed must be a boolean predicate over the source column
/// (ordinal 0) only: seeding the recursion equals filtering its result
/// only for such predicates.
pub(crate) fn check_closure_seed(seed: &ScalarExpr, schema: &Schema) -> Result<()> {
    if seed.columns().iter().any(|&c| c != 0) {
        return Err(PrismaError::ExprType(format!(
            "closure seed {seed} reads a column other than the source"
        )));
    }
    let t = seed.check(schema)?;
    if t != DataType::Bool {
        return Err(PrismaError::ExprType(format!("closure seed has type {t}")));
    }
    Ok(())
}

/// The closure's EXPLAIN line, shared by the logical and physical trees.
pub(crate) fn fmt_closure(
    f: &mut fmt::Formatter<'_>,
    pad: &str,
    seed: Option<&ScalarExpr>,
) -> fmt::Result {
    match seed {
        Some(p) => writeln!(f, "{pad}TransitiveClosure seed: {p}"),
        None => writeln!(f, "{pad}TransitiveClosure"),
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use prisma_storage::expr::CmpOp;
    use prisma_types::tuple;

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("dept", DataType::Int),
            Column::new("salary", DataType::Double),
        ])
    }

    fn dept_schema() -> Schema {
        Schema::new(vec![
            Column::new("dept_id", DataType::Int),
            Column::new("name", DataType::Str),
        ])
    }

    #[test]
    fn join_schema_concatenates() {
        let p = LogicalPlan::scan("emp", emp_schema()).join(
            LogicalPlan::scan("dept", dept_schema()),
            vec![(1, 0)],
        );
        let s = p.output_schema().unwrap();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.column(3).unwrap().name, "dept_id");
        p.validate().unwrap();
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let p = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("emp", emp_schema())),
            right: Box::new(LogicalPlan::scan("dept", dept_schema())),
            kind: JoinKind::Semi,
            on: vec![(1, 0)],
            residual: None,
        };
        assert_eq!(p.output_schema().unwrap().arity(), 3);
    }

    #[test]
    fn aggregate_schema() {
        let p = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("emp", emp_schema())),
            group_by: vec![1],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Avg, 2, "avg_sal"),
            ],
        };
        let s = p.output_schema().unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).unwrap().name, "dept");
        assert_eq!(s.column(2).unwrap().dtype, DataType::Double);
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_plans() {
        // Ill-typed predicate.
        let p = LogicalPlan::scan("emp", emp_schema())
            .select(ScalarExpr::col(0));
        assert!(p.validate().is_err());
        // Union incompatible.
        let u = LogicalPlan::Union {
            left: Box::new(LogicalPlan::scan("emp", emp_schema())),
            right: Box::new(LogicalPlan::scan("dept", dept_schema())),
            all: false,
        };
        assert!(u.validate().is_err());
        // Closure over non-binary relation.
        let c = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("emp", emp_schema())),
            seed: None,
        };
        assert!(c.validate().is_err());
        // A closure seed that reads the destination column.
        let edge = Schema::new(vec![
            Column::new("src", DataType::Int),
            Column::new("dst", DataType::Int),
        ]);
        let c = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("edge", edge.clone())),
            seed: Some(ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(0))),
        };
        assert!(c.validate().is_err());
        // A non-boolean seed.
        let c = LogicalPlan::Closure {
            input: Box::new(LogicalPlan::scan("edge", edge)),
            seed: Some(ScalarExpr::col(0)),
        };
        assert!(c.validate().is_err());
        // Join key out of range.
        let j = LogicalPlan::scan("emp", emp_schema()).join(
            LogicalPlan::scan("dept", dept_schema()),
            vec![(9, 0)],
        );
        assert!(j.validate().is_err());
        // Bad values row.
        let v = LogicalPlan::Values {
            schema: dept_schema(),
            rows: vec![tuple![1, 2]],
        };
        assert!(v.validate().is_err());
    }

    #[test]
    fn scanned_relations_skips_fixpoint_bindings() {
        let edge = Schema::new(vec![
            Column::new("src", DataType::Int),
            Column::new("dst", DataType::Int),
        ]);
        let p = LogicalPlan::Fixpoint {
            name: "path".into(),
            base: Box::new(LogicalPlan::scan("edge", edge.clone())),
            step: Box::new(
                LogicalPlan::scan("Δpath", edge.clone())
                    .join(LogicalPlan::scan("edge", edge.clone()), vec![(1, 0)])
                    .project_cols(&[0, 3])
                    .unwrap(),
            ),
        };
        assert_eq!(p.scanned_relations(), vec!["edge".to_string()]);
    }

    #[test]
    fn transform_up_rewrites_leaves() {
        let p = LogicalPlan::scan("emp", emp_schema()).select(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(2),
            ScalarExpr::lit(10.0),
        ));
        let renamed = p.transform_up(&mut |node| match node {
            LogicalPlan::Scan { schema, .. } => LogicalPlan::scan("emp_v2", schema),
            other => other,
        });
        assert_eq!(renamed.scanned_relations(), vec!["emp_v2".to_string()]);
    }

    #[test]
    fn display_is_indented_tree() {
        let p = LogicalPlan::scan("emp", emp_schema())
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(2),
                ScalarExpr::lit(10.0),
            ));
        let txt = p.to_string();
        assert!(txt.starts_with("Select"));
        assert!(txt.contains("\n  Scan emp"));
    }
}
