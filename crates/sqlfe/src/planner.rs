//! Lowering SQL ASTs to logical plans.

use prisma_relalg::{AggExpr, AggFunc, JoinKind, LogicalPlan};
use prisma_storage::expr::{CmpOp, ScalarExpr};
use prisma_types::{Column, PrismaError, Result, Schema, Tuple, Value};

use crate::ast::*;

/// Schema source for name resolution — backed by the GDH data dictionary
/// in the full machine, by plain maps in tests.
pub trait Catalog {
    /// Schema of a base relation.
    fn table_schema(&self, name: &str) -> Result<Schema>;
}

impl Catalog for std::collections::HashMap<String, Schema> {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.get(name)
            .cloned()
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }
}

/// The planner's output: either a read-only plan or a described DML/DDL
/// action for the Global Data Handler to carry out against OFMs.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedStatement {
    /// A query plan (unoptimized; feed to `prisma-optimizer`).
    Query(LogicalPlan),
    /// Create a relation with a fragmentation spec.
    CreateTable {
        /// Relation name.
        name: String,
        /// Relation schema.
        schema: Schema,
        /// Hash-fragmentation column ordinal (None = round robin).
        frag_column: Option<usize>,
        /// Number of fragments.
        frag_count: usize,
    },
    /// Drop a relation.
    DropTable(String),
    /// Create an index on every fragment of a relation.
    CreateIndex {
        /// Relation name.
        table: String,
        /// Column ordinal.
        column: usize,
        /// Hash (true) or B-tree.
        hash: bool,
    },
    /// Insert literal rows.
    Insert {
        /// Relation name.
        table: String,
        /// Validated rows.
        rows: Vec<Tuple>,
    },
    /// Delete matching rows.
    Delete {
        /// Relation name.
        table: String,
        /// Predicate over the (unqualified) table schema.
        predicate: Option<ScalarExpr>,
    },
    /// Update matching rows.
    Update {
        /// Relation name.
        table: String,
        /// `(column ordinal, value expression over the old tuple)`.
        assignments: Vec<(usize, ScalarExpr)>,
        /// Predicate over the table schema.
        predicate: Option<ScalarExpr>,
    },
}

/// Plan a parsed statement.
pub fn plan(stmt: &Statement, catalog: &dyn Catalog) -> Result<PlannedStatement> {
    match stmt {
        Statement::Query(q) => Ok(PlannedStatement::Query(plan_query(q, catalog)?)),
        Statement::CreateTable {
            name,
            columns,
            fragments,
        } => {
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|c| Column {
                        name: c.name.clone(),
                        dtype: c.dtype,
                        nullable: c.nullable,
                    })
                    .collect(),
            );
            let (frag_column, frag_count) = match fragments {
                None => (None, 1),
                Some(FragmentSpec { column, count }) => {
                    let ord = column
                        .as_ref()
                        .map(|c| schema.resolve(c))
                        .transpose()?;
                    (ord, *count)
                }
            };
            Ok(PlannedStatement::CreateTable {
                name: name.clone(),
                schema,
                frag_column,
                frag_count,
            })
        }
        Statement::DropTable { name } => Ok(PlannedStatement::DropTable(name.clone())),
        Statement::CreateIndex {
            table,
            column,
            hash,
        } => {
            let schema = catalog.table_schema(table)?;
            Ok(PlannedStatement::CreateIndex {
                table: table.clone(),
                column: schema.resolve(column)?,
                hash: *hash,
            })
        }
        Statement::Insert { table, rows } => {
            let schema = catalog.table_schema(table)?;
            let mut tuples = Vec::with_capacity(rows.len());
            for row in rows {
                let values: Vec<Value> = row
                    .iter()
                    .map(const_eval)
                    .collect::<Result<_>>()?;
                schema.check_tuple(&values)?;
                tuples.push(Tuple::new(values));
            }
            Ok(PlannedStatement::Insert {
                table: table.clone(),
                rows: tuples,
            })
        }
        Statement::Delete { table, predicate } => {
            let schema = catalog.table_schema(table)?;
            let predicate = predicate
                .as_ref()
                .map(|p| resolve_expr(p, &schema, None))
                .transpose()?;
            Ok(PlannedStatement::Delete {
                table: table.clone(),
                predicate,
            })
        }
        Statement::Update {
            table,
            sets,
            predicate,
        } => {
            let schema = catalog.table_schema(table)?;
            let mut assignments = Vec::with_capacity(sets.len());
            for (col, e) in sets {
                let ord = schema.resolve(col)?;
                assignments.push((ord, resolve_expr(e, &schema, None)?));
            }
            let predicate = predicate
                .as_ref()
                .map(|p| resolve_expr(p, &schema, None))
                .transpose()?;
            Ok(PlannedStatement::Update {
                table: table.clone(),
                assignments,
                predicate,
            })
        }
    }
}

/// Plan a query (set ops + ORDER BY + LIMIT).
pub fn plan_query(q: &Query, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    let mut plan = plan_set_expr(&q.body, catalog)?;
    if !q.order_by.is_empty() {
        plan = plan_order_by(plan, &q.order_by)?;
    }
    if let Some(n) = q.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    plan.validate()?;
    Ok(plan)
}

/// Resolve a (possibly qualified) name against `schema`, falling back to
/// the base name (the final projection strips qualifiers, so `e.id`
/// matches output column `id`).
fn resolve_loose(schema: &Schema, name: &str) -> Result<usize> {
    schema.resolve(name).or_else(|e| match name.rsplit_once('.') {
        Some((_, base)) => schema.resolve(base),
        None => Err(e),
    })
}

/// Plan ORDER BY: keys resolve against the query output; keys that were
/// projected away (SQL allows `SELECT id ... ORDER BY sal`) resolve
/// against the input of the final projection, and the Sort is placed
/// below it — projection preserves row order, so this is equivalent.
fn plan_order_by(plan: LogicalPlan, order_by: &[(String, bool)]) -> Result<LogicalPlan> {
    let schema = plan.output_schema()?;
    let against_output: Result<Vec<(usize, bool)>> = order_by
        .iter()
        .map(|(name, asc)| Ok((resolve_loose(&schema, name)?, *asc)))
        .collect();
    match against_output {
        Ok(keys) => Ok(LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        }),
        Err(outer_err) => match plan {
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let in_schema = input.output_schema()?;
                let keys = order_by
                    .iter()
                    .map(|(name, asc)| Ok((resolve_loose(&in_schema, name)?, *asc)))
                    .collect::<Result<Vec<_>>>()
                    .map_err(|_| outer_err)?;
                Ok(LogicalPlan::Project {
                    input: Box::new(LogicalPlan::Sort { input, keys }),
                    exprs,
                    schema,
                })
            }
            LogicalPlan::Distinct { input } => Ok(LogicalPlan::Distinct {
                input: Box::new(plan_order_by(*input, order_by)?),
            }),
            _ => Err(outer_err),
        },
    }
}

fn plan_set_expr(se: &SetExpr, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    match se {
        SetExpr::Select(s) => plan_select(s, catalog),
        SetExpr::Union { left, right, all } => {
            let l = plan_set_expr(left, catalog)?;
            let r = plan_set_expr(right, catalog)?;
            check_union_compat(&l, &r)?;
            Ok(LogicalPlan::Union {
                left: Box::new(l),
                right: Box::new(r),
                all: *all,
            })
        }
        SetExpr::Except { left, right } => {
            let l = plan_set_expr(left, catalog)?;
            let r = plan_set_expr(right, catalog)?;
            check_union_compat(&l, &r)?;
            Ok(LogicalPlan::Difference {
                left: Box::new(l),
                right: Box::new(r),
            })
        }
    }
}

fn check_union_compat(l: &LogicalPlan, r: &LogicalPlan) -> Result<()> {
    let (ls, rs) = (l.output_schema()?, r.output_schema()?);
    if !ls.union_compatible(&rs) {
        return Err(PrismaError::ExprType(format!(
            "set operation over incompatible schemas {ls} vs {rs}"
        )));
    }
    Ok(())
}

fn source_plan(src: &TableRef, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    match src {
        TableRef::Table { name, .. } => {
            let schema = catalog.table_schema(name)?.qualify(src.alias());
            Ok(LogicalPlan::scan(name.clone(), schema))
        }
        TableRef::Closure { name, .. } => {
            let base = catalog.table_schema(name)?;
            let plan = LogicalPlan::Closure {
                input: Box::new(LogicalPlan::scan(name.clone(), base.qualify(src.alias()))),
                seed: None,
            };
            Ok(plan)
        }
    }
}

fn plan_select(sel: &Select, catalog: &dyn Catalog) -> Result<LogicalPlan> {
    if sel.from.is_empty() {
        return Err(PrismaError::Parse("empty FROM clause".into()));
    }
    // Duplicate aliases would make every column ambiguous; reject early.
    for (i, a) in sel.from.iter().enumerate() {
        for b in &sel.from[..i] {
            if a.alias() == b.alias() {
                return Err(PrismaError::Parse(format!(
                    "duplicate table alias {}",
                    a.alias()
                )));
            }
        }
    }
    // 1. FROM: left-deep cross-join chain. The optimizer turns the
    //    selection above it into proper equi-joins (E9).
    let mut plan = source_plan(&sel.from[0], catalog)?;
    for src in &sel.from[1..] {
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(source_plan(src, catalog)?),
            kind: JoinKind::Inner,
            on: vec![],
            residual: None,
        };
    }
    let from_schema = plan.output_schema()?;

    // 2. WHERE (aggregates illegal here).
    if let Some(p) = &sel.predicate {
        let sp = resolve_expr(p, &from_schema, None)?;
        plan = plan.select(sp);
    }

    // 3. Aggregation?
    let mut aggs = AggCollector::default();
    for item in &sel.items {
        if let SelectItem::Expr { expr, alias } = item {
            collect_aggs(expr, alias.as_deref(), &mut aggs);
        }
    }
    if let Some(h) = &sel.having {
        collect_aggs(h, None, &mut aggs);
    }
    let grouped = !sel.group_by.is_empty() || !aggs.entries.is_empty();

    let mut plan = if grouped {
        plan_aggregation(plan, sel, &from_schema, aggs)?
    } else {
        plan_plain_projection(plan, sel, &from_schema)?
    };

    if sel.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

fn plan_plain_projection(
    plan: LogicalPlan,
    sel: &Select,
    from_schema: &Schema,
) -> Result<LogicalPlan> {
    if sel.having.is_some() {
        return Err(PrismaError::Parse("HAVING without GROUP BY".into()));
    }
    // `SELECT *` alone keeps the input as-is (unqualified names for
    // single-table scans read better in results).
    let mut exprs = Vec::new();
    let mut cols = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in from_schema.columns().iter().enumerate() {
                    exprs.push(ScalarExpr::Col(i));
                    cols.push(Column {
                        name: c.base_name().to_owned(),
                        dtype: c.dtype,
                        nullable: c.nullable,
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                let se = resolve_expr(expr, from_schema, None)?;
                let dtype = se.check(from_schema)?;
                let name = alias.clone().unwrap_or_else(|| display_name(expr));
                cols.push(Column::nullable(name, dtype));
                exprs.push(se);
            }
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(cols),
    })
}

/// One collected aggregate call.
#[derive(Debug, Default)]
struct AggCollector {
    /// `(func, arg, output name)`, deduplicated structurally.
    entries: Vec<(String, Option<Expr>, String)>,
}

impl AggCollector {
    fn add(&mut self, func: &str, arg: Option<&Expr>, alias: Option<&str>) -> usize {
        if let Some(i) = self
            .entries
            .iter()
            .position(|(f, a, _)| f == func && a.as_ref() == arg)
        {
            if let Some(alias) = alias {
                self.entries[i].2 = alias.to_owned();
            }
            return i;
        }
        let name = alias.map(str::to_owned).unwrap_or_else(|| {
            let arg_name = arg.map(display_name).unwrap_or_else(|| "*".to_owned());
            format!("{}({})", func.trim_end_matches('*'), arg_name)
        });
        self.entries.push((func.to_owned(), arg.cloned(), name));
        self.entries.len() - 1
    }
}

fn collect_aggs(e: &Expr, alias: Option<&str>, out: &mut AggCollector) {
    match e {
        Expr::Agg { func, arg } => {
            out.add(func, arg.as_deref(), alias);
        }
        Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            collect_aggs(l, None, out);
            collect_aggs(r, None, out);
        }
        Expr::Between(a, b, c) => {
            collect_aggs(a, None, out);
            collect_aggs(b, None, out);
            collect_aggs(c, None, out);
        }
        Expr::Not(x) | Expr::Neg(x) | Expr::IsNull(x, _) => collect_aggs(x, None, out),
        Expr::Column(_) | Expr::Lit(_) => {}
    }
}

fn agg_func(name: &str) -> Result<AggFunc> {
    Ok(match name {
        "COUNT*" => AggFunc::CountStar,
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        "AVG" => AggFunc::Avg,
        other => {
            return Err(PrismaError::Parse(format!(
                "unknown aggregate function {other}"
            )))
        }
    })
}

fn plan_aggregation(
    plan: LogicalPlan,
    sel: &Select,
    from_schema: &Schema,
    aggs: AggCollector,
) -> Result<LogicalPlan> {
    // Group-by ordinals against the FROM schema.
    let gcols: Vec<usize> = sel
        .group_by
        .iter()
        .map(|n| from_schema.resolve(n))
        .collect::<Result<_>>()?;

    // Pre-projection: all FROM columns followed by one computed column per
    // aggregate argument (so SUM(a*b) works).
    let arity = from_schema.arity();
    let mut pre_exprs: Vec<ScalarExpr> = (0..arity).map(ScalarExpr::Col).collect();
    let mut pre_cols = from_schema.columns().to_vec();
    let mut agg_exprs = Vec::with_capacity(aggs.entries.len());
    for (i, (func, arg, name)) in aggs.entries.iter().enumerate() {
        let func = agg_func(func)?;
        let col = match arg {
            None => 0, // COUNT(*) ignores its column
            Some(a) => {
                let se = resolve_expr(a, from_schema, None)?;
                let dtype = se.check(from_schema)?;
                pre_exprs.push(se);
                pre_cols.push(Column::nullable(format!("__agg_arg{i}"), dtype));
                arity + (pre_cols.len() - from_schema.arity()) - 1
            }
        };
        agg_exprs.push(AggExpr::new(func, col, name.clone()));
    }
    let pre_schema = Schema::new(pre_cols);
    let plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: pre_exprs,
        schema: pre_schema,
    };
    let mut plan = LogicalPlan::Aggregate {
        input: Box::new(plan),
        group_by: gcols.clone(),
        aggs: agg_exprs,
    };
    let agg_schema = plan.output_schema()?;

    // HAVING: resolved against the aggregate output, Agg nodes replaced by
    // their output columns.
    if let Some(h) = &sel.having {
        let hp = resolve_expr(h, &agg_schema, Some(&aggs))?;
        plan = plan.select(hp);
    }

    // Final projection in SELECT-list order.
    let mut exprs = Vec::new();
    let mut cols = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                // `SELECT *` with GROUP BY = all group cols + all aggregates.
                for (i, c) in agg_schema.columns().iter().enumerate() {
                    exprs.push(ScalarExpr::Col(i));
                    cols.push(c.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                let se = resolve_expr(expr, &agg_schema, Some(&aggs))?;
                let dtype = se.check(&agg_schema)?;
                let name = alias.clone().unwrap_or_else(|| display_name(expr));
                cols.push(Column::nullable(name, dtype));
                exprs.push(se);
            }
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(cols),
    })
}

/// Human-readable default column name for an expression.
fn display_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.rsplit('.').next().unwrap_or(c).to_owned(),
        Expr::Agg { func, arg } => format!(
            "{}({})",
            func.trim_end_matches('*'),
            arg.as_deref().map(display_name).unwrap_or_else(|| "*".into())
        ),
        Expr::Lit(v) => v.to_string(),
        _ => "expr".to_owned(),
    }
}

/// Resolve a parsed expression against `schema`. When `aggs` is given,
/// aggregate calls resolve to the matching output column of the Aggregate
/// node (by structural identity); otherwise aggregates are illegal.
fn resolve_expr(
    e: &Expr,
    schema: &Schema,
    aggs: Option<&AggCollector>,
) -> Result<ScalarExpr> {
    Ok(match e {
        Expr::Column(name) => ScalarExpr::Col(schema.resolve(name)?),
        Expr::Lit(v) => ScalarExpr::Lit(v.clone()),
        Expr::Cmp(op, l, r) => ScalarExpr::cmp(
            *op,
            resolve_expr(l, schema, aggs)?,
            resolve_expr(r, schema, aggs)?,
        ),
        Expr::Between(x, lo, hi) => {
            let x1 = resolve_expr(x, schema, aggs)?;
            let lo = resolve_expr(lo, schema, aggs)?;
            let hi = resolve_expr(hi, schema, aggs)?;
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Ge, x1.clone(), lo),
                ScalarExpr::cmp(CmpOp::Le, x1, hi),
            )
        }
        Expr::Arith(op, l, r) => ScalarExpr::arith(
            *op,
            resolve_expr(l, schema, aggs)?,
            resolve_expr(r, schema, aggs)?,
        ),
        Expr::Neg(x) => ScalarExpr::Neg(Box::new(resolve_expr(x, schema, aggs)?)),
        Expr::And(l, r) => ScalarExpr::and(
            resolve_expr(l, schema, aggs)?,
            resolve_expr(r, schema, aggs)?,
        ),
        Expr::Or(l, r) => ScalarExpr::or(
            resolve_expr(l, schema, aggs)?,
            resolve_expr(r, schema, aggs)?,
        ),
        Expr::Not(x) => ScalarExpr::Not(Box::new(resolve_expr(x, schema, aggs)?)),
        Expr::IsNull(x, negated) => {
            let inner = ScalarExpr::IsNull(Box::new(resolve_expr(x, schema, aggs)?));
            if *negated {
                ScalarExpr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        Expr::Agg { func, arg } => {
            let Some(collector) = aggs else {
                return Err(PrismaError::Parse(
                    "aggregate not allowed in this clause".into(),
                ));
            };
            let pos = collector
                .entries
                .iter()
                .position(|(f, a, _)| f == func && a.as_ref() == arg.as_deref())
                .ok_or_else(|| {
                    PrismaError::Parse("aggregate not present in SELECT/HAVING".into())
                })?;
            let name = &collector.entries[pos].2;
            ScalarExpr::Col(schema.resolve(name)?)
        }
    })
}

/// Constant-fold an INSERT value expression.
fn const_eval(e: &Expr) -> Result<Value> {
    let se = resolve_expr(e, &Schema::empty(), None)
        .map_err(|_| PrismaError::Parse("INSERT values must be constants".into()))?;
    se.eval(&Tuple::unit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;
    use prisma_relalg::{eval, Relation};
    use prisma_types::{tuple, DataType};
    use std::collections::HashMap;

    fn catalog() -> HashMap<String, Schema> {
        let mut c = HashMap::new();
        c.insert(
            "emp".to_owned(),
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Int),
                Column::new("sal", DataType::Double),
            ]),
        );
        c.insert(
            "dept".to_owned(),
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Str),
            ]),
        );
        c.insert(
            "edge".to_owned(),
            Schema::new(vec![
                Column::new("src", DataType::Int),
                Column::new("dst", DataType::Int),
            ]),
        );
        c
    }

    fn db() -> HashMap<String, Relation> {
        let c = catalog();
        let mut db = HashMap::new();
        db.insert(
            "emp".to_owned(),
            Relation::new(
                c["emp"].clone(),
                vec![
                    tuple![1, 10, 100.0],
                    tuple![2, 10, 200.0],
                    tuple![3, 20, 300.0],
                ],
            ),
        );
        db.insert(
            "dept".to_owned(),
            Relation::new(
                c["dept"].clone(),
                vec![tuple![10, "eng"], tuple![20, "sales"]],
            ),
        );
        db.insert(
            "edge".to_owned(),
            Relation::new(c["edge"].clone(), vec![tuple![1, 2], tuple![2, 3]]),
        );
        db
    }

    fn run(sql: &str) -> Relation {
        let stmt = parse_statement(sql).unwrap();
        let PlannedStatement::Query(plan) = plan(&stmt, &catalog()).unwrap() else {
            panic!("not a query");
        };
        eval(&plan, &db()).unwrap()
    }

    #[test]
    fn simple_select_star() {
        let out = run("SELECT * FROM emp WHERE sal >= 200");
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().arity(), 3);
    }

    #[test]
    fn join_via_where_is_correct_even_unoptimized() {
        let out = run(
            "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id AND d.name = 'eng'",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().column(1).unwrap().name, "name");
    }

    #[test]
    fn explicit_join_on() {
        let out = run("SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id ORDER BY e.id DESC");
        let ids: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 2, 1]);
    }

    #[test]
    fn aggregation_group_by_having() {
        let out = run(
            "SELECT dept, COUNT(*) AS n, AVG(sal) AS a FROM emp \
             GROUP BY dept HAVING n >= 2",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0], tuple![10, 2, 150.0]);
    }

    #[test]
    fn aggregate_over_expression() {
        let out = run("SELECT SUM(sal * 2) AS s2 FROM emp");
        assert_eq!(out.tuples()[0], tuple![1200.0]);
    }

    #[test]
    fn count_star_in_having_matches_select() {
        let out = run("SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) = 1");
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0], tuple![20]);
    }

    #[test]
    fn distinct_union_except() {
        let out = run("SELECT dept FROM emp UNION SELECT id FROM dept");
        assert_eq!(out.len(), 2); // {10, 20}
        let out = run("SELECT dept FROM emp EXCEPT SELECT id FROM dept WHERE name = 'eng'");
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0], tuple![20]);
        let out = run("SELECT DISTINCT dept FROM emp");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn closure_in_sql() {
        let out = run("SELECT * FROM CLOSURE(edge) c WHERE c.src = 1 ORDER BY c.dst");
        assert_eq!(out.len(), 2); // 1->2, 1->3
        assert_eq!(out.tuples()[1], tuple![1, 3]);
    }

    #[test]
    fn limit_and_order() {
        let out = run("SELECT id FROM emp ORDER BY sal DESC LIMIT 2");
        let ids: Vec<i64> = out
            .tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn between_desugars() {
        let out = run("SELECT id FROM emp WHERE sal BETWEEN 150 AND 250");
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0], tuple![2]);
    }

    #[test]
    fn dml_planning() {
        let c = catalog();
        let s = parse_statement("INSERT INTO dept VALUES (30, 'ops'), (40, 'hr')").unwrap();
        let p = plan(&s, &c).unwrap();
        assert!(matches!(p, PlannedStatement::Insert { ref rows, .. } if rows.len() == 2));
        // Arithmetic constants fold.
        let s = parse_statement("INSERT INTO dept VALUES (2 + 3, 'x')").unwrap();
        let PlannedStatement::Insert { rows, .. } = plan(&s, &c).unwrap() else {
            panic!()
        };
        assert_eq!(rows[0], tuple![5, "x"]);
        // Type mismatch rejected at plan time.
        let s = parse_statement("INSERT INTO dept VALUES ('x', 'y')").unwrap();
        assert!(plan(&s, &c).is_err());
        // Update resolves assignment ordinals.
        let s = parse_statement("UPDATE emp SET sal = sal * 1.1 WHERE dept = 10").unwrap();
        let PlannedStatement::Update { assignments, .. } = plan(&s, &c).unwrap() else {
            panic!()
        };
        assert_eq!(assignments[0].0, 2);
    }

    #[test]
    fn planner_errors() {
        let c = catalog();
        for sql in [
            "SELECT bogus FROM emp",
            "SELECT id FROM ghost",
            "SELECT id FROM emp WHERE COUNT(*) > 1",
            "SELECT id FROM emp UNION SELECT name FROM dept",
            "SELECT id FROM emp e, emp e WHERE 1 = 1",
            "SELECT id FROM emp HAVING id > 1",
            "SELECT id FROM emp ORDER BY nothere",
        ] {
            let stmt = parse_statement(sql).unwrap();
            assert!(plan(&stmt, &c).is_err(), "{sql} should fail");
        }
    }

    #[test]
    fn create_table_resolves_frag_column() {
        let c = catalog();
        let s = parse_statement(
            "CREATE TABLE t (a INT, b STRING) FRAGMENTED BY HASH(b) INTO 4",
        )
        .unwrap();
        let PlannedStatement::CreateTable {
            frag_column,
            frag_count,
            ..
        } = plan(&s, &c).unwrap()
        else {
            panic!()
        };
        assert_eq!(frag_column, Some(1));
        assert_eq!(frag_count, 4);
    }
}
