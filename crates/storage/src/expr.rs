//! Scalar expressions: AST, type checker, interpreter, and the **expression
//! compiler**.
//!
//! Paper §2.5: "each OFM is equipped with an expression compiler to
//! generate routines dynamically. … it avoids the otherwise excessive
//! interpretation overhead incurred by a query expression interpreter."
//!
//! PRISMA generated POOL-X code at run time; the closest safe-Rust
//! equivalent is **closure composition**: [`ScalarExpr::compile`] folds the
//! AST once into a tree of `Box<dyn Fn>` whose evaluation performs no
//! enum-discriminant dispatch, no column re-resolution and no Result
//! plumbing on the hot path. [`ScalarExpr::eval`] is the tree-walking
//! interpreter kept as the baseline; experiment E5 measures the gap.

use std::fmt;
use std::sync::Arc;

use prisma_types::{ColumnVec, DataType, LazyColumns, PrismaError, Result, Schema, SelVec, Tuple, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply to an ordering produced by `Value::sql_cmp`.
    #[inline]
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// `a op b` ⇒ `b (flip op) a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Rem => "%",
        };
        f.write_str(s)
    }
}

/// A scalar expression over the columns of one input schema.
///
/// Column references are *ordinal* (resolved by the front end against the
/// input schema), so evaluation never touches names.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference by ordinal.
    Col(usize),
    /// Literal constant.
    Lit(Value),
    /// Comparison with SQL three-valued logic.
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Kleene AND.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Kleene OR.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Kleene NOT.
    Not(Box<ScalarExpr>),
    /// `IS NULL` (never unknown).
    IsNull(Box<ScalarExpr>),
    /// Unary minus.
    Neg(Box<ScalarExpr>),
}

/// A compiled scalar routine: tuple in, value out.
pub type CompiledExpr = Arc<dyn Fn(&Tuple) -> Value + Send + Sync>;
/// A compiled predicate routine: tuple in, keep/drop out (SQL semantics —
/// NULL/unknown filters the row out).
pub type CompiledPredicate = Arc<dyn Fn(&Tuple) -> bool + Send + Sync>;

impl ScalarExpr {
    // ---------- constructors (builder helpers for tests & front ends) ----

    /// Column reference.
    pub fn col(i: usize) -> ScalarExpr {
        ScalarExpr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Lit(v.into())
    }

    /// Comparison node.
    pub fn cmp(op: CmpOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp(op, Box::new(l), Box::new(r))
    }

    /// `l = r`.
    pub fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::cmp(CmpOp::Eq, l, r)
    }

    /// Conjunction.
    pub fn and(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::And(Box::new(l), Box::new(r))
    }

    /// Disjunction.
    pub fn or(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Or(Box::new(l), Box::new(r))
    }

    /// Arithmetic node.
    pub fn arith(op: ArithOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Arith(op, Box::new(l), Box::new(r))
    }

    /// Fold a list of predicates into a conjunction (`true` for empty).
    pub fn conjunction(mut preds: Vec<ScalarExpr>) -> ScalarExpr {
        match preds.len() {
            0 => ScalarExpr::lit(true),
            1 => preds.pop().expect("len checked"),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, ScalarExpr::and)
            }
        }
    }

    /// Split a conjunction into its flattened factors.
    pub fn split_conjunction(self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::And(l, r) => {
                let mut v = l.split_conjunction();
                v.extend(r.split_conjunction());
                v
            }
            other => vec![other],
        }
    }

    /// `col <op> literal` in either orientation, normalized to the column
    /// on the left (`5 > a` reads as `a < 5`) — the one factor shape index
    /// rules, zone maps and fragment elimination can all act on.
    pub fn as_col_cmp_lit(&self) -> Option<(usize, CmpOp, &Value)> {
        let ScalarExpr::Cmp(op, l, r) = self else {
            return None;
        };
        match (&**l, &**r) {
            (ScalarExpr::Col(i), ScalarExpr::Lit(v)) => Some((*i, *op, v)),
            (ScalarExpr::Lit(v), ScalarExpr::Col(i)) => Some((*i, op.flip(), v)),
            _ => None,
        }
    }

    // ---------- analysis ----------

    /// All column ordinals referenced.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let ScalarExpr::Col(i) = e {
                cols.push(*i);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Pre-order visit of all nodes.
    pub fn visit(&self, f: &mut impl FnMut(&ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) => {}
            ScalarExpr::Cmp(_, l, r) | ScalarExpr::Arith(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
                l.visit(f);
                r.visit(f);
            }
            ScalarExpr::Not(e) | ScalarExpr::IsNull(e) | ScalarExpr::Neg(e) => e.visit(f),
        }
    }

    /// Rewrite column ordinals through `map` (used when predicates are
    /// pushed through projections/joins).
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => ScalarExpr::Col(map(*i)),
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Cmp(op, l, r) => {
                ScalarExpr::cmp(*op, l.remap_columns(map), r.remap_columns(map))
            }
            ScalarExpr::Arith(op, l, r) => {
                ScalarExpr::arith(*op, l.remap_columns(map), r.remap_columns(map))
            }
            ScalarExpr::And(l, r) => ScalarExpr::and(l.remap_columns(map), r.remap_columns(map)),
            ScalarExpr::Or(l, r) => ScalarExpr::or(l.remap_columns(map), r.remap_columns(map)),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.remap_columns(map))),
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Box::new(e.remap_columns(map))),
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(e.remap_columns(map))),
        }
    }

    /// Static type of the expression against `schema`.
    ///
    /// Comparisons and boolean connectives yield `Bool`; arithmetic yields
    /// `Int` unless either side is `Double`. Type errors (comparing string
    /// to int, arithmetic on bool, ...) are rejected here, before any tuple
    /// is touched.
    pub fn check(&self, schema: &Schema) -> Result<DataType> {
        match self {
            ScalarExpr::Col(i) => schema
                .column(*i)
                .map(|c| c.dtype)
                .ok_or_else(|| PrismaError::ExprType(format!("column ordinal {i} out of range"))),
            ScalarExpr::Lit(v) => Ok(v.data_type().unwrap_or(DataType::Bool)),
            ScalarExpr::Cmp(_, l, r) => {
                let (lt, rt) = (l.check(schema)?, r.check(schema)?);
                let compatible = lt == rt || (lt.is_numeric() && rt.is_numeric());
                if !compatible {
                    return Err(PrismaError::ExprType(format!(
                        "cannot compare {lt} with {rt}"
                    )));
                }
                Ok(DataType::Bool)
            }
            ScalarExpr::Arith(op, l, r) => {
                let (lt, rt) = (l.check(schema)?, r.check(schema)?);
                if !lt.is_numeric() || !rt.is_numeric() {
                    return Err(PrismaError::ExprType(format!(
                        "arithmetic {op} needs numeric operands, got {lt} and {rt}"
                    )));
                }
                if lt == DataType::Double || rt == DataType::Double {
                    Ok(DataType::Double)
                } else {
                    Ok(DataType::Int)
                }
            }
            ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
                for side in [l, r] {
                    let t = side.check(schema)?;
                    if t != DataType::Bool {
                        return Err(PrismaError::ExprType(format!(
                            "boolean connective over {t}"
                        )));
                    }
                }
                Ok(DataType::Bool)
            }
            ScalarExpr::Not(e) => {
                let t = e.check(schema)?;
                if t != DataType::Bool {
                    return Err(PrismaError::ExprType(format!("NOT over {t}")));
                }
                Ok(DataType::Bool)
            }
            ScalarExpr::IsNull(e) => {
                e.check(schema)?;
                Ok(DataType::Bool)
            }
            ScalarExpr::Neg(e) => {
                let t = e.check(schema)?;
                if !t.is_numeric() {
                    return Err(PrismaError::ExprType(format!("unary minus over {t}")));
                }
                Ok(t)
            }
        }
    }

    // ---------- the interpreter (baseline for E5) ----------

    /// Tree-walking evaluation: one enum dispatch per node per tuple.
    /// NULL propagates through comparisons and arithmetic; AND/OR use
    /// Kleene three-valued logic represented as `Value::Null` = unknown.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        Ok(match self {
            ScalarExpr::Col(i) => tuple.get(*i).clone(),
            ScalarExpr::Lit(v) => v.clone(),
            ScalarExpr::Cmp(op, l, r) => {
                let (a, b) = (l.eval(tuple)?, r.eval(tuple)?);
                match a.sql_cmp(&b) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(op.test(ord)),
                }
            }
            ScalarExpr::Arith(op, l, r) => {
                let (a, b) = (l.eval(tuple)?, r.eval(tuple)?);
                if a.is_null() || b.is_null() {
                    Value::Null
                } else {
                    apply_arith(*op, &a, &b)?
                }
            }
            ScalarExpr::And(l, r) => kleene_and(l.eval(tuple)?, r.eval(tuple)?),
            ScalarExpr::Or(l, r) => kleene_or(l.eval(tuple)?, r.eval(tuple)?),
            ScalarExpr::Not(e) => match e.eval(tuple)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => {
                    return Err(PrismaError::ExprType(format!("NOT over {other}")));
                }
            },
            ScalarExpr::IsNull(e) => Value::Bool(e.eval(tuple)?.is_null()),
            ScalarExpr::Neg(e) => match e.eval(tuple)? {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(i.checked_neg().ok_or_else(|| {
                    PrismaError::Arithmetic("negation overflow".into())
                })?),
                Value::Double(d) => Value::Double(-d),
                other => return Err(PrismaError::ExprType(format!("unary minus over {other}"))),
            },
        })
    }

    /// Evaluate as a filter predicate: unknown (NULL) rejects the row.
    pub fn eval_predicate(&self, tuple: &Tuple) -> Result<bool> {
        Ok(matches!(self.eval(tuple)?, Value::Bool(true)))
    }

    // ---------- the compiler (paper §2.5) ----------

    /// Compile to a closure tree. The expression must already type-check:
    /// compiled routines omit the checks the interpreter performs per
    /// tuple (that is the point), so runtime type surprises degrade to
    /// NULL rather than error.
    pub fn compile(&self) -> CompiledExpr {
        match self {
            ScalarExpr::Col(i) => {
                let i = *i;
                Arc::new(move |t| t.get(i).clone())
            }
            ScalarExpr::Lit(v) => {
                let v = v.clone();
                Arc::new(move |_| v.clone())
            }
            ScalarExpr::Cmp(op, l, r) => compile_cmp(*op, l, r),
            ScalarExpr::Arith(op, l, r) => {
                let (op, lf, rf) = (*op, l.compile(), r.compile());
                Arc::new(move |t| {
                    let (a, b) = (lf(t), rf(t));
                    if a.is_null() || b.is_null() {
                        return Value::Null;
                    }
                    apply_arith(op, &a, &b).unwrap_or(Value::Null)
                })
            }
            ScalarExpr::And(l, r) => {
                let (lf, rf) = (l.compile(), r.compile());
                Arc::new(move |t| kleene_and(lf(t), rf(t)))
            }
            ScalarExpr::Or(l, r) => {
                let (lf, rf) = (l.compile(), r.compile());
                Arc::new(move |t| kleene_or(lf(t), rf(t)))
            }
            ScalarExpr::Not(e) => {
                let f = e.compile();
                Arc::new(move |t| match f(t) {
                    Value::Bool(b) => Value::Bool(!b),
                    _ => Value::Null,
                })
            }
            ScalarExpr::IsNull(e) => {
                let f = e.compile();
                Arc::new(move |t| Value::Bool(f(t).is_null()))
            }
            ScalarExpr::Neg(e) => {
                let f = e.compile();
                Arc::new(move |t| match f(t) {
                    Value::Int(i) => i.checked_neg().map(Value::Int).unwrap_or(Value::Null),
                    Value::Double(d) => Value::Double(-d),
                    _ => Value::Null,
                })
            }
        }
    }

    /// Compile to a boolean filter routine (unknown rejects).
    ///
    /// Fast paths: the very common shapes `col <op> literal` and
    /// `col <op> col` compile to closures that read the column slots
    /// directly with zero intermediate `Value` clones — this is where the
    /// interpretation overhead the paper talks about actually goes away.
    pub fn compile_predicate(&self) -> CompiledPredicate {
        // Fast path: Cmp(col, lit) / Cmp(lit, col) / Cmp(col, col).
        if let ScalarExpr::Cmp(op, l, r) = self {
            match (l.as_ref(), r.as_ref()) {
                (ScalarExpr::Col(i), ScalarExpr::Lit(v)) if !v.is_null() => {
                    let (i, v, op) = (*i, v.clone(), *op);
                    return Arc::new(move |t| {
                        t.get(i).sql_cmp(&v).map(|o| op.test(o)).unwrap_or(false)
                    });
                }
                (ScalarExpr::Lit(v), ScalarExpr::Col(i)) if !v.is_null() => {
                    let (i, v, op) = (*i, v.clone(), op.flip());
                    return Arc::new(move |t| {
                        t.get(i).sql_cmp(&v).map(|o| op.test(o)).unwrap_or(false)
                    });
                }
                (ScalarExpr::Col(i), ScalarExpr::Col(j)) => {
                    let (i, j, op) = (*i, *j, *op);
                    return Arc::new(move |t| {
                        t.get(i)
                            .sql_cmp(t.get(j))
                            .map(|o| op.test(o))
                            .unwrap_or(false)
                    });
                }
                _ => {}
            }
        }
        // Fast path: conjunction of two compiled predicates short-circuits.
        if let ScalarExpr::And(l, r) = self {
            let (lf, rf) = (l.compile_predicate(), r.compile_predicate());
            return Arc::new(move |t| lf(t) && rf(t));
        }
        let f = self.compile();
        Arc::new(move |t| matches!(f(t), Value::Bool(true)))
    }

    // ---------- the vectorized compiler (column-at-a-time) ----------

    /// Compile to a column-at-a-time kernel tree. Where [`compile`]
    /// produces one closure invoked per tuple, the vectorized form
    /// dispatches on operand *column* types once per batch and then runs
    /// typed loops over `&[i64]` / `&[f64]` payloads — no per-row virtual
    /// call and no per-row [`Value`] construction on the numeric paths.
    /// Mixed-type and string operands fall back to element-wise `Value`
    /// semantics, so results always agree with [`ScalarExpr::compile`]
    /// (NULL propagation identical to [`ScalarExpr::eval`]; arithmetic
    /// faults degrade to NULL exactly like the scalar compiler).
    ///
    /// [`compile`]: ScalarExpr::compile
    pub fn compile_vec(&self) -> CompiledVecExpr {
        CompiledVecExpr {
            node: VecNode::from_expr(self),
        }
    }

    /// Compile to a vectorized filter that refines a [`SelVec`] instead of
    /// producing rows (unknown rejects, as in SQL). Conjunctions are
    /// factored so each factor narrows the previous selection; the common
    /// `col <op> lit` / `col <op> col` factors run fused typed loops that
    /// touch nothing but the referenced column.
    pub fn compile_vec_predicate(&self) -> CompiledVecPredicate {
        let factors = self
            .clone()
            .split_conjunction()
            .iter()
            .map(PredFactor::from_expr)
            .collect();
        CompiledVecPredicate {
            factors,
            tmp: Vec::new(),
        }
    }
}

fn compile_cmp(op: CmpOp, l: &ScalarExpr, r: &ScalarExpr) -> CompiledExpr {
    let (lf, rf) = (l.compile(), r.compile());
    Arc::new(move |t| {
        let (a, b) = (lf(t), rf(t));
        match a.sql_cmp(&b) {
            None => Value::Null,
            Some(ord) => Value::Bool(op.test(ord)),
        }
    })
}

fn apply_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    let res = match op {
        ArithOp::Add => a.add(b),
        ArithOp::Sub => a.sub(b),
        ArithOp::Mul => a.mul(b),
        ArithOp::Div => a.div(b),
        ArithOp::Rem => a.rem(b),
    };
    res.ok_or_else(|| PrismaError::Arithmetic(format!("{a} {op} {b}")))
}

fn kleene_and(a: Value, b: Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn kleene_or(a: Value, b: Value) -> Value {
    match (a.as_bool(), b.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

// =================== vectorized kernels ===================

/// A compiled vectorized expression: batch columns + selection in,
/// *compacted* result column out (`len == sel.count()`, rows in selection
/// order). Shareable across threads like [`CompiledExpr`].
#[derive(Debug, Clone)]
pub struct CompiledVecExpr {
    node: VecNode,
}

impl CompiledVecExpr {
    /// Evaluate over the selected rows of a batch's columns. Only the
    /// columns the kernel tree references are ever materialized — the
    /// lazy set pivots per column on first access.
    pub fn eval(&self, cols: &LazyColumns, sel: &SelVec) -> Arc<ColumnVec> {
        self.node.eval(cols, SelView::from(sel))
    }
}

/// A compiled vectorized filter. Owns scratch buffers (reused across
/// batches) for chaining conjunction factors, hence `&mut self`. A clone
/// shares the factor tree logically (fresh empty scratch), which is how
/// the morsel-parallel executor hands each worker its own instance.
#[derive(Debug)]
pub struct CompiledVecPredicate {
    factors: Vec<PredFactor>,
    /// Ping-pong buffer for multi-factor conjunctions; retains capacity
    /// across [`select`](Self::select) calls.
    tmp: Vec<u32>,
}

impl Clone for CompiledVecPredicate {
    fn clone(&self) -> Self {
        CompiledVecPredicate {
            factors: self.factors.clone(),
            tmp: Vec::new(),
        }
    }
}

impl CompiledVecPredicate {
    /// Append to `out` (cleared first) the row indices within `sel` that
    /// satisfy the predicate, in ascending order. NULL/unknown rejects.
    pub fn select(&mut self, cols: &LazyColumns, sel: &SelVec, out: &mut Vec<u32>) {
        out.clear();
        let mut first = true;
        for f in &self.factors {
            if first {
                f.filter(cols, SelView::from(sel), out);
                first = false;
            } else {
                self.tmp.clear();
                f.filter(cols, SelView::Idx(out), &mut self.tmp);
                std::mem::swap(out, &mut self.tmp);
            }
            if out.is_empty() {
                return;
            }
        }
    }
}

// =================== zone-map refutation ===================

/// Chunk-level refutation of a predicate against per-column
/// [`ZoneMap`](prisma_types::chunk::ZoneMap)s.
///
/// Compiled once per scan from the pushed-down predicate, it answers "can
/// *any* row of a chunk summarized by these zone maps satisfy the
/// predicate?" — [`ZoneRefuter::refutes`] returning `true` means provably
/// not, so the scan skips the whole chunk without touching its payloads.
///
/// Only conjunction factors of the shape `col <op> literal` (either
/// orientation) contribute refutation rules; everything else is ignored,
/// which keeps the answer *conservative* — a factor the refuter does not
/// understand can only cause a chunk to be scanned, never skipped. A single
/// refuted factor refutes the chunk: under Kleene AND a false (or NULL)
/// factor makes the conjunction false-or-NULL for every row, and SQL filter
/// semantics reject both.
///
/// Soundness leans on the same total order the kernels use: zone `min`/
/// `max` are under [`Value::total_cmp`], the vectorized comparison loops
/// compare `Double`s with `f64::total_cmp`, and every fallback goes through
/// [`Value::sql_cmp`] — so a bound proven here can never disagree with the
/// per-row kernel, NaN and `-0.0` included.
#[derive(Debug, Clone, Default)]
pub struct ZoneRefuter {
    rules: Vec<ZoneRule>,
}

#[derive(Debug, Clone)]
enum ZoneRule {
    /// `col <op> lit` factor with a non-null literal.
    CmpColLit { col: usize, op: CmpOp, lit: Value },
    /// A factor that is constant false or NULL (`WHERE false`, `x = NULL`):
    /// no row of any chunk can pass, so every chunk is refuted.
    Never,
}

impl ZoneRefuter {
    /// Extract refutation rules from `pred`'s conjunction factors.
    pub fn compile(pred: &ScalarExpr) -> ZoneRefuter {
        let mut rules = Vec::new();
        for factor in pred.clone().split_conjunction() {
            match factor {
                // A literal factor other than TRUE rejects every row
                // (false and NULL directly; non-bool folds to NULL under
                // Kleene AND).
                ScalarExpr::Lit(v) if v != Value::Bool(true) => {
                    rules.push(ZoneRule::Never);
                }
                factor => {
                    if let Some((col, op, lit)) = factor.as_col_cmp_lit() {
                        rules.push(ZoneRule::cmp(col, op, lit));
                    }
                }
            }
        }
        ZoneRefuter { rules }
    }

    /// True when the predicate provably selects no row of a chunk whose
    /// columns are summarized by `zones`.
    pub fn refutes(&self, zones: &[prisma_types::ZoneMap]) -> bool {
        self.rules.iter().any(|r| r.refutes(zones))
    }

    /// True when no factor yielded a rule — the refuter can never prune.
    pub fn is_trivial(&self) -> bool {
        self.rules.is_empty()
    }
}

impl ZoneRule {
    fn cmp(col: usize, op: CmpOp, lit: &Value) -> ZoneRule {
        if lit.is_null() {
            // `col <op> NULL` is NULL for every row — never selects.
            ZoneRule::Never
        } else {
            ZoneRule::CmpColLit {
                col,
                op,
                lit: lit.clone(),
            }
        }
    }

    fn refutes(&self, zones: &[prisma_types::ZoneMap]) -> bool {
        use std::cmp::Ordering::*;
        match self {
            ZoneRule::Never => true,
            ZoneRule::CmpColLit { col, op, lit } => {
                let Some(zone) = zones.get(*col) else {
                    return false;
                };
                let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
                    // Every row of the column is NULL (or the chunk is
                    // empty): the comparison is NULL for each row, so none
                    // is selected.
                    return true;
                };
                // Both sides non-null, so sql_cmp is total here.
                let (Some(lo), Some(hi)) = (lit.sql_cmp(min), lit.sql_cmp(max)) else {
                    return false;
                };
                match op {
                    // No row can equal a literal outside [min, max].
                    CmpOp::Eq => lo == Less || hi == Greater,
                    // Every non-null row equals the literal.
                    CmpOp::Ne => lo == Equal && hi == Equal,
                    // `row < lit` impossible when lit <= min.
                    CmpOp::Lt => lo != Greater,
                    // `row <= lit` impossible when lit < min.
                    CmpOp::Le => lo == Less,
                    // `row > lit` impossible when lit >= max.
                    CmpOp::Gt => hi != Less,
                    // `row >= lit` impossible when lit > max.
                    CmpOp::Ge => hi == Greater,
                }
            }
        }
    }
}

/// Borrowed view of a selection (so factors can chain through index
/// buffers without building `SelVec`s).
#[derive(Clone, Copy)]
enum SelView<'a> {
    All(usize),
    Idx(&'a [u32]),
}

impl<'a> SelView<'a> {
    fn from(sel: &'a SelVec) -> SelView<'a> {
        match sel.indices() {
            None => SelView::All(sel.len()),
            Some(idx) => SelView::Idx(idx),
        }
    }

    fn count(&self) -> usize {
        match self {
            SelView::All(n) => *n,
            SelView::Idx(ix) => ix.len(),
        }
    }

    /// Iterate `(position, row index)` pairs.
    fn enumerated(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let view = *self;
        (0..self.count()).map(move |p| match view {
            SelView::All(_) => (p, p),
            SelView::Idx(ix) => (p, ix[p] as usize),
        })
    }
}

/// The kernel tree behind [`CompiledVecExpr`]. Binary nodes evaluate both
/// children to compacted columns and combine them with a typed loop; a
/// `Col` leaf under a full selection is a refcount bump, never a copy.
#[derive(Debug, Clone)]
enum VecNode {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<VecNode>, Box<VecNode>),
    Arith(ArithOp, Box<VecNode>, Box<VecNode>),
    And(Box<VecNode>, Box<VecNode>),
    Or(Box<VecNode>, Box<VecNode>),
    Not(Box<VecNode>),
    IsNull(Box<VecNode>),
    Neg(Box<VecNode>),
}

impl VecNode {
    fn from_expr(e: &ScalarExpr) -> VecNode {
        match e {
            ScalarExpr::Col(i) => VecNode::Col(*i),
            ScalarExpr::Lit(v) => VecNode::Lit(v.clone()),
            ScalarExpr::Cmp(op, l, r) => {
                VecNode::Cmp(*op, Box::new(Self::from_expr(l)), Box::new(Self::from_expr(r)))
            }
            ScalarExpr::Arith(op, l, r) => {
                VecNode::Arith(*op, Box::new(Self::from_expr(l)), Box::new(Self::from_expr(r)))
            }
            ScalarExpr::And(l, r) => {
                VecNode::And(Box::new(Self::from_expr(l)), Box::new(Self::from_expr(r)))
            }
            ScalarExpr::Or(l, r) => {
                VecNode::Or(Box::new(Self::from_expr(l)), Box::new(Self::from_expr(r)))
            }
            ScalarExpr::Not(x) => VecNode::Not(Box::new(Self::from_expr(x))),
            ScalarExpr::IsNull(x) => VecNode::IsNull(Box::new(Self::from_expr(x))),
            ScalarExpr::Neg(x) => VecNode::Neg(Box::new(Self::from_expr(x))),
        }
    }

    fn eval(&self, cols: &LazyColumns, sel: SelView<'_>) -> Arc<ColumnVec> {
        match self {
            VecNode::Col(i) => match sel {
                SelView::All(_) => Arc::clone(cols.col(*i)),
                SelView::Idx(ix) => Arc::new(cols.col(*i).gather(ix)),
            },
            VecNode::Lit(v) => Arc::new(const_column(v, sel.count())),
            VecNode::Cmp(op, l, r) => {
                let (a, b) = (l.eval(cols, sel), r.eval(cols, sel));
                Arc::new(cmp_columns(*op, &a, &b))
            }
            VecNode::Arith(op, l, r) => {
                let (a, b) = (l.eval(cols, sel), r.eval(cols, sel));
                Arc::new(arith_columns(*op, &a, &b))
            }
            VecNode::And(l, r) => {
                let (a, b) = (l.eval(cols, sel), r.eval(cols, sel));
                Arc::new(kleene_columns(&a, &b, kleene_and))
            }
            VecNode::Or(l, r) => {
                let (a, b) = (l.eval(cols, sel), r.eval(cols, sel));
                Arc::new(kleene_columns(&a, &b, kleene_or))
            }
            VecNode::Not(x) => Arc::new(not_column(&x.eval(cols, sel))),
            VecNode::IsNull(x) => Arc::new(is_null_column(&x.eval(cols, sel))),
            VecNode::Neg(x) => Arc::new(neg_column(&x.eval(cols, sel))),
        }
    }
}

/// One conjunction factor of a vectorized predicate.
#[derive(Debug, Clone)]
enum PredFactor {
    /// `col <op> lit` — fused typed loop, no intermediate column.
    CmpColLit(CmpOp, usize, Value),
    /// `col <op> col` — fused typed loop, no intermediate column.
    CmpColCol(CmpOp, usize, usize),
    /// Anything else: evaluate to a boolean column, keep where true.
    General(VecNode),
}

impl PredFactor {
    fn from_expr(e: &ScalarExpr) -> PredFactor {
        if let ScalarExpr::Cmp(op, l, r) = e {
            match (l.as_ref(), r.as_ref()) {
                (ScalarExpr::Col(i), ScalarExpr::Lit(v)) if !v.is_null() => {
                    return PredFactor::CmpColLit(*op, *i, v.clone());
                }
                (ScalarExpr::Lit(v), ScalarExpr::Col(i)) if !v.is_null() => {
                    return PredFactor::CmpColLit(op.flip(), *i, v.clone());
                }
                (ScalarExpr::Col(i), ScalarExpr::Col(j)) => {
                    return PredFactor::CmpColCol(*op, *i, *j);
                }
                _ => {}
            }
        }
        PredFactor::General(VecNode::from_expr(e))
    }

    fn filter(&self, cols: &LazyColumns, sel: SelView<'_>, out: &mut Vec<u32>) {
        match self {
            PredFactor::CmpColLit(op, i, v) => cmp_col_lit_filter(*op, cols.col(*i), v, sel, out),
            PredFactor::CmpColCol(op, i, j) => {
                cmp_col_col_filter(*op, cols.col(*i), cols.col(*j), sel, out)
            }
            PredFactor::General(node) => {
                let col = node.eval(cols, sel);
                for (p, idx) in sel.enumerated() {
                    if bool_at(&col, p) == Some(true) {
                        out.push(idx as u32);
                    }
                }
            }
        }
    }
}

// ---- fused filter loops ----

/// Run `test` over the selection, appending passing row indices. Rows
/// under a set bit of either null mask are rejected (SQL: unknown filters
/// out). The index is written unconditionally and the cursor advanced by
/// the test outcome — branchless, so selectivity near 50% does not stall
/// the branch predictor.
#[inline]
fn push_matching(
    sel: SelView<'_>,
    an: Option<&[bool]>,
    bn: Option<&[bool]>,
    out: &mut Vec<u32>,
    test: impl Fn(usize) -> bool,
) {
    let keep = |i: usize| {
        !an.is_some_and(|n| n[i]) && !bn.is_some_and(|n| n[i]) && test(i)
    };
    let base = out.len();
    let mut k = base;
    match sel {
        SelView::All(n) => {
            out.resize(base + n, 0);
            for i in 0..n {
                out[k] = i as u32;
                k += keep(i) as usize;
            }
        }
        SelView::Idx(ix) => {
            out.resize(base + ix.len(), 0);
            for &i in ix {
                out[k] = i;
                k += keep(i as usize) as usize;
            }
        }
    }
    out.truncate(k);
}

fn cmp_col_lit_filter(
    op: CmpOp,
    col: &ColumnVec,
    lit: &Value,
    sel: SelView<'_>,
    out: &mut Vec<u32>,
) {
    use ColumnVec as C;
    match (col, lit) {
        (C::Int { data, nulls }, Value::Int(k)) => {
            let k = *k;
            let nn = nulls.as_deref();
            // The op dispatch is lifted out of the loop: each arm
            // monomorphizes to a straight-line integer compare.
            match op {
                CmpOp::Eq => push_matching(sel, nn, None, out, |i| data[i] == k),
                CmpOp::Ne => push_matching(sel, nn, None, out, |i| data[i] != k),
                CmpOp::Lt => push_matching(sel, nn, None, out, |i| data[i] < k),
                CmpOp::Le => push_matching(sel, nn, None, out, |i| data[i] <= k),
                CmpOp::Gt => push_matching(sel, nn, None, out, |i| data[i] > k),
                CmpOp::Ge => push_matching(sel, nn, None, out, |i| data[i] >= k),
            }
        }
        (C::Int { data, nulls }, Value::Double(k)) => {
            let k = *k;
            push_matching(sel, nulls.as_deref(), None, out, |i| {
                op.test((data[i] as f64).total_cmp(&k))
            });
        }
        (C::Double { data, nulls }, Value::Int(k)) => {
            let k = *k as f64;
            push_matching(sel, nulls.as_deref(), None, out, |i| {
                op.test(data[i].total_cmp(&k))
            });
        }
        (C::Double { data, nulls }, Value::Double(k)) => {
            let k = *k;
            push_matching(sel, nulls.as_deref(), None, out, |i| {
                op.test(data[i].total_cmp(&k))
            });
        }
        (C::Str { data, nulls }, Value::Str(k)) => {
            push_matching(sel, nulls.as_deref(), None, out, |i| {
                op.test(data[i].as_str().cmp(k.as_str()))
            });
        }
        (C::Bool { data, nulls }, Value::Bool(k)) => {
            push_matching(sel, nulls.as_deref(), None, out, |i| op.test(data[i].cmp(k)));
        }
        // Mixed column or cross-type literal: total-order semantics via
        // Value, matching the scalar fast path's `sql_cmp`.
        _ => push_matching(sel, None, None, out, |i| {
            col.value_at(i).sql_cmp(lit).map(|o| op.test(o)).unwrap_or(false)
        }),
    }
}

fn cmp_col_col_filter(
    op: CmpOp,
    a: &ColumnVec,
    b: &ColumnVec,
    sel: SelView<'_>,
    out: &mut Vec<u32>,
) {
    use ColumnVec as C;
    match (a, b) {
        (C::Int { data: ad, nulls: an }, C::Int { data: bd, nulls: bn }) => {
            let (an, bn) = (an.as_deref(), bn.as_deref());
            match op {
                CmpOp::Eq => push_matching(sel, an, bn, out, |i| ad[i] == bd[i]),
                CmpOp::Ne => push_matching(sel, an, bn, out, |i| ad[i] != bd[i]),
                CmpOp::Lt => push_matching(sel, an, bn, out, |i| ad[i] < bd[i]),
                CmpOp::Le => push_matching(sel, an, bn, out, |i| ad[i] <= bd[i]),
                CmpOp::Gt => push_matching(sel, an, bn, out, |i| ad[i] > bd[i]),
                CmpOp::Ge => push_matching(sel, an, bn, out, |i| ad[i] >= bd[i]),
            }
        }
        (C::Int { data: ad, nulls: an }, C::Double { data: bd, nulls: bn }) => {
            push_matching(sel, an.as_deref(), bn.as_deref(), out, |i| {
                op.test((ad[i] as f64).total_cmp(&bd[i]))
            });
        }
        (C::Double { data: ad, nulls: an }, C::Int { data: bd, nulls: bn }) => {
            push_matching(sel, an.as_deref(), bn.as_deref(), out, |i| {
                op.test(ad[i].total_cmp(&(bd[i] as f64)))
            });
        }
        (C::Double { data: ad, nulls: an }, C::Double { data: bd, nulls: bn }) => {
            push_matching(sel, an.as_deref(), bn.as_deref(), out, |i| {
                op.test(ad[i].total_cmp(&bd[i]))
            });
        }
        (C::Str { data: ad, nulls: an }, C::Str { data: bd, nulls: bn }) => {
            push_matching(sel, an.as_deref(), bn.as_deref(), out, |i| {
                op.test(ad[i].cmp(&bd[i]))
            });
        }
        (C::Bool { data: ad, nulls: an }, C::Bool { data: bd, nulls: bn }) => {
            push_matching(sel, an.as_deref(), bn.as_deref(), out, |i| {
                op.test(ad[i].cmp(&bd[i]))
            });
        }
        _ => push_matching(sel, None, None, out, |i| {
            a.value_at(i)
                .sql_cmp(&b.value_at(i))
                .map(|o| op.test(o))
                .unwrap_or(false)
        }),
    }
}

// ---- column combinators (general expression path) ----

/// Constant column of `n` copies of `v`.
fn const_column(v: &Value, n: usize) -> ColumnVec {
    match v {
        Value::Int(i) => ColumnVec::Int {
            data: vec![*i; n],
            nulls: None,
        },
        Value::Double(d) => ColumnVec::Double {
            data: vec![*d; n],
            nulls: None,
        },
        Value::Bool(b) => ColumnVec::Bool {
            data: vec![*b; n],
            nulls: None,
        },
        Value::Str(s) => ColumnVec::Str {
            data: vec![s.clone(); n],
            nulls: None,
        },
        Value::Null => ColumnVec::Mixed(vec![Value::Null; n]),
    }
}

fn null_mask_of(col: &ColumnVec) -> Option<Vec<bool>> {
    match col {
        ColumnVec::Int { nulls, .. }
        | ColumnVec::Double { nulls, .. }
        | ColumnVec::Bool { nulls, .. }
        | ColumnVec::Str { nulls, .. } => nulls.clone(),
        ColumnVec::Mixed(v) => {
            let mask: Vec<bool> = v.iter().map(Value::is_null).collect();
            mask.iter().any(|&b| b).then_some(mask)
        }
    }
}

/// Union of two optional null masks.
fn union_nulls(a: Option<Vec<bool>>, b: Option<Vec<bool>>) -> Option<Vec<bool>> {
    match (a, b) {
        (None, m) | (m, None) => m,
        (Some(mut x), Some(y)) => {
            for (xi, yi) in x.iter_mut().zip(&y) {
                *xi |= yi;
            }
            Some(x)
        }
    }
}

/// Mark row `i` NULL, materializing the mask on first use.
#[inline]
fn set_null(nulls: &mut Option<Vec<bool>>, n: usize, i: usize) {
    nulls.get_or_insert_with(|| vec![false; n])[i] = true;
}

/// Boolean payload of row `i`, `None` for NULL or non-boolean (the same
/// tri-state `Value::as_bool` gives the scalar Kleene combinators).
#[inline]
fn bool_at(col: &ColumnVec, i: usize) -> Option<bool> {
    match col {
        ColumnVec::Bool { data, nulls } => {
            if nulls.as_ref().is_some_and(|ns| ns[i]) {
                None
            } else {
                Some(data[i])
            }
        }
        ColumnVec::Mixed(v) => v[i].as_bool(),
        _ => None,
    }
}

/// Typed comparison of two equal-length compacted columns.
fn cmp_columns(op: CmpOp, a: &ColumnVec, b: &ColumnVec) -> ColumnVec {
    use ColumnVec as C;
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let mut data = vec![false; n];
    let mut nulls = union_nulls(null_mask_of(a), null_mask_of(b));
    macro_rules! loop_cmp {
        ($ad:ident, $bd:ident, $cmp:expr) => {
            for i in 0..n {
                data[i] = op.test($cmp(&$ad[i], &$bd[i]));
            }
        };
    }
    match (a, b) {
        (C::Int { data: ad, .. }, C::Int { data: bd, .. }) => {
            loop_cmp!(ad, bd, |x: &i64, y: &i64| x.cmp(y));
        }
        (C::Int { data: ad, .. }, C::Double { data: bd, .. }) => {
            loop_cmp!(ad, bd, |x: &i64, y: &f64| (*x as f64).total_cmp(y));
        }
        (C::Double { data: ad, .. }, C::Int { data: bd, .. }) => {
            loop_cmp!(ad, bd, |x: &f64, y: &i64| x.total_cmp(&(*y as f64)));
        }
        (C::Double { data: ad, .. }, C::Double { data: bd, .. }) => {
            loop_cmp!(ad, bd, |x: &f64, y: &f64| x.total_cmp(y));
        }
        (C::Str { data: ad, .. }, C::Str { data: bd, .. }) => {
            loop_cmp!(ad, bd, |x: &String, y: &String| x.cmp(y));
        }
        (C::Bool { data: ad, .. }, C::Bool { data: bd, .. }) => {
            loop_cmp!(ad, bd, |x: &bool, y: &bool| x.cmp(y));
        }
        _ => {
            for (i, slot) in data.iter_mut().enumerate() {
                match a.value_at(i).sql_cmp(&b.value_at(i)) {
                    Some(o) => *slot = op.test(o),
                    None => set_null(&mut nulls, n, i),
                }
            }
        }
    }
    ColumnVec::Bool { data, nulls }
}

/// Typed arithmetic over two equal-length compacted columns. Faults
/// (overflow, integer division by zero, non-numeric operands) degrade to
/// NULL, matching the scalar compiler.
fn arith_columns(op: ArithOp, a: &ColumnVec, b: &ColumnVec) -> ColumnVec {
    use ColumnVec as C;
    let n = a.len();
    debug_assert_eq!(n, b.len());
    match (a, b) {
        (C::Int { data: ad, .. }, C::Int { data: bd, .. }) => {
            let mut nulls = union_nulls(null_mask_of(a), null_mask_of(b));
            let mut data = vec![0i64; n];
            for i in 0..n {
                let r = match op {
                    ArithOp::Add => ad[i].checked_add(bd[i]),
                    ArithOp::Sub => ad[i].checked_sub(bd[i]),
                    ArithOp::Mul => ad[i].checked_mul(bd[i]),
                    ArithOp::Div => ad[i].checked_div(bd[i]),
                    ArithOp::Rem => ad[i].checked_rem(bd[i]),
                };
                match r {
                    Some(v) => data[i] = v,
                    None => set_null(&mut nulls, n, i),
                }
            }
            C::Int { data, nulls }
        }
        // Mixed Int/Double numerics widen to f64, as in `Value`'s
        // arithmetic; Rem stays integer-only and yields NULL here.
        (
            C::Int { .. } | C::Double { .. },
            C::Int { .. } | C::Double { .. },
        ) if op != ArithOp::Rem => {
            let nulls = union_nulls(null_mask_of(a), null_mask_of(b));
            let mut data = vec![0f64; n];
            let at = |c: &ColumnVec, i: usize| match c {
                C::Int { data, .. } => data[i] as f64,
                C::Double { data, .. } => data[i],
                _ => unreachable!("guarded by match"),
            };
            for (i, slot) in data.iter_mut().enumerate() {
                let (x, y) = (at(a, i), at(b, i));
                *slot = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Rem => unreachable!("guarded by match"),
                };
            }
            C::Double { data, nulls }
        }
        _ => {
            // Scalar fallback: element-wise Value arithmetic.
            let vals: Vec<Value> = (0..n)
                .map(|i| {
                    let (x, y) = (a.value_at(i), b.value_at(i));
                    if x.is_null() || y.is_null() {
                        Value::Null
                    } else {
                        apply_arith(op, &x, &y).unwrap_or(Value::Null)
                    }
                })
                .collect();
            C::Mixed(vals)
        }
    }
}

/// Element-wise Kleene connective through the same tri-state combinators
/// the scalar paths use.
fn kleene_columns(a: &ColumnVec, b: &ColumnVec, f: fn(Value, Value) -> Value) -> ColumnVec {
    let n = a.len();
    let mut data = vec![false; n];
    let mut nulls = None;
    for (i, slot) in data.iter_mut().enumerate() {
        let x = bool_at(a, i).map(Value::Bool).unwrap_or(Value::Null);
        let y = bool_at(b, i).map(Value::Bool).unwrap_or(Value::Null);
        match f(x, y) {
            Value::Bool(v) => *slot = v,
            _ => set_null(&mut nulls, n, i),
        }
    }
    ColumnVec::Bool { data, nulls }
}

fn not_column(a: &ColumnVec) -> ColumnVec {
    let n = a.len();
    let mut data = vec![false; n];
    let mut nulls = None;
    for (i, slot) in data.iter_mut().enumerate() {
        match bool_at(a, i) {
            Some(v) => *slot = !v,
            None => set_null(&mut nulls, n, i),
        }
    }
    ColumnVec::Bool { data, nulls }
}

fn is_null_column(a: &ColumnVec) -> ColumnVec {
    let n = a.len();
    ColumnVec::Bool {
        data: (0..n).map(|i| a.is_null_at(i)).collect(),
        nulls: None,
    }
}

fn neg_column(a: &ColumnVec) -> ColumnVec {
    use ColumnVec as C;
    let n = a.len();
    match a {
        C::Int { data: ad, nulls } => {
            let mut nulls = nulls.clone();
            let mut data = vec![0i64; n];
            for i in 0..n {
                match ad[i].checked_neg() {
                    Some(v) => data[i] = v,
                    None => set_null(&mut nulls, n, i),
                }
            }
            C::Int { data, nulls }
        }
        C::Double { data, nulls } => C::Double {
            data: data.iter().map(|d| -d).collect(),
            nulls: nulls.clone(),
        },
        _ => C::Mixed(
            (0..n)
                .map(|i| match a.value_at(i) {
                    Value::Int(v) => v.checked_neg().map(Value::Int).unwrap_or(Value::Null),
                    Value::Double(d) => Value::Double(-d),
                    _ => Value::Null,
                })
                .collect(),
        ),
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Col(i) => write!(f, "#{i}"),
            ScalarExpr::Lit(v) => write!(f, "{v}"),
            ScalarExpr::Cmp(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::Arith(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::And(l, r) => write!(f, "({l} AND {r})"),
            ScalarExpr::Or(l, r) => write!(f, "({l} OR {r})"),
            ScalarExpr::Not(e) => write!(f, "(NOT {e})"),
            ScalarExpr::IsNull(e) => write!(f, "({e} IS NULL)"),
            ScalarExpr::Neg(e) => write!(f, "(-{e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::{tuple, Column};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Double),
            Column::new("s", DataType::Str),
            Column::nullable("n", DataType::Int),
        ])
    }

    fn row() -> Tuple {
        tuple![10, 2.5, "hi"].concat(&Tuple::new(vec![Value::Null]))
    }

    #[test]
    fn typecheck_accepts_and_rejects() {
        let s = schema();
        assert_eq!(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::col(1))
                .check(&s)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(0), ScalarExpr::col(1))
                .check(&s)
                .unwrap(),
            DataType::Double
        );
        assert!(ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::col(2))
            .check(&s)
            .is_err());
        assert!(
            ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(2), ScalarExpr::lit(1))
                .check(&s)
                .is_err()
        );
        assert!(ScalarExpr::Not(Box::new(ScalarExpr::col(0))).check(&s).is_err());
        assert!(ScalarExpr::col(9).check(&s).is_err());
    }

    #[test]
    fn interpreter_and_compiler_agree() {
        let exprs = vec![
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(5)),
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(1), ScalarExpr::lit(2.0)),
                ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(2), ScalarExpr::lit("hi")),
            ),
            ScalarExpr::or(
                ScalarExpr::IsNull(Box::new(ScalarExpr::col(3))),
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(0)),
            ),
            ScalarExpr::arith(
                ArithOp::Mul,
                ScalarExpr::col(0),
                ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(1), ScalarExpr::lit(0.5)),
            ),
            ScalarExpr::Neg(Box::new(ScalarExpr::col(0))),
            // NULL propagation through comparison and arithmetic.
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(3), ScalarExpr::lit(1)),
            ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(3), ScalarExpr::lit(1)),
        ];
        let t = row();
        for e in exprs {
            let interp = e.eval(&t).unwrap();
            let compiled = e.compile()(&t);
            assert_eq!(interp, compiled, "disagreement on {e}");
        }
    }

    #[test]
    fn predicate_semantics_null_rejects() {
        let t = row();
        // n = 1 is unknown -> row filtered out by both paths.
        let e = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(3), ScalarExpr::lit(1));
        assert!(!e.eval_predicate(&t).unwrap());
        assert!(!e.compile_predicate()(&t));
        // NOT(unknown) is still unknown -> rejected.
        let ne = ScalarExpr::Not(Box::new(e));
        assert!(!ne.eval_predicate(&t).unwrap());
        assert!(!ne.compile_predicate()(&t));
    }

    #[test]
    fn kleene_logic_tables() {
        let (t, f, u) = (Value::Bool(true), Value::Bool(false), Value::Null);
        assert_eq!(kleene_and(f.clone(), u.clone()), Value::Bool(false));
        assert_eq!(kleene_and(t.clone(), u.clone()), Value::Null);
        assert_eq!(kleene_or(t.clone(), u.clone()), Value::Bool(true));
        assert_eq!(kleene_or(f.clone(), u.clone()), Value::Null);
        assert_eq!(kleene_or(f.clone(), f.clone()), Value::Bool(false));
        assert_eq!(kleene_and(t.clone(), t), Value::Bool(true));
    }

    #[test]
    fn fast_path_predicates_match_general_path() {
        let t = row();
        for e in [
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(5)),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::lit(5), ScalarExpr::col(0)),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::col(1)),
        ] {
            assert_eq!(e.compile_predicate()(&t), e.eval_predicate(&t).unwrap());
        }
    }

    #[test]
    fn division_by_zero_is_error_interpreted_null_compiled() {
        let e = ScalarExpr::arith(ArithOp::Div, ScalarExpr::col(0), ScalarExpr::lit(0));
        let t = row();
        assert!(matches!(e.eval(&t), Err(PrismaError::Arithmetic(_))));
        assert_eq!(e.compile()(&t), Value::Null);
    }

    #[test]
    fn split_and_conjunction_roundtrip() {
        let p1 = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(1));
        let p2 = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(9));
        let p3 = ScalarExpr::IsNull(Box::new(ScalarExpr::col(3)));
        let c = ScalarExpr::conjunction(vec![p1.clone(), p2.clone(), p3.clone()]);
        let parts = c.split_conjunction();
        assert_eq!(parts, vec![p1, p2, p3]);
        assert_eq!(
            ScalarExpr::conjunction(vec![]),
            ScalarExpr::lit(true)
        );
    }

    // ---- vectorized kernels ----

    /// Columns for a small batch over `schema()`-shaped rows (a Int,
    /// b Double, s Str, n nullable Int).
    fn batch_columns() -> (LazyColumns, Vec<Tuple>) {
        let rows: Vec<Tuple> = vec![
            tuple![10, 2.5, "hi"].concat(&Tuple::new(vec![Value::Null])),
            tuple![3, -1.0, "zz"].concat(&tuple![7]),
            tuple![-4, 0.0, "hi"].concat(&tuple![0]),
            tuple![i64::MAX, 9.25, "aa"].concat(&Tuple::new(vec![Value::Null])),
        ];
        (LazyColumns::from_rows(Arc::new(rows.clone())), rows)
    }

    fn vec_exprs() -> Vec<ScalarExpr> {
        vec![
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(5)),
            ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(1), ScalarExpr::col(0)),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(2), ScalarExpr::lit("hi")),
            ScalarExpr::cmp(CmpOp::Ne, ScalarExpr::col(3), ScalarExpr::lit(7)),
            ScalarExpr::arith(
                ArithOp::Add,
                ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(0), ScalarExpr::lit(3)),
                ScalarExpr::col(3),
            ),
            ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(0), ScalarExpr::col(1)),
            ScalarExpr::arith(ArithOp::Div, ScalarExpr::col(0), ScalarExpr::lit(0)),
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(0)),
                ScalarExpr::or(
                    ScalarExpr::IsNull(Box::new(ScalarExpr::col(3))),
                    ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::lit(3.0)),
                ),
            ),
            ScalarExpr::Not(Box::new(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::col(3),
                ScalarExpr::lit(7),
            ))),
            ScalarExpr::Neg(Box::new(ScalarExpr::col(0))),
            // Type surprise: arithmetic over a string column degrades to
            // NULL in both compiled paths.
            ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(2), ScalarExpr::lit(1)),
        ]
    }

    #[test]
    fn vectorized_expr_matches_scalar_compiler() {
        let (cols, rows) = batch_columns();
        for e in vec_exprs() {
            let scalar = e.compile();
            let vec = e.compile_vec();
            for sel in [SelVec::all(rows.len()), SelVec::from_indices(rows.len(), vec![1, 3])] {
                let out = vec.eval(&cols, &sel);
                assert_eq!(out.len(), sel.count());
                for (p, idx) in sel.iter().enumerate() {
                    assert_eq!(
                        out.value_at(p),
                        scalar(&rows[idx]),
                        "disagreement on {e} at row {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn vectorized_predicate_matches_scalar_predicate() {
        let (cols, rows) = batch_columns();
        let preds = vec![
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(5)),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(0.5), ScalarExpr::col(1)),
            ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(0), ScalarExpr::col(3)),
            ScalarExpr::conjunction(vec![
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(-10)),
                ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(2), ScalarExpr::lit("hi")),
                ScalarExpr::cmp(CmpOp::Ne, ScalarExpr::col(3), ScalarExpr::lit(0)),
            ]),
            ScalarExpr::or(
                ScalarExpr::IsNull(Box::new(ScalarExpr::col(3))),
                ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(100)),
            ),
        ];
        let mut out = Vec::new();
        for p in preds {
            let scalar = p.compile_predicate();
            let mut vp = p.compile_vec_predicate();
            vp.select(&cols, &SelVec::all(rows.len()), &mut out);
            let expected: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, t)| scalar(t))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(out, expected, "predicate {p}");
            // Selection refinement only ever narrows.
            let narrow = SelVec::from_indices(rows.len(), vec![0, 2]);
            vp.select(&cols, &narrow, &mut out);
            assert!(out.iter().all(|i| [0, 2].contains(i)), "predicate {p}");
        }
    }

    #[test]
    fn vectorized_predicate_on_empty_batch() {
        let cols = LazyColumns::from_cols(vec![Arc::new(ColumnVec::Int {
            data: vec![],
            nulls: None,
        })]);
        let mut vp = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(5))
            .compile_vec_predicate();
        let mut out = vec![9];
        vp.select(&cols, &SelVec::all(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn remap_and_columns() {
        let e = ScalarExpr::and(
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(1), ScalarExpr::col(4)),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(0)),
        );
        assert_eq!(e.columns(), vec![1, 4]);
        let shifted = e.remap_columns(&|i| i + 10);
        assert_eq!(shifted.columns(), vec![11, 14]);
    }

    #[test]
    fn zone_refuter_prunes_out_of_range_chunks() {
        use prisma_types::ZoneMap;
        let zones = vec![ZoneMap {
            min: Some(Value::Int(100)),
            max: Some(Value::Int(200)),
            nulls: 3,
            rows: 10,
            has_dups: false,
        }];
        let refutes = |op, lit: i64| {
            ZoneRefuter::compile(&ScalarExpr::cmp(op, ScalarExpr::col(0), ScalarExpr::lit(lit)))
                .refutes(&zones)
        };
        // Eq: only refutable outside [min, max].
        assert!(refutes(CmpOp::Eq, 99));
        assert!(refutes(CmpOp::Eq, 201));
        assert!(!refutes(CmpOp::Eq, 100));
        assert!(!refutes(CmpOp::Eq, 150));
        // Lt/Le hinge on min; Gt/Ge hinge on max — boundary-exact.
        assert!(refutes(CmpOp::Lt, 100));
        assert!(!refutes(CmpOp::Lt, 101));
        assert!(refutes(CmpOp::Le, 99));
        assert!(!refutes(CmpOp::Le, 100));
        assert!(refutes(CmpOp::Gt, 200));
        assert!(!refutes(CmpOp::Gt, 199));
        assert!(refutes(CmpOp::Ge, 201));
        assert!(!refutes(CmpOp::Ge, 200));
        // Ne: only when every non-null row equals the literal.
        let point = vec![ZoneMap {
            min: Some(Value::Int(7)),
            max: Some(Value::Int(7)),
            nulls: 0,
            rows: 4,
            has_dups: true,
        }];
        let ne = |lit: i64| {
            ZoneRefuter::compile(&ScalarExpr::cmp(
                CmpOp::Ne,
                ScalarExpr::col(0),
                ScalarExpr::lit(lit),
            ))
            .refutes(&point)
        };
        assert!(ne(7));
        assert!(!ne(8));
    }

    #[test]
    fn zone_refuter_flipped_null_and_conjunction_factors() {
        use prisma_types::ZoneMap;
        let zones = vec![ZoneMap {
            min: Some(Value::Int(10)),
            max: Some(Value::Int(20)),
            nulls: 0,
            rows: 5,
            has_dups: false,
        }];
        // `30 < col` is `col > 30` — refuted by max = 20.
        let flipped = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(30), ScalarExpr::col(0));
        assert!(ZoneRefuter::compile(&flipped).refutes(&zones));
        // Comparison against a NULL literal never selects a row.
        let vs_null = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::Lit(Value::Null));
        assert!(ZoneRefuter::compile(&vs_null).refutes(&zones));
        // One refuted conjunct refutes the chunk even when the other matches.
        let conj = ScalarExpr::and(
            ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(10)),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(99)),
        );
        assert!(ZoneRefuter::compile(&conj).refutes(&zones));
        // An all-NULL column refutes any comparison against it.
        let all_null = vec![ZoneMap {
            min: None,
            max: None,
            nulls: 5,
            rows: 5,
            has_dups: false,
        }];
        let cmp = ScalarExpr::cmp(CmpOp::Ne, ScalarExpr::col(0), ScalarExpr::lit(1));
        assert!(ZoneRefuter::compile(&cmp).refutes(&all_null));
        // Factors the refuter does not model stay conservative.
        let opaque = ScalarExpr::or(
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(99)),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(98)),
        );
        let r = ZoneRefuter::compile(&opaque);
        assert!(r.is_trivial());
        assert!(!r.refutes(&zones));
    }
}
