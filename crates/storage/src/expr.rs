//! Scalar expressions: AST, type checker, the interpreter, and the
//! **expression compiler** — column-at-a-time kernels.
//!
//! Paper §2.5: "each OFM is equipped with an expression compiler to
//! generate routines dynamically. … it avoids the otherwise excessive
//! interpretation overhead incurred by a query expression interpreter."
//!
//! PRISMA generated POOL-X code at run time. Here the compiler is
//! [`ScalarExpr::compile_vec`] / [`ScalarExpr::compile_vec_predicate`]:
//! kernels that dispatch on operand column types once per batch and then
//! run typed loops. Every executor path evaluates through them.
//! [`ScalarExpr::eval`] is the tree-walking interpreter; only the
//! reference evaluator (`relalg::eval`) and the planners' constant folding
//! use it, so the oracle shares no evaluation code with what it checks.
//!
//! **One arithmetic rule** holds in both: i64 overflow (`+ - *`, unary
//! minus) and integer `/` or `%` by zero (and `i64::MIN / -1`) raise
//! [`PrismaError::Arithmetic`]; Double arithmetic is IEEE. **One stop
//! rule**: a predicate's top-level conjuncts run left to right, and a row
//! one of them rejects (FALSE or NULL) is not shown to the later ones.
//! Everything else — nested AND/OR/NOT, projections — is strict.

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
    /// `Int` unless either side is `Double`, and `%` takes Int operands
    /// only. Type errors (comparing string to int, arithmetic on bool, ...)
    /// are rejected here, before any tuple is touched.
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
                    if *op == ArithOp::Rem {
                        return Err(PrismaError::ExprType(format!(
                            "% needs Int operands, got {lt} and {rt}"
                        )));
                    }
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

    // ---------- the interpreter (the oracle's evaluator) ----------

    /// Tree-walking evaluation: one enum dispatch per node per tuple.
    /// NULL propagates through comparisons and arithmetic; AND/OR use
    /// Kleene three-valued logic represented as `Value::Null` = unknown,
    /// and are strict: both sides are evaluated, and either side's fault
    /// is the result.
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
            ScalarExpr::Neg(e) => neg_value(e.eval(tuple)?)?,
        })
    }

    /// Evaluate as a filter predicate: unknown (NULL) rejects the row. The
    /// top-level conjuncts run left to right, and a conjunct that rejects
    /// the row ends the evaluation — the stop rule the predicate kernels
    /// follow by narrowing their selection factor by factor.
    pub fn eval_predicate(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            ScalarExpr::And(l, r) => Ok(l.eval_predicate(tuple)? && r.eval_predicate(tuple)?),
            _ => Ok(matches!(self.eval(tuple)?, Value::Bool(true))),
        }
    }

    /// Whether evaluating the expression can fault: only arithmetic and
    /// unary minus can.
    fn can_fault(&self) -> bool {
        let mut faults = false;
        self.visit(&mut |e| faults |= matches!(e, ScalarExpr::Arith(..) | ScalarExpr::Neg(_)));
        faults
    }

    // ---------- the expression compiler (paper §2.5) ----------

    /// Compile to a column-at-a-time kernel. It dispatches on operand
    /// *column* types once per node and batch, then runs typed loops over
    /// `&[i64]` / `&[f64]` payloads — no per-row virtual call and no
    /// per-row [`Value`] construction on the numeric paths. Mixed-type and
    /// string operands fall back to element-wise `Value` semantics. Values
    /// and faults agree with [`ScalarExpr::eval`] row by row.
    pub fn compile_vec(&self) -> CompiledVecExpr {
        CompiledVecExpr { expr: self.clone() }
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

fn apply_arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    let res = match op {
        ArithOp::Add => a.add(b),
        ArithOp::Sub => a.sub(b),
        ArithOp::Mul => a.mul(b),
        ArithOp::Div => a.div(b),
        ArithOp::Rem => a.rem(b),
    };
    res.ok_or_else(|| arith_fault(op, a, b))
}

/// The fault of `a op b`, as both evaluators report it.
fn arith_fault(op: ArithOp, a: &Value, b: &Value) -> PrismaError {
    PrismaError::Arithmetic(format!("{a} {op} {b}"))
}

/// The fault of `-i`, as both evaluators report it.
fn neg_fault(i: i64) -> PrismaError {
    PrismaError::Arithmetic(format!("-({i})"))
}

fn neg_value(v: Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => i.checked_neg().map(Value::Int).ok_or_else(|| neg_fault(i)),
        Value::Double(d) => Ok(Value::Double(-d)),
        other => Err(PrismaError::ExprType(format!("unary minus over {other}"))),
    }
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

// =================== the kernels ===================

/// A compiled vectorized expression: batch columns + selection in,
/// *compacted* result column out (`len == sel.count()`, rows in selection
/// order). Shareable across threads.
#[derive(Debug, Clone)]
pub struct CompiledVecExpr {
    expr: ScalarExpr,
}

impl CompiledVecExpr {
    /// Evaluate over the selected rows of a batch's columns. Only the
    /// columns the kernel tree references are ever materialized — the
    /// lazy set pivots per column on first access. An arithmetic fault on
    /// any selected row fails the batch.
    pub fn eval(&self, cols: &LazyColumns, sel: &SelVec) -> Result<Arc<ColumnVec>> {
        self.expr.eval_columns(cols, SelView::from(sel))
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
    /// Each factor sees only the rows the factors before it kept (the stop
    /// rule); an arithmetic fault on a row a factor sees fails the batch.
    pub fn select(&mut self, cols: &LazyColumns, sel: &SelVec, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        let (first, rest) = self
            .factors
            .split_first()
            .expect("a conjunction has a factor");
        first.filter(cols, SelView::from(sel), out)?;
        for f in rest {
            if out.is_empty() {
                break;
            }
            self.tmp.clear();
            f.filter(cols, SelView::Idx(out), &mut self.tmp)?;
            std::mem::swap(out, &mut self.tmp);
        }
        Ok(())
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
/// semantics reject both. Rules come only from the factors before the
/// first one that can fault: under the stop rule a row reaches that factor
/// unless an earlier factor rejects it, so skipping a chunk never hides a
/// fault the kernel would raise.
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
            if factor.can_fault() {
                break;
            }
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

impl ScalarExpr {
    /// The kernel behind [`CompiledVecExpr`]: the expression evaluated a
    /// column at a time over the selected rows. A binary node evaluates
    /// both children to compacted columns — strictly, like the
    /// interpreter, the left one first — and combines them with a typed
    /// loop; a `Col` leaf under a full selection is a refcount bump, never
    /// a copy.
    fn eval_columns(&self, cols: &LazyColumns, sel: SelView<'_>) -> Result<Arc<ColumnVec>> {
        use ScalarExpr as E;
        let kernel = |e: &ScalarExpr| e.eval_columns(cols, sel);
        Ok(Arc::new(match self {
            E::Col(i) => {
                return Ok(match sel {
                    SelView::All(_) => Arc::clone(cols.col(*i)),
                    SelView::Idx(ix) => Arc::new(cols.col(*i).gather(ix)),
                })
            }
            E::Lit(v) => const_column(v, sel.count()),
            E::Cmp(op, l, r) => cmp_columns(*op, &*kernel(l)?, &*kernel(r)?),
            E::Arith(op, l, r) => arith_columns(*op, &*kernel(l)?, &*kernel(r)?)?,
            E::And(l, r) => kleene_columns(&*kernel(l)?, &*kernel(r)?, kleene_and),
            E::Or(l, r) => kleene_columns(&*kernel(l)?, &*kernel(r)?, kleene_or),
            E::Not(x) => not_column(&*kernel(x)?),
            E::IsNull(x) => is_null_column(&*kernel(x)?),
            E::Neg(x) => neg_column(&*kernel(x)?)?,
        }))
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
    General(ScalarExpr),
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
        PredFactor::General(e.clone())
    }

    fn filter(&self, cols: &LazyColumns, sel: SelView<'_>, out: &mut Vec<u32>) -> Result<()> {
        match self {
            PredFactor::CmpColLit(op, i, v) => cmp_col_lit_filter(*op, cols.col(*i), v, sel, out),
            PredFactor::CmpColCol(op, i, j) => {
                cmp_col_col_filter(*op, cols.col(*i), cols.col(*j), sel, out)
            }
            PredFactor::General(e) => {
                let col = e.eval_columns(cols, sel)?;
                for (p, idx) in sel.enumerated() {
                    if bool_at(&col, p) == Some(true) {
                        out.push(idx as u32);
                    }
                }
            }
        }
        Ok(())
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

/// Typed arithmetic over two equal-length compacted columns. The first
/// non-NULL row that faults (overflow, integer division by zero,
/// non-numeric operands) fails the batch once the loop is done.
fn arith_columns(op: ArithOp, a: &ColumnVec, b: &ColumnVec) -> Result<ColumnVec> {
    use ColumnVec as C;
    let n = a.len();
    debug_assert_eq!(n, b.len());
    Ok(match (a, b) {
        (C::Int { data: ad, .. }, C::Int { data: bd, .. }) => {
            let nulls = union_nulls(null_mask_of(a), null_mask_of(b));
            let mut data = vec![0i64; n];
            let mut fault = None;
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
                    // The payload under a NULL is arbitrary: no fault.
                    None if fault.is_none() && !nulls.as_ref().is_some_and(|m| m[i]) => {
                        fault = Some(i)
                    }
                    None => {}
                }
            }
            if let Some(i) = fault {
                return Err(arith_fault(op, &a.value_at(i), &b.value_at(i)));
            }
            C::Int { data, nulls }
        }
        // Mixed Int/Double numerics widen to f64, as in `Value`'s
        // arithmetic (IEEE, no faults); Rem stays integer-only and faults
        // in the fallback.
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
        // Scalar fallback: element-wise Value arithmetic, stopping at
        // the first fault.
        _ => C::Mixed(
            (0..n)
                .map(|i| {
                    let (x, y) = (a.value_at(i), b.value_at(i));
                    if x.is_null() || y.is_null() {
                        Ok(Value::Null)
                    } else {
                        apply_arith(op, &x, &y)
                    }
                })
                .collect::<Result<_>>()?,
        ),
    })
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

/// Unary minus over a column; the first non-NULL `i64::MIN` fails the
/// batch once the loop is done.
fn neg_column(a: &ColumnVec) -> Result<ColumnVec> {
    use ColumnVec as C;
    Ok(match a {
        C::Int { data: ad, nulls } => {
            let mut data = vec![0i64; ad.len()];
            let mut fault = None;
            for (i, slot) in data.iter_mut().enumerate() {
                match ad[i].checked_neg() {
                    Some(v) => *slot = v,
                    None if fault.is_none() && !nulls.as_ref().is_some_and(|m| m[i]) => {
                        fault = Some(i)
                    }
                    None => {}
                }
            }
            if let Some(i) = fault {
                return Err(neg_fault(ad[i]));
            }
            C::Int {
                data,
                nulls: nulls.clone(),
            }
        }
        C::Double { data, nulls } => C::Double {
            data: data.iter().map(|d| -d).collect(),
            nulls: nulls.clone(),
        },
        _ => C::Mixed(
            (0..a.len())
                .map(|i| neg_value(a.value_at(i)))
                .collect::<Result<_>>()?,
        ),
    })
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
    fn rem_type_checks_as_int_only() {
        let rem = |r| ScalarExpr::arith(ArithOp::Rem, ScalarExpr::col(0), r).check(&schema());
        assert_eq!(rem(ScalarExpr::lit(3)).unwrap(), DataType::Int);
        assert!(matches!(
            rem(ScalarExpr::col(1)),
            Err(PrismaError::ExprType(_))
        ));
        assert!(matches!(
            rem(ScalarExpr::lit(2.5)),
            Err(PrismaError::ExprType(_))
        ));
    }

    #[test]
    fn predicate_semantics_null_rejects() {
        let t = row();
        let (cols, rows) = batch_columns();
        // n = 1 is unknown -> row filtered out by both evaluators.
        let e = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(3), ScalarExpr::lit(1));
        assert!(!e.eval_predicate(&t).unwrap());
        // NOT(unknown) is still unknown -> rejected.
        let ne = ScalarExpr::Not(Box::new(e.clone()));
        assert!(!ne.eval_predicate(&t).unwrap());
        for p in [e, ne] {
            // Row 0 of the batch is `row()`.
            let kept = kernel_select(&p, &cols, &SelVec::all(rows.len())).unwrap();
            assert!(!kept.contains(&0));
        }
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

    /// The one rule: an i64 fault is `Arithmetic` in both evaluators, with
    /// the same message; Double arithmetic is IEEE; a NULL operand never
    /// faults, whatever payload sits under it.
    #[test]
    fn arithmetic_faults_are_errors_in_both_evaluators() {
        let (arith, int) = (ScalarExpr::arith, |v: i64| ScalarExpr::lit(v));
        let neg = |e: ScalarExpr| ScalarExpr::Neg(Box::new(e));
        let (cols, rows) = batch_columns();
        let max = ScalarExpr::col(0); // on row 3
        let min = arith(ArithOp::Sub, neg(max.clone()), int(1));
        for e in [
            arith(ArithOp::Div, max.clone(), int(0)),
            arith(ArithOp::Rem, max.clone(), int(0)),
            arith(ArithOp::Add, max.clone(), int(1)),
            arith(ArithOp::Mul, max, int(2)),
            arith(ArithOp::Sub, min.clone(), int(1)),
            arith(ArithOp::Div, min.clone(), int(-1)),
            neg(min),
        ] {
            let want = e.eval(&rows[3]).unwrap_err();
            assert!(matches!(want, PrismaError::Arithmetic(_)), "{e}: {want}");
            let one = SelVec::from_indices(rows.len(), vec![3]);
            assert_eq!(e.compile_vec().eval(&cols, &one).unwrap_err(), want, "{e}");
        }
        let all = SelVec::all(rows.len());
        // IEEE: 2.5 / 0 is +inf in both.
        let e = arith(ArithOp::Div, ScalarExpr::col(1), int(0));
        let inf = Value::Double(f64::INFINITY);
        assert_eq!(e.eval(&rows[0]).unwrap(), inf);
        assert_eq!(e.compile_vec().eval(&cols, &all).unwrap().value_at(0), inf);
        // 1 / NULL is NULL, not a fault (rows 0 and 3 hold a NULL `n`) ...
        let e = arith(ArithOp::Div, int(1), ScalarExpr::col(3));
        let nulls = SelVec::from_indices(rows.len(), vec![0, 3]);
        assert_eq!(e.eval(&rows[0]).unwrap(), Value::Null);
        assert_eq!(
            e.compile_vec().eval(&cols, &nulls).unwrap().value_at(1),
            Value::Null
        );
        // ... but a selected 0 faults (row 2's `n`).
        assert!(e.compile_vec().eval(&cols, &all).is_err());
    }

    /// A row a top-level conjunct rejects never reaches the later ones;
    /// nested connectives are strict.
    #[test]
    fn the_stop_rule_guards_later_conjuncts_only() {
        let (cols, rows) = batch_columns();
        let all = SelVec::all(rows.len());
        let guard = ScalarExpr::cmp(CmpOp::Ne, ScalarExpr::col(3), ScalarExpr::lit(0));
        let div = ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::arith(ArithOp::Div, ScalarExpr::lit(14), ScalarExpr::col(3)),
            ScalarExpr::lit(1),
        );
        let guarded = ScalarExpr::and(guard.clone(), div.clone());
        assert_eq!(kernel_select(&guarded, &cols, &all).unwrap(), vec![1]);
        assert!(!guarded.eval_predicate(&rows[2]).unwrap());
        let fault = |r: Result<_>| matches!(r, Err(PrismaError::Arithmetic(_)));
        for strict in [
            ScalarExpr::and(div.clone(), guard.clone()),
            ScalarExpr::or(ScalarExpr::Not(Box::new(guard)), div),
            ScalarExpr::Not(Box::new(guarded)),
        ] {
            assert!(
                fault(strict.eval_predicate(&rows[2]).map(|_| ())),
                "{strict}"
            );
            assert!(
                fault(kernel_select(&strict, &cols, &all).map(|_| ())),
                "{strict}"
            );
        }
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

    fn kernel_select(p: &ScalarExpr, cols: &LazyColumns, sel: &SelVec) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        p.compile_vec_predicate().select(cols, sel, &mut out)?;
        Ok(out)
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
        vp.select(&cols, &SelVec::all(0), &mut out).unwrap();
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
        // A factor that can fault ends the rules: the rows of a chunk a
        // later factor refutes still reach it.
        let div = ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::arith(ArithOp::Div, ScalarExpr::lit(1), ScalarExpr::col(0)),
            ScalarExpr::lit(0),
        );
        let out_of_range = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(99));
        let before = ScalarExpr::and(out_of_range.clone(), div.clone());
        assert!(ZoneRefuter::compile(&before).refutes(&zones));
        let after = ScalarExpr::and(div, out_of_range);
        assert!(ZoneRefuter::compile(&after).is_trivial());
    }
}
