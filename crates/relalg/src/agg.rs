//! Aggregate functions and the one group table every aggregation folds
//! into.

use std::fmt;
use std::mem::take;

use prisma_types::{ColumnVec, DataType, LazyColumns, PrismaError, Result, SelVec, Tuple, Value};

use crate::exec::Batch;
use crate::join::{bucket, hash_keys, NONE};

/// The aggregate functions of the SQL front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows including NULLs.
    CountStar,
    /// `COUNT(col)` — counts non-NULL values.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggFunc {
    /// Whether partial results computed over disjoint parts of the input
    /// merge exactly into the global result (COUNT → SUM of counts,
    /// SUM → SUM, MIN → MIN, MAX → MAX). The distributed executor runs
    /// such aggregates below the exchange; AVG is not decomposable as one
    /// column.
    pub fn decomposable(self) -> bool {
        matches!(
            self,
            AggFunc::CountStar | AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max
        )
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// One aggregate in an `Aggregate` plan node: function + input column
/// (ignored for `CountStar`) + output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input column ordinal (unused for COUNT(*)).
    pub col: usize,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Construct.
    pub fn new(func: AggFunc, col: usize, name: impl Into<String>) -> Self {
        AggExpr {
            func,
            col,
            name: name.into(),
        }
    }

    /// Output type given the input column type.
    pub fn output_type(&self, input: DataType) -> Result<DataType> {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Ok(DataType::Int),
            AggFunc::Sum => {
                if input.is_numeric() {
                    Ok(input)
                } else {
                    Err(PrismaError::ExprType(format!("SUM over {input}")))
                }
            }
            AggFunc::Avg => {
                if input.is_numeric() {
                    Ok(DataType::Double)
                } else {
                    Err(PrismaError::ExprType(format!("AVG over {input}")))
                }
            }
            AggFunc::Min | AggFunc::Max => Ok(input),
        }
    }
}

/// Streaming accumulator for one aggregate over one group, a `Value` at a
/// time — the reference evaluator's definition of every aggregate, which
/// [`GroupTable`]'s typed slots reproduce bit for bit.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: None,
            min: None,
            max: None,
        }
    }

    /// Feed one value (the row itself for COUNT(*); NULLs are skipped for
    /// all others per SQL).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if self.func == AggFunc::CountStar {
            self.count += 1;
            return Ok(());
        }
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Sum | AggFunc::Avg => {
                self.sum = Some(match &self.sum {
                    None => v.clone(),
                    Some(acc) => acc
                        .add(v)
                        .ok_or_else(|| PrismaError::Arithmetic(format!("SUM overflow at {v}")))?,
                });
            }
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
            AggFunc::Count | AggFunc::CountStar => {}
        }
        Ok(())
    }

    /// The aggregate result. Empty-input semantics follow SQL: COUNT is 0,
    /// everything else NULL.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => self.sum.clone().unwrap_or(Value::Null),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => match &self.sum {
                None => Value::Null,
                Some(s) => {
                    let total = s.as_double().unwrap_or(0.0);
                    Value::Double(total / self.count as f64)
                }
            },
        }
    }
}

/// The hash group table every aggregation folds into: the inline aggregate
/// folds its input into one table, the pooled one folds a table per morsel
/// of its input and merges them in morsel order, and the coordinator's
/// final aggregate folds the gathered partial rows the same way.
///
/// A batch folds in two column-at-a-time passes and never builds a key:
///
/// 1. every live row is mapped to a **dense group id** (`0, 1, 2, …` in
///    first-seen order). Keys hash straight from the typed key columns with
///    the join's kernel (`join::hash_keys`, the bits of
///    [`crate::exec::key_hash`] for a key without NULLs), a chained table of
///    group ids finds the candidates, and a candidate is verified against
///    the group's stored key by [`ColumnVec::key_eq_at`] — `Value`
///    equality, so `Int(3)` and `Double(3.0)` share a group and NULL is a
///    key like any other;
/// 2. each aggregate folds its input column into per-group slots in one
///    typed loop over (group id, value).
///
/// A group's key is stored once, as the `Value`s it was first seen with.
/// The slots keep what [`Accumulator`] keeps, so results are bit-identical
/// to the reference evaluator's.
#[derive(Debug)]
pub struct GroupTable {
    group_by: Vec<usize>,
    aggs: Vec<AggExpr>,
    /// Group `g`'s key: `keys[g * group_by.len()..][..group_by.len()]`.
    keys: Vec<Value>,
    /// Key hash per group; its length is the group count.
    hashes: Vec<u64>,
    /// Bucket → its first group. Power-of-two sized, at most half full.
    heads: Vec<u32>,
    /// Group → the next group of its bucket, in ascending group order.
    next: Vec<u32>,
    /// `64 - log2(heads.len())`.
    shift: u32,
    /// Per aggregate, its slot of every group.
    slots: Vec<Slots>,
    /// Per-batch scratch, reused: each live row's key hash, NULL flag
    /// (unused — NULL groups like any value) and group id.
    row_hashes: Vec<u64>,
    row_nulls: Vec<bool>,
    gids: Vec<u32>,
}

/// Buckets of a fresh table.
const FIRST_BUCKETS: usize = 16;

impl GroupTable {
    /// An empty table grouping on the columns `group_by`, computing `aggs`.
    pub fn new(group_by: &[usize], aggs: &[AggExpr]) -> GroupTable {
        GroupTable {
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            keys: Vec::new(),
            hashes: Vec::new(),
            heads: vec![NONE; FIRST_BUCKETS],
            next: Vec::new(),
            shift: 64 - FIRST_BUCKETS.trailing_zeros(),
            slots: aggs.iter().map(|_| Slots::default()).collect(),
            row_hashes: Vec::new(),
            row_nulls: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// An empty table grouping and aggregating as this one does.
    pub fn empty_like(&self) -> GroupTable {
        GroupTable::new(&self.group_by, &self.aggs)
    }

    /// Fold one batch's live rows into the table.
    pub fn fold(&mut self, batch: &Batch) -> Result<()> {
        if batch.is_empty() {
            return Ok(()); // (and an empty row batch has no columns to read)
        }
        let (cols, sel) = batch.to_columns();
        let (group_by, mut hashes, mut gids) =
            (take(&mut self.group_by), take(&mut self.row_hashes), take(&mut self.gids));
        hash_keys(&cols, &sel, &group_by, &mut hashes, &mut self.row_nulls);
        let keys = || group_by.iter().map(|&c| &**cols.col(c));
        gids.clear();
        for (k, &hash) in hashes.iter().enumerate() {
            let row = sel.nth(k);
            let found = self.find(group_by.len(), hash, |key| keys().zip(key).all(|(c, v)| c.key_eq_at(row, v)));
            gids.push(found.unwrap_or_else(|tail| self.open(hash, tail, keys().map(|c| c.value_at(row)))));
        }
        let folded = self
            .aggs
            .iter()
            .zip(&mut self.slots)
            .try_for_each(|(a, slots)| slots.fold(a, &cols, &sel, &gids));
        (self.group_by, self.row_hashes, self.gids) = (group_by, hashes, gids);
        folded
    }

    /// Merge `other`, a table over input that followed this table's: its
    /// new groups follow this table's in first-seen order, and shared
    /// groups merge their slots — so merging contiguous chunks' tables in
    /// chunk order reproduces one table over the whole input, up to the
    /// rounding of floating-point sums (partial sums add up in another
    /// association).
    pub fn merge(&mut self, other: GroupTable) -> Result<()> {
        let width = self.group_by.len();
        let mut keys = other.keys.into_iter();
        let mut theirs: Vec<_> = other
            .slots
            .into_iter()
            .map(|s| s.counts.into_iter().zip(s.vals))
            .collect();
        for hash in other.hashes {
            let key: Vec<Value> = keys.by_ref().take(width).collect();
            let g = match self.find(width, hash, |mine| mine == key.as_slice()) {
                Ok(g) => g,
                Err(tail) => self.open(hash, tail, key),
            } as usize;
            for ((a, slots), part) in self.aggs.iter().zip(&mut self.slots).zip(&mut theirs) {
                let (count, val) = part.next().expect("a slot per group");
                slots.counts[g] += count;
                if !val.is_null() {
                    combine(a.func, &mut slots.vals[g], &val)?;
                }
            }
        }
        Ok(())
    }

    /// The result rows — group key, then one value per aggregate — in
    /// first-seen group order. A global aggregate (no group-by) over empty
    /// input still yields its one row.
    pub fn finish(mut self) -> Vec<Tuple> {
        if self.group_by.is_empty() && self.hashes.is_empty() {
            self.slots.iter_mut().for_each(Slots::push);
            self.hashes.push(0);
        }
        let width = self.group_by.len();
        let mut keys = self.keys.into_iter();
        let mut slots: Vec<_> = self
            .slots
            .into_iter()
            .map(|s| s.counts.into_iter().zip(s.vals))
            .collect();
        (0..self.hashes.len())
            .map(|_| {
                let mut row = Vec::with_capacity(width + self.aggs.len());
                row.extend(keys.by_ref().take(width));
                row.extend(self.aggs.iter().zip(&mut slots).map(|(a, s)| {
                    let (count, val) = s.next().expect("a slot per group");
                    finish(a.func, count, val)
                }));
                Tuple::new(row)
            })
            .collect()
    }

    /// The group whose hash is `hash` and whose key (`width` values) passes `eq` — the
    /// lowest such id — or, when there is none, the last group of the
    /// bucket's chain (`NONE` for an empty chain) to link a new one after.
    fn find(&self, width: usize, hash: u64, eq: impl Fn(&[Value]) -> bool) -> std::result::Result<u32, u32> {
        let (mut g, mut tail) = (self.heads[bucket(hash, self.shift)], NONE);
        while g != NONE {
            let at = g as usize;
            if self.hashes[at] == hash && eq(&self.keys[at * width..][..width]) {
                return Ok(g);
            }
            (tail, g) = (g, self.next[at]);
        }
        Err(tail)
    }

    /// Open a new group after `tail` (see [`GroupTable::find`]); its id is
    /// the group count so far.
    fn open(&mut self, hash: u64, tail: u32, key: impl IntoIterator<Item = Value>) -> u32 {
        let g = u32::try_from(self.hashes.len()).expect("fewer than 2^32 groups");
        self.keys.extend(key);
        self.hashes.push(hash);
        self.next.push(NONE);
        match tail {
            NONE => self.heads[bucket(hash, self.shift)] = g,
            tail => self.next[tail as usize] = g,
        }
        self.slots.iter_mut().for_each(Slots::push);
        if self.hashes.len() * 2 > self.heads.len() {
            self.grow();
        }
        g
    }

    /// Double the buckets and relink every group, back to front, so every
    /// chain stays in ascending group order.
    fn grow(&mut self) {
        let buckets = self.heads.len() * 2;
        self.shift = 64 - buckets.trailing_zeros();
        self.heads = vec![NONE; buckets];
        for g in (0..self.hashes.len()).rev() {
            let slot = bucket(self.hashes[g], self.shift);
            self.next[g] = self.heads[slot];
            self.heads[slot] = g as u32;
        }
    }
}

/// One aggregate's state, one slot per group: the rows it counted (COUNT's
/// result, AVG's divisor) and its running SUM / MIN / MAX — NULL until the
/// group's first non-NULL input.
#[derive(Debug, Default)]
struct Slots {
    counts: Vec<i64>,
    vals: Vec<Value>,
}

impl Slots {
    fn push(&mut self) {
        self.counts.push(0);
        self.vals.push(Value::Null);
    }

    /// Fold the live rows of `a`'s input column, the `k`-th of which
    /// belongs to group `gids[k]`: one loop per column type, reading the
    /// typed payload in place (a string is cloned only when it becomes a
    /// group's MIN or MAX).
    fn fold(&mut self, a: &AggExpr, cols: &LazyColumns, sel: &SelVec, gids: &[u32]) -> Result<()> {
        let Slots { counts, vals } = self;
        if a.func == AggFunc::CountStar {
            gids.iter().for_each(|&g| counts[g as usize] += 1);
            return Ok(());
        }
        let mut update = |g: usize, v: &Value| {
            counts[g] += 1;
            combine(a.func, &mut vals[g], v)
        };
        match &**cols.col(a.col) {
            ColumnVec::Int { data, nulls } => {
                each_live(data, nulls, sel, gids, |g, &x| update(g, &Value::Int(x)))
            }
            ColumnVec::Double { data, nulls } => {
                each_live(data, nulls, sel, gids, |g, &x| update(g, &Value::Double(x)))
            }
            ColumnVec::Str { data, nulls } => each_live(data, nulls, sel, gids, |g, s| {
                counts[g] += 1;
                match (&mut vals[g], a.func) {
                    (Value::Str(m), AggFunc::Min) if *s < *m => m.clone_from(s),
                    (Value::Str(m), AggFunc::Max) if *s > *m => m.clone_from(s),
                    (Value::Str(_), AggFunc::Min | AggFunc::Max) | (_, AggFunc::Count) => {}
                    (val, func) => combine(func, val, &Value::Str(s.clone()))?,
                }
                Ok(())
            }),
            col => gids.iter().enumerate().try_for_each(|(k, &g)| match col.value_at(sel.nth(k)) {
                Value::Null => Ok(()),
                v => update(g as usize, &v),
            }),
        }
    }
}

/// Call `f(group, value)` for every live, non-NULL row of a typed column,
/// the `k`-th live row belonging to group `gids[k]`.
fn each_live<T>(
    data: &[T],
    nulls: &Option<Vec<bool>>,
    sel: &SelVec,
    gids: &[u32],
    mut f: impl FnMut(usize, &T) -> Result<()>,
) -> Result<()> {
    if let (None, None) = (sel.indices(), nulls) {
        return gids.iter().zip(data).try_for_each(|(&g, x)| f(g as usize, x));
    }
    for (k, &g) in gids.iter().enumerate() {
        let i = sel.nth(k);
        if nulls.as_ref().is_none_or(|n| !n[i]) {
            f(g as usize, &data[i])?;
        }
    }
    Ok(())
}

/// Fold the non-NULL `v` into a group's running SUM / MIN / MAX `val`
/// under [`Accumulator::update`]'s rules — also how two groups' partial
/// values merge.
fn combine(func: AggFunc, val: &mut Value, v: &Value) -> Result<()> {
    let overflow = || PrismaError::Arithmetic(format!("SUM overflow at {v}"));
    match func {
        AggFunc::Sum | AggFunc::Avg => match (&mut *val, v) {
            (Value::Int(acc), Value::Int(x)) => *acc = acc.checked_add(*x).ok_or_else(overflow)?,
            (Value::Double(acc), Value::Double(x)) => *acc += x,
            (Value::Null, _) => *val = v.clone(),
            (acc, _) => *acc = acc.add(v).ok_or_else(overflow)?,
        },
        AggFunc::Min if val.is_null() || *v < *val => *val = v.clone(),
        AggFunc::Max if val.is_null() || *v > *val => *val = v.clone(),
        _ => {}
    }
    Ok(())
}

/// A group's result from its slot, as [`Accumulator::finish`] computes it.
fn finish(func: AggFunc, count: i64, val: Value) -> Value {
    match func {
        AggFunc::CountStar | AggFunc::Count => Value::Int(count),
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => val,
        AggFunc::Avg => match val {
            Value::Null => Value::Null,
            sum => Value::Double(sum.as_double().unwrap_or(0.0) / count as f64),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func);
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn basic_aggregates() {
        let vals = vec![Value::Int(3), Value::Null, Value::Int(1), Value::Int(6)];
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(4));
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(10));
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(6));
        assert_eq!(
            run(AggFunc::Avg, &vals),
            Value::Double(10.0 / 3.0)
        );
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(run(AggFunc::CountStar, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
    }

    #[test]
    fn output_types() {
        assert_eq!(
            AggExpr::new(AggFunc::Avg, 0, "a").output_type(DataType::Int).unwrap(),
            DataType::Double
        );
        assert_eq!(
            AggExpr::new(AggFunc::Sum, 0, "s").output_type(DataType::Double).unwrap(),
            DataType::Double
        );
        assert!(AggExpr::new(AggFunc::Sum, 0, "s")
            .output_type(DataType::Str)
            .is_err());
        assert_eq!(
            AggExpr::new(AggFunc::Min, 0, "m").output_type(DataType::Str).unwrap(),
            DataType::Str
        );
    }

    /// Rows as `Debug` strings: `Int(3)` vs `Double(3.0)`, `-0.0` vs `0.0`
    /// and NaN all print apart.
    fn bits(rows: &[Tuple]) -> Vec<String> {
        rows.iter().map(|t| format!("{:?}", t.values())).collect()
    }

    /// The first-seen-order, `Accumulator`-per-group definition.
    fn by_accumulators(rows: &[Tuple], group_by: &[usize], aggs: &[AggExpr]) -> Vec<Tuple> {
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        for t in rows {
            let key = t.key(group_by);
            let at = match groups.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    groups.push((key, aggs.iter().map(|a| Accumulator::new(a.func)).collect()));
                    groups.len() - 1
                }
            };
            for (acc, a) in groups[at].1.iter_mut().zip(aggs) {
                acc.update(if a.func == AggFunc::CountStar { &Value::Null } else { t.get(a.col) })
                    .unwrap();
            }
        }
        groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.iter().map(Accumulator::finish));
                Tuple::new(key)
            })
            .collect()
    }

    #[test]
    fn group_table_folds_and_merges_like_the_accumulators() {
        // Keys mixing Int(3) with Double(3.0), NULL and strings; values
        // mixing Int, Double, NULL, -0.0 and NaN — once as typed columns,
        // once as `Mixed` ones.
        let rows: Vec<Tuple> = (0..300i64)
            .map(|i| {
                let key = match i % 7 {
                    0 => Value::Null,
                    1 => Value::Double(3.0),
                    2 | 3 => Value::Int(i % 5),
                    4 => Value::Str(format!("s{}", i % 3)),
                    _ => Value::Int(3),
                };
                let int = if i % 11 == 0 { Value::Null } else { Value::Int(i * 37 % 101 - 50) };
                let double = match i % 13 {
                    0 => Value::Null,
                    1 => Value::Double(-0.0),
                    2 if i > 200 => Value::Double(f64::NAN),
                    _ => Value::Double(i as f64 / 7.0),
                };
                let s = if i % 4 == 0 { Value::Null } else { Value::Str(format!("v{}", i * 7 % 29)) };
                Tuple::new(vec![key, int, double, s, Value::Int(i % 2)])
            })
            .collect();
        let mut aggs = vec![AggExpr::new(AggFunc::CountStar, 0, "n")];
        for col in 1..4 {
            for func in [AggFunc::Count, AggFunc::Min, AggFunc::Max] {
                aggs.push(AggExpr::new(func, col, "a"));
            }
        }
        for col in 1..3 {
            for func in [AggFunc::Sum, AggFunc::Avg] {
                aggs.push(AggExpr::new(func, col, "a"));
            }
        }
        for group_by in [vec![0], vec![4, 0], vec![]] {
            let want = bits(&by_accumulators(&rows, &group_by, &aggs));
            // One batch: rows (pivoting to typed columns where they can),
            // or every column `Mixed`.
            let mixed = (0..5)
                .map(|c| std::sync::Arc::new(ColumnVec::Mixed(rows.iter().map(|t| t.get(c).clone()).collect())))
                .collect();
            for batch in [Batch::owned(rows.clone()), Batch::columns(mixed, SelVec::all(rows.len()))] {
                let mut table = GroupTable::new(&group_by, &aggs);
                table.fold(&batch).unwrap();
                assert_eq!(bits(&table.finish()), want, "one batch, by {group_by:?}");
            }
            // Uneven batches into one table, and a table per batch merged
            // in batch order.
            let cuts = [0, 13, 14, 160, 300];
            let (mut one, mut merged) = (GroupTable::new(&group_by, &aggs), GroupTable::new(&group_by, &aggs));
            for w in cuts.windows(2) {
                let batch = Batch::owned(rows[w[0]..w[1]].to_vec());
                one.fold(&batch).unwrap();
                let mut part = GroupTable::new(&group_by, &aggs);
                part.fold(&batch).unwrap();
                merged.merge(part).unwrap();
            }
            merged.merge(GroupTable::new(&group_by, &aggs)).unwrap();
            assert_eq!(bits(&one.finish()), want, "batches, by {group_by:?}");
            // Merged partial sums of doubles round differently; all else is
            // exact.
            let exact: Vec<bool> = group_by
                .iter()
                .map(|_| true)
                .chain(aggs.iter().map(|a| a.col != 2 || !matches!(a.func, AggFunc::Sum | AggFunc::Avg)))
                .collect();
            let exact_bits = |rows: &[Tuple]| -> Vec<String> {
                rows.iter()
                    .map(|t| {
                        let kept: Vec<&Value> = t.values().iter().zip(&exact).filter(|(_, &e)| e).map(|(v, _)| v).collect();
                        format!("{kept:?}")
                    })
                    .collect()
            };
            assert_eq!(
                exact_bits(&merged.finish()),
                exact_bits(&by_accumulators(&rows, &group_by, &aggs)),
                "merged tables, by {group_by:?}"
            );
        }
    }

    #[test]
    fn group_table_edge_cases() {
        let aggs = [AggExpr::new(AggFunc::CountStar, 0, "n"), AggExpr::new(AggFunc::Sum, 0, "s")];
        // A global aggregate over nothing still has its row; a grouped one
        // has none.
        assert_eq!(bits(&GroupTable::new(&[], &aggs).finish()), ["[Int(0), Null]"]);
        assert!(GroupTable::new(&[0], &aggs).finish().is_empty());
        // SUM overflow is an error, folded or merged.
        let big = Batch::owned(vec![Tuple::new(vec![Value::Int(i64::MAX)])]);
        let mut table = GroupTable::new(&[], &aggs);
        table.fold(&big).unwrap();
        assert!(table.fold(&big).is_err());
        let (mut a, mut b) = (GroupTable::new(&[], &aggs), GroupTable::new(&[], &aggs));
        a.fold(&big).unwrap();
        b.fold(&big).unwrap();
        assert!(a.merge(b).is_err());
        // Thousands of groups outgrow the first buckets and keep their order.
        let rows: Vec<Tuple> = (0..5000i64).map(|i| Tuple::new(vec![Value::Int(i * 7919 % 4099)])).collect();
        let mut table = GroupTable::new(&[0], &aggs);
        table.fold(&Batch::owned(rows.clone())).unwrap();
        assert_eq!(bits(&table.finish()), bits(&by_accumulators(&rows, &[0], &aggs)));
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let mut acc = Accumulator::new(AggFunc::Sum);
        acc.update(&Value::Int(i64::MAX)).unwrap();
        assert!(acc.update(&Value::Int(1)).is_err());
    }

    #[test]
    fn min_max_on_strings() {
        let vals = vec![Value::from("pear"), Value::from("apple")];
        assert_eq!(run(AggFunc::Min, &vals), Value::from("apple"));
        assert_eq!(run(AggFunc::Max, &vals), Value::from("pear"));
    }
}
