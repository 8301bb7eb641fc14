//! Aggregate functions and the one group table every aggregation folds
//! into.

use std::fmt;

use prisma_storage::FastMap;
use prisma_types::{DataType, PrismaError, Result, Tuple, Value};

use crate::exec::Batch;

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

/// Streaming accumulator for one aggregate over one group.
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

    /// Fold another partial accumulator of the same function into this
    /// one, as if every value `other` saw had been fed to `self`. This is
    /// the pipeline-breaker step of morsel-parallel aggregation: each
    /// worker accumulates privately, then the partials merge. All the
    /// functions here are commutative-associative folds, so `self` first
    /// vs `other` first only matters for floating-point rounding — and
    /// the executor merges partials in morsel order precisely so the
    /// result is bit-identical to the serial scan.
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        debug_assert_eq!(self.func, other.func);
        self.count += other.count;
        if let Some(v) = &other.sum {
            self.sum = Some(match &self.sum {
                None => v.clone(),
                Some(acc) => acc
                    .add(v)
                    .ok_or_else(|| PrismaError::Arithmetic(format!("SUM overflow at {v}")))?,
            });
        }
        if let Some(v) = &other.min {
            if self.min.as_ref().is_none_or(|m| v < m) {
                self.min = Some(v.clone());
            }
        }
        if let Some(v) = &other.max {
            if self.max.as_ref().is_none_or(|m| v > m) {
                self.max = Some(v.clone());
            }
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

/// A hash group table: each group key's accumulators, one per aggregate,
/// and the keys in first-seen order. It is the executor's only group-by:
/// the inline aggregate folds its input into one table, the pooled one
/// folds a table per contiguous chunk of its input and merges them in
/// chunk order, and the coordinator folds the fragments' partial rows into
/// one table over the merge aggregates.
#[derive(Debug)]
pub struct GroupTable {
    group_by: Vec<usize>,
    aggs: Vec<AggExpr>,
    groups: FastMap<Vec<Value>, Vec<Accumulator>>,
    /// Group keys in first-seen order: the output order, and the order in
    /// which a merged table's groups join this one.
    order: Vec<Vec<Value>>,
}

impl GroupTable {
    /// An empty table grouping on the columns `group_by`, computing `aggs`.
    pub fn new(group_by: &[usize], aggs: &[AggExpr]) -> GroupTable {
        GroupTable {
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            groups: FastMap::default(),
            order: Vec::new(),
        }
    }

    /// Fold one batch's live rows into the table. Keys and aggregate inputs
    /// are read from the batch's columnar form when it has one, so a
    /// filtered or projected input never pivots back to tuples.
    pub fn fold(&mut self, batch: &Batch) -> Result<()> {
        let GroupTable {
            group_by,
            aggs,
            groups,
            order,
        } = self;
        let fold = |accs: &mut [Accumulator], row: usize| -> Result<()> {
            for (acc, a) in accs.iter_mut().zip(aggs.iter()) {
                let v = if a.func == AggFunc::CountStar {
                    Value::Bool(true) // placeholder; COUNT(*) counts rows
                } else {
                    batch.value_at(row, a.col)
                };
                acc.update(&v)?;
            }
            Ok(())
        };
        let mut key: Vec<Value> = Vec::with_capacity(group_by.len());
        for row in 0..batch.len() {
            batch.key_at(row, group_by, &mut key);
            // Most rows hit an open group: look up by slice, clone the key
            // only to open a new one.
            if let Some(accs) = groups.get_mut(key.as_slice()) {
                fold(accs, row)?;
                continue;
            }
            order.push(key.clone());
            let accs = groups
                .entry(key.clone())
                .or_insert_with(|| aggs.iter().map(|a| Accumulator::new(a.func)).collect());
            fold(accs, row)?;
        }
        Ok(())
    }

    /// Merge `other`, a table over input that followed this table's: its
    /// new groups follow this table's in first-seen order, and shared
    /// groups merge their accumulators ([`Accumulator::merge`]) — so
    /// merging contiguous chunks' tables in chunk order reproduces one
    /// table over the whole input, float rounding included.
    pub fn merge(&mut self, other: GroupTable) -> Result<()> {
        let GroupTable {
            mut groups, order, ..
        } = other;
        for key in order {
            let accs = groups.remove(&key).expect("every ordered key has a group");
            match self.groups.get_mut(&key) {
                Some(existing) => {
                    for (acc, part) in existing.iter_mut().zip(&accs) {
                        acc.merge(part)?;
                    }
                }
                None => {
                    self.order.push(key.clone());
                    self.groups.insert(key, accs);
                }
            }
        }
        Ok(())
    }

    /// The result rows — group key, then one value per aggregate — in
    /// first-seen group order. A global aggregate (no group-by) over empty
    /// input still yields its one row.
    pub fn finish(self) -> Vec<Tuple> {
        if self.group_by.is_empty() && self.order.is_empty() {
            let row = self
                .aggs
                .iter()
                .map(|a| Accumulator::new(a.func).finish())
                .collect();
            return vec![Tuple::new(row)];
        }
        let groups = self.groups;
        self.order
            .into_iter()
            .map(|key| {
                let accs = &groups[&key];
                let mut row = key;
                row.extend(accs.iter().map(Accumulator::finish));
                Tuple::new(row)
            })
            .collect()
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

    #[test]
    fn merged_partials_agree_with_one_pass() {
        let vals: Vec<Value> = (0..100)
            .map(|i| if i % 7 == 0 { Value::Null } else { Value::Int(i) })
            .collect();
        for func in [
            AggFunc::CountStar,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let serial = run(func, &vals);
            // Split into three uneven partials and merge in order.
            let mut merged = Accumulator::new(func);
            for chunk in [&vals[..13], &vals[13..60], &vals[60..]] {
                let mut part = Accumulator::new(func);
                for v in chunk {
                    part.update(v).unwrap();
                }
                merged.merge(&part).unwrap();
            }
            assert_eq!(merged.finish(), serial, "{func}");
        }
        // Merging an empty partial is a no-op.
        let mut acc = Accumulator::new(AggFunc::Min);
        acc.update(&Value::Int(5)).unwrap();
        acc.merge(&Accumulator::new(AggFunc::Min)).unwrap();
        assert_eq!(acc.finish(), Value::Int(5));
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
