//! Columnar vectors and selection vectors — the column-at-a-time data
//! representation the batch executor evaluates expressions over.
//!
//! A [`ColumnVec`] stores one attribute of a batch of tuples contiguously,
//! decomposed into a typed payload vector plus an optional NULL mask, so
//! expression kernels can run tight loops over `&[i64]` / `&[f64]` slices
//! instead of dispatching on the [`Value`] enum per row. Columns whose
//! non-null values span more than one runtime type (legal after mixed
//! Int/Double arithmetic) fall back to [`ColumnVec::Mixed`], which keeps
//! raw values and routes kernels to the scalar path.
//!
//! A [`SelVec`] is a selection vector over a batch: either *all rows* (no
//! allocation) or a sorted list of selected row indices. Filters refine
//! the selection instead of copying survivors, so a filtered batch shares
//! its columns with its input untouched.

use crate::value::Value;

/// One attribute of a batch, stored column-wise.
///
/// Typed variants carry `(payload, null-mask)`; `nulls` is `None` when the
/// column contains no NULL (the common case, checked once per batch
/// instead of once per row). Payload slots under a set mask bit hold an
/// arbitrary default and must not be observed.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// 64-bit integers.
    Int { data: Vec<i64>, nulls: Option<Vec<bool>> },
    /// 64-bit floats.
    Double { data: Vec<f64>, nulls: Option<Vec<bool>> },
    /// Booleans (also the output type of vectorized predicates).
    Bool { data: Vec<bool>, nulls: Option<Vec<bool>> },
    /// Strings.
    Str { data: Vec<String>, nulls: Option<Vec<bool>> },
    /// Escape hatch: heterogeneous or all-NULL columns, stored row-wise.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Double { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Str { data, .. } => data.len(),
            ColumnVec::Mixed(v) => v.len(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Double { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Str { nulls, .. } => nulls.as_ref().is_some_and(|n| n[i]),
            ColumnVec::Mixed(v) => v[i].is_null(),
        }
    }

    /// Materialize row `i` as a [`Value`] (clones string payloads).
    pub fn value_at(&self, i: usize) -> Value {
        if self.is_null_at(i) {
            return Value::Null;
        }
        match self {
            ColumnVec::Int { data, .. } => Value::Int(data[i]),
            ColumnVec::Double { data, .. } => Value::Double(data[i]),
            ColumnVec::Bool { data, .. } => Value::Bool(data[i]),
            ColumnVec::Str { data, .. } => Value::Str(data[i].clone()),
            ColumnVec::Mixed(v) => v[i].clone(),
        }
    }

    /// [`ColumnVec::value_at`] for a caller that owns the column and reads
    /// each row at most once: a string (or `Mixed` value) is **moved** out
    /// instead of cloned, leaving an empty string (or NULL) in the slot.
    pub fn take_at(&mut self, i: usize) -> Value {
        let is_null = |nulls: &Option<Vec<bool>>| nulls.as_ref().is_some_and(|n| n[i]);
        match self {
            ColumnVec::Int { data, nulls } if !is_null(nulls) => Value::Int(data[i]),
            ColumnVec::Double { data, nulls } if !is_null(nulls) => Value::Double(data[i]),
            ColumnVec::Bool { data, nulls } if !is_null(nulls) => Value::Bool(data[i]),
            ColumnVec::Str { data, nulls } if !is_null(nulls) => {
                Value::Str(std::mem::take(&mut data[i]))
            }
            ColumnVec::Mixed(v) => std::mem::replace(&mut v[i], Value::Null),
            _ => Value::Null,
        }
    }

    /// Build a column from row values in a single pass, sniffing the
    /// tightest typed representation: a single non-null runtime type
    /// yields the typed variant (with a mask when NULLs occur); anything
    /// else — including all-NULL columns, whose type is unknowable —
    /// yields `Mixed`. On a type conflict the typed partial built so far
    /// is demoted to `Mixed` and the pass continues.
    pub fn from_values<'a>(values: impl Iterator<Item = &'a Value>) -> ColumnVec {
        /// Append `v` to a typed `data`/`nulls` pair, or report a
        /// conflict via `extract` returning `None`.
        #[inline]
        fn push<T: Default>(
            data: &mut Vec<T>,
            nulls: &mut Vec<bool>,
            extracted: Option<T>,
            is_null: bool,
        ) -> bool {
            match (extracted, is_null) {
                (Some(x), _) => {
                    data.push(x);
                    nulls.push(false);
                    true
                }
                (None, true) => {
                    data.push(T::default());
                    nulls.push(true);
                    true
                }
                (None, false) => false,
            }
        }
        /// Rebuild the raw values of a demoted typed partial.
        fn demote<T>(data: Vec<T>, nulls: Vec<bool>, wrap: impl Fn(T) -> Value) -> Vec<Value> {
            data.into_iter()
                .zip(nulls)
                .map(|(x, null)| if null { Value::Null } else { wrap(x) })
                .collect()
        }

        enum Builder {
            /// Only NULLs seen so far (type still unknown).
            Start(usize),
            Int(Vec<i64>, Vec<bool>),
            Double(Vec<f64>, Vec<bool>),
            Bool(Vec<bool>, Vec<bool>),
            Str(Vec<String>, Vec<bool>),
            Mixed(Vec<Value>),
        }

        let mut b = Builder::Start(0);
        for v in values {
            let null = v.is_null();
            b = match b {
                Builder::Start(nulls) => match v {
                    Value::Null => Builder::Start(nulls + 1),
                    _ => {
                        // First non-null value fixes the candidate type;
                        // re-enter the loop body below via recursion-free
                        // re-dispatch on a fresh typed builder.
                        let mut mask = vec![true; nulls];
                        mask.push(false);
                        match v {
                            Value::Int(x) => {
                                let mut data = vec![0; nulls];
                                data.push(*x);
                                Builder::Int(data, mask)
                            }
                            Value::Double(x) => {
                                let mut data = vec![0.0; nulls];
                                data.push(*x);
                                Builder::Double(data, mask)
                            }
                            Value::Bool(x) => {
                                let mut data = vec![false; nulls];
                                data.push(*x);
                                Builder::Bool(data, mask)
                            }
                            Value::Str(x) => {
                                let mut data = vec![String::new(); nulls];
                                data.push(x.clone());
                                Builder::Str(data, mask)
                            }
                            Value::Null => unreachable!("guarded above"),
                        }
                    }
                },
                Builder::Int(mut data, mut mask) => {
                    if push(&mut data, &mut mask, v.as_int(), null) {
                        Builder::Int(data, mask)
                    } else {
                        let mut vals = demote(data, mask, Value::Int);
                        vals.push(v.clone());
                        Builder::Mixed(vals)
                    }
                }
                Builder::Double(mut data, mut mask) => {
                    let x = match v {
                        Value::Double(d) => Some(*d),
                        _ => None,
                    };
                    if push(&mut data, &mut mask, x, null) {
                        Builder::Double(data, mask)
                    } else {
                        let mut vals = demote(data, mask, Value::Double);
                        vals.push(v.clone());
                        Builder::Mixed(vals)
                    }
                }
                Builder::Bool(mut data, mut mask) => {
                    if push(&mut data, &mut mask, v.as_bool(), null) {
                        Builder::Bool(data, mask)
                    } else {
                        let mut vals = demote(data, mask, Value::Bool);
                        vals.push(v.clone());
                        Builder::Mixed(vals)
                    }
                }
                Builder::Str(mut data, mut mask) => {
                    let x = v.as_str().map(str::to_owned);
                    if push(&mut data, &mut mask, x, null) {
                        Builder::Str(data, mask)
                    } else {
                        let mut vals = demote(data, mask, Value::Str);
                        vals.push(v.clone());
                        Builder::Mixed(vals)
                    }
                }
                Builder::Mixed(mut vals) => {
                    vals.push(v.clone());
                    Builder::Mixed(vals)
                }
            };
        }
        let finish = |mask: Vec<bool>| mask.iter().any(|&m| m).then_some(mask);
        match b {
            Builder::Start(n) => ColumnVec::Mixed(vec![Value::Null; n]),
            Builder::Int(data, mask) => ColumnVec::Int {
                data,
                nulls: finish(mask),
            },
            Builder::Double(data, mask) => ColumnVec::Double {
                data,
                nulls: finish(mask),
            },
            Builder::Bool(data, mask) => ColumnVec::Bool {
                data,
                nulls: finish(mask),
            },
            Builder::Str(data, mask) => ColumnVec::Str {
                data,
                nulls: finish(mask),
            },
            Builder::Mixed(vals) => ColumnVec::Mixed(vals),
        }
    }

    /// Pivot rows into one column per attribute (arity taken from the
    /// first row) — the benches' and tests' eager rows→columns
    /// conversion. The executor pivots lazily per referenced column
    /// through [`LazyColumns`] instead.
    pub fn pivot(rows: &[crate::tuple::Tuple]) -> Vec<std::sync::Arc<ColumnVec>> {
        let arity = rows.first().map_or(0, crate::tuple::Tuple::arity);
        (0..arity)
            .map(|c| std::sync::Arc::new(ColumnVec::pivot_one(rows, c)))
            .collect()
    }

    /// Pivot exactly one attribute of `rows` into a column.
    pub fn pivot_one(rows: &[crate::tuple::Tuple], col: usize) -> ColumnVec {
        ColumnVec::from_values(rows.iter().map(|t| t.get(col)))
    }

    /// New column holding the rows at `indices`, in that order (the
    /// gather/compaction primitive projections use to apply a selection).
    pub fn gather(&self, indices: &[u32]) -> ColumnVec {
        fn take<T: Clone>(data: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| data[i as usize].clone()).collect()
        }
        let mask = |nulls: &Option<Vec<bool>>| {
            nulls.as_ref().and_then(|n| {
                let taken = take(n, indices);
                taken.iter().any(|&b| b).then_some(taken)
            })
        };
        match self {
            ColumnVec::Int { data, nulls } => ColumnVec::Int {
                data: take(data, indices),
                nulls: mask(nulls),
            },
            ColumnVec::Double { data, nulls } => ColumnVec::Double {
                data: take(data, indices),
                nulls: mask(nulls),
            },
            ColumnVec::Bool { data, nulls } => ColumnVec::Bool {
                data: take(data, indices),
                nulls: mask(nulls),
            },
            ColumnVec::Str { data, nulls } => ColumnVec::Str {
                data: take(data, indices),
                nulls: mask(nulls),
            },
            ColumnVec::Mixed(v) => ColumnVec::Mixed(take(v, indices)),
        }
    }
}

/// The column set of a batch, pivoted **lazily per attribute**.
///
/// Pivoting a row batch decomposes tuples into typed [`ColumnVec`]s —
/// which deep-copies `Str` payloads. A filter on `a < 5` over a batch
/// with a fat string column must not pay for pivoting the strings, so
/// the column set keeps the source rows and materializes each column the
/// first time a kernel references it ([`LazyColumns::col`]). Columns a
/// query never touches are never built.
///
/// Two constructions, one invariant:
///
/// * [`LazyColumns::from_rows`] — nothing pivoted yet, every column
///   materializes on demand from the retained rows;
/// * [`LazyColumns::from_cols`] — all columns pre-materialized (operator
///   output such as a projection), no source rows.
///
/// When `src_rows` is `None`, every column slot is pre-filled — so
/// [`LazyColumns::col`] always has a source to build from.
#[derive(Debug)]
pub struct LazyColumns {
    /// Full-length row form the columns pivot from (and that consumers
    /// gather refcounted tuples back out of).
    src_rows: Option<std::sync::Arc<Vec<crate::tuple::Tuple>>>,
    cols: Vec<std::sync::OnceLock<std::sync::Arc<ColumnVec>>>,
}

impl LazyColumns {
    /// Column set over retained rows; no column is pivoted until first
    /// referenced. Arity comes from the first row (0 for an empty batch).
    pub fn from_rows(rows: std::sync::Arc<Vec<crate::tuple::Tuple>>) -> LazyColumns {
        let arity = rows.first().map_or(0, crate::tuple::Tuple::arity);
        LazyColumns {
            src_rows: Some(rows),
            cols: (0..arity).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    /// Column set from already-materialized columns **and** the retained
    /// row form they were pivoted from — a sealed fragment chunk. Kernels
    /// read the pre-filled columns with zero pivot, while row consumers
    /// (`pivot_to_rows`, point reads) gather refcounted
    /// tuples out of `rows` instead of rebuilding them from the columns.
    pub fn from_rows_and_cols(
        rows: std::sync::Arc<Vec<crate::tuple::Tuple>>,
        cols: Vec<std::sync::Arc<ColumnVec>>,
    ) -> LazyColumns {
        debug_assert!(cols.iter().all(|c| c.len() == rows.len()));
        LazyColumns {
            src_rows: Some(rows),
            cols: cols
                .into_iter()
                .map(|c| {
                    let cell = std::sync::OnceLock::new();
                    cell.set(c).expect("fresh cell");
                    cell
                })
                .collect(),
        }
    }

    /// Column set from already-materialized columns (operator output).
    pub fn from_cols(cols: Vec<std::sync::Arc<ColumnVec>>) -> LazyColumns {
        LazyColumns {
            src_rows: None,
            cols: cols
                .into_iter()
                .map(|c| {
                    let cell = std::sync::OnceLock::new();
                    cell.set(c).expect("fresh cell");
                    cell
                })
                .collect(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The retained full-length row form, when this set was built from
    /// rows.
    pub fn src_rows(&self) -> Option<&std::sync::Arc<Vec<crate::tuple::Tuple>>> {
        self.src_rows.as_ref()
    }

    /// The columns by value, when this set is the only holder of every
    /// one of them and retains no row form — a batch just decoded off the
    /// wire. Anything else (columns shared with a sealed chunk or a
    /// sibling batch, rows retained, a column not yet pivoted) comes back
    /// unchanged.
    pub fn into_owned_cols(self) -> std::result::Result<Vec<ColumnVec>, LazyColumns> {
        let unique = self.src_rows.is_none()
            && self
                .cols
                .iter()
                .all(|c| c.get().is_some_and(|a| std::sync::Arc::strong_count(a) == 1));
        if !unique {
            return Err(self);
        }
        Ok(self
            .cols
            .into_iter()
            .map(|cell| {
                let col = cell.into_inner().expect("checked above: every column is filled");
                std::sync::Arc::unwrap_or_clone(col)
            })
            .collect())
    }

    /// Attribute `i` as a column, pivoting it on first access (and only
    /// it — sibling attributes stay un-pivoted).
    pub fn col(&self, i: usize) -> &std::sync::Arc<ColumnVec> {
        self.cols[i].get_or_init(|| {
            let rows = self
                .src_rows
                .as_ref()
                .expect("no src_rows implies every column is pre-filled");
            std::sync::Arc::new(ColumnVec::pivot_one(rows, i))
        })
    }

    /// Value of attribute `col` at (full-length) row index `idx`, read
    /// from the materialized column when one exists and from the source
    /// rows otherwise — a point read never forces a column pivot.
    pub fn value_at(&self, idx: usize, col: usize) -> Value {
        if let Some(c) = self.cols[col].get() {
            return c.value_at(idx);
        }
        let rows = self.src_rows.as_ref().expect("unmaterialized implies rows");
        rows[idx].get(col).clone()
    }

    /// Whether attribute `i` has been pivoted (observability for tests
    /// asserting pivot laziness).
    pub fn is_materialized(&self, i: usize) -> bool {
        self.cols[i].get().is_some()
    }

    /// How many attributes have been pivoted so far.
    pub fn materialized_count(&self) -> usize {
        (0..self.arity()).filter(|&i| self.is_materialized(i)).count()
    }
}

/// A selection vector over a batch of `len` rows.
///
/// `All` selects every row without allocating; `Idx` holds the selected
/// row indices in ascending order. Operators thread a `SelVec` alongside
/// the shared columns, so filtering never copies column payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct SelVec {
    len: usize,
    sel: Option<Vec<u32>>,
}

impl SelVec {
    /// Select all of `len` rows.
    pub fn all(len: usize) -> SelVec {
        SelVec { len, sel: None }
    }

    /// Select exactly `indices` (must be ascending and `< len`) out of
    /// `len` rows. Collapses to the allocation-free `All` form when every
    /// row is selected.
    pub fn from_indices(len: usize, indices: Vec<u32>) -> SelVec {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(indices.last().is_none_or(|&i| (i as usize) < len));
        if indices.len() == len {
            SelVec::all(len)
        } else {
            SelVec {
                len,
                sel: Some(indices),
            }
        }
    }

    /// Number of rows in the underlying batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of *selected* rows.
    pub fn count(&self) -> usize {
        self.sel.as_ref().map_or(self.len, Vec::len)
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// True when every row is selected.
    pub fn is_all(&self) -> bool {
        self.sel.is_none()
    }

    /// The explicit index list, or `None` in the `All` form.
    pub fn indices(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Underlying row index of the `pos`-th selected row.
    #[inline]
    pub fn nth(&self, pos: usize) -> usize {
        match &self.sel {
            None => pos,
            Some(idx) => idx[pos] as usize,
        }
    }

    /// Iterate the selected row indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.count()).map(move |p| self.nth(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_sniffs_types() {
        let ints = [Value::Int(1), Value::Null, Value::Int(3)];
        let col = ColumnVec::from_values(ints.iter());
        assert!(matches!(
            &col,
            ColumnVec::Int { data, nulls: Some(_) } if data.len() == 3
        ));
        assert_eq!(col.value_at(1), Value::Null);
        assert_eq!(col.value_at(2), Value::Int(3));

        let clean = [Value::Str("a".into()), Value::Str("b".into())];
        assert!(matches!(
            ColumnVec::from_values(clean.iter()),
            ColumnVec::Str { nulls: None, .. }
        ));

        let mixed = [Value::Int(1), Value::Double(2.0)];
        assert!(matches!(
            ColumnVec::from_values(mixed.iter()),
            ColumnVec::Mixed(_)
        ));

        let all_null = [Value::Null, Value::Null];
        let col = ColumnVec::from_values(all_null.iter());
        assert!(matches!(&col, ColumnVec::Mixed(v) if v.len() == 2));
        assert!(col.is_null_at(0));
    }

    #[test]
    fn roundtrip_preserves_values() {
        let vals = vec![
            Value::Double(1.5),
            Value::Null,
            Value::Double(f64::NAN),
            Value::Double(-0.0),
        ];
        let col = ColumnVec::from_values(vals.iter());
        let back: Vec<Value> = (0..col.len()).map(|i| col.value_at(i)).collect();
        assert_eq!(back, vals);
    }

    #[test]
    fn gather_reorders_and_drops_clean_masks() {
        let vals = [Value::Int(10), Value::Null, Value::Int(30)];
        let col = ColumnVec::from_values(vals.iter());
        let g = col.gather(&[2, 0]);
        assert_eq!(g.value_at(0), Value::Int(30));
        assert_eq!(g.value_at(1), Value::Int(10));
        // No NULL survives the gather, so the mask is dropped entirely.
        assert!(matches!(g, ColumnVec::Int { nulls: None, .. }));
    }

    #[test]
    fn lazy_columns_pivot_per_referenced_column_only() {
        use crate::tuple::Tuple;
        let rows: Vec<Tuple> = (0..4)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("s{i}"))]))
            .collect();
        let lazy = LazyColumns::from_rows(std::sync::Arc::new(rows));
        assert_eq!(lazy.arity(), 2);
        assert_eq!(lazy.materialized_count(), 0, "nothing pivots up front");
        // Point reads come from the rows without pivoting the column.
        assert_eq!(lazy.value_at(3, 1), Value::Str("s3".into()));
        assert_eq!(lazy.materialized_count(), 0);
        // Referencing column 0 pivots it — and only it: the Str column's
        // payloads are never deep-copied.
        assert!(matches!(&**lazy.col(0), ColumnVec::Int { .. }));
        assert!(lazy.is_materialized(0));
        assert!(!lazy.is_materialized(1), "unreferenced Str column pivoted");
        // A materialized column serves point reads from the column form.
        assert_eq!(lazy.value_at(2, 0), Value::Int(2));

        // from_cols is fully materialized and needs no rows.
        let pre = LazyColumns::from_cols(vec![std::sync::Arc::new(
            ColumnVec::from_values([Value::Int(7)].iter()),
        )]);
        assert!(pre.src_rows().is_none());
        assert_eq!(pre.materialized_count(), 1);
        assert_eq!(pre.col(0).value_at(0), Value::Int(7));
    }

    #[test]
    fn selvec_forms() {
        let all = SelVec::all(5);
        assert!(all.is_all());
        assert_eq!(all.count(), 5);
        assert_eq!(all.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);

        let some = SelVec::from_indices(5, vec![1, 4]);
        assert_eq!(some.count(), 2);
        assert_eq!(some.len(), 5);
        assert_eq!(some.nth(1), 4);
        assert_eq!(some.iter().collect::<Vec<_>>(), vec![1, 4]);

        // Full coverage collapses to All.
        assert!(SelVec::from_indices(3, vec![0, 1, 2]).is_all());
        assert!(SelVec::from_indices(3, vec![]).is_empty());
    }
}
