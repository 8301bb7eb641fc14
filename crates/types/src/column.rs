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
use crate::wire::FnvHasher;

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
    /// yields `Mixed`. The first non-null value picks the candidate type
    /// and the rest run through one typed loop; on a type conflict the
    /// typed partial built so far is demoted to `Mixed` and the pass
    /// continues.
    pub fn from_values<'a>(mut values: impl Iterator<Item = &'a Value>) -> ColumnVec {
        /// The typed loop: `lead` NULLs, `first`, then `rest` for as long
        /// as `extract` accepts it. The mask exists from the first NULL
        /// on; the last field is the value that broke the type, if any.
        fn run<'a, T: Default>(
            lead: usize,
            first: T,
            rest: &mut impl Iterator<Item = &'a Value>,
            extract: impl Fn(&'a Value) -> Option<T>,
        ) -> (Vec<T>, Option<Vec<bool>>, Option<&'a Value>) {
            let mut data = Vec::with_capacity(lead + 1 + rest.size_hint().0);
            data.resize_with(lead, T::default);
            data.push(first);
            let mut nulls = (lead > 0).then(|| {
                let mut mask = vec![true; lead];
                mask.push(false);
                mask
            });
            for v in rest {
                match extract(v) {
                    Some(x) => {
                        data.push(x);
                        if let Some(mask) = &mut nulls {
                            mask.push(false);
                        }
                    }
                    None if v.is_null() => {
                        nulls.get_or_insert_with(|| vec![false; data.len()]).push(true);
                        data.push(T::default());
                    }
                    None => return (data, nulls, Some(v)),
                }
            }
            (data, nulls, None)
        }
        /// The typed column — or, after a conflict, everything so far
        /// and everything still to come as raw values.
        fn finish<'a, T>(
            (data, nulls, conflict): (Vec<T>, Option<Vec<bool>>, Option<&'a Value>),
            rest: impl Iterator<Item = &'a Value>,
            typed: impl FnOnce(Vec<T>, Option<Vec<bool>>) -> ColumnVec,
            wrap: impl Fn(T) -> Value,
        ) -> ColumnVec {
            let Some(conflict) = conflict else {
                return typed(data, nulls);
            };
            let mut vals: Vec<Value> = match nulls {
                None => data.into_iter().map(wrap).collect(),
                Some(mask) => data
                    .into_iter()
                    .zip(mask)
                    .map(|(x, null)| if null { Value::Null } else { wrap(x) })
                    .collect(),
            };
            vals.push(conflict.clone());
            vals.extend(rest.cloned());
            ColumnVec::Mixed(vals)
        }

        let mut lead = 0;
        let first = loop {
            match values.next() {
                None => return ColumnVec::Mixed(vec![Value::Null; lead]),
                Some(Value::Null) => lead += 1,
                Some(v) => break v,
            }
        };
        let rest = &mut values;
        match first {
            Value::Int(x) => finish(
                run(lead, *x, rest, Value::as_int),
                values,
                |data, nulls| ColumnVec::Int { data, nulls },
                Value::Int,
            ),
            Value::Double(x) => finish(
                run(lead, *x, rest, |v| match v {
                    Value::Double(d) => Some(*d),
                    _ => None,
                }),
                values,
                |data, nulls| ColumnVec::Double { data, nulls },
                Value::Double,
            ),
            Value::Bool(x) => finish(
                run(lead, *x, rest, Value::as_bool),
                values,
                |data, nulls| ColumnVec::Bool { data, nulls },
                Value::Bool,
            ),
            Value::Str(x) => finish(
                run(lead, x.clone(), rest, |v| v.as_str().map(str::to_owned)),
                values,
                |data, nulls| ColumnVec::Str { data, nulls },
                Value::Str,
            ),
            Value::Null => unreachable!("skipped above"),
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
            // The escape hatch re-sniffs: a gathered subset of one runtime
            // type comes out typed, exactly as a pivot of the same rows
            // would (so the wire prices it with the typed codecs).
            ColumnVec::Mixed(v) => ColumnVec::from_values(indices.iter().map(|&i| &v[i as usize])),
        }
    }

    /// Append rows `range` of `other`. A column of another runtime type
    /// demotes the result to `Mixed`; an empty column adopts `other`'s
    /// type (`ColumnVec::Mixed(vec![])` is the neutral accumulator).
    pub fn append_range(&mut self, other: &ColumnVec, range: std::ops::Range<usize>) {
        fn append<T: Clone>(
            data: &mut Vec<T>,
            nulls: &mut Option<Vec<bool>>,
            (odata, onulls): (&[T], &Option<Vec<bool>>),
            range: std::ops::Range<usize>,
        ) {
            let before = data.len();
            data.extend_from_slice(&odata[range.clone()]);
            let theirs = onulls.as_ref().map(|n| &n[range]).filter(|n| n.iter().any(|&b| b));
            match (nulls.as_mut(), theirs) {
                (Some(mine), Some(theirs)) => mine.extend_from_slice(theirs),
                (Some(mine), None) => mine.resize(data.len(), false),
                (None, Some(theirs)) => {
                    let mut mine = vec![false; before];
                    mine.extend_from_slice(theirs);
                    *nulls = Some(mine);
                }
                (None, None) => {}
            }
        }
        if self.is_empty() {
            *self = other.gather(&[]); // the empty column of `other`'s type
        }
        match (&mut *self, other) {
            (ColumnVec::Int { data, nulls }, ColumnVec::Int { data: o, nulls: on }) => {
                append(data, nulls, (o, on), range)
            }
            (ColumnVec::Double { data, nulls }, ColumnVec::Double { data: o, nulls: on }) => {
                append(data, nulls, (o, on), range)
            }
            (ColumnVec::Bool { data, nulls }, ColumnVec::Bool { data: o, nulls: on }) => {
                append(data, nulls, (o, on), range)
            }
            (ColumnVec::Str { data, nulls }, ColumnVec::Str { data: o, nulls: on }) => {
                append(data, nulls, (o, on), range)
            }
            (ColumnVec::Mixed(v), _) => v.extend(range.map(|i| other.value_at(i))),
            _ => {
                let mut vals: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
                vals.extend(range.map(|i| other.value_at(i)));
                *self = ColumnVec::Mixed(vals);
            }
        }
    }

    /// Fold this key column into the running join-key hashes of the rows
    /// `rows` selects (`None` = every row, in order): `hashes[k]` continues
    /// with the `k`-th selected value, `null[k]` is set when it is NULL (the
    /// row then joins nothing and its hash is dead). Start every hash at
    /// [`KEY_HASH_SEED`] and fold the key columns in key order: the result
    /// is bit-identical to FNV-1a over the `Value`s' `Hash` impl — `Int(3)`
    /// and `Double(3.0)` hash alike — so typed and row-wise partitioning
    /// agree on every bucket.
    pub fn hash_keys_into(&self, rows: Option<&[u32]>, hashes: &mut [u64], null: &mut [bool]) {
        fn fold<T>(
            (data, nulls): (&[T], &Option<Vec<bool>>),
            rows: Option<&[u32]>,
            hashes: &mut [u64],
            null: &mut [bool],
            step: impl Fn(u64, &T) -> u64,
        ) {
            if let (None, None) = (rows, nulls) {
                for (h, x) in hashes.iter_mut().zip(data) {
                    *h = step(*h, x);
                }
                return;
            }
            for (k, h) in hashes.iter_mut().enumerate() {
                let i = rows.map_or(k, |r| r[k] as usize);
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    null[k] = true;
                } else {
                    *h = step(*h, &data[i]);
                }
            }
        }
        // Each step feeds the hasher what `Value`'s `Hash` impl feeds it:
        // the type tag, then the payload (numbers as the bits of their
        // `f64` value, so equal Ints and Doubles agree).
        use std::hash::{Hash, Hasher};
        #[inline]
        fn step(h: u64, tag: u8, payload: impl FnOnce(&mut FnvHasher)) -> u64 {
            let mut hasher = FnvHasher(h);
            hasher.write_u8(tag);
            payload(&mut hasher);
            hasher.0
        }
        match self {
            ColumnVec::Int { data, nulls } => fold((data, nulls), rows, hashes, null, |h, &x| {
                step(h, 2, |s| s.write_u64((x as f64).to_bits()))
            }),
            ColumnVec::Double { data, nulls } => fold((data, nulls), rows, hashes, null, |h, x| {
                step(h, 2, |s| s.write_u64(x.to_bits()))
            }),
            ColumnVec::Bool { data, nulls } => fold((data, nulls), rows, hashes, null, |h, x| {
                step(h, 1, |s| x.hash(s))
            }),
            ColumnVec::Str { data, nulls } => fold((data, nulls), rows, hashes, null, |h, x| {
                step(h, 3, |s| x.hash(s))
            }),
            ColumnVec::Mixed(vals) => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    let v = &vals[rows.map_or(k, |r| r[k] as usize)];
                    if v.is_null() {
                        null[k] = true;
                    } else {
                        let mut hasher = FnvHasher(*h);
                        v.hash(&mut hasher);
                        *h = hasher.0;
                    }
                }
            }
        }
    }

    /// Whether row `i` equals `v` as a group key: `Value` equality (Int and
    /// Double compare numerically), read without building a `Value`, with
    /// NULL equal to NULL.
    #[inline]
    pub fn key_eq_at(&self, i: usize, v: &Value) -> bool {
        if self.is_null_at(i) {
            return v.is_null();
        }
        match (self, v) {
            (ColumnVec::Int { data, .. }, Value::Int(x)) => data[i] == *x,
            (ColumnVec::Int { data, .. }, Value::Double(x)) => (data[i] as f64).to_bits() == x.to_bits(),
            (ColumnVec::Double { data, .. }, Value::Double(x)) => data[i].to_bits() == x.to_bits(),
            (ColumnVec::Double { data, .. }, Value::Int(x)) => data[i].to_bits() == (*x as f64).to_bits(),
            (ColumnVec::Bool { data, .. }, Value::Bool(x)) => data[i] == *x,
            (ColumnVec::Str { data, .. }, Value::Str(x)) => data[i] == *x,
            (ColumnVec::Mixed(vals), v) => vals[i] == *v,
            _ => false,
        }
    }

    /// Keep the pairs `(li[k], ri[k])` whose values `self[li[k]]` and
    /// `other[ri[k]]` are equal as join keys (`Value` equality: Int and
    /// Double compare numerically), compacting both index lists in step —
    /// the verification pass behind a join's hash match. NULL rows must
    /// not be among the pairs.
    pub fn retain_equal(&self, li: &mut Vec<u32>, other: &ColumnVec, ri: &mut Vec<u32>) {
        fn retain(li: &mut Vec<u32>, ri: &mut Vec<u32>, eq: impl Fn(usize, usize) -> bool) {
            let mut kept = 0;
            for k in 0..li.len() {
                if eq(li[k] as usize, ri[k] as usize) {
                    (li[kept], ri[kept]) = (li[k], ri[k]);
                    kept += 1;
                }
            }
            li.truncate(kept);
            ri.truncate(kept);
        }
        use ColumnVec::{Bool, Double, Int, Str};
        match (self, other) {
            (Int { data: a, .. }, Int { data: b, .. }) => retain(li, ri, |i, j| a[i] == b[j]),
            (Double { data: a, .. }, Double { data: b, .. }) => {
                retain(li, ri, |i, j| a[i].to_bits() == b[j].to_bits())
            }
            (Int { data: a, .. }, Double { data: b, .. }) => {
                retain(li, ri, |i, j| (a[i] as f64).to_bits() == b[j].to_bits())
            }
            (Double { data: a, .. }, Int { data: b, .. }) => {
                retain(li, ri, |i, j| a[i].to_bits() == (b[j] as f64).to_bits())
            }
            (Bool { data: a, .. }, Bool { data: b, .. }) => retain(li, ri, |i, j| a[i] == b[j]),
            (Str { data: a, .. }, Str { data: b, .. }) => retain(li, ri, |i, j| a[i] == b[j]),
            _ => retain(li, ri, |i, j| self.value_at(i) == other.value_at(j)),
        }
    }
}

/// Where every join-key hash starts: the FNV-1a offset basis (see
/// [`ColumnVec::hash_keys_into`]).
pub const KEY_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The column set of a batch, pivoted **lazily per attribute**.
///
/// Pivoting a row batch decomposes tuples into typed [`ColumnVec`]s —
/// which deep-copies `Str` payloads. A filter on `a < 5` over a batch
/// with a fat string column must not pay for pivoting the strings, so
/// the column set keeps the source rows and materializes each column the
/// first time a kernel references it ([`LazyColumns::col`]). Columns a
/// query never touches are never built.
///
/// Three constructions, one invariant:
///
/// * [`LazyColumns::from_rows`] — nothing pivoted yet, every column
///   materializes on demand from the retained rows;
/// * [`LazyColumns::from_cols`] — all columns pre-materialized (operator
///   output such as a projection), no source rows;
/// * [`LazyColumns::gathered`] — a join's output: each column is a gather
///   of a column of another set, run the first time it is referenced, so
///   a projection above the join pays only for the columns it keeps.
///
/// Every unfilled column slot has a source — the retained rows or its
/// gather — so [`LazyColumns::col`] always has something to build from.
#[derive(Debug)]
pub struct LazyColumns {
    /// Full-length row form the columns pivot from (and that consumers
    /// gather refcounted tuples back out of).
    src_rows: Option<std::sync::Arc<Vec<crate::tuple::Tuple>>>,
    /// Per column of a [`LazyColumns::gathered`] set: the source set, the
    /// source column and the source rows it takes. Empty otherwise.
    gathers: Vec<GatherSrc>,
    cols: Vec<std::sync::OnceLock<std::sync::Arc<ColumnVec>>>,
}

type GatherSrc = (std::sync::Arc<LazyColumns>, usize, std::sync::Arc<Vec<u32>>);

impl LazyColumns {
    /// Column set over retained rows; no column is pivoted until first
    /// referenced. Arity comes from the first row (0 for an empty batch).
    pub fn from_rows(rows: std::sync::Arc<Vec<crate::tuple::Tuple>>) -> LazyColumns {
        let arity = rows.first().map_or(0, crate::tuple::Tuple::arity);
        LazyColumns {
            src_rows: Some(rows),
            gathers: Vec::new(),
            cols: (0..arity).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    /// The columns of every `(set, rows)` side, side by side, each taken at
    /// that side's `rows` (all sides list the same number of rows) — the
    /// shape of a join's output. Nothing is gathered until a column is
    /// referenced.
    pub fn gathered(sides: Vec<(std::sync::Arc<LazyColumns>, std::sync::Arc<Vec<u32>>)>) -> LazyColumns {
        debug_assert!(sides.windows(2).all(|w| w[0].1.len() == w[1].1.len()));
        let gathers: Vec<GatherSrc> = sides
            .into_iter()
            .flat_map(|(set, rows)| {
                (0..set.arity()).map(move |c| (std::sync::Arc::clone(&set), c, std::sync::Arc::clone(&rows)))
            })
            .collect();
        LazyColumns {
            src_rows: None,
            cols: gathers.iter().map(|_| std::sync::OnceLock::new()).collect(),
            gathers,
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
            gathers: Vec::new(),
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
            gathers: Vec::new(),
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
    /// wire, or a join output (whose pending gathers run here, straight
    /// into owned columns). Anything else (columns shared with a sealed
    /// chunk or a sibling batch, rows retained) comes back unchanged.
    pub fn into_owned_cols(self) -> std::result::Result<Vec<ColumnVec>, LazyColumns> {
        let unique = self.src_rows.is_none()
            && self
                .cols
                .iter()
                .all(|c| c.get().is_none_or(|a| std::sync::Arc::strong_count(a) == 1));
        if !unique {
            return Err(self);
        }
        let gathers = self.gathers;
        Ok(self
            .cols
            .into_iter()
            .enumerate()
            .map(|(i, cell)| match cell.into_inner() {
                Some(col) => std::sync::Arc::unwrap_or_clone(col),
                None => {
                    let (set, c, rows) = &gathers[i];
                    set.gather_col(*c, rows)
                }
            })
            .collect())
    }

    /// Attribute `i` as a column, built on first access (and only it —
    /// sibling attributes stay unbuilt): pivoted from the retained rows,
    /// or gathered from its source column.
    pub fn col(&self, i: usize) -> &std::sync::Arc<ColumnVec> {
        self.cols[i].get_or_init(|| {
            std::sync::Arc::new(match &self.src_rows {
                Some(rows) => ColumnVec::pivot_one(rows, i),
                None => {
                    let (set, c, rows) = &self.gathers[i];
                    set.gather_col(*c, rows)
                }
            })
        })
    }

    /// Run every gather still pending (a no-op for sets that are not
    /// [`LazyColumns::gathered`]) — for a producer that knows its consumer
    /// reads every column and would rather pay on its own thread.
    pub fn force_gathers(&self) {
        for i in 0..self.gathers.len() {
            self.col(i);
        }
    }

    /// Attribute `col` at the rows `idx`, as a new column: a gather of the
    /// built column, or — for a column still in row form — one pass over
    /// just those rows (the full column is never pivoted for it).
    pub fn gather_col(&self, col: usize, idx: &[u32]) -> ColumnVec {
        match (self.cols[col].get(), &self.src_rows) {
            (None, Some(rows)) => {
                ColumnVec::from_values(idx.iter().map(|&i| rows[i as usize].get(col)))
            }
            _ => self.col(col).gather(idx),
        }
    }

    /// Value of attribute `col` at (full-length) row index `idx`, read
    /// from the built column when one exists and from its source (the
    /// rows, or the gathered-from set) otherwise — a point read never
    /// forces a column to be built.
    pub fn value_at(&self, idx: usize, col: usize) -> Value {
        if let Some(c) = self.cols[col].get() {
            return c.value_at(idx);
        }
        match &self.src_rows {
            Some(rows) => rows[idx].get(col).clone(),
            None => {
                let (set, c, rows) = &self.gathers[col];
                set.value_at(rows[idx] as usize, *c)
            }
        }
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
    fn append_range_keeps_types_and_demotes_on_conflict() {
        let mut acc = ColumnVec::Mixed(Vec::new());
        let ints = ColumnVec::from_values([Value::Int(1), Value::Null, Value::Int(3)].iter());
        acc.append_range(&ints, 0..1);
        assert!(matches!(&acc, ColumnVec::Int { nulls: None, .. }), "adopts the type: {acc:?}");
        acc.append_range(&ints, 1..3);
        let mask = vec![false, true, false];
        assert_eq!(acc, ColumnVec::Int { data: vec![1, 0, 3], nulls: Some(mask) });
        acc.append_range(&ColumnVec::from_values([Value::Int(9)].iter()), 0..1);
        assert_eq!(acc.value_at(3), Value::Int(9));
        assert!(!acc.is_null_at(3), "a clean tail extends the mask");
        acc.append_range(&ColumnVec::from_values([Value::Str("x".into())].iter()), 0..1);
        assert!(matches!(&acc, ColumnVec::Mixed(v) if v.len() == 5));
        assert_eq!(acc.value_at(1), Value::Null);
        assert_eq!(acc.value_at(4), Value::Str("x".into()));
    }

    #[test]
    fn key_hashes_equal_the_value_hash_and_flag_nulls() {
        use std::hash::{Hash, Hasher};
        let cols = [
            ColumnVec::from_values([Value::Int(3), Value::Null, Value::Int(-7)].iter()),
            ColumnVec::from_values([Value::Double(3.0), Value::Double(0.5), Value::Null].iter()),
            ColumnVec::from_values([Value::Str("a".into()), Value::Str(String::new()), Value::Null].iter()),
            ColumnVec::from_values([Value::Bool(true), Value::Bool(false), Value::Null].iter()),
            ColumnVec::Mixed(vec![Value::Int(1), Value::Str("s".into()), Value::Null]),
        ];
        for rows in [None, Some(&[2u32, 0][..])] {
            let n = rows.map_or(3, <[u32]>::len);
            let (mut hashes, mut null) = (vec![KEY_HASH_SEED; n], vec![false; n]);
            for col in &cols {
                col.hash_keys_into(rows, &mut hashes, &mut null);
            }
            for k in 0..n {
                let i = rows.map_or(k, |r| r[k] as usize);
                let key: Vec<Value> = cols.iter().map(|c| c.value_at(i)).collect();
                assert_eq!(null[k], key.iter().any(Value::is_null));
                if !null[k] {
                    let mut h = crate::wire::FnvHasher(KEY_HASH_SEED);
                    key.iter().for_each(|v| v.hash(&mut h));
                    assert_eq!(hashes[k], h.finish(), "row {i}");
                }
            }
        }
        // Equal numbers hash alike whatever their column type.
        let (mut a, mut b) = (vec![KEY_HASH_SEED], vec![KEY_HASH_SEED]);
        ColumnVec::Int { data: vec![42], nulls: None }.hash_keys_into(None, &mut a, &mut [false]);
        ColumnVec::Double { data: vec![42.0], nulls: None }.hash_keys_into(None, &mut b, &mut [false]);
        assert_eq!(a, b);
    }

    #[test]
    fn retain_equal_verifies_pairs_across_types() {
        let ints = ColumnVec::Int { data: vec![1, 2, 3], nulls: None };
        let doubles = ColumnVec::Double { data: vec![3.0, 2.5, 1.0], nulls: None };
        let (mut li, mut ri) = (vec![0, 1, 2, 2], vec![2, 1, 0, 1]);
        ints.retain_equal(&mut li, &doubles, &mut ri);
        assert_eq!((li, ri), (vec![0, 2], vec![2, 0]), "1 = 1.0 and 3 = 3.0 survive");
        let strs = ColumnVec::Str { data: vec!["a".into(), "b".into()], nulls: None };
        let mixed = ColumnVec::Mixed(vec![Value::Str("b".into()), Value::Int(1)]);
        let (mut li, mut ri) = (vec![0, 1, 1], vec![0, 0, 1]);
        strs.retain_equal(&mut li, &mixed, &mut ri);
        assert_eq!((li, ri), (vec![1], vec![0]));
    }

    #[test]
    fn key_eq_at_is_value_equality_with_null_equal_to_null() {
        let cols = [
            ColumnVec::from_values([Value::Int(3), Value::Null, Value::Int(1 << 53)].iter()),
            ColumnVec::from_values([Value::Double(3.0), Value::Double(-0.0), Value::Double(f64::NAN)].iter()),
            ColumnVec::from_values([Value::Str("a".into()), Value::Null, Value::Str(String::new())].iter()),
            ColumnVec::from_values([Value::Bool(true), Value::Bool(false), Value::Null].iter()),
            ColumnVec::Mixed(vec![Value::Int(1), Value::Str("s".into()), Value::Null]),
        ];
        let probes = [
            Value::Null,
            Value::Int(3),
            Value::Double(3.0),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Int((1 << 53) + 1),
            Value::Str("a".into()),
            Value::Str(String::new()),
            Value::Bool(false),
            Value::Int(1),
        ];
        for col in &cols {
            for i in 0..col.len() {
                for v in &probes {
                    assert_eq!(col.key_eq_at(i, v), col.value_at(i) == *v, "{col:?}[{i}] vs {v:?}");
                }
            }
        }
    }

    #[test]
    fn gathered_columns_build_on_first_reference() {
        use crate::tuple::Tuple;
        let rows: Vec<Tuple> = (0..4)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("s{i}"))]))
            .collect();
        let left = std::sync::Arc::new(LazyColumns::from_rows(std::sync::Arc::new(rows)));
        let right = std::sync::Arc::new(LazyColumns::from_cols(vec![std::sync::Arc::new(
            ColumnVec::Int { data: vec![10, 20], nulls: None },
        )]));
        let joined = LazyColumns::gathered(vec![
            (std::sync::Arc::clone(&left), std::sync::Arc::new(vec![3, 3, 0])),
            (right, std::sync::Arc::new(vec![0, 1, 1])),
        ]);
        assert_eq!(joined.arity(), 3);
        assert_eq!(joined.materialized_count(), 0, "nothing gathers up front");
        // A point read goes through to the source without building anything.
        assert_eq!(joined.value_at(1, 1), Value::Str("s3".into()));
        assert_eq!((joined.materialized_count(), left.materialized_count()), (0, 0));
        assert_eq!(**joined.col(2), ColumnVec::Int { data: vec![10, 20, 20], nulls: None });
        assert_eq!(joined.materialized_count(), 1, "only the referenced column is gathered");
        // The rest gather on the way out, straight into owned columns.
        let owned = joined.into_owned_cols().expect("sole holder of its columns");
        assert_eq!(owned[0], ColumnVec::Int { data: vec![3, 3, 0], nulls: None });
        assert_eq!(owned[1].value_at(2), Value::Str("s0".into()));
        assert_eq!(left.materialized_count(), 0, "row-form sources are read at the gathered rows only");
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
