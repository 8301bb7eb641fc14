//! Materialized relations.

use std::fmt;

use prisma_storage::FastSet;
use prisma_types::{ColumnVec, Result, Schema, SelVec, Tuple};

/// A materialized table: a schema plus a bag of tuples.
///
/// `Relation` is the unit that flows between operators in the reference
/// evaluator, between OFMs and the executor, and back to clients as query
/// results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Relation from parts. Tuples are *not* re-validated here; use
    /// [`Relation::try_new`] at trust boundaries.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Self {
        Relation { schema, tuples }
    }

    /// Validating constructor: every tuple must satisfy the schema.
    pub fn try_new(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            schema.check_tuple(t.values())?;
        }
        Ok(Relation { schema, tuples })
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples, in insertion order.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Append a tuple (no validation).
    pub fn push(&mut self, t: Tuple) {
        self.tuples.push(t);
    }

    /// Consume into tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Consume into parts.
    pub fn into_parts(self) -> (Schema, Vec<Tuple>) {
        (self.schema, self.tuples)
    }

    /// Set-semantics deduplication, preserving first occurrence order.
    pub fn distinct(mut self) -> Relation {
        let mut seen: FastSet<Tuple> = FastSet::default();
        self.tuples.retain(|t| seen.insert(t.clone()));
        self
    }

    /// Total payload bytes (for memory ledgers and shipping costs).
    pub fn byte_size(&self) -> usize {
        self.tuples.iter().map(Tuple::byte_size).sum()
    }

    /// Wire size in bits when shipped between PEs.
    pub fn wire_bits(&self) -> u64 {
        self.tuples.iter().map(Tuple::wire_bits).sum()
    }

    /// Sort by the given `(column, ascending)` keys (stable).
    pub fn sorted_by(mut self, keys: &[(usize, bool)]) -> Relation {
        self.tuples.sort_by(|a, b| {
            for &(col, asc) in keys {
                let ord = a.get(col).total_cmp(b.get(col));
                let ord = if asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self
    }

    /// A canonical form for comparing results regardless of tuple order:
    /// all columns ascending.
    pub fn canonicalized(self) -> Relation {
        let keys: Vec<(usize, bool)> = (0..self.schema.arity()).map(|i| (i, true)).collect();
        self.sorted_by(&keys)
    }
}

impl fmt::Display for Relation {
    /// Pretty-print as an ASCII table (used by examples and the REPL).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| {
                t.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        sep(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:<w$} |")?;
        }
        writeln!(f)?;
        sep(f)?;
        for row in &rows {
            write!(f, "|")?;
            for (v, w) in row.iter().zip(&widths) {
                write!(f, " {v:<w$} |")?;
            }
            writeln!(f)?;
        }
        sep(f)?;
        write!(f, "{} tuple(s)", self.len())
    }
}

/// A scan source held (partly) in column form: a fragment's sealed
/// columnar chunks plus its row-oriented delta, snapshotted together — or
/// an intermediate that already exists as column batches (the decoded
/// bucket blocks a grace-join site collected).
///
/// Providers hand this out through [`crate::RelationProvider::chunked`];
/// the executor's scan serves sealed chunks (zero row pivot, zone-map
/// pruning) and ready batches as they are and appends the delta through
/// the ordinary row path. The logical contents are exactly
/// `chunks ⧺ batches ⧺ delta` — the same rows, in the same order, a row
/// scan of [`ChunkedRelation::materialize`] would produce.
#[derive(Debug, Clone)]
pub struct ChunkedRelation {
    schema: Schema,
    chunks: Vec<std::sync::Arc<prisma_types::SealedChunk>>,
    batches: Vec<crate::exec::Batch>,
    delta: std::sync::Arc<Relation>,
}

impl ChunkedRelation {
    /// Snapshot from parts. `delta`'s schema is the relation's schema.
    pub fn new(
        chunks: Vec<std::sync::Arc<prisma_types::SealedChunk>>,
        delta: Relation,
    ) -> ChunkedRelation {
        ChunkedRelation {
            schema: delta.schema().clone(),
            chunks,
            batches: Vec::new(),
            delta: std::sync::Arc::new(delta),
        }
    }

    /// A relation that exists as ready column batches, scanned one batch
    /// per unit in the given order.
    pub fn from_batches(schema: Schema, batches: Vec<crate::exec::Batch>) -> ChunkedRelation {
        ChunkedRelation {
            batches,
            ..ChunkedRelation::new(Vec::new(), Relation::empty(schema))
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Sealed chunks in scan order.
    pub fn chunks(&self) -> &[std::sync::Arc<prisma_types::SealedChunk>] {
        &self.chunks
    }

    /// Ready column batches (scanned after the chunks).
    pub fn batches(&self) -> &[crate::exec::Batch] {
        &self.batches
    }

    /// The row-oriented delta (scanned last).
    pub fn delta(&self) -> &std::sync::Arc<Relation> {
        &self.delta
    }

    /// Total rows across all tiers.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum::<usize>()
            + self.batches.iter().map(crate::exec::Batch::len).sum::<usize>()
            + self.delta.len()
    }

    /// True when every tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contents as a row relation, in scan order — what a consumer
    /// that cannot take the column form reads.
    pub fn materialize(&self) -> Relation {
        let mut rows = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            rows.extend(chunk.rows().iter().cloned());
        }
        for batch in &self.batches {
            rows.extend_from_slice(batch.tuples());
        }
        rows.extend(self.delta.tuples().iter().cloned());
        Relation::new(self.schema.clone(), rows)
    }
}

/// Accumulates column batches into full windows of `window` rows each
/// (the last one shorter), appending column-wise — no row is ever built.
///
/// A phase-2 shuffle site collects its decoded bucket blocks through this
/// at [`crate::exec::BATCH_SIZE`], so the site join sees the same batch boundaries a
/// row-backed scan of the same rows would cut, and frames its result the
/// same way; the join kernel concatenates a columnar build side with it.
#[derive(Debug)]
pub struct BatchWindows {
    window: usize,
    full: Vec<crate::exec::Batch>,
    open: Vec<ColumnVec>,
    open_rows: usize,
}

impl BatchWindows {
    /// An empty accumulator cutting windows of `window` rows.
    pub fn new(window: usize) -> BatchWindows {
        BatchWindows {
            window,
            full: Vec::new(),
            open: Vec::new(),
            open_rows: 0,
        }
    }

    /// Append the live rows of `batch`.
    pub fn push(&mut self, batch: &crate::exec::Batch) {
        let (cols, sel) = batch.to_columns();
        let live = sel.count();
        if self.open.is_empty() {
            self.open = vec![ColumnVec::Mixed(Vec::new()); cols.arity()];
        }
        // A refined selection is compacted once, then appended by range.
        let compact: Vec<std::sync::Arc<ColumnVec>> = (0..cols.arity())
            .map(|c| match sel.indices() {
                None => std::sync::Arc::clone(cols.col(c)),
                Some(idx) => std::sync::Arc::new(cols.gather_col(c, idx)),
            })
            .collect();
        let mut taken = 0;
        while taken < live {
            let take = (self.window - self.open_rows).min(live - taken);
            for (open, col) in self.open.iter_mut().zip(&compact) {
                open.append_range(col, taken..taken + take);
            }
            taken += take;
            self.open_rows += take;
            if self.open_rows == self.window {
                self.close();
            }
        }
    }

    fn close(&mut self) {
        let cols = self.open.iter_mut().map(|c| {
            std::sync::Arc::new(std::mem::replace(c, ColumnVec::Mixed(Vec::new())))
        });
        self.full.push(crate::exec::Batch::columns(cols.collect(), SelVec::all(self.open_rows)));
        self.open_rows = 0;
    }

    /// The windows, in arrival order.
    pub fn finish(mut self) -> Vec<crate::exec::Batch> {
        if self.open_rows > 0 {
            self.close();
        }
        self.full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::{tuple, Column, DataType};

    fn rel() -> Relation {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
        ]);
        Relation::new(
            schema,
            vec![tuple![2, "x"], tuple![1, "y"], tuple![2, "x"]],
        )
    }

    #[test]
    fn distinct_preserves_first_occurrence() {
        let d = rel().distinct();
        assert_eq!(d.len(), 2);
        assert_eq!(d.tuples()[0], tuple![2, "x"]);
    }

    #[test]
    fn try_new_validates() {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        assert!(Relation::try_new(schema.clone(), vec![tuple![1]]).is_ok());
        assert!(Relation::try_new(schema, vec![tuple!["oops"]]).is_err());
    }

    #[test]
    fn sorting() {
        let s = rel().sorted_by(&[(0, true)]);
        assert_eq!(s.tuples()[0], tuple![1, "y"]);
        let d = rel().sorted_by(&[(0, false)]);
        assert_eq!(d.tuples()[0].get(0).as_int(), Some(2));
    }

    #[test]
    fn canonicalized_ignores_order() {
        let a = rel().canonicalized();
        let mut r = rel();
        r.tuples.reverse();
        let b = r.canonicalized();
        assert_eq!(a, b);
    }

    #[test]
    fn display_renders_table() {
        let txt = rel().to_string();
        assert!(txt.contains("| a | b   |") || txt.contains("| a |"), "{txt}");
        assert!(txt.ends_with("3 tuple(s)"));
    }
}
