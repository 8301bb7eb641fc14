//! A relation fragment: heap, secondary indexes, the
//! incrementally-maintained per-column statistics sketches behind
//! [`Fragment::statistics`] — and the two-tier delta/sealed storage layout.
//!
//! # Two-tier layout
//!
//! The heap stays the single authority for every live row: Rids, indexes,
//! undo and recovery are untouched by sealing. On top of it the
//! fragment maintains a list of [`SealedChunk`]s — immutable columnar runs
//! of [`seal_every`] heap rows each, sealed in slot order whenever enough
//! *uncovered* rows accumulate (and again on first scan, via the OFM's
//! scan hook). Rows not covered by a chunk form the *delta* and flow
//! through the row path exactly as before.
//!
//! A mutation of a covered row **dissolves** its chunk: the chunk (and its
//! zone maps and cached wire block) is dropped and the rows fall back into
//! the delta, to be resealed later. Insert/delete/update of delta rows
//! never touch sealed state, so OLTP churn on fresh rows is as cheap as it
//! was before chunks existed. Sealing is invisible to the GDH's
//! mutation-epoch staleness model: it changes the physical layout, never
//! the logical contents, and bumps no epoch.
//!
//! The sealed tier also serves DML: [`Fragment::zone_scan`] finds the
//! candidate victims of an `UPDATE`/`DELETE` predicate through zone maps
//! and the vectorized kernels, so only the chunks that hold a victim are
//! ever dissolved — and only they are read.

use prisma_storage::expr::ScalarExpr;
use prisma_storage::{BTreeIndex, FastMap, FnvBuild, HashIndex, Rid, TupleHeap, ZoneRefuter};
use prisma_types::stats::{HISTOGRAM_BUCKETS, MOST_COMMON_VALUES};
use prisma_types::{
    chunk::seal_every, ColumnStats, DataType, FragmentId, FragmentStatistics, Histogram,
    LazyColumns, PrismaError, Result, Schema, SealedChunk, SelVec, Tuple, Value,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::BuildHasher;
use std::sync::Arc;

/// One column's exact value → count multiset. An INT column keys it by
/// the bare `i64`: a `Value` key is 32 bytes, and the sketch of a unique
/// column holds an entry per row, so on an append-only table the sketch
/// is, after the tuple itself, what a row costs a fragment most. Schema
/// validation admits only INT values (or NULL, never sketched) into an
/// INT column.
#[derive(Debug)]
enum Sketch {
    Int(BTreeMap<i64, u64>),
    Any(BTreeMap<Value, u64>),
}

impl Sketch {
    fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Sketch::Int(BTreeMap::new()),
            _ => Sketch::Any(BTreeMap::new()),
        }
    }

    /// Count one non-NULL value. Values are cloned only on first
    /// occurrence — repeat values (the common case on low-cardinality
    /// columns) just bump the existing counter.
    fn add(&mut self, v: &Value) {
        match (self, v) {
            (Sketch::Int(m), Value::Int(k)) => *m.entry(*k).or_insert(0) += 1,
            (Sketch::Any(m), v) => match m.get_mut(v) {
                Some(c) => *c += 1,
                None => {
                    m.insert(v.clone(), 1);
                }
            },
            (Sketch::Int(_), v) => debug_assert!(false, "{v:?} in an INT column"),
        }
    }

    /// Uncount one non-NULL value.
    fn remove(&mut self, v: &Value) {
        fn dec<K: Ord>(m: &mut BTreeMap<K, u64>, k: &K) {
            if let Some(c) = m.get_mut(k) {
                *c -= 1;
                if *c == 0 {
                    m.remove(k);
                }
            }
        }
        match (self, v) {
            (Sketch::Int(m), Value::Int(k)) => dec(m, k),
            (Sketch::Any(m), v) => dec(m, v),
            (Sketch::Int(_), v) => debug_assert!(false, "{v:?} in an INT column"),
        }
    }

    /// Call `f` with every `(value, count)` in value order. Stored
    /// `Value`s are lent, not cloned (a unique-key Str column would
    /// otherwise clone every distinct value per report).
    fn with_entries<R>(&self, f: impl FnOnce(&[(&Value, u64)]) -> R) -> R {
        match self {
            Sketch::Int(m) => {
                let keys: Vec<Value> = m.keys().map(|&k| Value::Int(k)).collect();
                f(&keys
                    .iter()
                    .zip(m.values())
                    .map(|(v, &c)| (v, c))
                    .collect::<Vec<_>>())
            }
            Sketch::Any(m) => f(&m.iter().map(|(v, &c)| (v, c)).collect::<Vec<_>>()),
        }
    }
}

/// The `covered` entry of a slot no sealed span covers.
const UNCOVERED: u64 = u64::MAX;

/// One sealed run: the heap Rids it covers (in seal order) plus the shared
/// immutable chunk built from their tuples.
#[derive(Debug)]
struct SealedSpan {
    rids: Vec<Rid>,
    chunk: Arc<SealedChunk>,
}

/// What [`Fragment::zone_scan`] found: the candidate victims of a
/// predicate plus how much of the sealed tier it had to read for them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneScan {
    /// Every live Rid that satisfies the predicate, ascending (the order a
    /// heap walk produces).
    pub rids: Vec<Rid>,
    /// Sealed chunks the kernel ran over.
    pub chunks_scanned: usize,
    /// Sealed chunks skipped whole by zone-map refutation.
    pub chunks_pruned: usize,
}

/// Tuple-hash → Rid lookup behind [`Fragment::delete_by_value`]: one
/// `hash → rid` entry per distinct tuple hash, and an overflow list only
/// for hashes several live rows share (duplicate tuples, or a true
/// collision). A hit is a hint — the caller verifies it against the heap,
/// which is why 32 hash bits do: 8 bytes a row, where a postings list
/// per row cost e0's `scan_after_dml` +6.5 MB of resident memory.
#[derive(Debug, Default)]
struct ImageIndex {
    first: FastMap<u32, Rid>,
    overflow: FastMap<u32, Vec<Rid>>,
}

impl ImageIndex {
    fn hash(tuple: &Tuple) -> u32 {
        let h = FnvBuild.hash_one(tuple);
        (h ^ (h >> 32)) as u32
    }

    fn build(heap: &TupleHeap) -> ImageIndex {
        let mut idx = ImageIndex {
            first: FastMap::with_capacity_and_hasher(heap.len(), FnvBuild),
            overflow: FastMap::default(),
        };
        for (rid, t) in heap.iter() {
            idx.insert(t, rid);
        }
        idx
    }

    fn insert(&mut self, tuple: &Tuple, rid: Rid) {
        let h = Self::hash(tuple);
        match self.first.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(rid);
            }
            Entry::Occupied(_) => self.overflow.entry(h).or_default().push(rid),
        }
    }

    fn remove(&mut self, tuple: &Tuple, rid: Rid) {
        let h = Self::hash(tuple);
        let spare = self.overflow.get_mut(&h);
        if self.first.get(&h) == Some(&rid) {
            // Promote an overflow rid into the vacated slot, if any.
            match spare.and_then(Vec::pop) {
                Some(next) => self.first.insert(h, next),
                None => self.first.remove(&h),
            };
        } else if let Some(list) = spare {
            if let Some(pos) = list.iter().position(|&r| r == rid) {
                list.swap_remove(pos);
            }
        }
        if self.overflow.get(&h).is_some_and(Vec::is_empty) {
            self.overflow.remove(&h);
        }
    }

    /// Every rid whose tuple hashes like `tuple`.
    fn candidates(&self, tuple: &Tuple) -> impl Iterator<Item = Rid> + '_ {
        let h = Self::hash(tuple);
        let spare = self.overflow.get(&h).map_or(&[][..], Vec::as_slice);
        self.first.get(&h).into_iter().chain(spare).copied()
    }
}

/// Summary statistics the Global Data Handler's optimizer pulls from each
/// fragment (cardinality and footprint feed the size-estimation rules of
/// paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FragmentStats {
    /// Live tuples.
    pub tuples: usize,
    /// Payload bytes.
    pub bytes: usize,
}

/// The storage state of one fragment, with index and statistics
/// maintenance on every mutation.
#[derive(Debug, Default)]
pub struct Fragment {
    id: FragmentId,
    schema: Schema,
    heap: TupleHeap,
    hash_indexes: Vec<HashIndex>,
    btree_indexes: Vec<BTreeIndex>,
    /// Per-column ordered value→count multiset, maintained on every
    /// insert/delete/update. Exact and cheap for a main-memory fragment;
    /// [`Fragment::statistics`] snapshots it into histograms without
    /// rescanning the heap.
    sketches: Vec<Sketch>,
    /// NULL rows per column (NULLs never enter the sketches).
    null_counts: Vec<u64>,
    /// Sealed columnar runs keyed by seal id — monotonically increasing,
    /// so the map iterates oldest first and dissolving one span moves no
    /// other. Scan order is sealed runs in this order followed by the
    /// delta in heap-slot order.
    sealed: BTreeMap<u64, SealedSpan>,
    /// Seal id the next sealed span gets.
    next_seal_id: u64,
    /// Seal id of its span per heap slot, `UNCOVERED` for a delta row
    /// or a free slot (the dissolution lookup). Indexed by slot rather
    /// than hashed: a full hash table doubles and rewrites every entry,
    /// so each fragment's resident memory would jump by megabytes at a
    /// row count all fragments of a table reach together.
    covered: Vec<u64>,
    /// Live rows covered by sealed chunks.
    covered_rows: usize,
    /// Uncovered live rids in slot order (`Rid` orders by slot, so the
    /// set iterates exactly like a covered-filtered heap walk). Kept
    /// incrementally on every mutation/seal/dissolve so per-scan delta
    /// snapshots and sealing cost O(delta), never O(heap).
    delta: BTreeSet<Rid>,
    /// Rows per sealed chunk (and the delta size that triggers sealing).
    /// Initialized from [`seal_every`]; tests and benches override it per
    /// fragment via [`Fragment::set_seal_rows`].
    seal_rows: usize,
    /// Built by the first [`Fragment::delete_by_value`] and maintained by
    /// every mutation from then on: only fragments that replay delete
    /// images (backups, recovery) ever pay for it.
    images: Option<ImageIndex>,
}

impl Fragment {
    /// Empty fragment.
    pub fn new(id: FragmentId, schema: Schema) -> Self {
        Fragment {
            id,
            sketches: schema
                .columns()
                .iter()
                .map(|c| Sketch::new(c.dtype))
                .collect(),
            null_counts: vec![0; schema.arity()],
            schema,
            seal_rows: seal_every(),
            ..Fragment::default()
        }
    }

    /// Override the rows-per-chunk seal threshold for this fragment
    /// (tests and benches; production fragments use the `SEAL_EVERY`
    /// environment override handled by [`seal_every`]).
    pub fn set_seal_rows(&mut self, rows: usize) {
        self.seal_rows = rows.max(1);
    }

    /// Record a tuple's values in the statistics sketches.
    fn sketch_add(&mut self, tuple: &Tuple) {
        for (i, v) in tuple.values().iter().enumerate() {
            if v.is_null() {
                self.null_counts[i] += 1;
            } else {
                self.sketches[i].add(v);
            }
        }
    }

    /// Remove a tuple's values from the statistics sketches.
    fn sketch_remove(&mut self, tuple: &Tuple) {
        for (i, v) in tuple.values().iter().enumerate() {
            if v.is_null() {
                self.null_counts[i] = self.null_counts[i].saturating_sub(1);
            } else {
                self.sketches[i].remove(v);
            }
        }
    }

    /// Fragment id.
    pub fn id(&self) -> FragmentId {
        self.id
    }

    /// Schema shared by all fragments of the relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no live tuples.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap accessor (read-only).
    pub fn heap(&self) -> &TupleHeap {
        &self.heap
    }

    /// Stats snapshot.
    pub fn stats(&self) -> FragmentStats {
        FragmentStats {
            tuples: self.heap.len(),
            bytes: self.heap.byte_size(),
        }
    }

    // ---- the sealed columnar tier ----

    /// Sealed chunks in scan order (oldest seal first). A scan serves
    /// these as ready-made column batches and appends the delta after.
    pub fn sealed_chunks(&self) -> Vec<Arc<SealedChunk>> {
        self.sealed.values().map(|s| Arc::clone(&s.chunk)).collect()
    }

    /// Number of sealed chunks.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Live rows in the delta (not covered by any sealed chunk).
    pub fn delta_rows(&self) -> usize {
        debug_assert_eq!(self.delta.len() + self.covered_rows, self.heap.len());
        self.delta.len()
    }

    /// The delta's tuples in heap-slot order — the row-path tail of a
    /// two-tier scan.
    pub fn delta_tuples(&self) -> Vec<Tuple> {
        self.delta
            .iter()
            .map(|&rid| self.heap.get(rid).expect("delta rid is live").clone())
            .collect()
    }

    /// Seal every full run of [`seal_every`] uncovered rows (slot order)
    /// into immutable columnar chunks; a partial remainder stays in the
    /// delta. Idempotent, and a no-op when the delta is smaller than one
    /// chunk. Called on insert growth and by the OFM's scan hook — *not*
    /// on dissolution, so a hot row being updated repeatedly does not pay
    /// a reseal per mutation.
    pub fn seal(&mut self) {
        let every = self.seal_rows;
        if every == 0 || self.delta_rows() < every {
            return;
        }
        let pending: Vec<Rid> = self.delta.iter().copied().collect();
        for run in pending.chunks(every) {
            if run.len() < every {
                break; // remainder stays row-oriented
            }
            let rows: Vec<Tuple> = run
                .iter()
                .map(|&r| self.heap.get(r).expect("pending rid is live").clone())
                .collect();
            let id = self.next_seal_id;
            self.next_seal_id += 1;
            for &r in run {
                if self.covered.len() <= r.index() {
                    self.covered.resize(r.index() + 1, UNCOVERED);
                }
                self.covered[r.index()] = id;
                self.delta.remove(&r);
            }
            self.covered_rows += run.len();
            self.sealed.insert(
                id,
                SealedSpan {
                    rids: run.to_vec(),
                    chunk: Arc::new(SealedChunk::seal(rows)),
                },
            );
        }
    }

    /// If `rid` is covered by a sealed chunk, dissolve that chunk back
    /// into the delta (dropping its zone maps and cached wire block) so
    /// the row can be mutated through the ordinary heap path.
    fn dissolve(&mut self, rid: Rid) {
        let id = self.covered.get(rid.index()).copied().unwrap_or(UNCOVERED);
        if id == UNCOVERED {
            return;
        }
        let span = self
            .sealed
            .remove(&id)
            .expect("covered rid names a live span");
        for r in &span.rids {
            self.covered[r.index()] = UNCOVERED;
            self.delta.insert(*r);
        }
        self.covered_rows -= span.rids.len();
    }

    /// Candidate victims of `predicate` (which must have passed
    /// [`ScalarExpr::check`] against the schema), found the way a scan
    /// finds its rows: a sealed chunk is skipped when its zone maps refute
    /// the predicate and otherwise filtered by the predicate kernel over
    /// its typed columns; the delta rows pivot into one batch for the same
    /// kernel. No heap tuple of a sealed row is touched. An arithmetic
    /// fault on a row the kernel sees is the scan's error.
    pub fn zone_scan(&self, predicate: &ScalarExpr) -> Result<ZoneScan> {
        let refuter = ZoneRefuter::compile(predicate);
        let mut kernel = predicate.compile_vec_predicate();
        let mut out = ZoneScan::default();
        let mut hits = Vec::new();
        for span in self.sealed.values() {
            if refuter.refutes(span.chunk.zones()) {
                out.chunks_pruned += 1;
                continue;
            }
            out.chunks_scanned += 1;
            let cols = LazyColumns::from_cols(span.chunk.cols().to_vec());
            kernel.select(&cols, &SelVec::all(span.rids.len()), &mut hits)?;
            out.rids.extend(hits.iter().map(|&p| span.rids[p as usize]));
        }
        if !self.delta.is_empty() {
            let delta: Vec<Rid> = self.delta.iter().copied().collect();
            let rows = delta
                .iter()
                .map(|&rid| self.heap.get(rid).expect("delta rid is live").clone())
                .collect();
            let cols = LazyColumns::from_rows(Arc::new(rows));
            kernel.select(&cols, &SelVec::all(delta.len()), &mut hits)?;
            out.rids.extend(hits.iter().map(|&p| delta[p as usize]));
        }
        out.rids.sort_unstable();
        Ok(out)
    }

    /// Full statistics snapshot: row/byte counts plus per-column
    /// distinct/min/max, NULL counts, equi-depth histograms and
    /// most-common values — built from the incrementally-maintained
    /// sketches in O(distinct values), never by rescanning the heap.
    /// Sealed-chunk zone maps are folded into each column's min/max, so
    /// the reported bounds always cover the columnar tier even if a
    /// sketch and the chunks ever disagreed. This is the payload of the
    /// GDH's `StatsReport` message.
    pub fn statistics(&self) -> FragmentStatistics {
        let mut columns: Vec<ColumnStats> = self
            .sketches
            .iter()
            .zip(&self.null_counts)
            .map(|(sketch, &nulls)| {
                sketch.with_entries(|entries| {
                    // Select the top values over borrows — only the few
                    // survivors are cloned.
                    let mut by_count = entries.to_vec();
                    let cmp = |a: &(&Value, u64), b: &(&Value, u64)| {
                        b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
                    };
                    if by_count.len() > MOST_COMMON_VALUES {
                        by_count.select_nth_unstable_by(MOST_COMMON_VALUES, cmp);
                        by_count.truncate(MOST_COMMON_VALUES);
                    }
                    by_count.sort_by(cmp);
                    let most_common: Vec<(Value, u64)> =
                        by_count.into_iter().map(|(v, c)| (v.clone(), c)).collect();
                    ColumnStats {
                        distinct: entries.len() as u64,
                        nulls,
                        min: entries.first().map(|e| e.0.clone()),
                        max: entries.last().map(|e| e.0.clone()),
                        histogram: Histogram::equi_depth(
                            entries.iter().map(|(v, c)| (*v, c)),
                            HISTOGRAM_BUCKETS,
                        ),
                        most_common,
                    }
                })
            })
            .collect();
        // Fold zone-map bounds from the sealed tier into the sketch-derived
        // min/max (widening only — both sources describe live rows, so the
        // extremes are the union's extremes).
        for span in self.sealed.values() {
            for (i, zone) in span.chunk.zones().iter().enumerate() {
                let Some(cs) = columns.get_mut(i) else {
                    continue;
                };
                if let Some(zmin) = &zone.min {
                    cs.min = Some(match cs.min.take() {
                        Some(m) if m.total_cmp(zmin).is_le() => m,
                        _ => zmin.clone(),
                    });
                }
                if let Some(zmax) = &zone.max {
                    cs.max = Some(match cs.max.take() {
                        Some(m) if m.total_cmp(zmax).is_ge() => m,
                        _ => zmax.clone(),
                    });
                }
            }
        }
        FragmentStatistics {
            rows: self.heap.len() as u64,
            bytes: self.heap.byte_size() as u64,
            columns,
        }
    }

    // ---- index management (the OFM's "various storage structures") ----

    /// Add a hash index on `cols`, backfilled from existing tuples.
    /// Returns its slot for [`Fragment::hash_index`].
    pub fn add_hash_index(&mut self, cols: Vec<usize>) -> Result<usize> {
        for &c in &cols {
            if c >= self.schema.arity() {
                return Err(PrismaError::ExprType(format!(
                    "index column {c} out of range"
                )));
            }
        }
        let mut idx = HashIndex::new(cols);
        for (rid, t) in self.heap.iter() {
            idx.insert(t, rid);
        }
        self.hash_indexes.push(idx);
        Ok(self.hash_indexes.len() - 1)
    }

    /// Add an ordered index on `cols`, backfilled.
    pub fn add_btree_index(&mut self, cols: Vec<usize>) -> Result<usize> {
        for &c in &cols {
            if c >= self.schema.arity() {
                return Err(PrismaError::ExprType(format!(
                    "index column {c} out of range"
                )));
            }
        }
        let mut idx = BTreeIndex::new(cols);
        for (rid, t) in self.heap.iter() {
            idx.insert(t, rid);
        }
        self.btree_indexes.push(idx);
        Ok(self.btree_indexes.len() - 1)
    }

    /// Hash indexes present.
    pub fn hash_indexes(&self) -> &[HashIndex] {
        &self.hash_indexes
    }

    /// Ordered indexes present.
    pub fn btree_indexes(&self) -> &[BTreeIndex] {
        &self.btree_indexes
    }

    /// Hash index by slot.
    pub fn hash_index(&self, slot: usize) -> Option<&HashIndex> {
        self.hash_indexes.get(slot)
    }

    // ---- mutations (index maintenance) ----

    /// Insert after schema validation.
    pub fn insert(&mut self, tuple: Tuple) -> Result<Rid> {
        self.schema.check_tuple(tuple.values())?;
        let rid = self.heap.insert(tuple);
        self.delta.insert(rid);
        let t = self.heap.get(rid).expect("just inserted").clone();
        for idx in &mut self.hash_indexes {
            idx.insert(&t, rid);
        }
        for idx in &mut self.btree_indexes {
            idx.insert(&t, rid);
        }
        if let Some(images) = &mut self.images {
            images.insert(&t, rid);
        }
        self.sketch_add(&t);
        // Inserts only ever grow the delta (a fresh or reused slot is
        // never covered); seal when it crosses a chunk's worth of rows.
        self.seal();
        Ok(rid)
    }

    /// Delete by Rid; maintains indexes.
    pub fn delete(&mut self, rid: Rid) -> Option<Tuple> {
        self.dissolve(rid);
        let t = self.heap.delete(rid)?;
        self.delta.remove(&rid);
        for idx in &mut self.hash_indexes {
            idx.remove(&t, rid);
        }
        for idx in &mut self.btree_indexes {
            idx.remove(&t, rid);
        }
        if let Some(images) = &mut self.images {
            images.remove(&t, rid);
        }
        self.sketch_remove(&t);
        Some(t)
    }

    /// Replace the tuple at `rid` (validates, maintains indexes).
    pub fn update(&mut self, rid: Rid, tuple: Tuple) -> Result<Option<Tuple>> {
        self.schema.check_tuple(tuple.values())?;
        self.dissolve(rid);
        let Some(old) = self.heap.update(rid, tuple.clone()) else {
            return Ok(None);
        };
        for idx in &mut self.hash_indexes {
            idx.remove(&old, rid);
            idx.insert(&tuple, rid);
        }
        for idx in &mut self.btree_indexes {
            idx.remove(&old, rid);
            idx.insert(&tuple, rid);
        }
        if let Some(images) = &mut self.images {
            images.remove(&old, rid);
            images.insert(&tuple, rid);
        }
        self.sketch_remove(&old);
        self.sketch_add(&tuple);
        Ok(Some(old))
    }

    /// Delete one live tuple equal to `value` — the lowest Rid among
    /// equals, `None` when no live tuple equals it. This is how a backup
    /// replica and recovery's redo re-find a shipped delete image; the
    /// first call builds a tuple-hash → Rid index so every later image
    /// costs one lookup instead of a heap walk.
    pub fn delete_by_value(&mut self, value: &Tuple) -> Option<Rid> {
        let heap = &self.heap;
        let rid = self
            .images
            .get_or_insert_with(|| ImageIndex::build(heap))
            .candidates(value)
            .filter(|&rid| heap.get(rid) == Some(value))
            .min()?;
        self.delete(rid);
        Some(rid)
    }

    /// Drop the delete-image index (recovery calls this when replay
    /// ends: a primary never looks a tuple up by value again).
    pub(crate) fn drop_image_index(&mut self) {
        self.images = None;
    }

    /// All live tuples as a vector (snapshot).
    pub fn all_tuples(&self) -> Vec<Tuple> {
        self.heap.iter().map(|(_, t)| t.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::{tuple, Column, DataType, Value};

    fn frag() -> Fragment {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        Fragment::new(FragmentId(0), schema)
    }

    #[test]
    fn indexes_maintained_across_mutations() {
        let mut f = frag();
        f.add_hash_index(vec![0]).unwrap();
        f.add_btree_index(vec![0]).unwrap();
        let r1 = f.insert(tuple![1, "a"]).unwrap();
        let _r2 = f.insert(tuple![2, "b"]).unwrap();
        assert_eq!(f.hash_index(0).unwrap().lookup_one(&Value::Int(1)), &[r1]);
        f.update(r1, tuple![5, "a"]).unwrap();
        assert!(f.hash_index(0).unwrap().lookup_one(&Value::Int(1)).is_empty());
        assert_eq!(f.hash_index(0).unwrap().lookup_one(&Value::Int(5)), &[r1]);
        f.delete(r1);
        assert!(f.hash_index(0).unwrap().lookup_one(&Value::Int(5)).is_empty());
        assert_eq!(f.btree_indexes()[0].len(), 1);
    }

    #[test]
    fn backfill_on_index_creation() {
        let mut f = frag();
        f.insert(tuple![1, "a"]).unwrap();
        f.insert(tuple![2, "b"]).unwrap();
        let slot = f.add_hash_index(vec![1]).unwrap();
        assert_eq!(f.hash_index(slot).unwrap().len(), 2);
        assert!(f.add_hash_index(vec![7]).is_err());
    }

    #[test]
    fn schema_enforced_on_insert_and_update() {
        let mut f = frag();
        assert!(f.insert(tuple!["not an int", 1]).is_err());
        let r = f.insert(tuple![1, "a"]).unwrap();
        assert!(f.update(r, tuple![1, 2]).is_err());
    }

    #[test]
    fn statistics_track_mutations_incrementally() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Str),
        ]);
        let mut f = Fragment::new(FragmentId(0), schema);
        let r1 = f.insert(tuple![1, "a"]).unwrap();
        f.insert(tuple![2, "b"]).unwrap();
        f.insert(tuple![2, "b"]).unwrap();
        f.insert(prisma_types::Tuple::new(vec![Value::Int(3), Value::Null]))
            .unwrap();
        let s = f.statistics();
        assert_eq!(s.rows, 4);
        assert_eq!(s.columns[0].distinct, 3);
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
        assert_eq!(s.columns[1].nulls, 1);
        assert_eq!(s.columns[1].distinct, 2);
        assert_eq!(s.columns[1].most_common[0], (Value::from("b"), 2));
        assert_eq!(s.columns[0].histogram.as_ref().unwrap().rows(), 4);

        // Deletes and updates keep the sketches exact.
        f.delete(r1);
        let r2 = f
            .heap()
            .iter()
            .find(|(_, t)| t.get(0) == &Value::Int(3))
            .map(|(r, _)| r)
            .unwrap();
        f.update(r2, tuple![9, "z"]).unwrap();
        let s = f.statistics();
        assert_eq!(s.rows, 3);
        assert_eq!(s.columns[0].min, Some(Value::Int(2)));
        assert_eq!(s.columns[0].max, Some(Value::Int(9)));
        assert_eq!(s.columns[1].nulls, 0);
        assert_eq!(s.columns[0].histogram.as_ref().unwrap().rows(), 3);
    }

    #[test]
    fn sealing_covers_full_runs_and_leaves_a_delta() {
        let mut f = frag();
        f.set_seal_rows(4);
        for i in 0..10 {
            f.insert(tuple![i, format!("s{i}")]).unwrap();
        }
        // 10 rows at 4 per chunk: two sealed chunks, delta of 2.
        assert_eq!(f.sealed_count(), 2);
        assert_eq!(f.covered_rows, 8);
        assert_eq!(f.delta_rows(), 2);
        let chunks = f.sealed_chunks();
        assert!(chunks.iter().all(|c| c.len() == 4 && c.arity() == 2));
        assert_eq!(chunks[0].rows()[0], tuple![0, "s0"]);
        assert_eq!(f.delta_tuples(), vec![tuple![8, "s8"], tuple![9, "s9"]]);
        // Sealed + delta together are exactly the live rows.
        let mut union: Vec<Tuple> = chunks
            .iter()
            .flat_map(|c| c.rows().iter().cloned())
            .chain(f.delta_tuples())
            .collect();
        union.sort_by(|a, b| a.values().cmp(b.values()));
        let mut all = f.all_tuples();
        all.sort_by(|a, b| a.values().cmp(b.values()));
        assert_eq!(union, all);
    }

    #[test]
    fn mutating_a_covered_row_dissolves_only_its_chunk() {
        let mut f = frag();
        f.set_seal_rows(4);
        for i in 0..8 {
            f.insert(tuple![i, "x"]).unwrap();
        }
        assert_eq!(f.sealed_count(), 2);
        // Row 1 lives in the first chunk; updating it dissolves chunk 0
        // only, and its 4 rows fall back into the delta.
        let rid = f
            .heap()
            .iter()
            .find(|(_, t)| t.get(0) == &Value::Int(1))
            .map(|(r, _)| r)
            .unwrap();
        f.update(rid, tuple![100, "x"]).unwrap();
        assert_eq!(f.sealed_count(), 1);
        assert_eq!(f.delta_rows(), 4);
        assert_eq!(f.sealed_chunks()[0].rows()[0], tuple![4, "x"]);
        // Deleting a row of the surviving chunk dissolves it too.
        let rid = f
            .heap()
            .iter()
            .find(|(_, t)| t.get(0) == &Value::Int(5))
            .map(|(r, _)| r)
            .unwrap();
        f.delete(rid);
        assert_eq!(f.sealed_count(), 0);
        assert_eq!(f.delta_rows(), 7);
        // Dissolution alone never reseals; an explicit seal (the scan
        // hook) re-covers the delta.
        f.seal();
        assert_eq!(f.sealed_count(), 1);
        assert_eq!(f.delta_rows(), 3);
    }

    #[test]
    fn delta_mutations_leave_sealed_chunks_alone() {
        let mut f = frag();
        f.set_seal_rows(4);
        for i in 0..6 {
            f.insert(tuple![i, "x"]).unwrap();
        }
        assert_eq!((f.sealed_count(), f.delta_rows()), (1, 2));
        let chunk_before = Arc::as_ptr(&f.sealed_chunks()[0]);
        let rid = f
            .heap()
            .iter()
            .find(|(_, t)| t.get(0) == &Value::Int(5))
            .map(|(r, _)| r)
            .unwrap();
        f.update(rid, tuple![50, "y"]).unwrap();
        f.delete_by_value(&tuple![4, "x"]).unwrap();
        assert_eq!(f.sealed_count(), 1);
        assert_eq!(Arc::as_ptr(&f.sealed_chunks()[0]), chunk_before);
    }

    #[test]
    fn statistics_fold_sealed_zone_bounds() {
        let mut f = frag();
        f.set_seal_rows(4);
        for i in 10..14 {
            f.insert(tuple![i, "x"]).unwrap();
        }
        f.insert(tuple![1, "a"]).unwrap();
        f.insert(tuple![99, "z"]).unwrap();
        assert_eq!(f.sealed_count(), 1);
        let s = f.statistics();
        // Bounds cover both tiers: sealed [10, 13] and delta {1, 99}.
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(99)));
        assert_eq!(s.rows, 6);
        // Sealing itself must not change any reported statistic: seal the
        // remaining delta and compare snapshots.
        let before = f.statistics();
        f.set_seal_rows(2);
        f.seal();
        assert_eq!(f.sealed_count(), 2);
        assert_eq!(f.statistics(), before);
    }

    #[test]
    fn delete_by_value_removes_exactly_one() {
        let mut f = frag();
        f.insert(tuple![1, "dup"]).unwrap();
        f.insert(tuple![1, "dup"]).unwrap();
        assert!(f.delete_by_value(&tuple![1, "dup"]).is_some());
        assert_eq!(f.len(), 1);
        assert!(f.delete_by_value(&tuple![9, "nope"]).is_none());
    }
}
