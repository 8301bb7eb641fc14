//! The columnar hash-join kernel — the one join every execution mode runs.
//!
//! Every hash join — a probe stage of the pipeline operator
//! ([`crate::morsel`]), inline or on the pool, at a fragment or at a
//! grace-join site — builds one [`JoinTable`] when its pipeline opens and
//! pushes whole probe batches through a [`JoinProbe`]; nothing here
//! touches a [`Tuple`]:
//!
//! 1. join keys are hashed straight from the typed key columns
//!    ([`hash_keys`]), bit-identical to [`crate::exec::key_hash`] over the
//!    same values — so `Int(3)` still meets `Double(3.0)`, NULL keys drop,
//!    and shuffle placement agrees with every row-wise definition;
//! 2. the build table chains build-row *positions* per hash bucket in
//!    insertion order;
//! 3. a probe emits `(probe row, build row)` candidate pairs in probe-row ×
//!    insertion order — the order a row-at-a-time nested probe would
//!    produce — and verifies them by typed column equality;
//! 4. the output batch is a [`LazyColumns::gathered`] set over the two
//!    sides: a column is gathered the first time something references it,
//!    so a projection above the join pays only for the columns it keeps,
//!    and a residual predicate runs vectorized over the candidates. Semi
//!    and anti joins only refine the probe batch's selection.
//!
//! [`Tuple`]: prisma_types::Tuple

use std::sync::Arc;

use prisma_storage::expr::CompiledVecPredicate;
use prisma_types::{LazyColumns, PrismaError, Result, SelVec, KEY_HASH_SEED};

use crate::exec::{Batch, SharedColumns};
use crate::plan::JoinKind;

/// Typed join-key hashes of the selected rows of a column set: `hashes[k]`
/// and `nulls[k]` (some key component is NULL — the row joins nothing)
/// belong to the `k`-th selected row. The buffers are the caller's, reused
/// across batches.
pub(crate) fn hash_keys(
    cols: &LazyColumns,
    sel: &SelVec,
    key_cols: &[usize],
    hashes: &mut Vec<u64>,
    nulls: &mut Vec<bool>,
) {
    hashes.clear();
    hashes.resize(sel.count(), KEY_HASH_SEED);
    nulls.clear();
    nulls.resize(sel.count(), false);
    for &c in key_cols {
        cols.col(c).hash_keys_into(sel.indices(), hashes, nulls);
    }
}

/// End of a bucket chain.
pub(crate) const NONE: u32 = u32::MAX;

/// Bucket of a key hash in a table of `2^(64 - shift)` buckets: FNV-1a's
/// low bits only mix the low bits of its input bytes, so the bucket takes
/// the top bits of a multiplicative remix instead.
#[inline]
pub(crate) fn bucket(hash: u64, shift: u32) -> usize {
    (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

/// A hash-join build side: the build rows as one column set plus a chained
/// hash table of their positions.
pub(crate) struct JoinTable {
    /// The whole build side. A row-backed build side keeps its rows (every
    /// column pivots lazily, so unreferenced strings are never copied);
    /// column batches are appended column-wise.
    cols: SharedColumns,
    rkeys: Vec<usize>,
    /// Key hash per build row.
    hashes: Vec<u64>,
    /// Bucket → its first build row. Power-of-two sized.
    heads: Vec<u32>,
    /// Build row → the next row of its bucket, in ascending (insertion)
    /// order. Rows with a NULL key are in no chain.
    next: Vec<u32>,
    /// `64 - log2(heads.len())`.
    shift: u32,
}

impl JoinTable {
    /// Build the table over the drained build side, on the calling thread:
    /// concatenating, hashing and linking a build side costs a few tens of
    /// nanoseconds per row, less than handing it to the pool.
    pub(crate) fn build(batches: &[Batch], rkeys: &[usize]) -> Result<JoinTable> {
        let (cols, rows) = concat(batches);
        if rows >= NONE as usize {
            return Err(PrismaError::Execution(format!(
                "hash-join build side of {rows} rows exceeds the position width"
            )));
        }
        let (mut hashes, mut nulls) = (Vec::new(), Vec::new());
        if rows > 0 {
            hash_keys(&cols, &SelVec::all(rows), rkeys, &mut hashes, &mut nulls);
        }
        let buckets = (rows * 2).next_power_of_two().max(2);
        let mut table = JoinTable {
            cols,
            rkeys: rkeys.to_vec(),
            hashes,
            heads: vec![NONE; buckets],
            next: vec![NONE; rows],
            shift: 64 - buckets.trailing_zeros(),
        };
        // Linked back to front, so every chain lists its rows ascending.
        for row in (0..rows).rev() {
            if !nulls[row] {
                let slot = table.slot(table.hashes[row]);
                table.next[row] = table.heads[slot];
                table.heads[slot] = row as u32;
            }
        }
        Ok(table)
    }

    #[inline]
    fn slot(&self, hash: u64) -> usize {
        bucket(hash, self.shift)
    }
}

/// The build side as one column set (see [`JoinTable::cols`]) and its
/// row count.
fn concat(batches: &[Batch]) -> (SharedColumns, usize) {
    let batches: Vec<&Batch> = batches.iter().filter(|b| !b.is_empty()).collect();
    if batches.iter().all(|b| b.row_slice().is_some()) {
        let rows: Vec<_> = batches.iter().flat_map(|b| b.tuples()).cloned().collect();
        let n = rows.len();
        return (Arc::new(LazyColumns::from_rows(Arc::new(rows))), n);
    }
    let mut whole = crate::table::BatchWindows::new(usize::MAX);
    for batch in batches {
        whole.push(batch);
    }
    let whole = whole.finish().pop().expect("a column batch was pushed");
    (whole.to_columns().0, whole.len())
}

/// One join's probe kernel: the shared table plus this prober's scratch,
/// reused across the batches an inline pipeline probes. Cloned per pooled
/// morsel (a clone shares the table).
#[derive(Clone)]
pub(crate) struct JoinProbe {
    table: Arc<JoinTable>,
    lkeys: Vec<usize>,
    kind: JoinKind,
    residual: Option<CompiledVecPredicate>,
    hashes: Vec<u64>,
    nulls: Vec<bool>,
}

impl JoinProbe {
    pub(crate) fn new(
        table: Arc<JoinTable>,
        lkeys: Vec<usize>,
        kind: JoinKind,
        residual: Option<CompiledVecPredicate>,
    ) -> JoinProbe {
        JoinProbe {
            table,
            lkeys,
            kind,
            residual,
            hashes: Vec::new(),
            nulls: Vec::new(),
        }
    }

    /// Join one probe batch; `None` when it yields no row.
    pub(crate) fn probe(&mut self, batch: &Batch) -> Option<Batch> {
        if batch.is_empty() {
            return None; // (and an empty row batch has no columns to hash)
        }
        let table = &*self.table;
        let (cols, sel) = batch.to_columns();
        hash_keys(&cols, &sel, &self.lkeys, &mut self.hashes, &mut self.nulls);
        // Candidate pairs, as row indices into the two column sets.
        let rows = self.hashes.len();
        let (mut li, mut ri) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        for (k, (&hash, &null)) in self.hashes.iter().zip(&self.nulls).enumerate() {
            if null {
                continue;
            }
            let mut row = table.heads[table.slot(hash)];
            while row != NONE {
                if table.hashes[row as usize] == hash {
                    li.push(sel.nth(k) as u32);
                    ri.push(row);
                }
                row = table.next[row as usize];
            }
        }
        for (&l, &r) in self.lkeys.iter().zip(&table.rkeys) {
            if li.is_empty() {
                break;
            }
            cols.col(l).retain_equal(&mut li, table.cols.col(r), &mut ri);
        }
        let (li, pairs) = (Arc::new(li), ri.len());
        let inner = self.kind == JoinKind::Inner;
        // The candidate pairs as joined rows — the inner join's output, and
        // what a residual is evaluated over. Nothing is gathered yet.
        let joined = (pairs > 0 && (inner || self.residual.is_some())).then(|| {
            let sides = vec![(Arc::clone(&cols), Arc::clone(&li)), (Arc::clone(&table.cols), Arc::new(ri))];
            Arc::new(LazyColumns::gathered(sides))
        });
        // The pairs (by position) that pass the residual; `None` = all.
        let passing = self.residual.as_mut().zip(joined.as_ref()).map(|(residual, joined)| {
            let mut kept = Vec::new();
            residual.select(joined, &SelVec::all(pairs), &mut kept);
            kept
        });
        if inner {
            let kept = passing.map_or(SelVec::all(pairs), |kept| SelVec::from_indices(pairs, kept));
            return joined.filter(|_| !kept.is_empty()).map(|joined| Batch::columns_shared(joined, kept));
        }
        // Semi / anti: the probe batch under a refined selection — the
        // probe rows (ascending) that some passing pair names.
        let mut matched: Vec<u32> = match passing {
            Some(kept) => kept.iter().map(|&k| li[k as usize]).collect(),
            None => Arc::unwrap_or_clone(li),
        };
        matched.dedup();
        let kept: Vec<u32> = if self.kind == JoinKind::Semi {
            matched
        } else if matched.is_empty() {
            return Some(batch.clone());
        } else {
            let mut hit = matched.iter().peekable();
            sel.iter()
                .map(|row| row as u32)
                .filter(|row| hit.next_if_eq(&row).is_none())
                .collect()
        };
        (!kept.is_empty()).then(|| Batch::columns_shared(cols, SelVec::from_indices(sel.len(), kept)))
    }
}
