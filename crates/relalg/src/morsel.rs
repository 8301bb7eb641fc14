//! Morsel-driven intra-fragment parallelism.
//!
//! The executor in [`crate::exec`] runs one operator tree per fragment on
//! the owning PE's actor thread. When a [`WorkerPool`] is attached
//! ([`crate::exec::open_batches_pooled`]), the compute-heavy spans of
//! that tree are cut into **morsels** and dispatched to the pool's
//! work-stealing workers:
//!
//! * a scan-rooted pipeline — scan → filter → hash-join probe → project,
//!   in any mix — becomes one parallel pipeline operator
//!   (`ParPipelineOp`): the morsel is a whole **scan unit** (a sealed
//!   chunk, a ready column batch, a [`BATCH_SIZE`] window of rows), waves
//!   of them run the full stage chain worker-side, and the outputs are
//!   emitted in unit order. A join's build side is built once, on the
//!   opening thread, before the first wave; its probe is a stage like any
//!   other (`crate::join`), so a batch is never split by rows and the
//!   morsel count does not depend on the pool width;
//! * a hash-aggregate input folds into per-worker partial group tables
//!   over contiguous batch chunks, merged in chunk order (see
//!   [`Accumulator::merge`]).
//!
//! **Every merge is ordered by morsel position**, which makes pooled
//! execution *bit-identical* to the serial baseline — same batches, same
//! row order, same float rounding — not merely equal up to reordering.
//! Determinism therefore cannot depend on steal interleavings; only the
//! wall-clock (and the pool's busy/steal counters) do.
//!
//! Parallelism stays strictly inside the PE: this module never touches
//! the actor runtime, the traffic ledger, or the wire protocol. A
//! fragment's output crosses the PE boundary exactly as before, batch by
//! batch through [`crate::exec::BatchStream`].

use std::collections::VecDeque;
use std::sync::Arc;

use prisma_poolx::{Job, WorkerPool};
use prisma_storage::FastMap;
use prisma_types::{Result, SelVec, Value};

use crate::agg::{Accumulator, AggExpr, AggFunc};
use crate::exec::{Batch, Operator, ScanUnit, BATCH_SIZE};
use crate::join::JoinProbe;

/// Morsels dispatched per wave, as a multiple of the pool width: enough
/// slack that a stolen straggler rebalances, small enough that a wave's
/// output stays a handful of batches (the stream stays incremental).
const WAVE_MORSELS_PER_WORKER: usize = 4;

/// Run `f` over every item on the pool's workers and return the results
/// **in item order** — the scatter/gather every morsel-parallel span in
/// this module is built on. Blocks until all jobs finished, so `f` and the
/// items may borrow from the caller's stack.
fn pool_map<T: Send, R: Send>(
    pool: &WorkerPool,
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let items: Vec<T> = items.into_iter().collect();
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    {
        let f = &f;
        let jobs: Vec<Job> = slots
            .iter_mut()
            .zip(items)
            .map(|(slot, item)| Box::new(move || *slot = Some(f(item))) as Job)
            .collect();
        pool.run(jobs);
    }
    slots
        .into_iter()
        .map(|r| r.expect("WorkerPool::run returns only after every job ran"))
        .collect()
}

/// One compiled stage of a scan-rooted pipeline fragment.
#[derive(Clone)]
pub(crate) enum Stage {
    /// Vectorized filter (each worker clones its own scratch).
    Filter(prisma_storage::expr::CompiledVecPredicate),
    /// Vectorized projection. `identity` is `Some(n)` for a pure
    /// `Col(0)..Col(n-1)` rename, which passes whole-chunk batches of
    /// arity `n` through untouched (preserving the sealed-chunk tag and
    /// its cached wire block).
    Project {
        exprs: Vec<prisma_storage::expr::CompiledVecExpr>,
        identity: Option<usize>,
    },
    /// Hash-join probe against a table built before the first wave (each
    /// worker clones the kernel's scratch; the table is shared).
    Probe(JoinProbe),
}

/// A scan-rooted stage chain executed morsel-parallel: the source's scan
/// units — sealed chunks pre-pruned by their zone maps at open time, ready
/// column batches, [`BATCH_SIZE`] row windows — are the morsels. Waves of
/// units run the stage chain on the pool's workers and outputs merge in
/// unit order, so the pooled pipeline is bit-identical to the serial
/// [`crate::exec`] operator chain.
pub(crate) struct ParPipelineOp {
    units: Vec<ScanUnit>,
    projection: Option<Vec<usize>>,
    stages: Vec<Stage>,
    pool: Arc<WorkerPool>,
    next_unit: usize,
    ready: VecDeque<Batch>,
}

impl ParPipelineOp {
    pub(crate) fn new(
        units: Vec<ScanUnit>,
        projection: Option<Vec<usize>>,
        stages: Vec<Stage>,
        pool: Arc<WorkerPool>,
    ) -> ParPipelineOp {
        ParPipelineOp {
            units,
            projection,
            stages,
            pool,
            next_unit: 0,
            ready: VecDeque::new(),
        }
    }

    /// Whether the pooled pipeline is worth it for this source: at least
    /// two morsels and some per-row compute (a bare scan is zero-copy
    /// window arithmetic — nothing to parallelize).
    pub(crate) fn eligible(rows: usize, has_stages: bool, projection: &Option<Vec<usize>>) -> bool {
        rows > BATCH_SIZE && (has_stages || projection.is_some())
    }

    fn run_wave(&mut self) {
        let wave = self.pool.workers() * WAVE_MORSELS_PER_WORKER;
        let end = (self.next_unit + wave).min(self.units.len());
        let wave_units = &self.units[self.next_unit..end];
        self.next_unit = end;
        let (projection, stages) = (&self.projection, &self.stages);
        let out = pool_map(&self.pool, wave_units, |unit| {
            (unit.len() > 0)
                .then(|| run_stages(unit.batch(projection.as_deref()), stages))
                .flatten()
        });
        self.ready.extend(out.into_iter().flatten());
    }
}

impl Operator for ParPipelineOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if let Some(b) = self.ready.pop_front() {
                return Ok(Some(b));
            }
            if self.next_unit >= self.units.len() {
                return Ok(None);
            }
            self.run_wave();
        }
    }
}

/// Push one source batch through the stage chain — the per-morsel kernel
/// (mirrors `FilterOp` / `HashJoinOp` / `ProjectOp` exactly, one batch
/// deep).
fn run_stages(mut batch: Batch, stages: &[Stage]) -> Option<Batch> {
    for stage in stages {
        if batch.is_empty() {
            return None;
        }
        match stage {
            Stage::Filter(pred) => {
                let mut pred = pred.clone();
                let (cols, sel) = batch.to_columns();
                let mut sel_buf = Vec::new();
                pred.select(&cols, &sel, &mut sel_buf);
                if sel_buf.is_empty() {
                    return None;
                }
                let kept = if sel_buf.len() == sel.count() && sel.is_all() {
                    SelVec::all(sel.len())
                } else {
                    SelVec::from_indices(sel.len(), sel_buf)
                };
                batch = Batch::columns_shared(cols, kept);
            }
            Stage::Project { exprs, identity } => {
                if let (Some(n), Some(chunk)) = (identity, batch.sealed_chunk()) {
                    if chunk.arity() == *n {
                        continue; // pure rename: keep the tagged batch
                    }
                }
                let (cols, sel) = batch.to_columns();
                let out: Vec<_> = exprs.iter().map(|e| e.eval(&cols, &sel)).collect();
                batch = Batch::columns(out, SelVec::all(sel.count()));
            }
            Stage::Probe(kernel) => batch = kernel.clone().probe(&batch)?,
        }
    }
    // A join that ends the pipeline hands its whole output to the wire or
    // to a row pivot, which read every column: gather them here, on the
    // worker, not on the thread that drains the stream.
    if let Some(Stage::Probe(_)) = stages.last() {
        batch.to_columns().0.force_gathers();
    }
    if batch.is_empty() {
        None
    } else {
        Some(batch)
    }
}

// ---------------- hash-aggregate helpers ----------------

/// One worker's partial aggregation state: group table plus first-seen
/// key order *within the worker's contiguous chunk*.
struct AggPartial {
    groups: FastMap<Vec<Value>, Vec<Accumulator>>,
    order: Vec<Vec<Value>>,
}

/// Aggregate the drained input in parallel: per-worker partials over
/// contiguous batch chunks, folded in chunk order. Because chunks are
/// contiguous and partial key orders are first-seen, folding them in
/// chunk order reproduces the serial first-seen group order and the
/// serial accumulator fold order exactly.
#[allow(clippy::type_complexity)]
pub(crate) fn parallel_aggregate(
    pool: &WorkerPool,
    batches: &[Batch],
    group_by: &[usize],
    aggs: &[AggExpr],
) -> Result<(FastMap<Vec<Value>, Vec<Accumulator>>, Vec<Vec<Value>>)> {
    let chunks = chunk_ranges(batches.len(), pool.workers());
    let partials = pool_map(pool, chunks, |(start, end)| {
        aggregate_chunk(&batches[start..end], group_by, aggs)
    });
    let mut groups: FastMap<Vec<Value>, Vec<Accumulator>> = FastMap::default();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for partial in partials {
        let partial = partial?;
        for key in partial.order {
            let accs = &partial.groups[&key];
            match groups.get_mut(&key) {
                Some(existing) => {
                    for (acc, part) in existing.iter_mut().zip(accs) {
                        acc.merge(part)?;
                    }
                }
                None => {
                    order.push(key.clone());
                    groups.insert(key, accs.clone());
                }
            }
        }
    }
    Ok((groups, order))
}

/// Serial aggregation over one contiguous chunk of batches.
fn aggregate_chunk(batches: &[Batch], group_by: &[usize], aggs: &[AggExpr]) -> Result<AggPartial> {
    let mut partial = AggPartial {
        groups: FastMap::default(),
        order: Vec::new(),
    };
    for batch in batches {
        update_agg_batch(&mut partial.groups, &mut partial.order, batch, group_by, aggs)?;
    }
    Ok(partial)
}

/// Fold one batch into a group table, recording first-seen key order —
/// the update loop shared by the serial `HashAggOp` and every parallel
/// partial, so the two paths cannot diverge.
pub(crate) fn update_agg_batch(
    groups: &mut FastMap<Vec<Value>, Vec<Accumulator>>,
    order: &mut Vec<Vec<Value>>,
    batch: &Batch,
    group_by: &[usize],
    aggs: &[AggExpr],
) -> Result<()> {
    let fold = |accs: &mut [Accumulator], row: usize| -> Result<()> {
        for (acc, a) in accs.iter_mut().zip(aggs) {
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

/// Split `n` items into at most `parts` contiguous, near-equal ranges.
fn chunk_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_and_cover() {
        for n in [0usize, 1, 2, 5, 7, 16] {
            for parts in [1usize, 2, 3, 4, 8] {
                let r = chunk_ranges(n, parts);
                let mut pos = 0;
                for &(s, e) in &r {
                    assert_eq!(s, pos);
                    assert!(e > s);
                    pos = e;
                }
                assert_eq!(pos, n);
                assert!(r.len() <= parts.max(1));
            }
        }
    }
}
