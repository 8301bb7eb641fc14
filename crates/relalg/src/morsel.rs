//! Morsel-driven intra-fragment parallelism.
//!
//! The executor in [`crate::exec`] runs one operator tree per fragment on
//! the owning PE's actor thread. When a [`WorkerPool`] is attached
//! ([`crate::exec::open_batches_pooled`]), the compute-heavy spans of
//! that tree are cut into **morsels** — [`BATCH_SIZE`]-row ranges — and
//! dispatched to the pool's work-stealing workers:
//!
//! * a scan→filter→project pipeline fragment becomes a parallel
//!   pipeline operator (`ParPipelineOp`): waves of morsels run the
//!   whole stage chain worker-side, and the outputs are emitted in
//!   morsel order;
//! * a hash-join build side is split into contiguous batch chunks, each
//!   worker builds a private partial table, and the partials merge at
//!   the pipeline breaker in chunk order;
//! * a hash-aggregate input likewise folds into per-worker partial
//!   group tables merged in chunk order (see [`Accumulator::merge`]);
//! * probe batches are themselves split row-wise across workers, with
//!   per-morsel outputs concatenated in order.
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
use prisma_types::{Result, SelVec, Tuple, Value};

use crate::agg::{Accumulator, AggExpr, AggFunc};
use crate::exec::{Batch, Operator, BATCH_SIZE};
use crate::table::Relation;

/// Morsels dispatched per wave, as a multiple of the pool width: enough
/// slack that a stolen straggler rebalances, small enough that a wave's
/// output stays a handful of batches (the stream stays incremental).
const WAVE_MORSELS_PER_WORKER: usize = 4;

/// Minimum live rows before splitting a probe batch across workers —
/// below this the scatter overhead beats the win.
const PAR_PROBE_MIN_ROWS: usize = 512;

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
}

/// A scan→(filter|project)* chain executed morsel-parallel: the source
/// relation is cut into [`BATCH_SIZE`]-row morsels, a wave of them runs
/// the full stage chain on the pool, and results are emitted in morsel
/// order (identical to the serial operator chain's output).
pub(crate) struct ParPipelineOp {
    rel: Arc<Relation>,
    projection: Option<Vec<usize>>,
    stages: Vec<Stage>,
    pool: Arc<WorkerPool>,
    next_row: usize,
    ready: VecDeque<Batch>,
}

impl ParPipelineOp {
    pub(crate) fn new(
        rel: Arc<Relation>,
        projection: Option<Vec<usize>>,
        stages: Vec<Stage>,
        pool: Arc<WorkerPool>,
    ) -> ParPipelineOp {
        ParPipelineOp {
            rel,
            projection,
            stages,
            pool,
            next_row: 0,
            ready: VecDeque::new(),
        }
    }

    /// Whether the pooled pipeline is worth it for this source: at least
    /// two morsels and some per-row compute (a bare scan is zero-copy
    /// window arithmetic — nothing to parallelize).
    pub(crate) fn eligible(rows: usize, stages: &[Stage], projection: &Option<Vec<usize>>) -> bool {
        rows > BATCH_SIZE && (!stages.is_empty() || projection.is_some())
    }

    fn run_wave(&mut self) {
        let wave = self.pool.workers() * WAVE_MORSELS_PER_WORKER;
        let mut ranges = Vec::with_capacity(wave);
        while ranges.len() < wave && self.next_row < self.rel.len() {
            let end = (self.next_row + BATCH_SIZE).min(self.rel.len());
            ranges.push((self.next_row, end));
            self.next_row = end;
        }
        let (rel, projection, stages) = (&self.rel, &self.projection, &self.stages);
        let out = pool_map(&self.pool, ranges, |(start, end)| {
            run_morsel(rel, projection, stages, start, end)
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
            if self.next_row >= self.rel.len() {
                return Ok(None);
            }
            self.run_wave();
        }
    }
}

/// Run the full stage chain over one morsel of the source relation.
/// Mirrors `ScanOp` → `FilterOp` → `ProjectOp` exactly, one batch deep.
fn run_morsel(
    rel: &Arc<Relation>,
    projection: &Option<Vec<usize>>,
    stages: &[Stage],
    start: usize,
    end: usize,
) -> Option<Batch> {
    let batch = match projection {
        None => Batch::shared(Arc::clone(rel), start, end),
        Some(cols) => Batch::owned(
            rel.tuples()[start..end]
                .iter()
                .map(|t| t.project(cols))
                .collect(),
        ),
    };
    run_stages(batch, stages)
}

/// Push one source batch through the stage chain — the per-morsel kernel
/// shared by the relation-backed and chunk-backed pipelines (mirrors
/// `FilterOp` → `ProjectOp` exactly, one batch deep).
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
        }
    }
    if batch.is_empty() {
        None
    } else {
        Some(batch)
    }
}

/// The chunked-scan counterpart of [`ParPipelineOp`]: scan units — whole
/// sealed chunks plus delta windows, pre-pruned by the zone maps at open
/// time — are the morsels. Waves of units run the stage chain on the
/// pool's workers and outputs merge in unit order, so the pooled chunked
/// scan is bit-identical to the serial [`crate::exec`] chunk scan.
pub(crate) struct ParChunkPipelineOp {
    units: Vec<crate::exec::ScanUnit>,
    projection: Option<Vec<usize>>,
    stages: Vec<Stage>,
    pool: Arc<WorkerPool>,
    next_unit: usize,
    ready: VecDeque<Batch>,
}

impl ParChunkPipelineOp {
    pub(crate) fn new(
        units: Vec<crate::exec::ScanUnit>,
        projection: Option<Vec<usize>>,
        stages: Vec<Stage>,
        pool: Arc<WorkerPool>,
    ) -> ParChunkPipelineOp {
        ParChunkPipelineOp {
            units,
            projection,
            stages,
            pool,
            next_unit: 0,
            ready: VecDeque::new(),
        }
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

impl Operator for ParChunkPipelineOp {
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

// ---------------- hash-join helpers ----------------

/// Type of a hash-join build table (also the serial executor's).
pub(crate) type JoinTable = FastMap<Vec<Value>, Vec<Tuple>>;

/// Build a join table from the drained build side in parallel: workers
/// build private partial tables over contiguous batch chunks, and the
/// partials merge in chunk order — so each key's candidate vector lists
/// rows in exactly the order the serial single-threaded build would.
pub(crate) fn parallel_build(pool: &WorkerPool, batches: &[Batch], rkeys: &[usize]) -> JoinTable {
    let chunks = chunk_ranges(batches.len(), pool.workers());
    let mut partials = pool_map(pool, chunks, |(start, end)| {
        let mut table = JoinTable::default();
        for batch in &batches[start..end] {
            insert_build_batch(&mut table, batch, rkeys);
        }
        table
    })
    .into_iter();
    let mut table = partials.next().unwrap_or_default();
    for partial in partials {
        for (key, rows) in partial {
            table.entry(key).or_default().extend(rows);
        }
    }
    table
}

/// One build batch into a table — shared by the serial and parallel
/// paths so they cannot diverge.
pub(crate) fn insert_build_batch(table: &mut JoinTable, batch: &Batch, rkeys: &[usize]) {
    let mut key: Vec<Value> = Vec::with_capacity(rkeys.len());
    for row in 0..batch.len() {
        batch.key_at(row, rkeys, &mut key);
        // SQL equi-joins never match NULL keys.
        if key.iter().any(Value::is_null) {
            continue;
        }
        let tuple = batch.tuples()[row].clone();
        // Look up by slice: only a key's first row pays for an owned key.
        match table.get_mut(key.as_slice()) {
            Some(rows) => rows.push(tuple),
            None => {
                table.insert(key.clone(), vec![tuple]);
            }
        }
    }
}

/// Probe one batch against the table with the rows split across workers;
/// per-morsel outputs concatenate in row order, matching the serial
/// probe loop. `probe_rows` is the row-at-a-time kernel both paths share.
pub(crate) fn parallel_probe<F>(pool: &WorkerPool, batch: &Batch, probe_rows: F) -> Vec<Tuple>
where
    F: Fn(&Batch, usize, usize) -> Vec<Tuple> + Sync,
{
    let rows = batch.len();
    if rows < PAR_PROBE_MIN_ROWS {
        return probe_rows(batch, 0, rows);
    }
    let morsel = rows.div_ceil(pool.workers()).max(1);
    let ranges: Vec<(usize, usize)> = (0..rows)
        .step_by(morsel)
        .map(|s| (s, (s + morsel).min(rows)))
        .collect();
    let slots = pool_map(pool, ranges, |(start, end)| probe_rows(batch, start, end));
    let mut out = Vec::with_capacity(slots.iter().map(Vec::len).sum());
    for s in slots {
        out.extend(s);
    }
    out
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
