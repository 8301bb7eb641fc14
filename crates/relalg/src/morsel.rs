//! The morsel pipeline: the executor's one Filter/Project/join-probe
//! operator, and where its morsels run.
//!
//! Every `SeqScan`/`Values` and every Filter/Project/hash-join-probe chain
//! opens as one `PipelineOp`: a `Source` of batches, then a list of
//! compiled `Stage`s that `run_stages` pushes each batch through. The
//! source is a scan's **units** — whole sealed chunks, ready column
//! batches, [`BATCH_SIZE`] row windows — or, when the chain sits on
//! another operator, that operator's batches. A blocking operator
//! (aggregate, sort, closure) is a source that runs on the first pull and
//! then emits its materialized result as row-window units. A join's build
//! side is drained into its table at open; its probe is a stage like any
//! other (`crate::join`), so a batch is never split by rows.
//!
//! Each unit or child batch is one **morsel**. Where the morsels run is
//! decided at open from what the plan already says:
//!
//! * on the [`WorkerPool`], when a pool is attached
//!   ([`crate::exec::open_batches_pooled`]) and the source is scan units
//!   that pass `PipelineOp::eligible`: waves of units run the whole stage
//!   chain worker-side, each with its own copy of the stage scratch;
//! * otherwise inline on the calling thread, one unit or child batch at a
//!   time, reusing the stages' scratch (predicate buffers, the selection
//!   buffer, probe hashes) across batches.
//!
//! A pooled hash aggregate folds one [`GroupTable`] per contiguous chunk
//! of its input and merges them in chunk order (`aggregate`).
//!
//! **Every merge is ordered by morsel position**, which makes pooled
//! execution *bit-identical* to inline execution — same batches, same row
//! order, same float rounding — not merely equal up to reordering.
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
use prisma_storage::expr::{CompiledVecExpr, CompiledVecPredicate};
use prisma_types::{Result, SelVec, Tuple};

use crate::agg::{AggExpr, GroupTable};
use crate::exec::{drain, row_scan_units, Batch, Blocking, BoxOp, Operator, ScanUnit, BATCH_SIZE};
use crate::join::JoinProbe;
use crate::table::Relation;

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

/// One compiled stage of a pipeline, with its scratch. A pooled
/// pipeline's stages never run themselves: each morsel runs a clone.
#[derive(Clone)]
pub(crate) enum Stage {
    /// Vectorized filter; `kept` is the selection scratch it refines into.
    Filter {
        pred: CompiledVecPredicate,
        kept: Vec<u32>,
    },
    /// Vectorized projection. `identity` is `Some(n)` for a pure
    /// `Col(0)..Col(n-1)` rename, which passes whole-chunk batches of
    /// arity `n` through untouched (preserving the sealed-chunk tag and
    /// its cached wire block).
    Project {
        exprs: Arc<[CompiledVecExpr]>,
        identity: Option<usize>,
    },
    /// Hash-join probe against the table built at open (a clone shares
    /// the table).
    Probe(JoinProbe),
}

/// Where a pipeline's batches come from.
pub(crate) enum Source {
    /// Scan units under the scan's fused projection; `next` is the first
    /// unit not yet emitted.
    Units {
        units: Vec<ScanUnit>,
        projection: Option<Vec<usize>>,
        next: usize,
    },
    /// A blocking operator, run on the first pull; its result then
    /// streams as [`Source::rows`].
    Blocking(Option<Blocking>),
    /// Any other operator, pulled batch by batch.
    Child(BoxOp),
}

impl Source {
    /// A materialized relation as [`BATCH_SIZE`] row-window units.
    pub(crate) fn rows(rel: Relation) -> Source {
        let mut units = Vec::new();
        row_scan_units(&Arc::new(rel), &mut units);
        Source::Units {
            units,
            projection: None,
            next: 0,
        }
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            match self {
                Source::Units {
                    units,
                    projection,
                    next,
                } => {
                    while let Some(unit) = units.get(*next) {
                        *next += 1;
                        if unit.len() > 0 {
                            return Ok(Some(unit.batch(projection.as_deref())));
                        }
                    }
                    return Ok(None);
                }
                Source::Blocking(op) => {
                    let rel = op.take().expect("a blocking source runs once").run()?;
                    *self = Source::rows(rel);
                }
                Source::Child(op) => return op.next_batch(),
            }
        }
    }
}

/// The pipeline operator: a source pushed through its stages, morsel by
/// morsel, inline or on the pool (see the module docs).
pub(crate) struct PipelineOp {
    source: Source,
    stages: Vec<Stage>,
    /// The pool the morsels run on; `None` runs them inline.
    pool: Option<Arc<WorkerPool>>,
    /// Pooled output not yet emitted, in unit order.
    ready: VecDeque<Batch>,
}

impl PipelineOp {
    /// A pipeline whose morsels run on `pool` when one is given — which
    /// takes a [`Source::Units`] source — and inline otherwise.
    pub(crate) fn new(
        source: Source,
        stages: Vec<Stage>,
        pool: Option<Arc<WorkerPool>>,
    ) -> PipelineOp {
        debug_assert!(pool.is_none() || matches!(source, Source::Units { .. }));
        PipelineOp {
            source,
            stages,
            pool,
            ready: VecDeque::new(),
        }
    }

    /// Whether the pool is worth it for a scan source: at least two
    /// morsels and some per-row compute (a bare scan is zero-copy window
    /// arithmetic — nothing to parallelize).
    pub(crate) fn eligible(rows: usize, has_stages: bool, projection: &Option<Vec<usize>>) -> bool {
        rows > BATCH_SIZE && (has_stages || projection.is_some())
    }
}

impl Operator for PipelineOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(pool) = &self.pool else {
            while let Some(batch) = self.source.next_batch()? {
                if let Some(out) = run_stages(batch, &mut self.stages) {
                    return Ok(Some(out));
                }
            }
            return Ok(None);
        };
        loop {
            if let Some(b) = self.ready.pop_front() {
                return Ok(Some(b));
            }
            let Source::Units {
                units,
                projection,
                next,
            } = &mut self.source
            else {
                unreachable!("only scan units run on the pool")
            };
            if *next >= units.len() {
                return Ok(None);
            }
            let end = (*next + pool.workers() * WAVE_MORSELS_PER_WORKER).min(units.len());
            let (wave, projection, stages) =
                (&units[*next..end], projection.as_deref(), &self.stages);
            *next = end;
            let out = pool_map(pool, wave, |unit| {
                if unit.len() == 0 {
                    return None;
                }
                let mut stages = stages.to_vec();
                let out = run_stages(unit.batch(projection), &mut stages)?;
                // A join that ends the pipeline hands its whole output to
                // the wire or to a row pivot, which read every column:
                // gather them here, on the worker, not on the thread that
                // drains the stream.
                if let Some(Stage::Probe(_)) = stages.last() {
                    out.to_columns().0.force_gathers();
                }
                Some(out)
            });
            self.ready.extend(out.into_iter().flatten());
        }
    }
}

/// Push one source batch through the stages — the one Filter/Project/probe
/// kernel, inline and on the pool alike. `None` when no row survives.
fn run_stages(mut batch: Batch, stages: &mut [Stage]) -> Option<Batch> {
    for stage in stages {
        if batch.is_empty() {
            return None;
        }
        match stage {
            Stage::Filter { pred, kept } => {
                let (cols, sel) = batch.to_columns();
                pred.select(&cols, &sel, kept);
                if kept.is_empty() {
                    return None;
                }
                // The output shares the input's columns; only the compact
                // index vector that escapes inside it is allocated — and
                // nothing at all when every row survives.
                let kept = if kept.len() == sel.count() && sel.is_all() {
                    SelVec::all(sel.len())
                } else {
                    SelVec::from_indices(sel.len(), kept.clone())
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
            Stage::Probe(kernel) => batch = kernel.probe(&batch)?,
        }
    }
    (!batch.is_empty()).then_some(batch)
}

/// Run a hash aggregate over `input`: inline, one [`GroupTable`] folds the
/// stream; pooled, the drained input is cut into contiguous chunks, each
/// folds its own table on a worker, and the tables merge in chunk order —
/// which reproduces the inline groups, their order and every result but
/// the rounding of a floating-point sum ([`GroupTable::merge`]).
pub(crate) fn aggregate(
    input: &mut dyn Operator,
    group_by: &[usize],
    aggs: &[AggExpr],
    pool: Option<&WorkerPool>,
) -> Result<Vec<Tuple>> {
    let mut table = GroupTable::new(group_by, aggs);
    match pool {
        None => {
            while let Some(batch) = input.next_batch()? {
                table.fold(&batch)?;
            }
        }
        Some(pool) => {
            let batches = drain(input)?;
            let chunks = chunk_ranges(batches.len(), pool.workers());
            let partials = pool_map(pool, chunks, |(start, end)| -> Result<GroupTable> {
                let mut partial = GroupTable::new(group_by, aggs);
                batches[start..end]
                    .iter()
                    .try_for_each(|b| partial.fold(b))?;
                Ok(partial)
            });
            for partial in partials {
                table.merge(partial?)?;
            }
        }
    }
    Ok(table.finish())
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
