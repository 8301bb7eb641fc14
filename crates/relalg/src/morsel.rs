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
//! A unit or child batch is a **vector**: the stages run one at a time,
//! and each yields at most one output batch. A **morsel** is a run of
//! consecutive units holding at least [`MORSEL_ROWS`] rows — 64 vectors —
//! and is what one pool job runs. A vector takes some 20 µs of stage work,
//! and handing a job to another thread costs 6–11 µs on an idle host and
//! far more on a crowded one, so only a morsel's work repays its hand-off.
//! Where the morsels run is decided at open from what the plan already
//! says:
//!
//! * on the [`WorkerPool`], when a pool is attached
//!   ([`crate::exec::open_batches_pooled`]), the source is scan units that
//!   still hold at least two morsels after zone pruning, and some stage or
//!   fused projection does per-row work (a bare scan streams zero-copy
//!   windows, nothing to parallelize): waves of morsels run the whole
//!   stage chain job-side, each job with its own copy of the stage
//!   scratch, one output batch per unit. The caller works the wave beside
//!   the pool's helpers;
//! * otherwise inline on the calling thread, one unit or child batch at a
//!   time, reusing the stages' scratch (predicate buffers, the selection
//!   buffer, probe hashes) across batches. A fragment under
//!   `2 × MORSEL_ROWS` rows always runs here.
//!
//! A hash aggregate over a scan of at least two morsels — its fold is
//! per-row work even over a bare scan — folds one [`GroupTable`] per
//! morsel, inside the job that ran the stages on it, and merges the tables
//! in morsel order (`PipelineOp::fold_into`); over any other input it
//! folds the stream inline.
//!
//! **Every merge is ordered by morsel position**, which makes pooled
//! execution *bit-identical* to inline execution — same batches, same row
//! order, same float rounding — not merely equal up to reordering; a
//! pooled aggregate matches the inline one up to the rounding of a
//! floating-point sum ([`GroupTable::merge`]), and does not depend on the
//! pool's width. Determinism therefore cannot depend on steal
//! interleavings; only the wall-clock (and the pool's busy/steal counters)
//! do.
//!
//! Parallelism stays strictly inside the PE: this module never touches
//! the actor runtime, the traffic ledger, or the wire protocol. A
//! fragment's output crosses the PE boundary exactly as before, batch by
//! batch through [`crate::exec::BatchStream`].

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use prisma_poolx::{Job, WorkerPool};
use prisma_storage::expr::{CompiledVecExpr, CompiledVecPredicate};
use prisma_types::{Result, SelVec};

use crate::agg::GroupTable;
use crate::exec::{row_scan_units, Batch, Blocking, BoxOp, Operator, ScanUnit, BATCH_SIZE};
use crate::join::JoinProbe;
use crate::table::Relation;

/// Rows a morsel holds at least: one pool job runs this many rows of
/// consecutive scan units, so its work outweighs its hand-off many times
/// over (see the module docs).
pub const MORSEL_ROWS: usize = 64 * BATCH_SIZE;

/// Morsels dispatched per wave, as a multiple of the pool width: enough
/// slack that a stolen straggler rebalances, small enough that a wave's
/// output stays a bounded slice of the fragment (the stream stays
/// incremental).
const WAVE_MORSELS_PER_WORKER: usize = 4;

/// Run `f` over every item on the pool — the caller and its helpers — and
/// return the results **in item order**: the scatter/gather every
/// morsel-parallel span in this module is built on. Returns only after all
/// jobs finished, so `f` and the items may borrow from the caller's stack.
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

    /// A unit source's units and fused projection.
    fn units(&self) -> (&[ScanUnit], Option<&[usize]>) {
        match self {
            Source::Units {
                units, projection, ..
            } => (units, projection.as_deref()),
            _ => unreachable!("only scan units run on the pool"),
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
    /// The pool the morsels run on, and the morsels not yet run — ranges
    /// of the source's units, in order; `None` runs the source inline.
    /// A bare scan keeps it only for an aggregate's fold.
    pooled: Option<(Arc<WorkerPool>, VecDeque<Range<usize>>)>,
    /// Pooled output not yet emitted, in unit order.
    ready: VecDeque<Batch>,
}

impl PipelineOp {
    /// A pipeline over `source`. Its morsels run on `pool` when one is
    /// given and the source is scan units of at least two morsels, and
    /// inline otherwise.
    pub(crate) fn new(source: Source, stages: Vec<Stage>, pool: Option<&Arc<WorkerPool>>) -> PipelineOp {
        let pooled = match (&source, pool) {
            (Source::Units { units, .. }, Some(pool)) => {
                let morsels = morsels(units);
                (morsels.len() >= 2).then(|| (Arc::clone(pool), morsels))
            }
            _ => None,
        };
        PipelineOp {
            source,
            stages,
            pooled,
            ready: VecDeque::new(),
        }
    }
}

/// Cut scan units into morsels: runs of consecutive units holding at
/// least [`MORSEL_ROWS`] rows each, a shorter tail joining the last run.
/// Chunks that zone pruning refuted are no units, so only the rows that
/// survived it count.
fn morsels(units: &[ScanUnit]) -> VecDeque<Range<usize>> {
    let mut out = VecDeque::new();
    let (mut start, mut rows) = (0, 0);
    for (i, unit) in units.iter().enumerate() {
        rows += unit.len();
        if rows >= MORSEL_ROWS {
            out.push_back(start..i + 1);
            (start, rows) = (i + 1, 0);
        }
    }
    match out.back_mut() {
        Some(last) => last.end = units.len(),
        None if !units.is_empty() => out.push_back(0..units.len()),
        None => {}
    }
    out
}

/// Run one morsel — `units` under the scan's fused `projection` — through
/// a copy of the stages, handing each unit's output batch to `emit` in
/// unit order.
fn run_morsel(
    units: &[ScanUnit],
    projection: Option<&[usize]>,
    stages: &[Stage],
    mut emit: impl FnMut(Batch) -> Result<()>,
) -> Result<()> {
    let mut stages = stages.to_vec();
    for unit in units.iter().filter(|u| u.len() > 0) {
        if let Some(out) = run_stages(unit.batch(projection), &mut stages)? {
            emit(out)?;
        }
    }
    Ok(())
}

impl Operator for PipelineOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.pooled.is_some() && self.stages.is_empty() && self.source.units().1.is_none() {
            self.pooled = None; // a bare scan streams its windows inline
        }
        loop {
            if let Some(b) = self.ready.pop_front() {
                return Ok(Some(b));
            }
            let Some((pool, morsels)) = &mut self.pooled else {
                while let Some(batch) = self.source.next_batch()? {
                    if let Some(out) = run_stages(batch, &mut self.stages)? {
                        return Ok(Some(out));
                    }
                }
                return Ok(None);
            };
            if morsels.is_empty() {
                return Ok(None);
            }
            let wave = morsels.len().min(pool.workers() * WAVE_MORSELS_PER_WORKER);
            let ((units, projection), stages) = (self.source.units(), &self.stages);
            // A join that ends the pipeline hands its whole output to the
            // wire or to a row pivot, which read every column: gather them
            // job-side, not on the thread that drains the stream.
            let gather = matches!(stages.last(), Some(Stage::Probe(_)));
            let out = pool_map(pool, morsels.drain(..wave), |m| -> Result<Vec<Batch>> {
                let mut out = Vec::new();
                run_morsel(&units[m], projection, stages, |b| {
                    if gather {
                        b.to_columns().0.force_gathers();
                    }
                    out.push(b);
                    Ok(())
                })?;
                Ok(out)
            });
            // The first fault in unit order, as inline execution meets it.
            for out in out {
                self.ready.extend(out?);
            }
        }
    }

    /// Pooled, each morsel's job folds a table of its own right after
    /// running the stages on it, and the tables merge into `table` in
    /// morsel order; inline, `table` folds the stream.
    fn fold_into(&mut self, table: &mut GroupTable) -> Result<()> {
        let Some((pool, morsels)) = &mut self.pooled else {
            while let Some(batch) = self.next_batch()? {
                table.fold(&batch)?;
            }
            return Ok(());
        };
        for batch in self.ready.drain(..) {
            table.fold(&batch)?;
        }
        let ((units, projection), stages) = (self.source.units(), &self.stages);
        let shape = &*table;
        let partials = pool_map(pool, morsels.drain(..), |m| -> Result<GroupTable> {
            let mut partial = shape.empty_like();
            run_morsel(&units[m], projection, stages, |b| partial.fold(&b))?;
            Ok(partial)
        });
        for partial in partials {
            table.merge(partial?)?;
        }
        Ok(())
    }
}

/// Push one source batch through the stages — the one Filter/Project/probe
/// kernel, inline and on the pool alike. `None` when no row survives.
fn run_stages(mut batch: Batch, stages: &mut [Stage]) -> Result<Option<Batch>> {
    for stage in stages {
        if batch.is_empty() {
            return Ok(None);
        }
        match stage {
            Stage::Filter { pred, kept } => {
                let (cols, sel) = batch.to_columns();
                pred.select(&cols, &sel, kept)?;
                if kept.is_empty() {
                    return Ok(None);
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
                let out: Result<_> = exprs.iter().map(|e| e.eval(&cols, &sel)).collect();
                batch = Batch::columns(out?, SelVec::all(sel.count()));
            }
            Stage::Probe(kernel) => match kernel.probe(&batch)? {
                Some(out) => batch = out,
                None => return Ok(None),
            },
        }
    }
    Ok((!batch.is_empty()).then_some(batch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_are_contiguous_cover_and_hold_a_morsel_of_rows() {
        let rel = Arc::new(Relation::new(
            prisma_types::Schema::new(vec![prisma_types::Column::new("a", prisma_types::DataType::Int)]),
            (0..(2 * MORSEL_ROWS + 3 * BATCH_SIZE + 7) as i64)
                .map(|i| prisma_types::tuple![i])
                .collect(),
        ));
        for take in [0, 1, 63, 64, 65, 127, 128, 129, 131, 132] {
            let mut units = Vec::new();
            row_scan_units(&rel, &mut units);
            units.truncate(take);
            let m: Vec<_> = morsels(&units).into_iter().collect();
            let mut pos = 0;
            for r in &m {
                assert_eq!(r.start, pos);
                assert!(r.end > r.start);
                pos = r.end;
            }
            assert_eq!(pos, units.len(), "{take} units");
            let rows = |r: &Range<usize>| units[r.clone()].iter().map(ScanUnit::len).sum::<usize>();
            if m.len() > 1 {
                assert!(m.iter().all(|r| rows(r) >= MORSEL_ROWS), "{take} units: {m:?}");
            }
            let total: usize = units.iter().map(ScanUnit::len).sum();
            assert_eq!(m.len(), (total / MORSEL_ROWS).max(usize::from(total > 0)), "{take} units");
        }
    }
}
