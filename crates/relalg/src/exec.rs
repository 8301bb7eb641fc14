//! Pull-based batch executor for physical plans.
//!
//! This is the hot execution path of the machine: the One-Fragment
//! Managers run lowered [`PhysicalPlan`]s against their fragment through
//! this executor, and the Global Data Handler uses it for coordinator-side
//! operators. Tuples flow in [`Batch`]es of up to [`BATCH_SIZE`] rows
//! pulled through an [`Operator`] tree:
//!
//! * scans over [`Arc<Relation>`]s emit **shared** batches — windows into
//!   the source relation, no tuple is copied;
//! * row-at-a-time `Tuple` clones inside operators are reference-count
//!   bumps ([`Tuple`] is `Arc`-backed), so row-wise operators never
//!   deep-copy payloads;
//! * every scan, and every filter / project / hash-join probe chain
//!   (`crate::join`), is one pipeline operator ([`mod@crate::morsel`]):
//!   one kernel pushes each vector — a scan unit or a child batch —
//!   through the stages column-at-a-time, never building a row, inline on
//!   the calling thread or, over a scan of at least two morsels, on a
//!   worker pool, with bit-identical output;
//! * blocking operators (hash build sides, aggregation, sort, closure,
//!   fixpoint) materialize only their own inputs and emit their result
//!   as row-window units; everything downstream keeps streaming. Every
//!   aggregation folds into one [`GroupTable`].
//!
//! ## Row/column duality
//!
//! A [`Batch`] carries its rows in one of two physical forms:
//!
//! * **row-oriented** (`Shared` windows into an `Arc<Relation>`, or
//!   `Owned` tuple vectors) — what unprojected row scans and the
//!   row-wise operators (set operators, sort, aggregate output) emit;
//! * **columnar** (`Columns`) — a set of `Arc`-shared [`ColumnVec`]s plus
//!   a [`SelVec`] selection vector, produced by chunk scans, projected
//!   row scans, Filter, Project and hash join, so expressions evaluate
//!   column-at-a-time through the vectorized kernels in
//!   [`prisma_storage::expr`] and join keys hash in typed loops.
//!
//! Pivoting between the forms is **lazy in both directions and lazy per
//! column**:
//!
//! 1. *Rows → columns* happens per attribute, the first time a kernel
//!    references that attribute ([`prisma_types::LazyColumns::col`]).
//!    [`Batch::to_columns`] itself pivots nothing: it wraps the rows in
//!    a [`prisma_types::LazyColumns`], and a filter on `a < 5` over a
//!    batch with a fat `Str` column never deep-copies the strings —
//!    unreferenced columns are never built. The original tuple vector is
//!    kept alongside, so pivoting *back* to rows only bumps refcounts
//!    instead of re-assembling tuples.
//! 2. *Columns → rows* happens at materialization points — row-wise
//!    blocking operators and [`collect_batches`] — and is cached per
//!    batch, so repeated [`Batch::tuples`] calls pivot at most once. A
//!    row costs one allocation (its `Arc<[Value]>`); a batch that is the
//!    only holder of its columns — every block decoded off the wire —
//!    is *consumed* by [`Batch::into_tuples`], which moves its strings
//!    into the rows instead of cloning them. The wire between PEs is not
//!    a materialization point: every batch ships as an encoded column
//!    block ([`Batch::encode_columnar_shared`]).
//! 3. A join's *output* columns are lazy too — one gather per column,
//!    run on first reference ([`LazyColumns::gathered`]) — so what a
//!    projection above the join drops is never gathered.
//!
//! A Filter over a columnar batch is pure selection refinement: the
//! output batch shares the input's column set untouched and only the
//! selection vector changes, so filtering allocates no per-tuple memory
//! at all.
//!
//! The reference evaluator in [`mod@crate::eval`] remains the semantics
//! oracle: `execute_physical(lower(p), db)` must agree with `eval(p, db)`
//! up to row order (property-tested in `tests/properties.rs`).

use std::sync::{Arc, OnceLock};

use prisma_poolx::WorkerPool;
use prisma_storage::expr::CompiledVecPredicate;
use prisma_storage::{FastMap, FastSet, FnvBuild};
use prisma_types::{ColumnVec, LazyColumns, PrismaError, Result, Schema, SelVec, Tuple, Value};

use crate::agg::{AggExpr, GroupTable};
use crate::eval::{EvalContext, RelationProvider};
use crate::join::{self, JoinProbe, JoinTable};
use crate::morsel::{PipelineOp, Source, Stage};
use crate::physical::PhysicalPlan;
use crate::plan::JoinKind;
use crate::table::Relation;

/// Target tuples per batch.
pub const BATCH_SIZE: usize = 1024;

/// Process-wide chunk-scan telemetry: sealed chunks actually scanned vs
/// pruned whole by zone-map refutation, monotone counters sampled
/// before/after a query by the coordinator's metrics (the same pattern the
/// worker pool uses for morsel counts).
static CHUNKS_SCANNED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static CHUNKS_PRUNED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Snapshot of the process-wide `(chunks scanned, chunks pruned)`
/// counters. Both are monotone; meter a query by differencing snapshots
/// taken around it.
pub fn chunk_scan_counters() -> (u64, u64) {
    (
        CHUNKS_SCANNED.load(std::sync::atomic::Ordering::Relaxed),
        CHUNKS_PRUNED.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// The shared column set of a columnar batch: a lazily-pivoting
/// [`LazyColumns`], `Arc`d so a filtered batch shares it (and every
/// column it ever materializes) with its input.
pub type SharedColumns = Arc<LazyColumns>;

/// A batch of tuples flowing between operators (and between machines).
///
/// `Shared` batches are zero-copy windows into an `Arc<Relation>`; `Owned`
/// batches hold operator output; `Columns` batches hold the columnar form
/// (see the module docs for the pivot rules). Cloning a batch or
/// extracting its tuples costs reference-count bumps, never payload
/// copies.
#[derive(Debug, Clone)]
pub struct Batch {
    inner: BatchInner,
    /// When the batch *is* a whole sealed chunk — unprojected, every row
    /// selected — the chunk rides along so the wire boundary can reuse
    /// its cached [`prisma_types::wire::BlockChunk`] instead of
    /// re-encoding ([`Batch::encode_columnar_shared`]). Any operator that
    /// refines, projects, or rebuilds the batch drops the tag (all other
    /// constructors leave it `None`).
    chunk: Option<Arc<prisma_types::SealedChunk>>,
}

#[derive(Debug, Clone)]
enum BatchInner {
    Shared {
        rel: Arc<Relation>,
        start: usize,
        end: usize,
    },
    Owned(Vec<Tuple>),
    Columns {
        /// The per-attribute lazily-pivoting column set, each column of
        /// the batch's *full* (pre-selection) length; shared untouched
        /// through filters. When the set was built from rows, it retains
        /// them, so pivoting back gathers refcounted tuples instead of
        /// re-assembling them from column values.
        cols: SharedColumns,
        /// The live rows of `cols`.
        sel: SelVec,
        /// Lazily materialized selected rows (shared across clones).
        rows: Arc<OnceLock<Vec<Tuple>>>,
    },
}

impl Batch {
    fn from_inner(inner: BatchInner) -> Batch {
        Batch {
            inner,
            chunk: None,
        }
    }

    /// Serve a sealed column chunk as a batch with **zero row pivot**:
    /// the chunk's columns are `Arc`-shared into the batch (retaining the
    /// chunk's row vector, so a later pivot back to rows only bumps
    /// refcounts). Unprojected batches carry the chunk tag so the wire
    /// boundary reuses its cached encoding; a projection selects a subset
    /// of the chunk's columns — still no pivot — but drops the tag (the
    /// cached block covers every column).
    pub fn from_sealed_chunk(
        chunk: &Arc<prisma_types::SealedChunk>,
        projection: Option<&[usize]>,
    ) -> Batch {
        // An identity projection keeps the whole chunk, so it rides the
        // tagged path and keeps the cached wire block reachable.
        let identity = projection
            .is_some_and(|idx| idx.len() == chunk.arity() && idx.iter().enumerate().all(|(i, &c)| i == c));
        match projection.filter(|_| !identity) {
            None => {
                let cols = LazyColumns::from_rows_and_cols(
                    Arc::clone(chunk.rows()),
                    chunk.cols().to_vec(),
                );
                let mut b = Batch::from_inner(BatchInner::Columns {
                    cols: Arc::new(cols),
                    sel: SelVec::all(chunk.len()),
                    rows: Arc::new(OnceLock::new()),
                });
                b.chunk = Some(Arc::clone(chunk));
                b
            }
            Some(idx) => Batch::columns(
                idx.iter().map(|&c| Arc::clone(&chunk.cols()[c])).collect(),
                SelVec::all(chunk.len()),
            ),
        }
    }

    /// Batch owning its rows.
    pub fn owned(rows: Vec<Tuple>) -> Batch {
        Batch::from_inner(BatchInner::Owned(rows))
    }

    /// Zero-copy window `[start, end)` into a shared relation.
    pub fn shared(rel: Arc<Relation>, start: usize, end: usize) -> Batch {
        debug_assert!(start <= end && end <= rel.len());
        Batch::from_inner(BatchInner::Shared { rel, start, end })
    }

    /// Rows `[start, end)` of a row relation as a scan emits them: the
    /// zero-copy window, or — under a fused projection — just the kept
    /// attributes, pivoted straight into columns (one pass per kept
    /// column; no projected row is ever built).
    pub(crate) fn row_window(
        rel: &Arc<Relation>,
        start: usize,
        end: usize,
        projection: Option<&[usize]>,
    ) -> Batch {
        match projection {
            None => Batch::shared(Arc::clone(rel), start, end),
            Some(cols) => {
                let rows = &rel.tuples()[start..end];
                Batch::columns(
                    cols.iter().map(|&c| Arc::new(ColumnVec::pivot_one(rows, c))).collect(),
                    SelVec::all(rows.len()),
                )
            }
        }
    }

    /// Columnar batch over materialized columns: `sel` selects the live
    /// rows of `cols` (every column must have length `sel.len()`).
    pub fn columns(cols: Vec<Arc<ColumnVec>>, sel: SelVec) -> Batch {
        debug_assert!(cols.iter().all(|c| c.len() == sel.len()));
        Batch::from_inner(BatchInner::Columns {
            cols: Arc::new(LazyColumns::from_cols(cols)),
            sel,
            rows: Arc::new(OnceLock::new()),
        })
    }

    /// The rows of a row-oriented batch; `None` for a columnar one.
    pub(crate) fn row_slice(&self) -> Option<&[Tuple]> {
        match &self.inner {
            BatchInner::Columns { .. } => None,
            _ => Some(self.tuples()),
        }
    }

    /// The batch narrowed to the attributes `cols`, in that order — what a
    /// scan's fused projection does to a ready-made batch.
    pub(crate) fn project_cols(&self, cols: &[usize]) -> Batch {
        match &self.inner {
            BatchInner::Columns { cols: set, sel, .. } => Batch::columns_shared(
                Arc::new(LazyColumns::from_cols(
                    cols.iter().map(|&c| Arc::clone(set.col(c))).collect(),
                )),
                sel.clone(),
            ),
            _ => Batch::owned(self.tuples().iter().map(|t| t.project(cols)).collect()),
        }
    }

    /// The rows, pivoting (and caching) for columnar batches.
    pub fn tuples(&self) -> &[Tuple] {
        match &self.inner {
            BatchInner::Shared { rel, start, end } => &rel.tuples()[*start..*end],
            BatchInner::Owned(rows) => rows,
            BatchInner::Columns { cols, sel, rows } => {
                rows.get_or_init(|| pivot_to_rows(cols, sel))
            }
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match &self.inner {
            BatchInner::Shared { start, end, .. } => end - start,
            BatchInner::Owned(rows) => rows.len(),
            BatchInner::Columns { sel, .. } => sel.count(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extract the rows (refcount bumps for shared batches). A columnar
    /// batch that is the only holder of its columns — every chunk decoded
    /// off the wire — is consumed: its strings move into the rows instead
    /// of being cloned and dropped.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self.inner {
            BatchInner::Shared { rel, start, end } => rel.tuples()[start..end].to_vec(),
            BatchInner::Owned(rows) => rows,
            BatchInner::Columns { cols, sel, rows } => {
                match Arc::try_unwrap(rows).map(OnceLock::into_inner) {
                    Ok(Some(pivoted)) => pivoted,
                    Ok(None) => pivot_into_rows(cols, &sel),
                    Err(shared) => shared.get_or_init(|| pivot_to_rows(&cols, &sel)).clone(),
                }
            }
        }
    }

    /// The columnar form: the shared (lazily-pivoting) column set plus
    /// the live-row selection. Row-oriented batches wrap their rows here
    /// without pivoting anything — each attribute pivots on first kernel
    /// reference; columnar batches hand out their set for free.
    pub fn to_columns(&self) -> (SharedColumns, SelVec) {
        match &self.inner {
            BatchInner::Columns { cols, sel, .. } => (Arc::clone(cols), sel.clone()),
            _ => {
                let rows = self.tuples();
                let n = rows.len();
                (
                    Arc::new(LazyColumns::from_rows(Arc::new(rows.to_vec()))),
                    SelVec::all(n),
                )
            }
        }
    }

    /// Columnar batch over an already-shared column set (Filter's output:
    /// same columns, refined selection).
    pub(crate) fn columns_shared(cols: SharedColumns, sel: SelVec) -> Batch {
        Batch::from_inner(BatchInner::Columns {
            cols,
            sel,
            rows: Arc::new(OnceLock::new()),
        })
    }

    /// Value of attribute `col` in the `row`-th live row, served from the
    /// columnar form when present (no tuple is materialized, and a point
    /// read never forces a column pivot).
    #[inline]
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        match &self.inner {
            BatchInner::Columns { cols, sel, .. } => cols.value_at(sel.nth(row), col),
            _ => self.tuples()[row].get(col).clone(),
        }
    }

    /// Key of the `row`-th live row as `Value`s, written into the caller's
    /// reused `key` buffer — the columnar analogue of [`Tuple::key`], which
    /// never forces a pivot back to rows. (The executor's own keys hash and
    /// compare straight from the typed columns; see
    /// [`GroupTable`] and `crate::join`.)
    pub fn key_at(&self, row: usize, key_cols: &[usize], key: &mut Vec<Value>) {
        key.clear();
        key.extend(key_cols.iter().map(|&c| self.value_at(row, c)));
    }

    /// Encode the batch's live rows as one columnar wire frame
    /// ([`prisma_types::wire::BlockChunk`]). Columnar batches encode their
    /// column set directly (gathering through the selection when one is
    /// active); row batches pivot per column here — the only pivot the
    /// wire pays.
    pub fn encode_columnar(&self) -> prisma_types::wire::BlockChunk {
        use std::borrow::Cow;
        if let BatchInner::Columns { cols, sel, .. } = &self.inner {
            let rows = sel.count();
            return prisma_types::wire::BlockChunk::from_columns(
                rows,
                (0..cols.arity()).map(|c| {
                    let col = cols.col(c);
                    match sel.indices() {
                        None => Cow::Borrowed(&**col),
                        Some(idx) => Cow::Owned(col.gather(idx)),
                    }
                }),
            );
        }
        // Row-backed batches (scan windows, operator output) pivot each
        // attribute straight off the borrowed row slice — routing through
        // `to_columns` would first clone the whole tuple vector just to
        // own it inside a LazyColumns.
        let rows = self.tuples();
        let arity = rows.first().map_or(0, Tuple::arity);
        prisma_types::wire::BlockChunk::from_columns(
            rows.len(),
            (0..arity).map(|c| Cow::Owned(ColumnVec::pivot_one(rows, c))),
        )
    }

    /// [`Batch::encode_columnar`] behind an `Arc`, reusing the sealed
    /// chunk's **cached wire block** when the batch is a whole chunk
    /// (first ship builds it, every later ship of the unmutated chunk is
    /// an `Arc` clone — the encoder never runs again). Untagged batches
    /// pay the ordinary encode.
    pub fn encode_columnar_shared(&self) -> Arc<prisma_types::wire::BlockChunk> {
        match &self.chunk {
            Some(chunk) => chunk.wire_block(),
            None => Arc::new(self.encode_columnar()),
        }
    }

    /// The sealed chunk this batch is a whole, unfiltered view of, if
    /// any — the tag [`Batch::from_sealed_chunk`] sets on unprojected
    /// chunk scans. Receivers co-located in this process use it to serve
    /// the chunk's columns without re-decoding their own shared frame.
    pub fn sealed_chunk(&self) -> Option<&Arc<prisma_types::SealedChunk>> {
        self.chunk.as_ref()
    }

    /// Encode only the live rows at `positions` (indices into `0..len()`)
    /// as a columnar wire frame — the shuffle sender's per-bucket encode,
    /// which never materializes bucket tuples.
    pub fn encode_positions(&self, positions: &[u32]) -> prisma_types::wire::BlockChunk {
        use std::borrow::Cow;
        let (cols, sel) = self.to_columns();
        let idx: Vec<u32> = positions.iter().map(|&p| sel.nth(p as usize) as u32).collect();
        prisma_types::wire::BlockChunk::from_columns(
            positions.len(),
            (0..cols.arity()).map(|c| Cow::Owned(cols.gather_col(c, &idx))),
        )
    }

    /// Decode a received columnar wire frame into a columnar batch whose
    /// columns feed the coordinator's merge kernels directly — the
    /// receive side of the columnar wire never pivots to rows unless a
    /// downstream consumer materializes tuples itself.
    pub fn from_block(block: &prisma_types::wire::BlockChunk) -> Result<Batch> {
        let rows = block.rows();
        let cols = block.decode()?;
        if cols.is_empty() {
            // Zero-attribute batches (no such schema exists today, but the
            // frame can express one) fall back to empty tuples.
            return Ok(Batch::owned(vec![Tuple::unit(); rows]));
        }
        Ok(Batch::columns(
            cols.into_iter().map(Arc::new).collect(),
            SelVec::all(rows),
        ))
    }
}

/// Materialize the selected rows of a columnar batch. When the column
/// set retains its source row form, gather refcounted tuples; otherwise
/// assemble tuples from column values (all columns are materialized in
/// that case — operator output never drops its columns).
fn pivot_to_rows(cols: &LazyColumns, sel: &SelVec) -> Vec<Tuple> {
    match cols.src_rows() {
        Some(rows) => sel.iter().map(|idx| rows[idx].clone()).collect(),
        None => {
            let cols: Vec<&ColumnVec> = (0..cols.arity()).map(|c| &**cols.col(c)).collect();
            build_rows(cols.len(), sel, |c, idx| cols[c].value_at(idx))
        }
    }
}

/// [`pivot_to_rows`] for a caller giving the column set up: when nothing
/// else holds the columns they are consumed, and strings move into the
/// rows; otherwise this is the borrowing pivot.
fn pivot_into_rows(cols: SharedColumns, sel: &SelVec) -> Vec<Tuple> {
    match Arc::try_unwrap(cols).map(LazyColumns::into_owned_cols) {
        Ok(Ok(mut owned)) => build_rows(owned.len(), sel, |c, idx| owned[c].take_at(idx)),
        Ok(Err(cols)) => pivot_to_rows(&cols, sel),
        Err(cols) => pivot_to_rows(&cols, sel),
    }
}

/// The one row-building loop behind both pivots: `value(col, idx)` clones
/// out of borrowed columns ([`pivot_to_rows`]) or moves out of owned ones
/// ([`pivot_into_rows`]); each selected index is read once per column.
/// A row costs one allocation (see [`Tuple`]'s `FromIterator`).
fn build_rows(
    arity: usize,
    sel: &SelVec,
    mut value: impl FnMut(usize, usize) -> Value,
) -> Vec<Tuple> {
    sel.iter()
        .map(|idx| (0..arity).map(|c| value(c, idx)).collect())
        .collect()
}

/// Collect batches into a relation with the given schema.
pub fn collect_batches(schema: Schema, batches: Vec<Batch>) -> Relation {
    let mut tuples = Vec::with_capacity(batches.iter().map(Batch::len).sum());
    for b in batches {
        tuples.extend(b.into_tuples());
    }
    Relation::new(schema, tuples)
}

/// A pull-based physical operator: yields batches until exhausted.
pub trait Operator {
    /// Produce the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;

    /// Fold every remaining batch into `table` — what a hash aggregate
    /// does with its input. A pooled pipeline folds inside its morsels.
    fn fold_into(&mut self, table: &mut GroupTable) -> Result<()> {
        while let Some(batch) = self.next_batch()? {
            table.fold(&batch)?;
        }
        Ok(())
    }
}

pub(crate) type BoxOp = Box<dyn Operator>;

/// Execute a physical plan to a materialized relation.
pub fn execute_physical(plan: &PhysicalPlan, provider: &dyn RelationProvider) -> Result<Relation> {
    let schema = plan.output_schema()?;
    let batches = execute_batches(plan, provider)?;
    Ok(collect_batches(schema, batches))
}

/// Execute a physical plan, returning the raw batch stream (what an OFM
/// ships back to the coordinator — all at once; the streaming wire path
/// pulls batches one at a time through [`open_batches`] instead).
pub fn execute_batches(plan: &PhysicalPlan, provider: &dyn RelationProvider) -> Result<Vec<Batch>> {
    open_batches(plan, provider)?.drain()
}

/// A resumable batch source: the pull pipeline of an opened physical plan
/// exposed as an iterator-style adapter.
///
/// This is the seam the streaming wire protocol hangs off: an OFM opens
/// its subplan once, then alternates [`BatchStream::next_batch`] with
/// shipping the produced batch, so the coordinator merges early batches
/// while the fragment is still scanning. Scans resolve their relations at
/// `open` time, so the stream owns its operator tree outright (no borrow
/// of the provider survives) and can be suspended between batches for as
/// long as the consumer likes.
pub struct BatchStream {
    op: BoxOp,
}

impl BatchStream {
    /// Pull the next non-empty batch, or `None` once exhausted (the
    /// [`Operator`] contract, without the trait object).
    pub fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.op.next_batch()
    }

    /// Run the stream to exhaustion (the one-shot materialized path).
    pub fn drain(mut self) -> Result<Vec<Batch>> {
        drain(self.op.as_mut())
    }
}

impl std::fmt::Debug for BatchStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchStream").finish_non_exhaustive()
    }
}

/// Open a physical plan as a resumable [`BatchStream`]. The provider is
/// only consulted during opening (scan resolution); the returned stream
/// is self-contained.
pub fn open_batches(
    plan: &PhysicalPlan,
    provider: &dyn RelationProvider,
) -> Result<BatchStream> {
    open_batches_pooled(plan, provider, None)
}

/// [`open_batches`] with morsel-driven intra-fragment parallelism: when a
/// [`WorkerPool`] is supplied, compute-heavy spans of the operator tree
/// (scan→filter→join-probe→project pipelines, and a hash aggregate's fold
/// over them) whose scan holds at least two morsels — runs of whole scan
/// units of at least [`MORSEL_ROWS`](crate::morsel::MORSEL_ROWS) rows —
/// run them on the pool, the calling thread beside its helpers, instead
/// of inline. Output batches are
/// *identical* either way — same batches in the same order (see
/// [`mod@crate::morsel`]) — so the stream's consumers (including the wire
/// protocol) cannot tell the difference except by the clock.
pub fn open_batches_pooled(
    plan: &PhysicalPlan,
    provider: &dyn RelationProvider,
    pool: Option<Arc<WorkerPool>>,
) -> Result<BatchStream> {
    let mut ctx = EvalContext::new(provider);
    let op = open_with(plan, &mut ctx, pool.as_ref())?;
    Ok(BatchStream { op })
}

pub(crate) fn drain(op: &mut dyn Operator) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch()? {
        out.push(b);
    }
    Ok(out)
}

fn materialize(op: &mut dyn Operator, schema: Schema) -> Result<Relation> {
    Ok(collect_batches(schema, drain(op)?))
}

/// Build the operator tree for `plan`. Scans resolve their source
/// relation now (against the context's bindings and provider — the same
/// [`EvalContext`] the oracle uses, so name shadowing cannot diverge);
/// fixpoints evaluate eagerly because their bindings change per iteration.
pub fn open(plan: &PhysicalPlan, ctx: &mut EvalContext<'_>) -> Result<BoxOp> {
    open_with(plan, ctx, None)
}

/// [`open`] with an optional worker pool; the pool threads through every
/// recursive child so each parallelizable span of the tree can use it.
///
/// A `(Filter|Project|HashJoin probe)*` chain opens as one
/// [`PipelineOp`] over its bottom node: scan units for a `SeqScan` or
/// `Values`, a deferred [`Blocking`] operator, an eager fixpoint's result,
/// or any other operator's batches. The pool runs the pipeline's morsels
/// only over scan units worth it ([`PipelineOp::new`]).
pub(crate) fn open_with(
    plan: &PhysicalPlan,
    ctx: &mut EvalContext<'_>,
    pool: Option<&Arc<WorkerPool>>,
) -> Result<BoxOp> {
    // The pipeline's spine, top down; a join continues into its probe
    // side. On one site an exchange moves nothing: it is skipped.
    let mut spine: Vec<&PhysicalPlan> = Vec::new();
    let mut cur = plan;
    loop {
        cur = match cur {
            PhysicalPlan::Exchange { input, .. } => input,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashJoin { left: input, .. } => {
                spine.push(cur);
                input
            }
            _ => break,
        };
    }
    let has_stages = !spine.is_empty();
    let blocking = |input: &PhysicalPlan, kind, ctx: &mut EvalContext<'_>| -> Result<Source> {
        Ok(Source::Blocking(Some(Blocking {
            input: open_with(input, ctx, pool)?,
            schema: cur.output_schema()?,
            kind,
        })))
    };
    let source = match cur {
        PhysicalPlan::SeqScan {
            relation,
            projection,
            prune,
            ..
        } => {
            let mut units = Vec::new();
            match ctx.lookup_chunked(relation) {
                Some(ch) => {
                    let refuter = prune
                        .as_ref()
                        .map(prisma_storage::ZoneRefuter::compile)
                        .unwrap_or_default();
                    units = chunk_scan_units(&ch, &refuter);
                }
                None => row_scan_units(&ctx.lookup(relation)?, &mut units),
            }
            Source::Units {
                units,
                projection: projection.clone(),
                next: 0,
            }
        }
        PhysicalPlan::Values { schema, rows } => {
            Source::rows(Relation::new(schema.clone(), rows.clone()))
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => {
            let kind = BlockingKind::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            };
            blocking(input, kind, ctx)?
        }
        PhysicalPlan::Sort { input, keys } => {
            blocking(input, BlockingKind::Sort(keys.clone()), ctx)?
        }
        PhysicalPlan::Closure { input, seed } => {
            let seed = seed.as_ref().map(|p| p.compile_vec_predicate());
            blocking(input, BlockingKind::Closure(seed), ctx)?
        }
        // Bindings change every iteration, so the fixpoint runs eagerly
        // here and streams its materialized result.
        PhysicalPlan::Fixpoint { name, base, step } => {
            Source::rows(run_fixpoint(name, base, step, ctx, pool)?)
        }
        other => {
            let op: BoxOp = match other {
                PhysicalPlan::NestedLoopJoin {
                    left,
                    right,
                    kind,
                    residual,
                } => Box::new(NestedLoopOp {
                    outer: open_with(left, ctx, pool)?,
                    inner: Some(open_with(right, ctx, pool)?),
                    inner_side: (Arc::new(LazyColumns::from_cols(Vec::new())), 0),
                    kind: *kind,
                    residual: residual.as_ref().map(|p| p.compile_vec_predicate()),
                }),
                PhysicalPlan::Union { left, right, all } => Box::new(UnionOp {
                    left: Some(open_with(left, ctx, pool)?),
                    right: Some(open_with(right, ctx, pool)?),
                    seen: if *all { None } else { Some(FastSet::default()) },
                }),
                PhysicalPlan::Difference { left, right } => Box::new(DifferenceOp {
                    left: open_with(left, ctx, pool)?,
                    right: Some(open_with(right, ctx, pool)?),
                    exclude: FastSet::default(),
                    seen: FastSet::default(),
                }),
                PhysicalPlan::Distinct { input } => Box::new(DistinctOp {
                    child: open_with(input, ctx, pool)?,
                    seen: FastSet::default(),
                }),
                PhysicalPlan::Limit { input, n } => Box::new(LimitOp {
                    child: open_with(input, ctx, pool)?,
                    remaining: *n,
                }),
                _ => unreachable!("pipeline sources and stages are matched above"),
            };
            if !has_stages {
                return Ok(op);
            }
            Source::Child(op)
        }
    };
    let mut stages = Vec::with_capacity(spine.len());
    for node in spine.into_iter().rev() {
        stages.push(match node {
            PhysicalPlan::Filter { predicate, .. } => Stage::Filter {
                pred: predicate.compile_vec_predicate(),
                kept: Vec::new(),
            },
            PhysicalPlan::Project { exprs, .. } => Stage::Project {
                exprs: exprs.iter().map(|e| e.compile_vec()).collect(),
                identity: identity_width(exprs),
            },
            PhysicalPlan::HashJoin {
                right,
                kind,
                on,
                residual,
                ..
            } => {
                // The build side drains into its table now, on the
                // opening thread.
                let mut build = open_with(right, ctx, pool)?;
                let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                let table = JoinTable::build(&drain(build.as_mut())?, &rkeys)?;
                Stage::Probe(JoinProbe::new(
                    Arc::new(table),
                    on.iter().map(|&(l, _)| l).collect(),
                    *kind,
                    residual.as_ref().map(|p| p.compile_vec_predicate()),
                ))
            }
            _ => unreachable!("only these enter the spine"),
        });
    }
    Ok(Box::new(PipelineOp::new(source, stages, pool)))
}

fn run_fixpoint(
    name: &str,
    base: &PhysicalPlan,
    step: &PhysicalPlan,
    ctx: &mut EvalContext<'_>,
    pool: Option<&Arc<WorkerPool>>,
) -> Result<Relation> {
    let schema = base.output_schema()?;
    let delta_name = format!("Δ{name}");
    let mut base_op = open_with(base, ctx, pool)?;
    let base_rel = materialize(base_op.as_mut(), schema.clone())?.distinct();

    let mut all_set: FastSet<Tuple> = base_rel.tuples().iter().cloned().collect();
    let mut acc: Vec<Tuple> = base_rel.tuples().to_vec();
    let mut delta: Vec<Tuple> = base_rel.into_tuples();
    let mut iterations = 0;
    while !delta.is_empty() {
        iterations += 1;
        if iterations > ctx.max_fixpoint_iterations() {
            return Err(PrismaError::Execution(format!(
                "fixpoint {name} exceeded iteration limit"
            )));
        }
        ctx.bind(
            name.to_owned(),
            Arc::new(Relation::new(schema.clone(), acc.clone())),
        );
        ctx.bind(
            delta_name.clone(),
            Arc::new(Relation::new(schema.clone(), delta)),
        );
        let mut step_op = open_with(step, ctx, pool)?;
        let produced = materialize(step_op.as_mut(), schema.clone())?;
        let mut fresh = Vec::new();
        for t in produced.into_tuples() {
            if all_set.insert(t.clone()) {
                fresh.push(t);
            }
        }
        acc.extend(fresh.iter().cloned());
        delta = fresh;
    }
    ctx.unbind(name);
    ctx.unbind(&delta_name);
    Ok(Relation::new(schema, acc))
}

// ---------------- partitioning (grace-join support) ----------------

/// Hash of a join key, shared by every site of a partitioned join so both
/// sides agree on bucket placement.
pub fn key_hash(key: &[Value]) -> u64 {
    use std::hash::{BuildHasher, Hash, Hasher};
    let mut h = FnvBuild.build_hasher();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Split one batch's live rows into `parts` buckets of row *positions*
/// (indices into `0..batch.len()`) by join-key hash, computed straight from
/// the typed key columns and bit-identical to [`key_hash`] over the same
/// values. Rows with a NULL key component are dropped — SQL equi-joins
/// never match NULL keys, so they cannot contribute to any bucket's join
/// result. Placement depends only on the key values, so both sides of a
/// join, whatever their column types and batch forms, route equal keys to
/// the same site.
pub fn partition_positions(batch: &Batch, key_cols: &[usize], parts: usize) -> Vec<Vec<u32>> {
    let mut buckets: Vec<Vec<u32>> = (0..parts).map(|_| Vec::new()).collect();
    if batch.is_empty() {
        return buckets; // (and an empty row batch has no columns to hash)
    }
    let (cols, sel) = batch.to_columns();
    let (mut hashes, mut nulls) = (Vec::new(), Vec::new());
    crate::join::hash_keys(&cols, &sel, key_cols, &mut hashes, &mut nulls);
    for (row, (hash, null)) in hashes.into_iter().zip(nulls).enumerate() {
        if !null {
            buckets[(hash % parts as u64) as usize].push(row as u32);
        }
    }
    buckets
}

// ---------------- operators ----------------

/// One unit of a scan — the natural morsel: a whole sealed chunk
/// (pre-pivoted, zone-mapped, wire-cached), a ready-made column batch, or a
/// [`BATCH_SIZE`] window of a row relation (a fragment's delta, or all of a
/// row-backed source).
#[derive(Debug, Clone)]
pub(crate) enum ScanUnit {
    /// A sealed column chunk, served with zero row pivot.
    Chunk(Arc<prisma_types::SealedChunk>),
    /// A batch the source already holds in column form.
    Ready(Batch),
    /// `[start, end)` window into a row relation.
    Delta(Arc<Relation>, usize, usize),
}

impl ScanUnit {
    pub(crate) fn len(&self) -> usize {
        match self {
            ScanUnit::Chunk(c) => c.len(),
            ScanUnit::Ready(b) => b.len(),
            ScanUnit::Delta(_, start, end) => end - start,
        }
    }

    /// The unit as a batch under the scan's fused projection; a chunked
    /// scan's delta tail and a row scan both cut [`Batch::row_window`]s.
    pub(crate) fn batch(&self, projection: Option<&[usize]>) -> Batch {
        match self {
            ScanUnit::Chunk(c) => Batch::from_sealed_chunk(c, projection),
            ScanUnit::Ready(b) => projection.map_or_else(|| b.clone(), |cols| b.project_cols(cols)),
            ScanUnit::Delta(rel, start, end) => Batch::row_window(rel, *start, *end, projection),
        }
    }
}

/// Cut a chunked relation into scan units, zone-pruning sealed chunks
/// **eagerly at open time**: a chunk whose zone maps refute the scan's
/// prune hint is dropped here, before any of its data is touched. Kept
/// chunks and prune victims bump the process-wide telemetry counters;
/// ready-made batches and then the delta's row windows follow (units stay
/// in that order so every execution mode scans identically).
pub(crate) fn chunk_scan_units(
    ch: &crate::table::ChunkedRelation,
    refuter: &prisma_storage::ZoneRefuter,
) -> Vec<ScanUnit> {
    let mut units = Vec::new();
    let mut scanned = 0u64;
    let mut pruned = 0u64;
    for chunk in ch.chunks() {
        if !refuter.is_trivial() && refuter.refutes(chunk.zones()) {
            pruned += 1;
        } else {
            scanned += 1;
            units.push(ScanUnit::Chunk(Arc::clone(chunk)));
        }
    }
    if scanned + pruned > 0 {
        CHUNKS_SCANNED.fetch_add(scanned, std::sync::atomic::Ordering::Relaxed);
        CHUNKS_PRUNED.fetch_add(pruned, std::sync::atomic::Ordering::Relaxed);
    }
    units.extend(ch.batches().iter().cloned().map(ScanUnit::Ready));
    row_scan_units(ch.delta(), &mut units);
    units
}

/// Cut a row relation into [`BATCH_SIZE`] windows, appended to `units`.
pub(crate) fn row_scan_units(rel: &Arc<Relation>, units: &mut Vec<ScanUnit>) {
    let mut start = 0;
    while start < rel.len() {
        let end = (start + BATCH_SIZE).min(rel.len());
        units.push(ScanUnit::Delta(Arc::clone(rel), start, end));
        start = end;
    }
}

/// `Some(n)` iff `exprs` is exactly `[Col(0), .., Col(n-1)]`.
pub(crate) fn identity_width(exprs: &[prisma_storage::expr::ScalarExpr]) -> Option<usize> {
    use prisma_storage::expr::ScalarExpr;
    exprs
        .iter()
        .enumerate()
        .all(|(i, e)| matches!(e, ScalarExpr::Col(c) if *c == i))
        .then_some(exprs.len())
}

/// A theta join: every outer row of a batch pairs with every inner row,
/// and the pairs go through the hash join's pair step
/// ([`join::join_pairs`]), residual included.
struct NestedLoopOp {
    outer: BoxOp,
    /// The inner side, until the first pull drains it into `inner_side`.
    inner: Option<BoxOp>,
    /// The inner side as one column set, and its row count.
    inner_side: (SharedColumns, usize),
    kind: JoinKind,
    residual: Option<CompiledVecPredicate>,
}

impl Operator for NestedLoopOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if let Some(mut inner) = self.inner.take() {
            self.inner_side = join::concat(&drain(inner.as_mut())?);
        }
        let (build, rows) = &self.inner_side;
        while let Some(batch) = self.outer.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            let (cols, sel) = batch.to_columns();
            let li = sel
                .iter()
                .flat_map(|l| std::iter::repeat_n(l as u32, *rows))
                .collect();
            let ri = (0..sel.count()).flat_map(|_| 0..*rows as u32).collect();
            let residual = self.residual.as_mut();
            if let Some(out) =
                join::join_pairs(&batch, (cols, sel), build, (li, ri), self.kind, residual)?
            {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

struct UnionOp {
    left: Option<BoxOp>,
    right: Option<BoxOp>,
    /// Some = set semantics (dedup across both inputs).
    seen: Option<FastSet<Tuple>>,
}

impl UnionOp {
    fn filtered(&mut self, batch: Batch) -> Option<Batch> {
        match &mut self.seen {
            None => Some(batch),
            Some(seen) => {
                let kept: Vec<Tuple> = batch
                    .tuples()
                    .iter()
                    .filter(|t| seen.insert((*t).clone()))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Batch::owned(kept))
                }
            }
        }
    }
}

impl Operator for UnionOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(side) = self.left.as_mut().or(self.right.as_mut()) {
            match side.next_batch()? {
                Some(batch) => {
                    if let Some(out) = self.filtered(batch) {
                        return Ok(Some(out));
                    }
                }
                None => {
                    if self.left.is_some() {
                        self.left = None;
                    } else {
                        self.right = None;
                    }
                }
            }
        }
        Ok(None)
    }
}

struct DifferenceOp {
    left: BoxOp,
    right: Option<BoxOp>,
    exclude: FastSet<Tuple>,
    seen: FastSet<Tuple>,
}

impl Operator for DifferenceOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if let Some(mut right) = self.right.take() {
            while let Some(batch) = right.next_batch()? {
                self.exclude.extend(batch.into_tuples());
            }
        }
        while let Some(batch) = self.left.next_batch()? {
            let kept: Vec<Tuple> = batch
                .tuples()
                .iter()
                .filter(|t| !self.exclude.contains(*t) && self.seen.insert((*t).clone()))
                .cloned()
                .collect();
            if !kept.is_empty() {
                return Ok(Some(Batch::owned(kept)));
            }
        }
        Ok(None)
    }
}

struct DistinctOp {
    child: BoxOp,
    seen: FastSet<Tuple>,
}

impl Operator for DistinctOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(batch) = self.child.next_batch()? {
            let kept: Vec<Tuple> = batch
                .tuples()
                .iter()
                .filter(|t| self.seen.insert((*t).clone()))
                .cloned()
                .collect();
            if !kept.is_empty() {
                return Ok(Some(Batch::owned(kept)));
            }
        }
        Ok(None)
    }
}

struct LimitOp {
    child: BoxOp,
    remaining: usize,
}

impl Operator for LimitOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.child.next_batch()? {
            None => Ok(None),
            Some(batch) => {
                if batch.len() <= self.remaining {
                    self.remaining -= batch.len();
                    Ok(Some(batch))
                } else {
                    let head: Vec<Tuple> = batch.tuples()[..self.remaining].to_vec();
                    self.remaining = 0;
                    Ok(Some(Batch::owned(head)))
                }
            }
        }
    }
}

/// A blocking operator: drains its input on the first pull of the
/// pipeline it feeds, whose source then streams the materialized result
/// as row-window units.
pub(crate) struct Blocking {
    input: BoxOp,
    /// The operator's output schema.
    schema: Schema,
    kind: BlockingKind,
}

enum BlockingKind {
    /// Hash aggregation: its input folds into one table
    /// ([`Operator::fold_into`]), inside the morsels when the input pools.
    Aggregate {
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
    },
    Sort(Vec<(usize, bool)>),
    /// The seeded transitive closure ([`closure`]).
    Closure(Option<CompiledVecPredicate>),
}

impl Blocking {
    pub(crate) fn run(self) -> Result<Relation> {
        let Blocking {
            mut input,
            schema,
            kind,
        } = self;
        let rows = match kind {
            BlockingKind::Aggregate { group_by, aggs } => {
                let mut table = GroupTable::new(&group_by, &aggs);
                input.fold_into(&mut table)?;
                table.finish()
            }
            BlockingKind::Sort(keys) => {
                return Ok(materialize(input.as_mut(), schema)?.sorted_by(&keys))
            }
            BlockingKind::Closure(mut seed) => {
                closure(materialize(input.as_mut(), schema.clone())?, seed.as_mut())?
            }
        };
        Ok(Relation::new(schema, rows))
    }
}

/// The seeded semi-naive transitive closure: σ_seed(TC(edges)) without
/// computing TC(edges). The adjacency is built once; the first delta is
/// the edges whose source passes the seed — one kernel run over the edge
/// batch — and a step keeps each pair's source, so the loop derives
/// exactly the pairs reachable from a seeded source — in the order the
/// unseeded closure would derive them. A NULL node has no successors (the
/// equi-join rule).
fn closure(edges: Relation, seed: Option<&mut CompiledVecPredicate>) -> Result<Vec<Tuple>> {
    if edges.schema().arity() != 2 {
        return Err(PrismaError::Execution(format!(
            "closure over arity-{} relation",
            edges.schema().arity()
        )));
    }
    let edges = Arc::new(edges.into_tuples());
    let seeded = match seed {
        Some(seed) if !edges.is_empty() => {
            let mut kept = Vec::new();
            seed.select(
                &LazyColumns::from_rows(Arc::clone(&edges)),
                &SelVec::all(edges.len()),
                &mut kept,
            )?;
            SelVec::from_indices(edges.len(), kept)
        }
        _ => SelVec::all(edges.len()),
    };
    let mut adj: FastMap<&Value, Vec<&Value>> = FastMap::default();
    for t in edges.iter().filter(|t| !t.get(0).is_null()) {
        adj.entry(t.get(0)).or_default().push(t.get(1));
    }
    let mut seen: FastSet<(&Value, &Value)> = FastSet::default();
    let mut delta: Vec<(&Value, &Value)> = Vec::new();
    let mut out: Vec<Tuple> = Vec::new();
    for t in seeded.iter().map(|i| &edges[i]) {
        let pair = (t.get(0), t.get(1));
        if seen.insert(pair) {
            delta.push(pair);
            out.push(t.clone());
        }
    }
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(a, b) in &delta {
            for &c in adj.get(b).into_iter().flatten() {
                if seen.insert((a, c)) {
                    next.push((a, c));
                }
            }
        }
        out.extend(
            next.iter()
                .map(|&(a, c)| Tuple::new(vec![a.clone(), c.clone()])),
        );
        delta = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::agg::AggFunc;
    use crate::eval::eval;
    use crate::morsel::MORSEL_ROWS;
    use crate::physical::lower;
    use crate::plan::LogicalPlan;
    use prisma_storage::expr::{ArithOp, CmpOp, ScalarExpr};
    use prisma_types::{tuple, Column, DataType};

    fn db() -> HashMap<String, Relation> {
        db_of(3000)
    }

    /// [`db`] with an `emp` of `emp_rows` rows.
    fn db_of(emp_rows: i64) -> HashMap<String, Relation> {
        let emp = Relation::new(
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Int),
                Column::new("salary", DataType::Double),
            ]),
            (0..emp_rows)
                .map(|i| tuple![i, i % 7, (i % 100) as f64])
                .collect(),
        );
        let dept = Relation::new(
            Schema::new(vec![
                Column::new("dept_id", DataType::Int),
                Column::new("name", DataType::Str),
            ]),
            (0..5_i64).map(|i| tuple![i, format!("d{i}")]).collect(),
        );
        let edge = Relation::new(
            Schema::new(vec![
                Column::new("src", DataType::Int),
                Column::new("dst", DataType::Int),
            ]),
            vec![tuple![1, 2], tuple![2, 3], tuple![3, 4], tuple![4, 2]],
        );
        let mut m = HashMap::new();
        m.insert("emp".to_owned(), emp);
        m.insert("dept".to_owned(), dept);
        m.insert("edge".to_owned(), edge);
        m
    }

    fn assert_agrees(plan: &LogicalPlan, db: &HashMap<String, Relation>) {
        let phys = lower(plan).unwrap();
        let via_exec = execute_physical(&phys, db).unwrap().canonicalized();
        let via_eval = eval(plan, db).unwrap().canonicalized();
        assert_eq!(via_exec.tuples(), via_eval.tuples(), "plan:\n{plan}");
        assert_eq!(via_exec.schema().arity(), via_eval.schema().arity());
    }

    #[test]
    fn scan_emits_shared_batches_of_bounded_size() {
        let db = db();
        let phys = lower(&LogicalPlan::scan("emp", db["emp"].schema().clone())).unwrap();
        let batches = execute_batches(&phys, &db).unwrap();
        assert_eq!(batches.len(), 3); // 3000 rows / 1024
        assert!(batches.iter().all(|b| b.len() <= BATCH_SIZE));
        assert!(matches!(batches[0].inner, BatchInner::Shared { .. }));
        assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), 3000);
    }

    #[test]
    fn pipeline_matches_eval() {
        let db = db();
        let plan = LogicalPlan::scan("emp", db["emp"].schema().clone())
            .select(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(2),
                ScalarExpr::lit(50.0),
            ))
            .project_cols(&[0, 1])
            .unwrap();
        assert_agrees(&plan, &db);
    }

    #[test]
    fn joins_match_eval() {
        let db = db();
        let inner = LogicalPlan::scan("emp", db["emp"].schema().clone())
            .join(LogicalPlan::scan("dept", db["dept"].schema().clone()), vec![(1, 0)]);
        assert_agrees(&inner, &db);
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let plan = LogicalPlan::Join {
                left: Box::new(LogicalPlan::scan("emp", db["emp"].schema().clone())),
                right: Box::new(LogicalPlan::scan("dept", db["dept"].schema().clone())),
                kind,
                on: vec![(1, 0)],
                residual: None,
            };
            assert_agrees(&plan, &db);
        }
        // Theta join through the nested-loop operator.
        let theta = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("dept", db["dept"].schema().clone())),
            right: Box::new(LogicalPlan::scan("dept", db["dept"].schema().clone())),
            kind: JoinKind::Inner,
            on: vec![],
            residual: Some(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(0),
                ScalarExpr::col(2),
            )),
        };
        assert_agrees(&theta, &db);
    }

    #[test]
    fn blocking_operators_match_eval() {
        let db = db();
        let agg = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::scan("emp", db["emp"].schema().clone())),
            group_by: vec![1],
            aggs: vec![
                AggExpr::new(AggFunc::CountStar, 0, "n"),
                AggExpr::new(AggFunc::Sum, 2, "s"),
                AggExpr::new(AggFunc::Avg, 2, "a"),
            ],
        };
        assert_agrees(&agg, &db);
        let sorted = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::scan("emp", db["emp"].schema().clone())),
                keys: vec![(1, true), (0, false)],
            }),
            n: 10,
        };
        assert_agrees(&sorted, &db);
    }

    #[test]
    fn set_operators_match_eval() {
        let db = db();
        let a = LogicalPlan::scan("emp", db["emp"].schema().clone())
            .project_cols(&[1])
            .unwrap();
        for all in [true, false] {
            let u = LogicalPlan::Union {
                left: Box::new(a.clone()),
                right: Box::new(a.clone()),
                all,
            };
            assert_agrees(&u, &db);
        }
        let diff = LogicalPlan::Difference {
            left: Box::new(a.clone()),
            right: Box::new(LogicalPlan::Values {
                schema: a.output_schema().unwrap(),
                rows: vec![tuple![0], tuple![3]],
            }),
        };
        assert_agrees(&diff, &db);
        let distinct = LogicalPlan::Distinct {
            input: Box::new(a),
        };
        assert_agrees(&distinct, &db);
    }

    #[test]
    fn recursion_matches_eval() {
        let db = db();
        let edge = || Box::new(LogicalPlan::scan("edge", db["edge"].schema().clone()));
        let closure = LogicalPlan::Closure {
            input: edge(),
            seed: None,
        };
        assert_agrees(&closure, &db);
        // Seeded: the executor starts from the seeded sources, the oracle
        // filters the whole closure; an empty seed set and a seed that
        // admits every node are the two edges of the square.
        for seed in [
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(2)),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(99)),
            ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(0)),
        ] {
            let seeded = LogicalPlan::Closure {
                input: edge(),
                seed: Some(seed),
            };
            assert_agrees(&seeded, &db);
        }
        let edge_schema = db["edge"].schema().clone();
        let fixpoint = LogicalPlan::Fixpoint {
            name: "path".into(),
            base: Box::new(LogicalPlan::scan("edge", edge_schema.clone())),
            step: Box::new(
                LogicalPlan::scan("Δpath", edge_schema.clone())
                    .join(LogicalPlan::scan("edge", edge_schema), vec![(1, 0)])
                    .project_cols(&[0, 3])
                    .unwrap(),
            ),
        };
        assert_agrees(&fixpoint, &db);
    }

    #[test]
    fn seeded_closure_does_not_continue_through_null() {
        let schema = Schema::new(vec![
            Column::nullable("src", DataType::Int),
            Column::nullable("dst", DataType::Int),
        ]);
        let mut db = HashMap::new();
        db.insert(
            "e".to_owned(),
            Relation::new(
                schema.clone(),
                vec![
                    Tuple::new(vec![Value::Int(0), Value::Null]),
                    Tuple::new(vec![Value::Null, Value::Int(5)]),
                    tuple![0, 1],
                ],
            ),
        );
        for seed in [
            None,
            Some(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::col(0),
                ScalarExpr::lit(0),
            )),
            Some(ScalarExpr::IsNull(Box::new(ScalarExpr::col(0)))),
        ] {
            let plan = LogicalPlan::Closure {
                input: Box::new(LogicalPlan::scan("e", schema.clone())),
                seed,
            };
            assert_agrees(&plan, &db);
            let out = execute_physical(&lower(&plan).unwrap(), &db).unwrap();
            assert!(!out.tuples().contains(&tuple![0, 5]), "plan:\n{plan}");
        }
    }

    #[test]
    fn global_aggregate_over_empty_input_yields_one_row() {
        let db = db();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(
                LogicalPlan::scan("emp", db["emp"].schema().clone())
                    .select(ScalarExpr::lit(false)),
            ),
            group_by: vec![],
            aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n")],
        };
        assert_agrees(&plan, &db);
    }

    #[test]
    fn partitioning_is_consistent_and_drops_nulls() {
        let rel = Arc::new(Relation::new(
            Schema::new(vec![Column::nullable("k", DataType::Int)]),
            vec![tuple![1], tuple![2], Tuple::new(vec![Value::Null]), tuple![1]],
        ));
        let batch = Batch::shared(rel, 0, 4);
        let parts = partition_positions(&batch, &[0], 3);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "NULL key dropped");
        // Equal keys land in the same bucket.
        let ones = |pos: &[u32]| {
            pos.iter()
                .filter(|&&p| batch.value_at(p as usize, 0) == Value::Int(1))
                .count()
        };
        let with_one: Vec<usize> = (0..parts.len()).filter(|&i| ones(&parts[i]) > 0).collect();
        assert_eq!(with_one.len(), 1);
        assert_eq!(ones(&parts[with_one[0]]), 2);
    }

    #[test]
    fn filter_emits_columnar_batches_sharing_input_columns() {
        let db = db();
        let plan = LogicalPlan::scan("emp", db["emp"].schema().clone()).select(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(100)),
        );
        let phys = lower(&plan).unwrap();
        let batches = execute_batches(&phys, &db).unwrap();
        assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), 100);
        for b in &batches {
            let BatchInner::Columns { cols, sel, .. } = &b.inner else {
                panic!("filter output should be columnar");
            };
            // Selection refines; materialized columns keep the full
            // pre-filter length, and only the predicate's column (0) was
            // ever pivoted.
            assert!(sel.count() <= sel.len());
            assert!(cols.is_materialized(0), "predicate column not pivoted");
            assert_eq!(
                cols.materialized_count(),
                1,
                "filter pivoted columns its predicate never references"
            );
            assert_eq!(cols.col(0).len(), sel.len());
        }
        // Pivot back to rows agrees with the oracle.
        let rel = collect_batches(phys.output_schema().unwrap(), batches);
        let oracle = eval(&plan, &db).unwrap();
        assert_eq!(
            rel.canonicalized().tuples(),
            oracle.canonicalized().tuples()
        );
    }

    #[test]
    fn batch_pivot_roundtrip() {
        let rows = vec![tuple![1, 2.5, "a"], tuple![2, -0.5, "bb"]];
        let b = Batch::owned(rows.clone());
        let (cols, sel) = b.to_columns();
        assert_eq!(cols.arity(), 3);
        assert!(sel.is_all());
        assert!(cols.src_rows().is_some());
        assert_eq!(cols.materialized_count(), 0, "to_columns pivots nothing");
        let col_batch = Batch::columns_shared(cols, SelVec::from_indices(2, vec![1]));
        assert_eq!(col_batch.len(), 1);
        assert_eq!(col_batch.tuples(), &rows[1..]);
        // Gathered rows are refcount bumps of the source tuples.
        assert_eq!(col_batch.value_at(0, 2), Value::from("bb"));
        let mut key = vec![Value::Null];
        col_batch.key_at(0, &[1, 0], &mut key);
        assert_eq!(key, vec![Value::from(-0.5), Value::from(2)]);
    }

    #[test]
    fn project_evaluates_vectorized_over_filtered_selection() {
        let db = db();
        // salary < 50 then compute id * 2 + dept: exercises kernels over
        // a partial selection (gather paths).
        let filtered = LogicalPlan::scan("emp", db["emp"].schema().clone()).select(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::lit(50.0)),
        );
        let plan = LogicalPlan::Project {
            input: Box::new(filtered),
            exprs: vec![
                ScalarExpr::arith(
                    ArithOp::Add,
                    ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(0), ScalarExpr::lit(2)),
                    ScalarExpr::col(1),
                ),
                ScalarExpr::col(2),
            ],
            schema: Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("salary", DataType::Double),
            ]),
        };
        assert_agrees(&plan, &db);
    }

    /// Every batch's length and every row, in order, of `phys` run with
    /// no pool and on `pool`.
    fn run_both(
        phys: &PhysicalPlan,
        db: &dyn RelationProvider,
        pool: &Arc<prisma_poolx::WorkerPool>,
    ) -> [(Vec<usize>, Vec<Tuple>); 2] {
        [None, Some(Arc::clone(pool))].map(|pool| {
            let batches = open_batches_pooled(phys, db, pool).unwrap().drain().unwrap();
            let lens = batches.iter().map(Batch::len).collect();
            (lens, batches.into_iter().flat_map(Batch::into_tuples).collect())
        })
    }

    #[test]
    fn pooled_execution_is_bit_identical_to_serial() {
        // Over 3000 rows every plan runs inline at every width; over two
        // morsels and a half, every plan but the union's probe (whose
        // source is another operator) runs its morsels on the pool.
        for (db, big) in [(db(), false), (db_of((MORSEL_ROWS * 5 / 2) as i64), true)] {
            let emp = || LogicalPlan::scan("emp", db["emp"].schema().clone());
            let dept = || LogicalPlan::scan("dept", db["dept"].schema().clone());
            let cmp = |op, col, lit: ScalarExpr| ScalarExpr::cmp(op, ScalarExpr::col(col), lit);
            let aggregate_over = |input: LogicalPlan| LogicalPlan::Aggregate {
                input: Box::new(input),
                group_by: vec![1],
                aggs: vec![
                    AggExpr::new(AggFunc::CountStar, 0, "n"),
                    AggExpr::new(AggFunc::Sum, 2, "s"),
                    AggExpr::new(AggFunc::Avg, 2, "a"),
                ],
            };
            let aggregate = aggregate_over(emp());
            let plans = vec![
                // Scan→filter→project pipeline.
                (
                    emp()
                        .select(cmp(CmpOp::Lt, 2, ScalarExpr::lit(50.0)))
                        .project_cols(&[0, 1])
                        .unwrap(),
                    big,
                ),
                // Hash join: the probe is a stage of the scan's pipeline.
                (emp().join(dept(), vec![(1, 0)]), big),
                // Aggregate: a table per morsel, merged in morsel order.
                (aggregate.clone(), big),
                // The same over a filter, folded inside the filter's jobs.
                (aggregate_over(emp().select(cmp(CmpOp::Ge, 0, ScalarExpr::lit(7)))), big),
                // Filter + Project over a blocking source.
                (
                    aggregate
                        .select(cmp(CmpOp::Gt, 1, ScalarExpr::lit(420)))
                        .project_cols(&[2, 0])
                        .unwrap(),
                    big,
                ),
                // A probe whose source is another operator's batches.
                (
                    LogicalPlan::Union {
                        left: Box::new(emp().select(cmp(CmpOp::Lt, 0, ScalarExpr::lit(1500)))),
                        right: Box::new(emp().select(cmp(CmpOp::Ge, 0, ScalarExpr::lit(1500)))),
                        all: true,
                    }
                    .join(dept(), vec![(1, 0)]),
                    big,
                ),
                // A limit that cuts a pooled join's output mid-batch.
                (
                    LogicalPlan::Limit {
                        input: Box::new(emp().join(dept(), vec![(1, 0)])),
                        n: 1500,
                    },
                    big,
                ),
                // Values cut into more than one row window.
                (
                    LogicalPlan::Values {
                        schema: db["emp"].schema().clone(),
                        rows: db["emp"].tuples().to_vec(),
                    }
                    .select(cmp(CmpOp::Lt, 2, ScalarExpr::lit(50.0))),
                    big,
                ),
            ];
            for (plan, pools) in &plans {
                let phys = lower(plan).unwrap();
                for workers in [2usize, 4] {
                    let pool = prisma_poolx::WorkerPool::new(workers);
                    let [serial, pooled] = run_both(&phys, &db, &pool);
                    // Not just set-equal: the same batches, rows in the same order.
                    assert_eq!(pooled, serial, "workers={workers} plan:\n{plan}");
                    assert_eq!(
                        pool.stats().morsels > 0,
                        *pools,
                        "{} rows at {workers} workers:\n{plan}",
                        db["emp"].len()
                    );
                }
            }
        }
    }

    #[test]
    fn a_pruned_scan_pools_only_what_survives_pruning() {
        // Four morsels of sealed 4096-row chunks, `id` clustered. A
        // predicate whose zone maps keep under two morsels runs inline on
        // a pooled stream; one that keeps two or more pools.
        let db = chunked_db_of(4096, 4 * MORSEL_ROWS as i64);
        let emp = || LogicalPlan::scan("emp", db.rows["emp"].schema().clone());
        for (below, pools) in [(MORSEL_ROWS / 2, false), (2 * MORSEL_ROWS - 4096, false), (2 * MORSEL_ROWS, true)] {
            let plan = emp().select(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(0),
                ScalarExpr::lit(below as i64),
            ));
            let mut phys = lower(&plan).unwrap();
            phys.push_prune_hints();
            let pool = prisma_poolx::WorkerPool::new(2);
            let [serial, pooled] = run_both(&phys, &db, &pool);
            assert_eq!(pooled, serial);
            assert_eq!(serial.1.len(), below);
            assert_eq!(pool.stats().morsels > 0, pools, "id < {below}");
        }
    }

    #[test]
    fn projection_fused_into_scan() {
        let db = db();
        let phys = PhysicalPlan::SeqScan {
            relation: "emp".into(),
            schema: db["emp"].schema().clone(),
            projection: Some(vec![1, 0]),
            prune: None,
        };
        let out = execute_physical(&phys, &db).unwrap();
        assert_eq!(out.schema().arity(), 2);
        assert_eq!(out.schema().column(0).unwrap().name, "dept");
        assert_eq!(out.len(), 3000);
    }

    // ---------------- two-tier chunked scans ----------------

    /// A provider serving `emp` two-tier: the first `sealed_rows` rows as
    /// sealed column chunks of `chunk_rows` each, the rest as a row delta.
    struct ChunkedDb {
        rows: HashMap<String, Relation>,
        chunked: HashMap<String, Arc<crate::table::ChunkedRelation>>,
    }

    impl RelationProvider for ChunkedDb {
        fn relation(&self, name: &str) -> Result<Arc<Relation>> {
            self.rows.relation(name)
        }

        fn chunked(&self, name: &str) -> Option<Arc<crate::table::ChunkedRelation>> {
            self.chunked.get(name).map(Arc::clone)
        }
    }

    fn chunked_db(chunk_rows: usize, sealed_rows: usize) -> ChunkedDb {
        chunked_db_over(db(), chunk_rows, sealed_rows)
    }

    /// [`chunked_db`] over an `emp` of `rows` rows, all of them sealed.
    fn chunked_db_of(chunk_rows: usize, rows: i64) -> ChunkedDb {
        chunked_db_over(db_of(rows), chunk_rows, rows as usize)
    }

    fn chunked_db_over(rows: HashMap<String, Relation>, chunk_rows: usize, sealed_rows: usize) -> ChunkedDb {
        let emp = &rows["emp"];
        let chunks: Vec<Arc<prisma_types::SealedChunk>> = emp.tuples()[..sealed_rows]
            .chunks(chunk_rows)
            .map(|run| Arc::new(prisma_types::SealedChunk::seal(run.to_vec())))
            .collect();
        let delta = Relation::new(emp.schema().clone(), emp.tuples()[sealed_rows..].to_vec());
        let mut chunked = HashMap::new();
        chunked.insert(
            "emp".to_owned(),
            Arc::new(crate::table::ChunkedRelation::new(chunks, delta)),
        );
        ChunkedDb { rows, chunked }
    }

    #[test]
    fn chunked_scan_matches_row_scan_and_tags_whole_chunks() {
        let db = chunked_db(512, 2048);
        let phys = lower(&LogicalPlan::scan("emp", db.rows["emp"].schema().clone())).unwrap();
        let batches = execute_batches(&phys, &db).unwrap();
        // 4 sealed chunks + 1 delta window of 952 rows.
        assert_eq!(batches.len(), 5);
        assert!(batches[..4].iter().all(|b| b.chunk.is_some()), "whole chunks tagged");
        assert!(batches[4].chunk.is_none(), "delta window untagged");
        let via_chunks = execute_physical(&phys, &db).unwrap().canonicalized();
        let via_rows = execute_physical(&phys, &db.rows).unwrap().canonicalized();
        assert_eq!(via_chunks, via_rows);
    }

    #[test]
    fn chunked_scan_serves_columns_without_pivoting_rows() {
        let db = chunked_db(1024, 1024);
        let chunk = &db.chunked["emp"].chunks()[0];
        let batch = Batch::from_sealed_chunk(chunk, None);
        let (cols, sel) = batch.to_columns();
        assert!(sel.is_all());
        // Every column is pre-materialized straight off the sealed form —
        // nothing pivots, and pivoting *back* to rows is refcount gathers
        // of the chunk's own tuples.
        assert_eq!(cols.materialized_count(), 3);
        assert_eq!(batch.tuples(), &chunk.rows()[..]);
        // A projected chunk batch shares the selected columns untagged.
        let projected = Batch::from_sealed_chunk(chunk, Some(&[2, 0]));
        assert!(projected.chunk.is_none());
        assert_eq!(projected.len(), 1024);
        assert_eq!(projected.value_at(0, 0), chunk.rows()[0].get(2).clone());
    }

    #[test]
    fn zone_pruning_skips_chunks_and_keeps_results_exact() {
        let db = chunked_db(512, 2048);
        // `id < 600` refutes chunks [1024,1536) and [1536,2048) by zone
        // map alone (id is clustered), keeps chunks 0-1 and the delta.
        let plan = LogicalPlan::scan("emp", db.rows["emp"].schema().clone()).select(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(600)),
        );
        let mut phys = lower(&plan).unwrap();
        phys.push_prune_hints();
        let (scanned0, pruned0) = chunk_scan_counters();
        let out = execute_physical(&phys, &db).unwrap().canonicalized();
        let (scanned1, pruned1) = chunk_scan_counters();
        assert_eq!(scanned1 - scanned0, 2);
        assert_eq!(pruned1 - pruned0, 2);
        let oracle = eval(&plan, &db.rows).unwrap().canonicalized();
        assert_eq!(out, oracle);
        // Without hints nothing is pruned and the result is identical.
        let unhinted = lower(&plan).unwrap();
        let (_, pruned2) = chunk_scan_counters();
        let out2 = execute_physical(&unhinted, &db).unwrap().canonicalized();
        let (_, pruned3) = chunk_scan_counters();
        assert_eq!(pruned3 - pruned2, 0);
        assert_eq!(out2, oracle);
    }

    #[test]
    fn all_pruned_chunks_still_scan_the_delta() {
        let db = chunked_db(512, 2048);
        // Matches only delta rows (ids 2048..2999).
        let plan = LogicalPlan::scan("emp", db.rows["emp"].schema().clone()).select(
            ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(2500)),
        );
        let mut phys = lower(&plan).unwrap();
        phys.push_prune_hints();
        let (scanned0, pruned0) = chunk_scan_counters();
        let out = execute_physical(&phys, &db).unwrap().canonicalized();
        let (scanned1, pruned1) = chunk_scan_counters();
        assert_eq!(scanned1 - scanned0, 0);
        assert_eq!(pruned1 - pruned0, 4);
        assert_eq!(out, eval(&plan, &db.rows).unwrap().canonicalized());
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn pooled_chunked_scan_is_bit_identical_to_serial() {
        // 2048 sealed rows and a delta run inline at every width; two
        // morsels and a half of sealed rows pool.
        let small = chunked_db(512, 2048);
        let big = chunked_db_of(512, (MORSEL_ROWS * 5 / 2) as i64);
        for (db, pools) in [(&small, false), (&big, true)] {
            let plan = LogicalPlan::scan("emp", db.rows["emp"].schema().clone())
                .select(ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(2),
                    ScalarExpr::lit(50.0),
                ))
                .project_cols(&[0, 1])
                .unwrap();
            let mut phys = lower(&plan).unwrap();
            phys.push_prune_hints();
            let bare = lower(&LogicalPlan::scan("emp", db.rows["emp"].schema().clone())).unwrap();
            for workers in [2usize, 4] {
                let pool = prisma_poolx::WorkerPool::new(workers);
                let [serial, pooled] = run_both(&phys, db, &pool);
                assert_eq!(pooled, serial, "workers={workers}");
                assert_eq!(pool.stats().morsels > 0, pools, "workers={workers}");
                // A bare scan runs inline either way, and its whole chunks
                // keep their tag (and with it the cached wire block).
                let morsels = pool.stats().morsels;
                for stream in [None, Some(Arc::clone(&pool))] {
                    let batches = open_batches_pooled(&bare, db, stream)
                        .unwrap()
                        .drain()
                        .unwrap();
                    assert!(batches[..4].iter().all(|b| b.sealed_chunk().is_some()));
                }
                assert_eq!(pool.stats().morsels, morsels, "a bare scan pooled");
            }
        }
    }

    #[test]
    fn whole_chunk_batches_ship_the_cached_wire_block() {
        let db = chunked_db(1024, 2048);
        let chunk = &db.chunked["emp"].chunks()[0];
        let a = Batch::from_sealed_chunk(chunk, None).encode_columnar_shared();
        let b = Batch::from_sealed_chunk(chunk, None).encode_columnar_shared();
        assert!(Arc::ptr_eq(&a, &b), "second ship reuses the cached frame");
        // The cached frame round-trips to exactly the chunk's rows.
        let back = Batch::from_block(&a).unwrap();
        assert_eq!(back.tuples(), &chunk.rows()[..]);
        // An identity projection is a whole-chunk view: still cached.
        let c = Batch::from_sealed_chunk(chunk, Some(&[0, 1, 2])).encode_columnar_shared();
        assert!(Arc::ptr_eq(&a, &c), "identity projection reuses the cache");
        // A narrowing projection is untagged and pays a fresh encode.
        let d = Batch::from_sealed_chunk(chunk, Some(&[0, 1])).encode_columnar_shared();
        assert!(!Arc::ptr_eq(&a, &d));
    }
}
