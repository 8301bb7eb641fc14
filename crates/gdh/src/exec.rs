//! The parallel executor: fragment-parallel query processing over the OFM
//! actors (paper §2.2's intra-query parallelism), running entirely on the
//! physical batch pipeline — the reference evaluator is used only by
//! tests as the semantics oracle.
//!
//! Strategy per operator:
//!
//! * a **pushable** subtree (Select/Project chains over one relation's
//!   scan) is lowered to a physical subplan and shipped to every fragment
//!   of that relation in parallel; per-fragment batch streams are unioned
//!   at the coordinator;
//! * an equi-**join** between two pushable sides whose cardinality
//!   estimates are both large runs as a **hash-partitioned (grace) join**:
//!   every fragment partitions its side by join-key hash and streams each
//!   bucket **directly at the phase-2 site actor owning it** (the
//!   optimizer's shuffle placement map names the site per bucket); the
//!   sites reassemble the peer streams, join their buckets locally, and
//!   stream results back — the coordinator ships plans, awaits the
//!   per-site reply streams, and merges, but never relays a tuple.
//!   Otherwise the smaller (materialized) side is **broadcast** to every
//!   fragment of the pushable side — the classic shared-nothing broadcast
//!   join. The choice comes from the optimizer's cardinality estimates
//!   ([`prisma_optimizer::PhysicalConfig`]);
//! * a decomposable **aggregate** (COUNT/SUM/MIN/MAX) runs below the
//!   exchange and only its partials are merged at the coordinator: one
//!   partial per fragment over a pushable subtree; over a Select/Project
//!   chain on an inner join, one per phase-2 site of a grace join (the
//!   aggregate rides in the site's plan) or per fragment a broadcast
//!   join probes;
//! * everything else executes at the coordinator through the local batch
//!   executor over materialized children;
//! * subtrees reported by the optimizer's common-subexpression detection
//!   are **memoized** as `Arc<Relation>`: the second occurrence reuses the
//!   first result without copying it.
//!
//! ## Pipelined exchanges
//!
//! Fragment replies are **streamed**: each OFM ships every produced batch
//! as its own [`GdhMsg::BatchChunk`] and ends the stream with a
//! [`GdhMsg::StreamEnd`], so the coordinator's merge overlaps fragment
//! scans (the time to the first merged batch is measured in
//! [`ExecMetrics::first_batch_micros`]). Arriving chunks are **staged
//! per stream, still encoded,** until the stream's `StreamEnd` (a stream
//! re-requested after a fault replays from scratch, so nothing of it may
//! reach a sink early); a completed stream's chunks are then decoded and
//! fed to the sink in chunk order on the client thread. Union sinks and
//! broadcast-join build sides pivot each decoded batch into rows — one
//! allocation per row, strings moved out of the decoded columns
//! ([`Batch::into_tuples`]); partial-aggregate merges read the decoded
//! columns as they are. Grace-join buckets ship per produced batch
//! **fragment→fragment** ([`GdhMsg::ShuffleChunk`]) while the
//! coordinator only sees the sites' join-result streams
//! ([`ExecMetrics::shuffled_direct_bits`] meters the direct hop). That
//! is the only grace-join route and streaming is the only reply mode.
//! Chunk order within one stream is restored by
//! [`prisma_multicomputer::StreamReassembly`], which also powers the
//! in-flight-stream gauge; a lost or slow fragment surfaces as a timeout
//! naming the query, the missing fragments, and the time waited. Reply
//! waits run against a **deadline carried across the receive loop** —
//! one reply timeout bounds the whole fan-out, so a slow-trickling
//! stream cannot stall N×timeout before erroring.
//!
//! Inside a fragment, Filter/Project run vectorized over columnar
//! batches ([`prisma_relalg::exec`]'s row/column duality) — and the
//! wire between PEs is columnar too: OFMs encode each shipped batch as
//! a typed column block ([`prisma_types::wire`]), so
//! `BatchChunk`/`ShuffleChunk` payloads, the ledger's `wire_bits`
//! metering, and the shuffle-placement weights all see the encoded
//! block size. The receiver decodes straight back into columnar
//! batches; a frame mangled in flight fails checksum/structure
//! validation and surfaces as a stream error, never a mis-decode.
//! Replica log shipping is row-oriented: it is the recovery path, kept
//! bit-compatible with the WAL.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prisma_multicomputer::StreamReassembly;
use prisma_optimizer::cse::{detect_common_subexpressions, plan_key};
use prisma_optimizer::{lower_physical, PhysicalConfig, Trace};
use prisma_poolx::{ExternalMailbox, PoolRuntime};
use prisma_ofm::{SHUFFLE_LEFT, SHUFFLE_RIGHT};
use prisma_relalg::{
    agg::GroupTable, execute_physical, AggExpr, AggFunc, Batch, JoinKind, JoinStrategy,
    LogicalPlan, PhysicalPlan, Relation, ShufflePlacement,
};
use prisma_types::{FragmentId, PrismaError, QueryId, Result, Schema, Tuple, Value};

use crate::dictionary::DataDictionary;
use crate::message::{ChunkData, GdhMsg, ShuffleSide};

/// One fan-out's reply streams: each stream's correlation tag paired with
/// the fragment owing it (named in timeout/error messages).
type StreamSet = Vec<(u64, FragmentId)>;

/// Per-query execution metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecMetrics {
    /// Subplans shipped to fragment actors.
    pub fragment_tasks: u64,
    /// Tuples returned by fragment actors to the coordinator.
    pub tuples_shipped: u64,
    /// Batches returned by fragment actors to the coordinator.
    pub batches_shipped: u64,
    /// Subtree results served from the CSE memo.
    pub memo_hits: u64,
    /// Joins executed with the broadcast strategy.
    pub broadcast_joins: u64,
    /// Joins executed with the hash-partitioned (grace) strategy.
    pub partitioned_joins: u64,
    /// Repartition subplans shipped for grace joins.
    pub repartition_tasks: u64,
    /// Microseconds from query start until the first streamed batch
    /// reached the coordinator (0 when no fragment batch was shipped).
    /// Far below [`ExecMetrics::full_result_micros`] on scans big enough
    /// to span several batches — the pipelining win.
    pub first_batch_micros: u64,
    /// Microseconds from query start until the full result was merged.
    pub full_result_micros: u64,
    /// High-water mark of reply streams concurrently in flight (streams
    /// opened by a fan-out and not yet terminated by their `StreamEnd`).
    pub max_in_flight_streams: u64,
    /// Bits grace-join buckets moved **directly fragment→fragment** (the
    /// shuffle hop the coordinator never sees), as reported by the
    /// phase-2 sites.
    pub shuffled_direct_bits: u64,
    /// The largest single phase-2 site's share of
    /// [`ExecMetrics::shuffled_direct_bits`] — the shuffle-balance
    /// signal: a skewed join key concentrates this on one site, and the
    /// skew-aware placement exists to push it back down (E8 measures
    /// exactly this).
    pub max_site_shuffled_bits: u64,
    /// Compute workers per PE (1 = the serial baseline, no pools). A
    /// configuration echo, not a measurement — see
    /// [`prisma_types::MachineConfig::effective_ofm_workers`].
    pub pool_workers: u64,
    /// Morsels executed on the PEs' worker pools during this query
    /// (scan/filter/project pipeline morsels, join build chunks, probe
    /// splits, aggregate partials). Read PE-side from shared pool
    /// counters, never shipped — the wire protocol is unchanged.
    pub pool_morsels: u64,
    /// Morsels a pool worker stole from a sibling during this query —
    /// the work-stealing balance signal (0 under even load is fine; 0
    /// under skew means stealing is broken).
    pub pool_steals: u64,
    /// Sealed column chunks actually scanned by this query's fragment
    /// subplans (two-tier fragments only; delta rows are not counted
    /// here). Read PE-side from shared counters, never shipped.
    pub chunks_scanned: u64,
    /// Sealed column chunks skipped whole because their zone maps
    /// refuted the scan's pushed-down predicate — data never touched.
    /// `chunks_pruned / (chunks_scanned + chunks_pruned)` is the E12
    /// prune ratio.
    pub chunks_pruned: u64,
    /// Fragments whose primary died mid-query: the dictionary promoted
    /// the backup replica and the fragment's work was re-issued against
    /// it (E10's recovery signal — 0 on a fault-free run).
    pub failovers: u64,
    /// Reply streams re-requested after a mid-query fault: every
    /// [`ExecMetrics::failovers`] promotion plus re-issues to a living
    /// but starved fragment (a dropped or lost chunk). The re-requested
    /// fraction of total streams is E10's recovery-cost measure.
    pub streams_rerequested: u64,
}

/// A fan-out's recovery policy; every fan-out (subplan fan-outs and the
/// grace join's phase-2 sites) arms one, so a mid-query PE loss is
/// survivable on every path. When the reply deadline fires,
/// [`ParallelExecutor::receive_streams`] retires each still-open stream,
/// promotes its fragment's backup replica if the primary's PE is dead
/// (the dictionary flips the handle and bumps its epoch), and calls
/// `reissue` to ship the lost work at the surviving handle under a fresh
/// correlation tag — completed streams are kept, so only the lost
/// fragment's share is recomputed.
struct Failover<'a> {
    /// Re-issue one lost stream's work: `(handle, old_tag, new_tag)` —
    /// the handle to address (promoted to the backup when the primary
    /// is dead), the retired tag, and the tag the replacement stream
    /// must reply under.
    reissue: &'a mut dyn FnMut(&crate::dictionary::FragmentHandle, u64, u64) -> Result<()>,
    /// Recovery rounds left before a timeout is terminal.
    rounds: u32,
}

/// Per-query execution state threaded through the recursive walk: the
/// query's identity (stamped on every protocol message), its start time
/// (first-batch latency is measured against it), and the metrics being
/// accumulated.
struct QueryCtx {
    query_id: QueryId,
    started: Instant,
    metrics: ExecMetrics,
    /// Next shuffle-exchange id (one per partitioned join of the query).
    next_exchange: u32,
}

impl QueryCtx {
    fn fresh_exchange(&mut self) -> u32 {
        let e = self.next_exchange;
        self.next_exchange += 1;
        e
    }
}

/// The fragment-parallel executor.
pub struct ParallelExecutor {
    runtime: Arc<PoolRuntime<GdhMsg>>,
    dictionary: Arc<DataDictionary>,
    physical_config: PhysicalConfig,
    reply_timeout: Duration,
    next_query: AtomicU32,
    /// The machine's per-PE worker pools, when morsel parallelism is on.
    /// Coordinator-side handle used only to snapshot counters around a
    /// query ([`ExecMetrics::pool_morsels`]); the pools themselves are
    /// driven by the OFM actors.
    pools: Option<Arc<prisma_poolx::PoolSet>>,
    /// The machine's fault injector, doubling as the failure detector:
    /// a reply timeout consults [`prisma_faultx::FaultInjector::is_dead`]
    /// to decide between promoting a fragment's backup replica (PE
    /// dead) and re-asking the living primary (stream starved by a
    /// lost chunk).
    faults: Arc<prisma_faultx::FaultInjector>,
}

impl ParallelExecutor {
    /// Executor over a runtime and dictionary. The reply timeout comes
    /// from the machine configuration ([`prisma_types::MachineConfig::reply_timeout`]).
    pub fn new(runtime: Arc<PoolRuntime<GdhMsg>>, dictionary: Arc<DataDictionary>) -> Self {
        let reply_timeout = dictionary.config().reply_timeout();
        ParallelExecutor {
            runtime,
            dictionary,
            physical_config: PhysicalConfig::default(),
            reply_timeout,
            next_query: AtomicU32::new(0),
            pools: None,
            faults: prisma_faultx::global().clone(),
        }
    }

    /// Use a scripted fault injector as this executor's failure
    /// detector (the GDH threads its machine-wide injector through).
    pub fn set_fault_injector(&mut self, faults: Arc<prisma_faultx::FaultInjector>) {
        self.faults = faults;
    }

    /// Attach the machine's per-PE worker pools so per-query metrics can
    /// report morsel/steal counts.
    pub fn with_pools(mut self, pools: Arc<prisma_poolx::PoolSet>) -> Self {
        self.pools = Some(pools);
        self
    }

    /// The physical-lowering tunables this executor plans with (EXPLAIN
    /// must lower with the same config execution uses).
    pub fn physical_config(&self) -> PhysicalConfig {
        self.physical_config
    }

    /// Override the physical-lowering tunables (e.g. the broadcast-vs-
    /// partition threshold for the E8 experiment).
    pub fn set_physical_config(&mut self, config: PhysicalConfig) {
        self.physical_config = config;
    }

    fn fresh_query(&self) -> QueryCtx {
        QueryCtx {
            query_id: QueryId(self.next_query.fetch_add(1, Ordering::Relaxed)),
            started: Instant::now(),
            metrics: ExecMetrics::default(),
            next_exchange: 0,
        }
    }

    /// Execute a logical plan, returning the result and metrics.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<(Relation, ExecMetrics)> {
        let cse_keys: HashSet<String> = detect_common_subexpressions(plan)
            .into_iter()
            .map(|c| c.key)
            .collect();
        let mut memo: HashMap<String, Arc<Relation>> = HashMap::new();
        let mut q = self.fresh_query();
        // Pool counters are cumulative per machine; the delta across the
        // query is this query's share (queries on one coordinator run
        // one at a time).
        let pools_before = self.pools.as_ref().map(|p| p.total_stats());
        // Chunk-scan counters are cumulative per process, same as the
        // pool counters: the delta across the query is this query's share.
        let (scanned_before, pruned_before) = prisma_relalg::chunk_scan_counters();
        let rel = self.exec_node(plan, &cse_keys, &mut memo, &mut q)?;
        q.metrics.full_result_micros = q.started.elapsed().as_micros().max(1) as u64;
        let (scanned_after, pruned_after) = prisma_relalg::chunk_scan_counters();
        q.metrics.chunks_scanned = scanned_after - scanned_before;
        q.metrics.chunks_pruned = pruned_after - pruned_before;
        if let (Some(pools), Some(before)) = (&self.pools, pools_before) {
            let after = pools.total_stats();
            q.metrics.pool_workers = pools.workers_per_pe().max(1) as u64;
            q.metrics.pool_morsels = after.morsels - before.morsels;
            q.metrics.pool_steals = after.steals - before.steals;
        } else {
            q.metrics.pool_workers = 1;
        }
        Ok((Arc::unwrap_or_clone(rel), q.metrics))
    }

    /// Materialize a full base relation (used by the PRISMAlog evaluator
    /// fallback and by tests).
    pub fn materialize(&self, relation: &str) -> Result<Relation> {
        let info = self.dictionary.relation(relation)?;
        let plan = LogicalPlan::scan(relation, info.schema.clone());
        let mut q = self.fresh_query();
        self.run_on_fragments(&plan, relation, &mut q)
            .map(Arc::unwrap_or_clone)
    }

    /// Lower a (sub)plan for shipping or local execution. The trace is
    /// a sink: nobody reads firings on the execution path, and the
    /// EXPLAIN annotation walks would re-estimate every subtree per
    /// query for nothing.
    fn lower(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        let mut trace = Trace::sink();
        lower_physical(plan, &*self.dictionary, self.physical_config, &mut trace)
    }

    fn exec_node(
        &self,
        plan: &LogicalPlan,
        cse: &HashSet<String>,
        memo: &mut HashMap<String, Arc<Relation>>,
        q: &mut QueryCtx,
    ) -> Result<Arc<Relation>> {
        let key = if cse.is_empty() {
            None
        } else {
            let k = plan_key(plan);
            if cse.contains(&k) { Some(k) } else { None }
        };
        if let Some(k) = &key {
            if let Some(hit) = memo.get(k) {
                q.metrics.memo_hits += 1;
                return Ok(Arc::clone(hit));
            }
        }

        let result = self.exec_inner(plan, cse, memo, q)?;
        if let Some(k) = key {
            memo.insert(k, Arc::clone(&result));
        }
        Ok(result)
    }

    fn exec_inner(
        &self,
        plan: &LogicalPlan,
        cse: &HashSet<String>,
        memo: &mut HashMap<String, Arc<Relation>>,
        q: &mut QueryCtx,
    ) -> Result<Arc<Relation>> {
        // 1. Fragment-parallel pushable subtree.
        if let Some(relation) = pushable_relation(plan) {
            return self.run_on_fragments(plan, &relation, q);
        }
        match plan {
            // 2. Joins between distributed inputs: the join runs below the
            //    exchange, its result streams to the coordinator.
            LogicalPlan::Join {
                kind: JoinKind::Inner,
                ..
            } => {
                let mut out = Vec::new();
                let distributed =
                    self.join_below_exchange(plan, &|join| join, cse, memo, q, &mut |batch| {
                        out.extend(batch.into_tuples());
                        Ok(())
                    })?;
                if distributed {
                    Ok(Arc::new(Relation::new(plan.output_schema()?, out)))
                } else {
                    // Neither side pushable: coordinator-local join.
                    self.local_exec(plan, cse, memo, q)
                }
            }
            // 3. Decomposable aggregates: a partial per fragment — or, over
            //    a join, per phase-2 site (partitioned) / per fragment of
            //    the probed relation (broadcast) — merged incrementally as
            //    the partial batches arrive.
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } if decomposable(aggs) => {
                // The partials' aggregate `i` sits at column `g + i`; COUNT
                // and COUNT(*) partials merge as SUM, the rest as themselves.
                let g = group_by.len();
                let merge_aggs: Vec<AggExpr> = aggs
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        let func = match a.func {
                            AggFunc::CountStar | AggFunc::Count => AggFunc::Sum,
                            func => func,
                        };
                        AggExpr::new(func, g + i, a.name.clone())
                    })
                    .collect();
                let group_cols: Vec<usize> = (0..g).collect();
                let mut merged = GroupTable::new(&group_cols, &merge_aggs);
                let mut sink = |batch: Batch| merged.fold(&batch);
                let distributed = if let Some(relation) = pushable_relation(input) {
                    let physical = self.lower(plan)?;
                    self.stream_fragments(&physical, &relation, HashMap::new(), q, &mut sink)?;
                    true
                } else if let Some(join) = join_under_chain(input) {
                    let above = |join| LogicalPlan::Aggregate {
                        input: Box::new(chain_over(input, join)),
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    };
                    self.join_below_exchange(join, &above, cse, memo, q, &mut sink)?
                } else {
                    false
                };
                if distributed {
                    let mut rows = merged.finish();
                    if g == 0 {
                        // A global aggregate's one row: COUNT over zero
                        // matching rows is 0, not the NULL a SUM-merge of
                        // no partials produces.
                        let row = rows[0]
                            .values()
                            .iter()
                            .zip(aggs)
                            .map(|(v, a)| match a.func {
                                AggFunc::Count | AggFunc::CountStar if v.is_null() => Value::Int(0),
                                _ => v.clone(),
                            });
                        rows[0] = row.collect();
                    }
                    Ok(Arc::new(Relation::new(plan.output_schema()?, rows)))
                } else {
                    self.exec_via_children(plan, cse, memo, q)
                }
            }
            // 4. Recursive operators need their fixpoint bindings intact:
            //    materialize base relations and execute in one piece.
            LogicalPlan::Closure { .. } | LogicalPlan::Fixpoint { .. } => {
                self.local_exec(plan, cse, memo, q)
            }
            // 5. Everything else: execute the children through the
            //    distributed machinery, then apply this one operator at
            //    the coordinator (so a Project above a fragment-parallel
            //    Aggregate does not de-parallelize the aggregate).
            _ => self.exec_via_children(plan, cse, memo, q),
        }
    }

    /// Run an inner join **below the exchange** and stream the batches of
    /// `above(join)` into `sink`, where `above` wraps a join in whatever
    /// the caller wants evaluated with it at the data (nothing for a bare
    /// join; the Select/Project chain and partial aggregate of a
    /// decomposable `GROUP BY`). One lowering of the join decides the
    /// strategy and yields the shippable side plans:
    ///
    /// * both sides pushable and both estimated large — **grace join**:
    ///   `above(⋈)` is the phase-2 plan each shuffle site runs over its
    ///   own buckets;
    /// * otherwise, one side pushable — **broadcast**: the other side is
    ///   materialized (assembling from streamed chunks when it is
    ///   fragment-resident) and `above(⋈)` ships with it to every
    ///   fragment of the pushable side.
    ///
    /// Returns `false`, with nothing shipped and `sink` untouched, when
    /// neither side is pushable.
    fn join_below_exchange(
        &self,
        join: &LogicalPlan,
        above: &dyn Fn(LogicalPlan) -> LogicalPlan,
        cse: &HashSet<String>,
        memo: &mut HashMap<String, Arc<Relation>>,
        q: &mut QueryCtx,
        sink: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<bool> {
        let LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
            residual,
        } = join
        else {
            return Ok(false);
        };
        let joined = |left: LogicalPlan, right: LogicalPlan| {
            above(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind: JoinKind::Inner,
                on: on.clone(),
                residual: residual.clone(),
            })
        };
        if !on.is_empty() {
            if let (Some(lrel), Some(rrel)) = (pushable_relation(left), pushable_relation(right)) {
                if let PhysicalPlan::HashJoin {
                    left: phys_left,
                    right: phys_right,
                    strategy: JoinStrategy::Partitioned,
                    placement,
                    ..
                } = self.lower(join)?
                {
                    self.partitioned_join(
                        *phys_left, &lrel, *phys_right, &rrel, on, placement, &joined, q, sink,
                    )?;
                    return Ok(true);
                }
            }
        }
        for (probe, build, build_is_right) in [(left, right, true), (right, left, false)] {
            let Some(rel) = pushable_relation(probe) else {
                continue;
            };
            q.metrics.broadcast_joins += 1;
            let built = self.exec_node(build, cse, memo, q)?;
            let build_scan = LogicalPlan::scan("__build", built.schema().clone());
            let frag_plan = if build_is_right {
                joined((**probe).clone(), build_scan)
            } else {
                joined(build_scan, (**probe).clone())
            };
            let extra = HashMap::from([("__build".to_owned(), built)]);
            self.stream_fragments(&self.lower(&frag_plan)?, &rel, extra, q, sink)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Hash-partitioned (grace) join. Buckets shuffle **directly
    /// fragment→fragment**: the coordinator installs one phase-2 task per
    /// site named in the shuffle placement map — `site_join` applied to
    /// the two shuffle inputs: the join, under whatever the caller
    /// evaluates with it — both sides' fragments address their bucket
    /// streams straight at those sites, and the coordinator feeds only
    /// the sites' result streams to `sink`.
    #[allow(clippy::too_many_arguments)]
    fn partitioned_join(
        &self,
        left: PhysicalPlan,
        left_rel: &str,
        right: PhysicalPlan,
        right_rel: &str,
        on: &[(usize, usize)],
        placement: Option<ShufflePlacement>,
        site_join: &dyn Fn(LogicalPlan, LogicalPlan) -> LogicalPlan,
        q: &mut QueryCtx,
        sink: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        q.metrics.partitioned_joins += 1;
        let linfo = self.dictionary.relation(left_rel)?;
        let rinfo = self.dictionary.relation(right_rel)?;
        // The optimizer's placement map, or the default it would emit
        // (plans lowered without fragmentation knowledge).
        let placement = placement.unwrap_or_else(|| {
            let lfrags: Vec<FragmentId> = linfo.fragments.iter().map(|f| f.id).collect();
            ShufflePlacement::round_robin(
                linfo.fragments.len().max(rinfo.fragments.len()).max(1),
                &lfrags,
            )
        });

        let lkeys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let rkeys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let lschema = left.output_schema()?;
        let rschema = right.output_schema()?;
        let plan = self.lower(&site_join(
            LogicalPlan::scan(SHUFFLE_LEFT, lschema.clone()),
            LogicalPlan::scan(SHUFFLE_RIGHT, rschema.clone()),
        ))?;

        let exchange = q.fresh_exchange();
        // Resolve each bucket's site fragment to one this relation
        // actually has; a placement naming a stale fragment (plan cached
        // across a re-fragmentation) falls back to round-robin. The
        // resolved map's `by_site` grouping then drives both the task
        // installs and the per-bucket chunk addressing.
        let handle_of = |fid: FragmentId, j: usize| {
            linfo
                .fragments
                .iter()
                .find(|f| f.id == fid)
                .unwrap_or(&linfo.fragments[j % linfo.fragments.len()])
        };
        let resolved = ShufflePlacement {
            parts: placement.parts,
            sites: placement
                .sites
                .iter()
                .enumerate()
                .map(|(j, &fid)| handle_of(fid, j).id)
                .collect(),
        };
        let site_actors: Vec<prisma_types::ProcessId> = resolved
            .sites
            .iter()
            .enumerate()
            .map(|(j, &fid)| handle_of(fid, j).actor)
            .collect();
        let sites: Vec<(&crate::dictionary::FragmentHandle, Vec<usize>)> = resolved
            .by_site()
            .into_iter()
            .map(|(fid, buckets)| {
                let j = buckets[0];
                (handle_of(fid, j), buckets)
            })
            .collect();
        let left_streams: Vec<u64> = (0..linfo.fragments.len() as u64).collect();
        let lbase = linfo.fragments.len() as u64;
        let right_streams: Vec<u64> =
            (0..rinfo.fragments.len() as u64).map(|i| lbase + i).collect();

        // Install every site's phase-2 task first: the runtime's FIFO
        // channels then guarantee the spec reaches each site before any
        // peer chunk sent on its behalf.
        let mailbox = self.runtime.external_mailbox();
        let mut streams: StreamSet = Vec::new();
        for (sidx, (handle, buckets)) in sites.iter().enumerate() {
            self.runtime.send(
                handle.actor,
                GdhMsg::ShuffleJoin {
                    query_id: q.query_id,
                    exchange,
                    plan: Box::new(plan.clone()),
                    lschema: lschema.clone(),
                    rschema: rschema.clone(),
                    buckets: buckets.clone(),
                    left_streams: left_streams.clone(),
                    right_streams: right_streams.clone(),
                    reply_to: mailbox.id,
                    tag: sidx as u64,
                },
            )?;
            q.metrics.fragment_tasks += 1;
            streams.push((sidx as u64, handle.id));
        }
        // Phase 1: both sides' sources, each addressing the sites
        // directly. Fan everything out before collecting anything.
        for (side, physical, info, keys, base) in [
            (ShuffleSide::Left, &left, &linfo, &lkeys, 0u64),
            (ShuffleSide::Right, &right, &rinfo, &rkeys, lbase),
        ] {
            for (i, frag) in info.fragments.iter().enumerate() {
                self.runtime.send(
                    frag.actor,
                    GdhMsg::ShuffleSubplan {
                        query_id: q.query_id,
                        exchange,
                        plan: Box::new(physical.clone()),
                        key_cols: keys.clone(),
                        sites: site_actors.clone(),
                        side,
                        tag: base + i as u64,
                        restrict_to: None,
                    },
                )?;
                q.metrics.repartition_tasks += 1;
            }
        }
        // The coordinator's only data-path work left: merge the sites'
        // join-result streams (the shuffle streams themselves are in
        // flight fragment→fragment, one per (source, site) pair — count
        // them in the gauge).
        let in_flight_shuffles =
            ((left_streams.len() + right_streams.len()) * sites.len()) as u64;
        // Failover for a lost phase-2 site: re-install its join task at
        // the surviving handle under a fresh exchange id (the high half
        // keyed by recovery round, so a half-fed exchange at a starved
        // site never collides), and re-run both sides' sources with the
        // shuffle **restricted to that one site** — bucket boundaries
        // are unchanged because the site vector keeps every slot, only
        // the lost site's slots are flipped to the replacement actor.
        // Sources are looked up fresh from the dictionary each time: a
        // source whose own PE died is failed over to its backup replica
        // here, before it is re-asked to shuffle.
        let qid = q.query_id;
        let reply_to = mailbox.id;
        let sites_ref = &sites;
        // Backup promotions performed on *source* fragments inside the
        // re-issue (the coordinator only watches site streams, so a dead
        // source surfaces here, not in the receive loop's own check).
        let source_failovers = std::cell::Cell::new(0u64);
        let mut reissue = |handle: &crate::dictionary::FragmentHandle,
                           old_tag: u64,
                           new_tag: u64|
         -> Result<()> {
            let sidx = (old_tag & 0xffff_ffff) as usize;
            let retry_exchange = exchange | (((new_tag >> 32) as u32) << 16);
            self.runtime.send(
                handle.actor,
                GdhMsg::ShuffleJoin {
                    query_id: qid,
                    exchange: retry_exchange,
                    plan: Box::new(plan.clone()),
                    lschema: lschema.clone(),
                    rschema: rschema.clone(),
                    buckets: sites_ref[sidx].1.clone(),
                    left_streams: left_streams.clone(),
                    right_streams: right_streams.clone(),
                    reply_to,
                    tag: new_tag,
                },
            )?;
            let new_site_actors: Vec<prisma_types::ProcessId> = resolved
                .sites
                .iter()
                .enumerate()
                .map(|(j, &fid)| {
                    if fid == handle.id {
                        handle.actor
                    } else {
                        site_actors[j]
                    }
                })
                .collect();
            for (side, rel, physical, keys, base) in [
                (ShuffleSide::Left, left_rel, &left, &lkeys, 0u64),
                (ShuffleSide::Right, right_rel, &right, &rkeys, lbase),
            ] {
                let info = self.dictionary.relation(rel)?;
                for (i, frag) in info.fragments.iter().enumerate() {
                    let src = if self.faults.is_dead(frag.pe) {
                        source_failovers.set(source_failovers.get() + 1);
                        self.dictionary.fail_over_fragment(frag.id)?
                    } else {
                        frag.clone()
                    };
                    self.runtime.send(
                        src.actor,
                        GdhMsg::ShuffleSubplan {
                            query_id: qid,
                            exchange: retry_exchange,
                            plan: Box::new(physical.clone()),
                            key_cols: keys.to_vec(),
                            sites: new_site_actors.clone(),
                            side,
                            tag: base + i as u64,
                            restrict_to: Some(handle.actor),
                        },
                    )?;
                }
            }
            Ok(())
        };
        let failover = Failover {
            reissue: &mut reissue,
            rounds: 2,
        };
        self.receive_streams(&mailbox, streams, in_flight_shuffles, q, failover, sink)?;
        q.metrics.failovers += source_failovers.get();
        Ok(())
    }

    /// Receive one fan-out's reply streams, feeding every batch to `sink`:
    /// restore per-stream order through [`StreamReassembly`], stage each
    /// stream's released chunks until it completes, then decode, count and
    /// sink them in chunk order. Stamps the query's
    /// first-batch latency on the first arriving chunk; returns once every
    /// stream has delivered its `StreamEnd`, after cross-checking each
    /// stream's advertised row count against the rows actually released.
    /// A fragment-local error fails the query naming the query and
    /// fragment.
    ///
    /// A reply timeout is survivable while `failover` has rounds left:
    /// each still-open stream is retired (late chunks from the old
    /// attempt are silently dropped by the reassembly), its fragment's
    /// backup replica is promoted when the primary's PE is dead, and the
    /// stream is re-requested under a fresh tag — then the deadline
    /// resets and the merge resumes. Because a re-issued stream replays
    /// from scratch, released chunks are **staged per stream** and only
    /// fed to `sink` once their stream completes, so a replaced stream's
    /// partial delivery never double-counts; the merged result is
    /// bit-identical to a fault-free run. Out of rounds, the timeout
    /// names the query, the fragments still owing chunks, and the time
    /// waited.
    fn receive_streams(
        &self,
        mailbox: &ExternalMailbox<GdhMsg>,
        mut streams: StreamSet,
        extra_in_flight: u64,
        q: &mut QueryCtx,
        mut failover: Failover<'_>,
        sink: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        let mut reassembly: StreamReassembly<ChunkData> =
            StreamReassembly::expecting(streams.iter().map(|&(t, _)| t));
        q.metrics.max_in_flight_streams = q
            .metrics
            .max_in_flight_streams
            .max(streams.len() as u64 + extra_in_flight);
        let waited = Instant::now();
        // One reply timeout bounds the whole fan-out: the deadline is
        // carried across the loop, so each received message narrows the
        // remaining wait instead of resetting the clock (a slow-trickling
        // stream used to stall N×timeout before erroring). A failover
        // round is the only thing that re-arms it.
        let mut deadline = waited + self.reply_timeout;
        // Recovery-round stamp: round r re-requests stream `t` as tag
        // `(t & 0xffff_ffff) | (r << 32)` — unique against every earlier
        // attempt, and the low half keeps the original fan-out index.
        let mut round: u64 = 0;
        let mut staged: HashMap<u64, Vec<ChunkData>> = HashMap::new();
        let mut released: Vec<ChunkData> = Vec::new();
        let mut rows_released: HashMap<u64, u64> = HashMap::new();
        let mut rows_advertised: HashMap<u64, u64> = HashMap::new();
        // Per-stream traffic stats, folded into the query metrics only
        // once the whole fan-out completes. Folding at `StreamEnd` used
        // to double-count: a stream whose end arrived but was then
        // retired (lost chunk → failover re-request) had its bits
        // counted once for the dead attempt and again when the
        // replacement stream ended.
        let mut stream_stats: HashMap<u64, crate::message::StreamStats> = HashMap::new();
        while !reassembly.all_complete() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match mailbox.recv_timeout(remaining) {
                Ok(m) => m,
                Err(_) => {
                    if failover.rounds == 0 {
                        return Err(self.stream_timeout(q, waited, &reassembly, &streams));
                    }
                    failover.rounds -= 1;
                    round += 1;
                    for tag in reassembly.open_streams() {
                        let pos = streams
                            .iter()
                            .position(|&(t, _)| t == tag)
                            .expect("every expected stream is tracked");
                        let frag = streams[pos].1;
                        let handle = self
                            .dictionary
                            .fragment_handle(frag)
                            .ok_or(PrismaError::NoSuchFragment(frag))?;
                        // Promote the backup replica only when the
                        // primary's PE is actually dead; a living but
                        // starved fragment (dropped chunk, starved
                        // phase-2 site) is simply re-asked.
                        let handle = if self.faults.is_dead(handle.pe) {
                            q.metrics.failovers += 1;
                            self.dictionary.fail_over_fragment(frag).map_err(|e| {
                                PrismaError::MachineFault(format!(
                                    "{}: cannot recover {frag}: {e}",
                                    q.query_id
                                ))
                            })?
                        } else {
                            handle
                        };
                        let new_tag = (tag & 0xffff_ffff) | (round << 32);
                        reassembly.retire(tag);
                        reassembly.expect(new_tag);
                        staged.remove(&tag);
                        rows_released.remove(&tag);
                        rows_advertised.remove(&tag);
                        stream_stats.remove(&tag);
                        streams[pos].0 = new_tag;
                        (failover.reissue)(&handle, tag, new_tag)?;
                        q.metrics.streams_rerequested += 1;
                    }
                    deadline = Instant::now() + self.reply_timeout;
                    continue;
                }
            };
            match msg {
                GdhMsg::BatchChunk {
                    query_id,
                    tag,
                    seq,
                    data,
                } if query_id == q.query_id => {
                    if q.metrics.first_batch_micros == 0 {
                        q.metrics.first_batch_micros =
                            q.started.elapsed().as_micros().max(1) as u64;
                    }
                    released.clear();
                    reassembly.accept(tag, seq, data, &mut released)?;
                    for chunk in released.drain(..) {
                        staged.entry(tag).or_default().push(chunk);
                    }
                }
                GdhMsg::StreamEnd {
                    query_id,
                    tag,
                    seq_count,
                    result,
                } if query_id == q.query_id => {
                    // A straggler end from a retired attempt (the dead
                    // primary limping on, or a delayed duplicate) must
                    // not fail or pollute the replacement stream.
                    if reassembly.is_retired(tag) {
                        continue;
                    }
                    match result {
                        Ok(stats) => {
                            rows_advertised.insert(tag, stats.rows);
                            stream_stats.insert(tag, stats);
                            reassembly.finish(tag, seq_count)?;
                            // Flush the stream's staged chunks only once
                            // it is genuinely complete — a lost chunk
                            // leaves it open (the end marker advertises
                            // more seqs than arrived) for failover.
                            if !reassembly.open_streams().contains(&tag) {
                                for chunk in staged.remove(&tag).unwrap_or_default() {
                                    // Decode at the merge: a column block
                                    // that fails its checksum or structure
                                    // validation fails the query as a
                                    // protocol error instead of feeding
                                    // the sink garbage.
                                    let batch = chunk.into_batch()?;
                                    let rows = batch.len() as u64;
                                    q.metrics.batches_shipped += 1;
                                    q.metrics.tuples_shipped += rows;
                                    sink(batch)?;
                                    *rows_released.entry(tag).or_default() += rows;
                                }
                            }
                        }
                        Err(e) => return Err(fragment_failure(q.query_id, &streams, tag, &e)),
                    }
                }
                GdhMsg::BatchChunk { query_id, .. } | GdhMsg::StreamEnd { query_id, .. } => {
                    return Err(PrismaError::Execution(format!(
                        "{}: reply for foreign {query_id} on this query's mailbox",
                        q.query_id
                    )))
                }
                unexpected => {
                    return Err(PrismaError::Execution(format!(
                        "{}: unexpected reply {unexpected:?}",
                        q.query_id
                    )))
                }
            }
        }
        // Every stream completed: fold each surviving stream's traffic
        // stats exactly once (retired attempts were dropped above).
        for stats in stream_stats.values() {
            q.metrics.shuffled_direct_bits += stats.shuffled_bits;
            q.metrics.max_site_shuffled_bits =
                q.metrics.max_site_shuffled_bits.max(stats.shuffled_bits);
        }
        // And the rows each fragment said it shipped must be the rows
        // that came out of reassembly.
        for &(tag, frag) in &streams {
            let advertised = rows_advertised.get(&tag).copied().unwrap_or(0);
            let released = rows_released.get(&tag).copied().unwrap_or(0);
            if advertised != released {
                return Err(PrismaError::Execution(format!(
                    "{}: {frag} advertised {advertised} row(s) but {released} arrived",
                    q.query_id
                )));
            }
        }
        Ok(())
    }

    /// The timeout error for a fan-out with incomplete streams: names the
    /// query, how long the coordinator waited, and which fragments still
    /// owe chunks or their end-of-stream marker.
    fn stream_timeout(
        &self,
        q: &QueryCtx,
        waited: Instant,
        reassembly: &StreamReassembly<ChunkData>,
        streams: &[(u64, FragmentId)],
    ) -> PrismaError {
        let open = reassembly.open_streams();
        let missing: Vec<String> = open
            .iter()
            .map(|t| match streams.iter().find(|(tag, _)| tag == t) {
                Some((_, frag)) => format!("{frag} (stream {t})"),
                None => format!("stream {t}"),
            })
            .collect();
        PrismaError::Execution(format!(
            "{}: reply timeout after {:.3}s — {} of {} fragment stream(s) incomplete: [{}]",
            q.query_id,
            waited.elapsed().as_secs_f64(),
            open.len(),
            streams.len(),
            missing.join(", ")
        ))
    }

    /// Execute each child distributed, splice the results in as
    /// `Arc`-shared provider entries behind synthetic scan names, and run
    /// only this node through the local batch executor (no copies of the
    /// child results are made).
    fn exec_via_children(
        &self,
        plan: &LogicalPlan,
        cse: &HashSet<String>,
        memo: &mut HashMap<String, Arc<Relation>>,
        q: &mut QueryCtx,
    ) -> Result<Arc<Relation>> {
        let mut provider: HashMap<String, Arc<Relation>> = HashMap::new();
        let mut spliced = Vec::new();
        for (i, child) in plan.children().into_iter().enumerate() {
            let rel = self.exec_node(child, cse, memo, q)?;
            let name = format!("__child{i}");
            spliced.push(LogicalPlan::scan(&name, rel.schema().clone()));
            provider.insert(name, rel);
        }
        let mut it = spliced.into_iter();
        let mut next = || it.next().expect("children arity matches");
        let rebuilt = match plan.clone() {
            LogicalPlan::Select { predicate, .. } => LogicalPlan::Select {
                input: Box::new(next()),
                predicate,
            },
            LogicalPlan::Project { exprs, schema, .. } => LogicalPlan::Project {
                input: Box::new(next()),
                exprs,
                schema,
            },
            LogicalPlan::Join {
                kind, on, residual, ..
            } => LogicalPlan::Join {
                left: Box::new(next()),
                right: Box::new(next()),
                kind,
                on,
                residual,
            },
            LogicalPlan::Union { all, .. } => LogicalPlan::Union {
                left: Box::new(next()),
                right: Box::new(next()),
                all,
            },
            LogicalPlan::Difference { .. } => LogicalPlan::Difference {
                left: Box::new(next()),
                right: Box::new(next()),
            },
            LogicalPlan::Distinct { .. } => LogicalPlan::Distinct {
                input: Box::new(next()),
            },
            LogicalPlan::Aggregate { group_by, aggs, .. } => LogicalPlan::Aggregate {
                input: Box::new(next()),
                group_by,
                aggs,
            },
            LogicalPlan::Sort { keys, .. } => LogicalPlan::Sort {
                input: Box::new(next()),
                keys,
            },
            LogicalPlan::Limit { n, .. } => LogicalPlan::Limit {
                input: Box::new(next()),
                n,
            },
            leaf => leaf,
        };
        Ok(Arc::new(execute_physical(&self.lower(&rebuilt)?, &provider)?))
    }

    /// Execute `plan` at the coordinator through the batch executor,
    /// materializing each free base relation via the distributed machinery
    /// into an `Arc`-shared provider (fixpoint bindings stay intact).
    fn local_exec(
        &self,
        plan: &LogicalPlan,
        cse: &HashSet<String>,
        memo: &mut HashMap<String, Arc<Relation>>,
        q: &mut QueryCtx,
    ) -> Result<Arc<Relation>> {
        let mut provider: HashMap<String, Arc<Relation>> = HashMap::new();
        for name in plan.scanned_relations() {
            if provider.contains_key(&name) {
                continue;
            }
            let info = self.dictionary.relation(&name)?;
            let scan = LogicalPlan::scan(&name, info.schema.clone());
            let rel = self.exec_node(&scan, cse, memo, q)?;
            provider.insert(name, rel);
        }
        Ok(Arc::new(execute_physical(&self.lower(plan)?, &provider)?))
    }

    /// Lower `plan`, ship it to every fragment actor of `relation`, and
    /// union the reply streams into a relation — each stream's rows are
    /// appended when it completes, while other fragments are still
    /// scanning.
    fn run_on_fragments(
        &self,
        plan: &LogicalPlan,
        relation: &str,
        q: &mut QueryCtx,
    ) -> Result<Arc<Relation>> {
        let physical = self.lower(plan)?;
        let mut out: Vec<Tuple> = Vec::new();
        self.stream_fragments(&physical, relation, HashMap::new(), q, &mut |batch| {
            out.extend(batch.into_tuples());
            Ok(())
        })?;
        Ok(Arc::new(Relation::new(physical.output_schema()?, out)))
    }

    /// Ship `physical` (+ `extra` relations) to every fragment actor of
    /// `relation` and stream every reply batch into `sink` (incremental
    /// consumers: partial-aggregate merge, union sinks).
    fn stream_fragments(
        &self,
        physical: &PhysicalPlan,
        relation: &str,
        extra: HashMap<String, Arc<Relation>>,
        q: &mut QueryCtx,
        sink: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        let info = self.dictionary.relation(relation)?;
        let mailbox = self.runtime.external_mailbox();
        let mut streams = Vec::with_capacity(info.fragments.len());
        for (i, frag) in info.fragments.iter().enumerate() {
            self.runtime.send(
                frag.actor,
                GdhMsg::RunSubplan {
                    query_id: q.query_id,
                    plan: Box::new(physical.clone()),
                    extra: extra.clone(),
                    reply_to: mailbox.id,
                    tag: i as u64,
                },
            )?;
            q.metrics.fragment_tasks += 1;
            streams.push((i as u64, frag.id));
        }
        // Failover: re-run the lost fragment's subplan at the handle
        // the coordinator was given back — the promoted backup replica
        // when the primary died, the primary itself when only a chunk
        // was lost — under the replacement tag.
        let qid = q.query_id;
        let reply_to = mailbox.id;
        let mut reissue = |handle: &crate::dictionary::FragmentHandle,
                           _old: u64,
                           new_tag: u64|
         -> Result<()> {
            self.runtime.send(
                handle.actor,
                GdhMsg::RunSubplan {
                    query_id: qid,
                    plan: Box::new(physical.clone()),
                    extra: extra.clone(),
                    reply_to,
                    tag: new_tag,
                },
            )
        };
        let failover = Failover {
            reissue: &mut reissue,
            rounds: 2,
        };
        self.receive_streams(&mailbox, streams, 0, q, failover, sink)
    }
}

/// The error for a stream cut short by a fragment-local failure: names
/// the query and fragment, keeps the underlying error's message.
fn fragment_failure(
    query_id: QueryId,
    streams: &[(u64, FragmentId)],
    tag: u64,
    e: &PrismaError,
) -> PrismaError {
    let who = match streams.iter().find(|(t, _)| *t == tag) {
        Some((_, frag)) => format!("{frag}"),
        None => format!("stream {tag}"),
    };
    PrismaError::Execution(format!("{query_id}: {who} stream failed: {e}"))
}

/// If `plan` is a Select/Project chain over exactly one base-relation
/// scan, return that relation's name.
///
/// Distinct is excluded (local dedup ≠ global dedup under bag semantics is
/// fine, but a parent expecting set semantics must dedup globally — the
/// coordinator path handles that). Closure is excluded: the closure of a
/// union of fragments is not the union of per-fragment closures.
fn pushable_relation(plan: &LogicalPlan) -> Option<String> {
    match plan {
        LogicalPlan::Scan { relation, .. } => {
            if relation.starts_with("__") || relation.starts_with('Δ') {
                None // executor-internal or fixpoint binding
            } else {
                Some(relation.clone())
            }
        }
        LogicalPlan::Select { input, .. } | LogicalPlan::Project { input, .. } => {
            pushable_relation(input)
        }
        _ => None,
    }
}

/// The inner join at the bottom of `plan`'s Select/Project chain, if that
/// is what the chain sits on — the join counterpart of
/// [`pushable_relation`]: such a chain runs wherever the join does.
fn join_under_chain(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        LogicalPlan::Join {
            kind: JoinKind::Inner,
            ..
        } => Some(plan),
        LogicalPlan::Select { input, .. } | LogicalPlan::Project { input, .. } => {
            join_under_chain(input)
        }
        _ => None,
    }
}

/// `chain`'s Select/Project operators rebuilt over `join` in place of the
/// join [`join_under_chain`] found at its bottom.
fn chain_over(chain: &LogicalPlan, join: LogicalPlan) -> LogicalPlan {
    match chain {
        LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
            input: Box::new(chain_over(input, join)),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(chain_over(input, join)),
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        _ => join,
    }
}

fn decomposable(aggs: &[AggExpr]) -> bool {
    aggs.iter().all(|a| a.func.decomposable())
}

/// Schema helper re-exported for the facade.
pub fn scan_of(dictionary: &DataDictionary, relation: &str) -> Result<LogicalPlan> {
    let info = dictionary.relation(relation)?;
    Ok(LogicalPlan::scan(relation, info.schema))
}

#[allow(dead_code)]
fn _assert_send() {
    fn is_send<T: Send>() {}
    is_send::<GdhMsg>();
    is_send::<Schema>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{FragmentHandle, RelationInfo};
    use crate::message::OfmActor;
    use prisma_multicomputer::CostModel;
    use prisma_ofm::{Ofm, OfmKind};
    use prisma_poolx::{Ctx, Process, TrafficLedger};
    use prisma_stable::DiskProfile;
    use prisma_types::{tuple, Column, DataType, MachineConfig, PeId, TxnId};

    fn test_schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ])
    }

    fn rig(
        reply_timeout_secs: u64,
    ) -> (Arc<PoolRuntime<GdhMsg>>, Arc<DataDictionary>) {
        let cfg = MachineConfig::paper_prototype()
            .with_pes(2)
            .with_reply_timeout_secs(reply_timeout_secs);
        let ledger = Arc::new(TrafficLedger::new(CostModel::new(&cfg).unwrap()));
        let runtime = PoolRuntime::start(2, ledger);
        let dict = Arc::new(DataDictionary::new(cfg, DiskProfile::instant()));
        (runtime, dict)
    }

    fn loaded_ofm(id: u32, rows: std::ops::Range<i64>) -> Ofm {
        loaded_ofm_named(id, "t", rows)
    }

    fn loaded_ofm_named(id: u32, relation: &str, rows: std::ops::Range<i64>) -> Ofm {
        let mut ofm = Ofm::new(FragmentId(id), relation, test_schema(), OfmKind::Transient);
        // Pin the seal threshold to the default batch size so tests that
        // assert exact batch counts are immune to the `SEAL_EVERY` lane
        // (sealed chunks ship one batch each).
        ofm.fragment_mut().set_seal_rows(1024);
        let txn = TxnId(1);
        for i in rows {
            ofm.insert(txn, tuple![i, i % 5]).unwrap();
        }
        ofm.commit(txn).unwrap();
        ofm
    }

    /// Register `relation` over `frag_rows.len()` fragments (one OFM actor
    /// per row range, round-robin over the PEs).
    fn register_fragmented(
        runtime: &Arc<PoolRuntime<GdhMsg>>,
        dict: &Arc<DataDictionary>,
        relation: &str,
        first_id: u32,
        frag_rows: &[std::ops::Range<i64>],
    ) {
        let pes = runtime.num_pes();
        let fragments = frag_rows
            .iter()
            .enumerate()
            .map(|(i, rows)| {
                let id = first_id + i as u32;
                let pe = PeId::from(i % pes);
                let actor = runtime
                    .spawn(
                        pe,
                        Box::new(OfmActor::new(loaded_ofm_named(id, relation, rows.clone()))),
                    )
                    .unwrap();
                FragmentHandle::new(FragmentId(id), pe, actor)
            })
            .collect();
        dict.register(
            relation,
            RelationInfo {
                schema: test_schema(),
                frag_column: None,
                fragments,
            },
        )
        .unwrap();
    }

    /// An actor that swallows every request — a fragment that hangs.
    struct SilentActor;
    impl Process<GdhMsg> for SilentActor {
        fn handle(&mut self, _msg: GdhMsg, _ctx: &mut Ctx<'_, GdhMsg>) {}
    }

    #[test]
    fn slow_fragment_timeout_names_query_fragment_and_elapsed() {
        let (runtime, dict) = rig(1);
        let a0 = runtime
            .spawn(PeId(0), Box::new(OfmActor::new(loaded_ofm(0, 0..10))))
            .unwrap();
        let a1 = runtime.spawn(PeId(1), Box::new(SilentActor)).unwrap();
        dict.register(
            "t",
            RelationInfo {
                schema: test_schema(),
                frag_column: None,
                fragments: vec![
                    FragmentHandle::new(FragmentId(0), PeId(0), a0),
                    FragmentHandle::new(FragmentId(7), PeId(1), a1),
                ],
            },
        )
        .unwrap();
        let exec = ParallelExecutor::new(runtime.clone(), dict.clone());
        let err = exec
            .execute(&LogicalPlan::scan("t", test_schema()))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("q0"), "query id missing: {msg}");
        assert!(msg.contains("frag7"), "hung fragment not named: {msg}");
        assert!(!msg.contains("frag0"), "healthy fragment blamed: {msg}");
        assert!(msg.contains("reply timeout after"), "no elapsed time: {msg}");
        assert!(msg.contains("1 of 2 fragment stream(s)"), "{msg}");
        runtime.shutdown();
    }

    #[test]
    fn multi_chunk_streams_deliver_every_batch_and_meter_it() {
        let (runtime, dict) = rig(30);
        // 3000 rows per fragment → 3 batches each: real multi-chunk streams.
        let a0 = runtime
            .spawn(PeId(0), Box::new(OfmActor::new(loaded_ofm(0, 0..3000))))
            .unwrap();
        let a1 = runtime
            .spawn(PeId(1), Box::new(OfmActor::new(loaded_ofm(1, 3000..6000))))
            .unwrap();
        dict.register(
            "t",
            RelationInfo {
                schema: test_schema(),
                frag_column: None,
                fragments: vec![
                    FragmentHandle::new(FragmentId(0), PeId(0), a0),
                    FragmentHandle::new(FragmentId(1), PeId(1), a1),
                ],
            },
        )
        .unwrap();
        let plan = LogicalPlan::scan("t", test_schema());
        let exec = ParallelExecutor::new(runtime.clone(), dict.clone());

        let (streamed, m) = exec.execute(&plan).unwrap();
        let want: Vec<Tuple> = (0..6000).map(|i| tuple![i, i % 5]).collect();
        assert_eq!(streamed.canonicalized().tuples(), want);
        assert_eq!(m.tuples_shipped, 6000);
        assert_eq!(m.batches_shipped, 6, "3 batches per fragment: {m:?}");
        assert!(m.first_batch_micros > 0, "{m:?}");
        assert!(
            m.first_batch_micros <= m.full_result_micros,
            "first batch cannot arrive after the full result: {m:?}"
        );
        assert_eq!(m.max_in_flight_streams, 2, "{m:?}");
        runtime.shutdown();
    }

    /// Force every equi-join onto the grace path (estimates without
    /// stats default to 1000 rows per side, above a 0-row broadcast cap).
    fn grace_config(shuffle_parts: Option<usize>) -> prisma_optimizer::PhysicalConfig {
        prisma_optimizer::PhysicalConfig {
            broadcast_max_rows: 0.0,
            shuffle_parts,
            ..prisma_optimizer::PhysicalConfig::default()
        }
    }

    fn join_plan() -> LogicalPlan {
        LogicalPlan::scan("l", test_schema())
            .join(LogicalPlan::scan("r", test_schema()), vec![(0, 0)])
    }

    #[test]
    fn direct_shuffle_matches_the_oracle_and_meters_the_hop() {
        let (runtime, dict) = rig(30);
        // 2 left fragments host the phase-2 sites; 2 right fragments.
        register_fragmented(&runtime, &dict, "l", 0, &[0..1500, 1500..3000]);
        register_fragmented(&runtime, &dict, "r", 10, &[0..1100, 1100..2200]);
        let mut exec = ParallelExecutor::new(runtime.clone(), dict.clone());
        exec.set_physical_config(grace_config(None));

        let (direct, md) = exec.execute(&join_plan()).unwrap();
        assert_eq!(md.partitioned_joins, 1, "{md:?}");
        assert_eq!(md.repartition_tasks, 4, "2 left + 2 right sources: {md:?}");
        assert!(
            md.shuffled_direct_bits > 0,
            "no fragment→fragment bits metered: {md:?}"
        );
        // 2200 joined rows exist (keys 0..2200 intersect), so the result
        // is non-trivial.
        assert_eq!(direct.len(), 2200);
        let direct = direct.canonicalized();
        let rows = |r: std::ops::Range<i64>| {
            Relation::new(test_schema(), r.map(|i| tuple![i, i % 5]).collect())
        };
        let db = HashMap::from([
            ("l".to_owned(), rows(0..3000)),
            ("r".to_owned(), rows(0..2200)),
        ]);
        let oracle = prisma_relalg::eval(&join_plan(), &db).unwrap();
        assert_eq!(
            direct.tuples(),
            oracle.canonicalized().tuples(),
            "grace join must agree with the reference evaluator"
        );

        runtime.shutdown();
    }

    #[test]
    fn direct_shuffle_survives_bucket_count_fragment_count_mismatches() {
        let (runtime, dict) = rig(30);
        // Mismatched fragment counts: 2 left sites, 1 right source.
        register_fragmented(&runtime, &dict, "l", 0, &[0..900, 900..1800]);
        register_fragmented(&runtime, &dict, "r", 10, std::slice::from_ref(&(0..1300)));
        let mut exec = ParallelExecutor::new(runtime.clone(), dict.clone());

        // More buckets than fragments, fewer buckets than fragments, and
        // the default — all must agree.
        let mut results = Vec::new();
        for parts in [Some(7), Some(1), None] {
            exec.set_physical_config(grace_config(parts));
            let (rows, m) = exec.execute(&join_plan()).unwrap();
            assert_eq!(m.partitioned_joins, 1, "parts={parts:?}: {m:?}");
            assert_eq!(rows.len(), 1300, "parts={parts:?}");
            results.push(rows.canonicalized());
        }
        assert_eq!(results[0].tuples(), results[1].tuples());
        assert_eq!(results[1].tuples(), results[2].tuples());
        runtime.shutdown();
    }

    #[test]
    fn fragment_failure_error_names_query_and_fragment() {
        let streams: StreamSet = vec![(0, FragmentId(3))];
        let e = fragment_failure(
            QueryId(9),
            &streams,
            0,
            &PrismaError::UnknownRelation("ghost".into()),
        );
        let msg = e.to_string();
        assert!(msg.contains("q9"), "{msg}");
        assert!(msg.contains("frag3"), "{msg}");
        assert!(msg.contains("ghost"), "{msg}");
    }
}
