//! The parallel executor: fragment-parallel query processing over the OFM
//! actors (paper §2.2's intra-query parallelism), running entirely on the
//! physical batch pipeline — the reference evaluator is used only by
//! tests as the semantics oracle.
//!
//! The executor decides nothing about placement: it runs the plan
//! [`prisma_optimizer::lower_physical`] produced, whose exchange nodes say
//! where data moves (the rules live with the lowering). It **cuts** the
//! plan at its exchanges:
//!
//! 1. each topmost `Gather` runs as one fan-out — its input ships to every
//!    fragment of the one base relation it scans, or, over a join of two
//!    `Shuffle`s, runs as a **grace join**: every fragment hash-partitions
//!    its side and streams each bucket **directly at the phase-2 site**
//!    the placement map names, the sites join their buckets and stream
//!    results back, and the coordinator never relays a tuple. A
//!    `Broadcast` input runs first, at the coordinator, and ships with
//!    the fan-out as `__build`;
//! 2. each fan-out's reply batches are spliced in as a scan source, in
//!    column form;
//! 3. the rest of the plan runs once, through the local batch executor.
//!
//! Equal `Gather` inputs in one plan run once (common subexpressions are
//! shared at the cut), and a plan that is one `Gather` pivots its reply
//! batches into the result rows as they arrive, with no further executor
//! pass.
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
//! reach a sink early); a completed stream's chunks are then decoded on
//! the client thread and handed to the fan-out's sink in chunk order.
//! Grace-join buckets ship per produced batch **fragment→fragment**
//! ([`GdhMsg::ShuffleChunk`]); [`ExecMetrics::shuffled_direct_bits`]
//! meters that hop. Chunk order within one stream is restored by
//! [`prisma_multicomputer::StreamReassembly`], which also powers the
//! in-flight-stream gauge; a lost or slow fragment surfaces as a timeout
//! naming the query, the missing fragments, and the time waited. Reply
//! waits run against a **deadline carried across the receive loop** —
//! one reply timeout bounds the whole fan-out.
//!
//! The wire between PEs is columnar: OFMs encode each shipped batch as a
//! typed column block ([`prisma_types::wire`]), so `BatchChunk`/
//! `ShuffleChunk` payloads, the ledger's `wire_bits` metering, and the
//! shuffle-placement weights all see the encoded block size. A frame
//! mangled in flight fails checksum/structure validation and surfaces as
//! a stream error, never a mis-decode.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prisma_multicomputer::StreamReassembly;
use prisma_optimizer::PhysicalConfig;
use prisma_poolx::{ExternalMailbox, PoolRuntime};
use prisma_ofm::{SHUFFLE_LEFT, SHUFFLE_RIGHT};
use prisma_relalg::{
    execute_physical, Batch, ChunkedRelation, ExchangeKind, PhysicalPlan, Relation,
    ShufflePlacement,
};
use prisma_types::{FragmentId, PrismaError, QueryId, Result, Schema, Tuple};

use crate::dictionary::DataDictionary;
use crate::message::{ChunkData, GdhMsg, ShuffleSide};

/// One fan-out's reply streams: each stream's correlation tag paired with
/// the fragment owing it (named in timeout/error messages).
type StreamSet = Vec<(u64, FragmentId)>;

/// The `Gather` inputs a query has spliced in, with their reply batches.
type Memo = Vec<(PhysicalPlan, Arc<ChunkedRelation>)>;

/// One input of a grace join, cut out of the plan at its `Shuffle`.
struct Shuffle {
    /// The base relation whose fragments run `source`.
    relation: String,
    /// What every fragment runs and hash-partitions.
    source: PhysicalPlan,
    /// Columns of `source` the buckets hash on.
    keys: Vec<usize>,
    /// The optimizer's bucket→site map.
    placement: Option<ShufflePlacement>,
}

/// Per-query execution metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecMetrics {
    /// Subplans shipped to fragment actors.
    pub fragment_tasks: u64,
    /// Tuples returned by fragment actors to the coordinator.
    pub tuples_shipped: u64,
    /// Batches returned by fragment actors to the coordinator.
    pub batches_shipped: u64,
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
    /// Morsels executed on the PEs' worker pools during this query —
    /// runs of at least `MORSEL_ROWS` scan rows pushed through a
    /// fragment's scan/filter/probe/project pipeline or folded into an
    /// aggregate's partial table; 0 when no fragment reaches two morsels.
    /// Read PE-side from shared pool counters, never shipped — the wire
    /// protocol is unchanged.
    pub pool_morsels: u64,
    /// Morsels a pool thread (helper or caller) stole from a sibling
    /// during this query —
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

    /// The physical-lowering tunables queries run by this executor are
    /// lowered with (by the GDH, for execution and EXPLAIN alike).
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

    /// Execute a lowered plan ([`prisma_optimizer::lower_physical`]),
    /// returning the result and metrics.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<(Relation, ExecMetrics)> {
        let mut q = self.fresh_query();
        // Pool counters are cumulative per machine; the delta across the
        // query is this query's share (queries on one coordinator run
        // one at a time).
        let pools_before = self.pools.as_ref().map(|p| p.total_stats());
        // Chunk-scan counters are cumulative per process, same as the
        // pool counters: the delta across the query is this query's share.
        let (scanned_before, pruned_before) = prisma_relalg::chunk_scan_counters();
        let rel = match plan {
            // The whole result is one fan-out: its batches pivot into
            // rows as they arrive, with no further executor pass.
            PhysicalPlan::Exchange {
                input,
                kind: ExchangeKind::Gather,
            } => {
                let mut rows: Vec<Tuple> = Vec::new();
                self.fan_out(input, &mut q, &mut Vec::new(), &mut |batch| {
                    rows.extend(batch.into_tuples());
                    Ok(())
                })?;
                Relation::new(input.output_schema()?, rows)
            }
            _ => self.run(plan, &mut q, &mut Vec::new())?,
        };
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
        Ok((rel, q.metrics))
    }

    /// Materialize a full base relation (used by the PRISMAlog evaluator
    /// fallback and by tests).
    pub fn materialize(&self, relation: &str) -> Result<Relation> {
        let gather = PhysicalPlan::Exchange {
            input: Box::new(scan(relation, &self.dictionary.relation(relation)?.schema)),
            kind: ExchangeKind::Gather,
        };
        self.execute(&gather).map(|(rel, _)| rel)
    }

    /// Run `plan` at the coordinator: each topmost `Gather` runs as one
    /// fan-out and is spliced in as a scan of its reply batches, then the
    /// rest runs once through the batch executor.
    fn run(&self, plan: &PhysicalPlan, q: &mut QueryCtx, memo: &mut Memo) -> Result<Relation> {
        let mut rest = plan.clone();
        let mut provider: HashMap<String, Arc<ChunkedRelation>> = HashMap::new();
        self.splice(&mut rest, q, memo, &mut provider)?;
        execute_physical(&rest, &provider)
    }

    /// Replace every topmost `Gather` in `plan` by a scan of its batches.
    /// Equal gathers run once.
    fn splice(
        &self,
        plan: &mut PhysicalPlan,
        q: &mut QueryCtx,
        memo: &mut Memo,
        provider: &mut HashMap<String, Arc<ChunkedRelation>>,
    ) -> Result<()> {
        let PhysicalPlan::Exchange {
            input,
            kind: ExchangeKind::Gather,
        } = plan
        else {
            for child in plan.children_mut() {
                self.splice(child, q, memo, provider)?;
            }
            return Ok(());
        };
        let gathered = match memo.iter().find(|(p, _)| p == input.as_ref()) {
            Some((_, hit)) => Arc::clone(hit),
            None => {
                let mut batches = Vec::new();
                self.fan_out(input, q, memo, &mut |batch| {
                    batches.push(batch);
                    Ok(())
                })?;
                let schema = input.output_schema()?;
                let rel = Arc::new(ChunkedRelation::from_batches(schema, batches));
                memo.push((input.as_ref().clone(), Arc::clone(&rel)));
                rel
            }
        };
        let name = format!("__gather{}", provider.len());
        *plan = scan(&name, gathered.schema());
        provider.insert(name, gathered);
        Ok(())
    }

    /// One `Gather`'s fan-out: its input runs where its data lives and
    /// every reply batch goes to `sink`. The input is cut at its
    /// exchanges first: a `Broadcast` input runs now and ships as
    /// `__build`; the two inputs of a `Shuffle` pair become the sites'
    /// bucket scans.
    fn fan_out(
        &self,
        input: &PhysicalPlan,
        q: &mut QueryCtx,
        memo: &mut Memo,
        sink: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        let mut site_plan = input.clone();
        let mut build = HashMap::new();
        let mut shuffles = Vec::new();
        self.cut(&mut site_plan, q, memo, &mut build, &mut shuffles)?;
        match <[Shuffle; 2]>::try_from(shuffles) {
            Ok([left, right]) => self.partitioned_join(left, right, site_plan, q, sink),
            Err(shuffles) if shuffles.is_empty() => {
                let relation = base_relation(&site_plan).ok_or_else(|| {
                    PrismaError::Execution(format!("gather over no base relation:\n{input}"))
                })?;
                self.stream_fragments(&site_plan, relation, build, q, sink)
            }
            Err(_) => Err(PrismaError::Execution(format!(
                "a gathered join needs exactly two shuffled inputs:\n{input}"
            ))),
        }
    }

    /// Cut a gathered subtree at its `Broadcast` and `Shuffle` exchanges,
    /// replacing each by the scan the fragments or sites read instead.
    fn cut(
        &self,
        plan: &mut PhysicalPlan,
        q: &mut QueryCtx,
        memo: &mut Memo,
        build: &mut HashMap<String, Arc<Relation>>,
        shuffles: &mut Vec<Shuffle>,
    ) -> Result<()> {
        match plan {
            PhysicalPlan::Exchange {
                input,
                kind: ExchangeKind::Broadcast,
            } => {
                q.metrics.broadcast_joins += 1;
                let built = self.run(input, q, memo)?;
                *plan = scan("__build", built.schema());
                build.insert("__build".to_owned(), Arc::new(built));
            }
            PhysicalPlan::Exchange {
                input,
                kind: ExchangeKind::Shuffle { keys, placement },
            } => {
                let name = [SHUFFLE_LEFT, SHUFFLE_RIGHT]
                    .get(shuffles.len())
                    .ok_or_else(|| PrismaError::Execution("a join shuffles two inputs".into()))?;
                let source = input.as_ref().clone();
                let schema = source.output_schema()?;
                let relation = base_relation(&source).ok_or_else(|| {
                    PrismaError::Execution(format!("shuffle over no base relation:\n{source}"))
                })?;
                shuffles.push(Shuffle {
                    relation: relation.to_owned(),
                    source,
                    keys: keys.clone(),
                    placement: placement.clone(),
                });
                *plan = scan(name, &schema);
            }
            _ => {
                for child in plan.children_mut() {
                    self.cut(child, q, memo, build, shuffles)?;
                }
            }
        }
        Ok(())
    }

    /// Hash-partitioned (grace) join. Buckets shuffle **directly
    /// fragment→fragment**: the coordinator installs `site_plan` — the
    /// gathered subtree, reading the two shuffles' buckets as
    /// `SHUFFLE_LEFT`/`SHUFFLE_RIGHT` — at every site the placement map
    /// names, both sides' fragments address their bucket streams straight
    /// at those sites, and the coordinator feeds only the sites' result
    /// streams to `sink`.
    fn partitioned_join(
        &self,
        left: Shuffle,
        right: Shuffle,
        plan: PhysicalPlan,
        q: &mut QueryCtx,
        sink: &mut dyn FnMut(Batch) -> Result<()>,
    ) -> Result<()> {
        q.metrics.partitioned_joins += 1;
        let linfo = self.dictionary.relation(&left.relation)?;
        let rinfo = self.dictionary.relation(&right.relation)?;
        // The optimizer's placement map, or the default it would emit
        // (plans lowered without fragmentation knowledge).
        let placement = left.placement.clone().unwrap_or_else(|| {
            let lfrags: Vec<FragmentId> = linfo.fragments.iter().map(|f| f.id).collect();
            ShufflePlacement::round_robin(
                linfo.fragments.len().max(rinfo.fragments.len()).max(1),
                &lfrags,
            )
        });
        let lschema = left.source.output_schema()?;
        let rschema = right.source.output_schema()?;

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
        for (side, shuffle, info, base) in [
            (ShuffleSide::Left, &left, &linfo, 0u64),
            (ShuffleSide::Right, &right, &rinfo, lbase),
        ] {
            for (i, frag) in info.fragments.iter().enumerate() {
                self.runtime.send(
                    frag.actor,
                    GdhMsg::ShuffleSubplan {
                        query_id: q.query_id,
                        exchange,
                        plan: Box::new(shuffle.source.clone()),
                        key_cols: shuffle.keys.clone(),
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
            for (side, shuffle, base) in [
                (ShuffleSide::Left, &left, 0u64),
                (ShuffleSide::Right, &right, lbase),
            ] {
                let info = self.dictionary.relation(&shuffle.relation)?;
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
                            plan: Box::new(shuffle.source.clone()),
                            key_cols: shuffle.keys.clone(),
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

    /// Ship `physical` (+ `extra` relations) to every fragment actor of
    /// `relation` and stream every reply batch into `sink`.
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
/// the query and fragment, keeps the underlying error's message. An
/// arithmetic fault stays `Arithmetic` — it is the query's data error, the
/// one the oracle raises too, not a failure of the fragment.
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
    match e {
        PrismaError::Arithmetic(fault) => {
            PrismaError::Arithmetic(format!("{query_id}: {who}: {fault}"))
        }
        _ => PrismaError::Execution(format!("{query_id}: {who} stream failed: {e}")),
    }
}

/// The base relation a gathered subtree reads at its fragments: its one
/// scan that is not an executor-internal (`__…`) input.
fn base_relation(plan: &PhysicalPlan) -> Option<&str> {
    match plan {
        PhysicalPlan::SeqScan { relation, .. } if !relation.starts_with("__") => Some(relation),
        _ => plan.children().into_iter().find_map(base_relation),
    }
}

/// A full scan of `name`, unprojected and unpruned.
fn scan(name: &str, schema: &Schema) -> PhysicalPlan {
    PhysicalPlan::SeqScan {
        relation: name.to_owned(),
        schema: schema.clone(),
        projection: None,
        prune: None,
    }
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
    use prisma_poolx::{Ctx, Process, TrafficLedger, COORDINATOR_PE};
    use prisma_stable::DiskProfile;
    use prisma_relalg::LogicalPlan;
    use prisma_types::{tuple, Column, DataType, MachineConfig, PeId, TxnId};

    /// Lower `plan` as the GDH does (without optimizing it) and run it.
    fn run(exec: &ParallelExecutor, plan: &LogicalPlan) -> Result<(Relation, ExecMetrics)> {
        let physical = prisma_optimizer::lower_physical(
            plan,
            &*exec.dictionary,
            exec.physical_config(),
            &mut prisma_optimizer::Trace::sink(),
        )?;
        exec.execute(&physical)
    }

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
        let err = run(&exec, &LogicalPlan::scan("t", test_schema())).unwrap_err();
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

        let (streamed, m) = run(&exec, &plan).unwrap();
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

        let (direct, md) = run(&exec, &join_plan()).unwrap();
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
            let (rows, m) = run(&exec, &join_plan()).unwrap();
            assert_eq!(m.partitioned_joins, 1, "parts={parts:?}: {m:?}");
            assert_eq!(rows.len(), 1300, "parts={parts:?}");
            results.push(rows.canonicalized());
        }
        assert_eq!(results[0].tuples(), results[1].tuples());
        assert_eq!(results[1].tuples(), results[2].tuples());
        runtime.shutdown();
    }

    #[test]
    fn a_projection_above_a_join_runs_where_the_join_runs() {
        let (runtime, dict) = rig(30);
        register_fragmented(&runtime, &dict, "l", 0, &[0..1500, 1500..3000]);
        register_fragmented(&runtime, &dict, "r", 10, &[0..1100, 1100..2200]);
        let rows = |r: std::ops::Range<i64>| {
            Relation::new(test_schema(), r.map(|i| tuple![i, i % 5]).collect())
        };
        let db = HashMap::from([
            ("l".to_owned(), rows(0..3000)),
            ("r".to_owned(), rows(0..2200)),
        ]);
        // One column of the four the join produces, the key not among them.
        let projected = join_plan().project_cols(&[3]).unwrap();
        let mut exec = ParallelExecutor::new(runtime.clone(), dict.clone());
        for (config, grace) in [(grace_config(None), true), (Default::default(), false)] {
            exec.set_physical_config(config);
            let coord_recv = |plan: &LogicalPlan| {
                runtime.ledger().reset();
                let (got, m) = run(&exec, plan).unwrap();
                assert_eq!(m.partitioned_joins, u64::from(grace), "{m:?}");
                assert_eq!(m.broadcast_joins, u64::from(!grace), "{m:?}");
                let want = prisma_relalg::eval(plan, &db).unwrap();
                assert_eq!(got.canonicalized().tuples(), want.canonicalized().tuples());
                runtime.ledger().pe_bytes(COORDINATOR_PE).1
            };
            let bare = coord_recv(&join_plan());
            let narrow = coord_recv(&projected);
            // Re-projected at the coordinator, the projected join would
            // receive exactly the bare join's bytes.
            assert!(narrow < bare, "grace={grace}: {narrow} B vs {bare} B bare");
        }
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
        // A fragment's arithmetic fault stays the query's data error.
        let e = fragment_failure(
            QueryId(9),
            &streams,
            0,
            &PrismaError::Arithmetic("1 / 0".into()),
        );
        assert!(
            matches!(&e, PrismaError::Arithmetic(m) if m.contains("frag3") && m.contains("1 / 0")),
            "{e}"
        );
    }
}
