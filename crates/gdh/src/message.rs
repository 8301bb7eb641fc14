//! The GDH ↔ OFM message protocol.
//!
//! Everything the supervisor asks of a One-Fragment Manager travels as a
//! message to the OFM's actor on its PE (no shared memory, paper §3.1);
//! results come back to the requester's mailbox. Each request carries a
//! `tag` so a coordinator fanning out to many fragments can match replies.
//!
//! ## Streamed result shipping
//!
//! Query results do **not** come back as one reply. A [`GdhMsg::RunSubplan`]
//! opens a *batch stream*: the OFM ships every produced batch as its own
//! [`GdhMsg::BatchChunk`] (sequence-numbered per stream) the moment the
//! executor yields it, and terminates the stream with a
//! [`GdhMsg::StreamEnd`] carrying the chunk count and per-stream stats —
//! so the coordinator merges early batches while the fragment is still
//! scanning (pipelined parallelism across PEs, the paper's intra-query
//! parallelism applied to the exchange itself). The coordinator
//! reassembles per-stream order with
//! [`prisma_multicomputer::StreamReassembly`]; errors and timeouts are
//! reported per stream with the owning query and fragment named.
//!
//! ## Direct fragment→fragment shuffle (grace joins)
//!
//! Grace-join buckets never touch the coordinator: it installs one [`GdhMsg::ShuffleJoin`] task per phase-2
//! site (a fragment actor of the probe relation, chosen by the
//! optimizer's shuffle placement map) and sends both sides'
//! [`GdhMsg::ShuffleSubplan`]s. Each source fragment hash-partitions
//! every produced batch and addresses bucket `j`'s rows **straight at
//! the site owning bucket `j`** as a [`GdhMsg::ShuffleChunk`] — one
//! sequence-numbered stream per `(source, site)` pair, each terminated
//! by a per-site [`GdhMsg::ShuffleEnd`]. The receiving OFM actor
//! reassembles the peer streams with the same
//! [`prisma_multicomputer::StreamReassembly`] the coordinator uses,
//! runs the bucket join locally once every stream completed, and
//! streams the join result to the coordinator as an ordinary
//! `BatchChunk`/`StreamEnd` reply whose stats carry the
//! fragment→fragment bits received ([`StreamStats::shuffled_bits`]).
//!
//! ## One wire
//!
//! Every data chunk — reply batch or shuffle bucket — crosses PEs as a
//! [`ChunkData`]: one checksummed column-block frame, shipped the moment
//! it is produced. There is no other payload form and no other reply
//! mode, so the protocol carries no format or mode flag.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use prisma_multicomputer::StreamReassembly;
use prisma_ofm::shuffle_extras;
use prisma_poolx::{Ctx, Process, WireMessage};
use prisma_relalg::{
    Batch, BatchStream, BatchWindows, ChunkedRelation, PhysicalPlan, Relation, BATCH_SIZE,
};
use prisma_storage::expr::ScalarExpr;
use prisma_types::{
    FragmentId, FragmentStatistics, PrismaError, ProcessId, QueryId, Result, Schema, Tuple,
    TxnId,
};

/// Per-stream summary carried by the terminal [`GdhMsg::StreamEnd`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Rows shipped on this stream.
    pub rows: u64,
    /// Bits this reply's producer received fragment→fragment over the
    /// direct shuffle (0 for ordinary subplan streams) — what the
    /// coordinator folds into `ExecMetrics::shuffled_direct_bits`.
    pub shuffled_bits: u64,
}

/// Which side of a partitioned join a shuffle stream feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShuffleSide {
    /// The probe side (`__shuffle_l`).
    Left,
    /// The build side (`__shuffle_r`).
    Right,
}

/// Payload of one shipped data chunk: the batch as one encoded
/// [`prisma_types::wire::BlockChunk`] — typed per-column blocks with null
/// bitmaps, cheap compression and a frame checksum, decoded on the
/// receive side straight into `ColumnVec`s (no pivot on either end).
#[derive(Debug, Clone)]
pub struct ChunkData {
    /// The encoded frame — what the interconnect meters and what the
    /// fault injector's bit damage lands on. `Arc`-shared so a sealed
    /// chunk's **cached** wire block ships without copying the frame
    /// (re-ships of unmutated cold data are refcount bumps — the encoder
    /// never re-runs).
    frame: Arc<prisma_types::wire::BlockChunk>,
    /// In-process delivery shortcut: when `frame` is a sealed chunk's
    /// cached wire block, the chunk rides along and the receiver serves
    /// its columns directly instead of re-decoding its own shared frame.
    /// Dropped on corruption so injected bit damage is always seen by
    /// the decoder.
    sealed: Option<Arc<prisma_types::SealedChunk>>,
}

impl ChunkData {
    /// Encode a produced batch for the wire. Batches that are whole
    /// sealed chunks reuse the chunk's cached block frame.
    pub fn from_batch(batch: Batch) -> ChunkData {
        ChunkData {
            sealed: batch.sealed_chunk().cloned(),
            frame: batch.encode_columnar_shared(),
        }
    }

    /// Rows this chunk carries (from the frame header — no decode needed
    /// for stream accounting).
    pub fn rows(&self) -> u64 {
        self.frame.rows() as u64
    }

    /// Size on the metered interconnect, in bits: the encoded frame size
    /// — what the traffic ledger and the shuffle stats meter.
    pub fn wire_bits(&self) -> u64 {
        self.frame.wire_bits()
    }

    /// Decode into a columnar batch feeding the merge kernels directly.
    /// A mangled frame returns a `wire:` protocol error — never a panic,
    /// never silently wrong rows.
    pub fn into_batch(self) -> Result<Batch> {
        match self.sealed {
            Some(chunk) => Ok(Batch::from_sealed_chunk(&chunk, None)),
            None => Batch::from_block(&self.frame),
        }
    }

    /// Mangle the payload in flight (the fault injector's
    /// `ChunkFate::Corrupt`). Shared frames (a sealed chunk's cached
    /// block) are copied-on-write first, so corruption never leaks back
    /// into the sender's cache.
    pub fn corrupt_in_place(&mut self, seed: u64) {
        Arc::make_mut(&mut self.frame).corrupt_in_place(seed);
        // The shortcut must not mask the damage: force the receiver
        // through the decoder, which rejects the mangled frame.
        self.sealed = None;
    }
}

/// Messages of the PRISMA DBMS layer.
#[derive(Debug)]
pub enum GdhMsg {
    /// Execute a local physical subplan through the batch executor and
    /// stream the result back as `BatchChunk`s + a terminal `StreamEnd`;
    /// `SeqScan(<relation name>)` reads the OFM's fragment, `extra`
    /// supplies shipped-in intermediates (`Arc`-shared, so a broadcast
    /// build side is one allocation no matter how many fragments receive
    /// it — the wire cost is still charged per message).
    RunSubplan {
        /// The query this stream belongs to.
        query_id: QueryId,
        /// The physical subplan.
        plan: Box<PhysicalPlan>,
        /// Shipped-in relations by name (e.g. a broadcast build side).
        extra: HashMap<String, Arc<Relation>>,
        /// Where to send the result stream.
        reply_to: ProcessId,
        /// Correlation tag (one stream per tag).
        tag: u64,
    },
    /// One batch of a `RunSubplan` reply stream.
    BatchChunk {
        /// The owning query.
        query_id: QueryId,
        /// Correlation tag of the stream.
        tag: u64,
        /// Position in the stream (0-based; consumers reassemble order).
        seq: u64,
        /// The batch payload in its wire form.
        data: ChunkData,
    },
    /// Terminal message of a `RunSubplan`/`ShuffleJoin` reply stream:
    /// how many chunks the stream comprised (so a coordinator can detect
    /// chunks still in flight even when this marker overtakes them) and
    /// the fragment's stats — or the fragment-local error.
    StreamEnd {
        /// The owning query.
        query_id: QueryId,
        /// Correlation tag of the stream.
        tag: u64,
        /// Chunks shipped before this marker.
        seq_count: u64,
        /// Per-stream stats, or the error that cut the stream short.
        result: Result<StreamStats>,
    },
    /// Grace-join phase 1 with **direct shuffle**: run the subplan,
    /// hash-partition every produced batch on `key_cols` into
    /// `sites.len()` buckets, and ship bucket `j`'s rows straight to
    /// `sites[j]` — the phase-2 site actor — as `ShuffleChunk`s. The
    /// coordinator orchestrates but never relays tuples. One stream per
    /// `(this source, site)` pair; each ends with a per-site
    /// `ShuffleEnd`.
    ShuffleSubplan {
        /// The query this shuffle belongs to.
        query_id: QueryId,
        /// Exchange id: one per partitioned join of the query, so chunk
        /// routing survives several shuffles per query.
        exchange: u32,
        /// The physical subplan producing this side of the join.
        plan: Box<PhysicalPlan>,
        /// Join-key ordinals in the subplan's output.
        key_cols: Vec<usize>,
        /// Phase-2 site actor per bucket (`sites.len()` = bucket count).
        sites: Vec<ProcessId>,
        /// Failover re-issue: ship **only** to this site actor and skip
        /// every other slot silently — buckets owned by surviving sites
        /// were already delivered and must not arrive twice. `None` (the
        /// normal fan-out) ships every bucket.
        restrict_to: Option<ProcessId>,
        /// Which side of the join this source feeds.
        side: ShuffleSide,
        /// Source stream tag (unique per side across the fan-out).
        tag: u64,
    },
    /// One produced batch's bucket payloads for one site, shipped
    /// fragment→fragment (never through the coordinator).
    ShuffleChunk {
        /// The owning query.
        query_id: QueryId,
        /// The owning exchange.
        exchange: u32,
        /// Join side of the source stream.
        side: ShuffleSide,
        /// Source stream tag.
        tag: u64,
        /// Position in the `(source, site)` stream (0-based; each site
        /// reassembles its own sequence).
        seq: u64,
        /// `(bucket, payload)` pairs owned by the receiving site.
        buckets: Vec<(usize, ChunkData)>,
    },
    /// Terminal marker of one `(source, site)` shuffle stream: the chunk
    /// count this site was sent and the rows shipped to it — or the
    /// source-local error, which the site forwards to the coordinator
    /// through its reply stream.
    ShuffleEnd {
        /// The owning query.
        query_id: QueryId,
        /// The owning exchange.
        exchange: u32,
        /// Join side of the source stream.
        side: ShuffleSide,
        /// Source stream tag.
        tag: u64,
        /// Chunks shipped to this site before the marker.
        seq_count: u64,
        /// Rows shipped to this site, or the error cutting the side off.
        result: Result<StreamStats>,
    },
    /// Install a grace-join phase-2 task at a site actor: collect the
    /// addressed bucket streams from every source fragment of both
    /// sides, then run `plan` (a hash join over the collected
    /// `__shuffle_l`/`__shuffle_r` buckets) locally and stream the
    /// result to `reply_to` as an ordinary `BatchChunk`/`StreamEnd`
    /// reply.
    ShuffleJoin {
        /// The owning query.
        query_id: QueryId,
        /// The owning exchange.
        exchange: u32,
        /// The site-local join over the collected buckets.
        plan: Box<PhysicalPlan>,
        /// Schema of the left (probe) bucket rows.
        lschema: Schema,
        /// Schema of the right (build) bucket rows.
        rschema: Schema,
        /// Buckets this site owns (chunks for any other bucket are a
        /// protocol error).
        buckets: Vec<usize>,
        /// Expected left-side source stream tags.
        left_streams: Vec<u64>,
        /// Expected right-side source stream tags.
        right_streams: Vec<u64>,
        /// Where to stream the join result.
        reply_to: ProcessId,
        /// Correlation tag of the reply stream.
        tag: u64,
    },
    /// Insert rows under a transaction.
    Insert {
        /// Transaction.
        txn: TxnId,
        /// Rows for this fragment.
        rows: Vec<Tuple>,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Delete matching rows under a transaction.
    DeleteWhere {
        /// Transaction.
        txn: TxnId,
        /// Predicate (None = all rows).
        predicate: Option<ScalarExpr>,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Update matching rows under a transaction.
    UpdateWhere {
        /// Transaction.
        txn: TxnId,
        /// `(column, expression over the old tuple)` assignments.
        assignments: Vec<(usize, ScalarExpr)>,
        /// Predicate (None = all rows).
        predicate: Option<ScalarExpr>,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Reply to DML requests: affected row count.
    DmlDone {
        /// Correlation tag.
        tag: u64,
        /// Rows affected (or the error).
        result: Result<usize>,
    },
    /// 2PC phase 1.
    Prepare {
        /// Transaction.
        txn: TxnId,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// 2PC vote.
    Vote {
        /// Correlation tag.
        tag: u64,
        /// Yes/no plus simulated disk nanoseconds spent forcing the log.
        result: Result<u64>,
    },
    /// 2PC phase 2: commit.
    Commit {
        /// Transaction.
        txn: TxnId,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Roll back a transaction's local effects.
    Abort {
        /// Transaction.
        txn: TxnId,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Generic acknowledgement (commit/abort/index/checkpoint done).
    Ack {
        /// Correlation tag.
        tag: u64,
        /// Success, with simulated disk nanoseconds where applicable.
        result: Result<u64>,
    },
    /// Build an index on the fragment.
    CreateIndex {
        /// Column ordinal.
        column: usize,
        /// Hash (true) or B-tree.
        hash: bool,
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Force a checkpoint (persistent OFMs).
    Checkpoint {
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Log-shipping: a batch of redo records from a replicated primary
    /// OFM to its backup replica on a distinct PE, in primary log order
    /// (the runtime's FIFO channels preserve it on the wire). Mutations
    /// are buffered on the backup per transaction and only applied when
    /// that transaction's `Commit` record arrives, so an aborted primary
    /// transaction never surfaces on the backup.
    ReplicaAppend {
        /// The replicated fragment (backup sanity-checks it owns it).
        fragment: FragmentId,
        /// Redo records in primary log order.
        records: Vec<prisma_stable::LogPayload>,
        /// When true the batch carries a 2PC commit record and the
        /// backup must acknowledge with [`GdhMsg::ReplicaAck`] before
        /// the primary forwards its commit `Ack` upstream — after the
        /// ack, either copy can serve the committed data.
        ack: bool,
        /// The primary actor (where the ack goes).
        reply_to: ProcessId,
        /// Correlation tag (the committing transaction's id).
        tag: u64,
    },
    /// Backup's acknowledgement that a shipped batch — through its
    /// commit record — is applied.
    ReplicaAck {
        /// Correlation tag echoed from the append.
        tag: u64,
        /// Transactions made durable on the backup, or the apply error.
        result: Result<usize>,
    },
    /// Ask the OFM for its fragment's statistics snapshot — the pull
    /// side of the statistics lifecycle: the GDH fans this out on
    /// `refresh_stats` and the dictionary caches the replies per
    /// `(relation, fragment)` with a staleness epoch. Only the summary
    /// travels; the data never leaves the fragment.
    CollectStats {
        /// Reply address.
        reply_to: ProcessId,
        /// Correlation tag.
        tag: u64,
    },
    /// Reply to [`GdhMsg::CollectStats`]: the fragment's per-column
    /// statistics (row count, distinct/min/max, equi-depth histograms,
    /// most-common values), computed from the OFM's incrementally
    /// maintained sketches.
    StatsReport {
        /// Correlation tag.
        tag: u64,
        /// The reporting fragment.
        fragment: FragmentId,
        /// The statistics snapshot.
        stats: Box<FragmentStatistics>,
    },
}

impl WireMessage for GdhMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            // Result shipping dominates communication; control messages
            // are a single packet. Data chunks are charged their encoded
            // frame's real (compressed) size.
            GdhMsg::BatchChunk { data, .. } => 32 + (data.wire_bits() / 8) as usize,
            GdhMsg::RunSubplan { extra, .. } => {
                64 + extra
                    .values()
                    .map(|r| (r.wire_bits() / 8) as usize)
                    .sum::<usize>()
            }
            GdhMsg::ShuffleSubplan { .. } | GdhMsg::ShuffleJoin { .. } => 64,
            GdhMsg::ShuffleChunk { buckets, .. } => {
                32 + buckets
                    .iter()
                    .map(|(_, data)| (data.wire_bits() / 8) as usize)
                    .sum::<usize>()
            }
            GdhMsg::Insert { rows, .. } => {
                32 + rows.iter().map(|t| (t.wire_bits() / 8) as usize).sum::<usize>()
            }
            // A stats report ships bounded summaries (histogram buckets
            // + most-common values), never tuples.
            GdhMsg::StatsReport { stats, .. } => stats.wire_bytes(),
            // Log shipping moves the mutated tuples once more across
            // the interconnect — charged like any other data message.
            GdhMsg::ReplicaAppend { records, .. } => {
                32 + records
                    .iter()
                    .map(|r| match r {
                        prisma_stable::LogPayload::Insert { tuple, .. }
                        | prisma_stable::LogPayload::Delete { tuple, .. } => {
                            (tuple.wire_bits() / 8) as usize
                        }
                        _ => 8,
                    })
                    .sum::<usize>()
            }
            _ => 32,
        }
    }
}

/// Chunk payload of one `(source, site)` shuffle stream: the receiving
/// site's `(bucket, payload)` pairs from one produced batch.
type ShufflePayload = Vec<(usize, ChunkData)>;

/// One join side's peer streams reassembling at a phase-2 site.
struct ShuffleSideState {
    reassembly: StreamReassembly<ShufflePayload>,
    /// Rows released from reassembly per source stream (the decoded
    /// blocks' lengths).
    released: HashMap<u64, u64>,
    /// Rows each source advertised in its per-site `ShuffleEnd`.
    advertised: HashMap<u64, u64>,
    /// The collected bucket blocks, decoded on arrival and kept as column
    /// batches: appended, in release order, into full [`BATCH_SIZE`]-row
    /// windows — the batches a scan of the same rows would cut, so the
    /// site's result is framed the same however the buckets arrived
    /// (bucket identity is irrelevant once ownership is checked — the
    /// site joins all its buckets in one build).
    batches: BatchWindows,
}

impl ShuffleSideState {
    fn expecting(tags: &[u64]) -> ShuffleSideState {
        ShuffleSideState {
            reassembly: StreamReassembly::expecting(tags.iter().copied()),
            released: HashMap::new(),
            advertised: HashMap::new(),
            batches: BatchWindows::new(BATCH_SIZE),
        }
    }
}

/// A phase-2 shuffle-join task installed at a site actor.
struct ShuffleTask {
    plan: Box<PhysicalPlan>,
    lschema: Schema,
    rschema: Schema,
    /// Buckets this site owns — a chunk naming any other bucket is a
    /// protocol error.
    owned: HashSet<usize>,
    reply_to: ProcessId,
    tag: u64,
    left: ShuffleSideState,
    right: ShuffleSideState,
    /// Bits received fragment→fragment, reported to the coordinator in
    /// the reply's [`StreamStats::shuffled_bits`].
    shuffled_bits: u64,
}

impl ShuffleTask {
    fn side_mut(&mut self, side: ShuffleSide) -> &mut ShuffleSideState {
        match side {
            ShuffleSide::Left => &mut self.left,
            ShuffleSide::Right => &mut self.right,
        }
    }

    fn all_streams_complete(&self) -> bool {
        self.left.reassembly.all_complete() && self.right.reassembly.all_complete()
    }
}

/// Per-exchange shuffle state at a site actor.
enum ShuffleState {
    /// Peer traffic that raced ahead of the `ShuffleJoin` spec (the
    /// runtime's FIFO channels make this rare; buffered verbatim and
    /// replayed once the spec lands).
    Pending(Vec<GdhMsg>),
    /// The installed task, accumulating peer streams.
    Active(Box<ShuffleTask>),
}

/// The OFM actor: owns a One-Fragment Manager and serves the protocol —
/// including the phase-2 **shuffle receiver** role: collecting addressed
/// grace-join bucket streams from peer fragments and joining them
/// locally.
pub struct OfmActor {
    ofm: prisma_ofm::Ofm,
    /// Backup replica actor this primary ships its redo log to
    /// (`None` = unreplicated).
    replica: Option<ProcessId>,
    /// Commit acks gated on the backup: txn id → the upstream
    /// `(coordinator, tag, local commit result)` to forward once the
    /// backup's [`GdhMsg::ReplicaAck`] lands.
    awaiting_replica: HashMap<u64, (ProcessId, u64, Result<u64>)>,
    /// Fault injection hooks (inert unless a test or `FAULT_SEED`
    /// scripted them — one atomic load on the hot path).
    faults: Arc<prisma_faultx::FaultInjector>,
    /// In-flight shuffle-join tasks, keyed by `(query, exchange)`.
    shuffles: HashMap<(QueryId, u32), ShuffleState>,
    /// Recently finished (completed or torn down) shuffles: late peer
    /// traffic for these is dropped instead of accumulating as a
    /// pending buffer that no spec will ever claim. Bounded FIFO.
    finished: HashSet<(QueryId, u32)>,
    finished_order: std::collections::VecDeque<(QueryId, u32)>,
}

/// How many finished-shuffle tombstones an OFM actor remembers (late
/// traffic outlives its exchange by at most a few mailbox rounds, so a
/// small window suffices).
const FINISHED_SHUFFLES_REMEMBERED: usize = 256;

impl OfmActor {
    /// Wrap an OFM as an actor (process-wide fault injector, which is
    /// inert unless `FAULT_SEED` is set).
    pub fn new(ofm: prisma_ofm::Ofm) -> Self {
        Self::with_faults(ofm, prisma_faultx::global().clone())
    }

    /// Wrap an OFM as an actor with an explicit fault injector (tests
    /// script faults per run instead of per process).
    pub fn with_faults(
        ofm: prisma_ofm::Ofm,
        faults: Arc<prisma_faultx::FaultInjector>,
    ) -> Self {
        OfmActor {
            ofm,
            replica: None,
            awaiting_replica: HashMap::new(),
            faults,
            shuffles: HashMap::new(),
            finished: HashSet::new(),
            finished_order: std::collections::VecDeque::new(),
        }
    }

    /// Declare this actor the replicated primary: redo records are
    /// captured and shipped to `backup` ([`GdhMsg::ReplicaAppend`]), and
    /// 2PC commit acks are gated on the backup's acknowledgement.
    pub fn with_replica(mut self, backup: ProcessId) -> Self {
        self.ofm.enable_replication();
        self.replica = Some(backup);
        self
    }

    /// Ship captured redo records to the backup replica. With
    /// `require_ack` the batch carries a commit record the backup must
    /// acknowledge; returns whether an acked batch is now in flight.
    fn ship_replica_batch(
        &mut self,
        ctx: &mut Ctx<'_, GdhMsg>,
        require_ack: bool,
        txn: TxnId,
    ) -> bool {
        let Some(backup) = self.replica else {
            return false;
        };
        let records = self.ofm.drain_replica_records();
        if records.is_empty() && !require_ack {
            return false;
        }
        let msg = GdhMsg::ReplicaAppend {
            fragment: self.ofm.fragment_id(),
            records,
            ack: require_ack,
            reply_to: ctx.self_id,
            tag: txn.index() as u64,
        };
        ctx.send(backup, msg).is_ok() && require_ack
    }

    fn note_shuffle_finished(&mut self, key: (QueryId, u32)) {
        if self.finished.insert(key) {
            self.finished_order.push_back(key);
            if self.finished_order.len() > FINISHED_SHUFFLES_REMEMBERED {
                if let Some(old) = self.finished_order.pop_front() {
                    self.finished.remove(&old);
                }
            }
        }
    }
}

impl OfmActor {
    /// Ship an opened plan's output as a chunk stream: one
    /// [`GdhMsg::BatchChunk`] per produced batch, then the terminal
    /// `StreamEnd` advertising the chunk count and the total rows shipped
    /// (the coordinator cross-checks both).
    ///
    /// Each `next_batch()`/`send` alternation is the pipelining seam:
    /// the send crosses the interconnect while this actor keeps scanning,
    /// so the coordinator's merge overlaps fragment execution.
    fn ship_stream(
        &self,
        source: Result<BatchStream>,
        reply_to: ProcessId,
        query_id: QueryId,
        tag: u64,
        base_stats: StreamStats,
        ctx: &mut Ctx<'_, GdhMsg>,
    ) {
        let end = |result, seq_count| GdhMsg::StreamEnd {
            query_id,
            tag,
            seq_count,
            result,
        };
        let mut source = match source {
            Ok(s) => s,
            Err(e) => {
                let _ = ctx.send(reply_to, end(Err(e), 0));
                return;
            }
        };
        let mut held_back = Vec::new(); // fault-delayed chunks
        let mut seq = 0u64;
        let mut rows = 0u64;
        loop {
            match source.next_batch() {
                Ok(Some(batch)) => {
                    // Encode (or reuse the sealed chunk's cached frame)
                    // whatever form the executor produced.
                    let data = ChunkData::from_batch(batch);
                    rows += data.rows();
                    let msg = GdhMsg::BatchChunk {
                        query_id,
                        tag,
                        seq,
                        data,
                    };
                    if self.faulted_send(ctx, reply_to, msg, &mut held_back).is_err() {
                        return; // requester is gone; abandon the stream
                    }
                    seq += 1;
                }
                Ok(None) => {
                    if self.flush_held(ctx, &mut held_back).is_err() {
                        return;
                    }
                    let _ = ctx.send(
                        reply_to,
                        end(
                            Ok(StreamStats {
                                rows,
                                ..base_stats
                            }),
                            seq,
                        ),
                    );
                    return;
                }
                Err(e) => {
                    // Chunks already shipped stay valid; the error ends
                    // the stream.
                    let _ = self.flush_held(ctx, &mut held_back);
                    let _ = ctx.send(reply_to, end(Err(e), seq));
                    return;
                }
            }
        }
    }
}

impl OfmActor {
    /// Clone a data chunk for scripted duplicate delivery (control
    /// messages are never duplicated).
    fn clone_chunk(msg: &GdhMsg) -> Option<GdhMsg> {
        match msg {
            GdhMsg::BatchChunk {
                query_id,
                tag,
                seq,
                data,
            } => Some(GdhMsg::BatchChunk {
                query_id: *query_id,
                tag: *tag,
                seq: *seq,
                data: data.clone(),
            }),
            GdhMsg::ShuffleChunk {
                query_id,
                exchange,
                side,
                tag,
                seq,
                buckets,
            } => Some(GdhMsg::ShuffleChunk {
                query_id: *query_id,
                exchange: *exchange,
                side: *side,
                tag: *tag,
                seq: *seq,
                buckets: buckets.clone(),
            }),
            _ => None,
        }
    }

    /// Mangle a data chunk's encoded payload (the `Corrupt` chunk fate):
    /// wire bit damage between the sender's encode and the receiver's
    /// decode; the receiver must reject the frame with a protocol error.
    fn corrupt_chunk(msg: &mut GdhMsg) {
        match msg {
            GdhMsg::BatchChunk { seq, data, .. } => data.corrupt_in_place(*seq),
            GdhMsg::ShuffleChunk { seq, buckets, .. } => {
                if let Some((_, data)) = buckets.first_mut() {
                    data.corrupt_in_place(*seq);
                }
            }
            _ => {}
        }
    }

    /// Ship one stream chunk through the fault injector's chunk hook: a
    /// scripted fault can drop it on the floor, deliver it twice, mangle
    /// its encoded payload, or hold it back so a later chunk overtakes
    /// it — a local reorder the receiver's reassembly buffer absorbs.
    /// Held chunks are released by the next delivered chunk and must be
    /// flushed with [`OfmActor::flush_held`] before the stream's
    /// terminal marker.
    fn faulted_send(
        &self,
        ctx: &mut Ctx<'_, GdhMsg>,
        to: ProcessId,
        msg: GdhMsg,
        held: &mut Vec<(ProcessId, GdhMsg)>,
    ) -> std::result::Result<(), ()> {
        match self.faults.chunk_fate(ctx.self_pe) {
            prisma_faultx::ChunkFate::Drop => Ok(()),
            prisma_faultx::ChunkFate::Delay => {
                held.push((to, msg));
                Ok(())
            }
            prisma_faultx::ChunkFate::Duplicate => {
                let copy = Self::clone_chunk(&msg);
                ctx.send(to, msg).map_err(|_| ())?;
                if let Some(copy) = copy {
                    ctx.send(to, copy).map_err(|_| ())?;
                }
                self.flush_held(ctx, held)
            }
            prisma_faultx::ChunkFate::Corrupt => {
                let mut msg = msg;
                Self::corrupt_chunk(&mut msg);
                ctx.send(to, msg).map_err(|_| ())?;
                self.flush_held(ctx, held)
            }
            prisma_faultx::ChunkFate::Deliver => {
                ctx.send(to, msg).map_err(|_| ())?;
                self.flush_held(ctx, held)
            }
        }
    }

    /// Deliver any held-back chunks (in hold order, after whatever
    /// overtook them).
    fn flush_held(
        &self,
        ctx: &mut Ctx<'_, GdhMsg>,
        held: &mut Vec<(ProcessId, GdhMsg)>,
    ) -> std::result::Result<(), ()> {
        for (to, msg) in held.drain(..) {
            ctx.send(to, msg).map_err(|_| ())?;
        }
        Ok(())
    }

    /// Grace-join phase 1, direct form: run this fragment's side subplan
    /// and address every produced batch's buckets straight at the
    /// phase-2 site actors. One sequence-numbered stream per distinct
    /// site, each closed by a per-site [`GdhMsg::ShuffleEnd`] carrying
    /// the rows that site was shipped (sites cross-check on arrival). A
    /// subplan error ends every site's stream with the error — the sites
    /// forward it to the coordinator, so failures travel the data path.
    #[allow(clippy::too_many_arguments)]
    fn run_shuffle_source(
        &self,
        query_id: QueryId,
        exchange: u32,
        plan: &PhysicalPlan,
        key_cols: &[usize],
        sites: &[ProcessId],
        restrict_to: Option<ProcessId>,
        side: ShuffleSide,
        tag: u64,
        ctx: &mut Ctx<'_, GdhMsg>,
    ) {
        struct SiteSlot {
            site: ProcessId,
            seq: u64,
            rows: u64,
        }
        // Failover re-issue: only the replacement site's slot ships;
        // the partitioning itself still runs over all `sites.len()`
        // buckets so bucket boundaries stay identical to the first run.
        let active = |site: ProcessId| restrict_to.is_none_or(|r| r == site);
        // Distinct sites in first-bucket order; bucket j routes to
        // slot_of[sites[j]].
        let mut slots: Vec<SiteSlot> = Vec::new();
        let mut slot_of: HashMap<ProcessId, usize> = HashMap::new();
        for &site in sites {
            slot_of.entry(site).or_insert_with(|| {
                slots.push(SiteSlot {
                    site,
                    seq: 0,
                    rows: 0,
                });
                slots.len() - 1
            });
        }
        let fail_all = |slots: &[SiteSlot], e: PrismaError, ctx: &mut Ctx<'_, GdhMsg>| {
            for slot in slots.iter().filter(|s| active(s.site)) {
                let _ = ctx.send(
                    slot.site,
                    GdhMsg::ShuffleEnd {
                        query_id,
                        exchange,
                        side,
                        tag,
                        seq_count: slot.seq,
                        result: Err(e.clone()),
                    },
                );
            }
        };
        let mut source = match self.ofm.open_physical(plan, &HashMap::new()) {
            Ok(s) => s,
            Err(e) => {
                fail_all(&slots, e, ctx);
                return;
            }
        };
        let mut held_back = Vec::new(); // fault-delayed chunks
        loop {
            match source.next_batch() {
                Ok(Some(batch)) => {
                    // Partition this batch on the spot by row *position*
                    // (keys read straight from the columnar form — the
                    // batch is never pivoted to rows here), then encode
                    // each bucket's positions as one column block.
                    let positions = prisma_relalg::exec::partition_positions(
                        &batch,
                        key_cols,
                        sites.len(),
                    );
                    let mut per_slot: Vec<ShufflePayload> = (0..slots.len())
                        .map(|_| Vec::new())
                        .collect();
                    for (j, pos) in positions.into_iter().enumerate() {
                        if pos.is_empty() {
                            continue;
                        }
                        let data = ChunkData {
                            frame: Arc::new(batch.encode_positions(&pos)),
                            sealed: None,
                        };
                        per_slot[slot_of[&sites[j]]].push((j, data));
                    }
                    let mut dead: Option<ProcessId> = None;
                    for (idx, payload) in per_slot.into_iter().enumerate() {
                        if payload.is_empty() || !active(slots[idx].site) {
                            continue;
                        }
                        let rows: u64 =
                            payload.iter().map(|(_, d)| d.rows()).sum();
                        let slot = &mut slots[idx];
                        let msg = GdhMsg::ShuffleChunk {
                            query_id,
                            exchange,
                            side,
                            tag,
                            seq: slot.seq,
                            buckets: payload,
                        };
                        if self.faulted_send(ctx, slot.site, msg, &mut held_back).is_err() {
                            dead = Some(slot.site);
                            break;
                        }
                        slot.seq += 1;
                        slot.rows += rows;
                    }
                    if let Some(site) = dead {
                        // One site is gone: end every surviving site's
                        // stream with the error, so the query fails fast
                        // through the data path instead of timing out.
                        fail_all(
                            &slots,
                            PrismaError::Execution(format!(
                                "{query_id}: shuffle site {site} unreachable"
                            )),
                            ctx,
                        );
                        return;
                    }
                }
                Ok(None) => {
                    let _ = self.flush_held(ctx, &mut held_back);
                    for slot in slots.iter().filter(|s| active(s.site)) {
                        let _ = ctx.send(
                            slot.site,
                            GdhMsg::ShuffleEnd {
                                query_id,
                                exchange,
                                side,
                                tag,
                                seq_count: slot.seq,
                                result: Ok(StreamStats {
                                    rows: slot.rows,
                                    ..StreamStats::default()
                                }),
                            },
                        );
                    }
                    return;
                }
                Err(e) => {
                    let _ = self.flush_held(ctx, &mut held_back);
                    fail_all(&slots, e, ctx);
                    return;
                }
            }
        }
    }

    /// Install a phase-2 shuffle-join task, replaying any peer traffic
    /// that raced ahead of the spec.
    #[allow(clippy::too_many_arguments)]
    fn install_shuffle_join(
        &mut self,
        query_id: QueryId,
        exchange: u32,
        plan: Box<PhysicalPlan>,
        lschema: Schema,
        rschema: Schema,
        buckets: Vec<usize>,
        left_streams: &[u64],
        right_streams: &[u64],
        reply_to: ProcessId,
        tag: u64,
        ctx: &mut Ctx<'_, GdhMsg>,
    ) {
        let key = (query_id, exchange);
        let pending = match self.shuffles.remove(&key) {
            Some(ShuffleState::Pending(buf)) => buf,
            Some(active @ ShuffleState::Active(_)) => {
                // Duplicate spec: keep the installed task, fail the new
                // requester (protocol error).
                self.shuffles.insert(key, active);
                let _ = ctx.send(
                    reply_to,
                    GdhMsg::StreamEnd {
                        query_id,
                        tag,
                        seq_count: 0,
                        result: Err(PrismaError::Execution(format!(
                            "{query_id}: duplicate shuffle-join spec for exchange {exchange}"
                        ))),
                    },
                );
                return;
            }
            None => Vec::new(),
        };
        let task = Box::new(ShuffleTask {
            plan,
            lschema,
            rschema,
            owned: buckets.into_iter().collect(),
            reply_to,
            tag,
            left: ShuffleSideState::expecting(left_streams),
            right: ShuffleSideState::expecting(right_streams),
            shuffled_bits: 0,
        });
        self.shuffles.insert(key, ShuffleState::Active(task));
        for msg in pending {
            self.advance_shuffle(key, msg, ctx);
        }
        self.maybe_finish_shuffle(key, ctx);
    }

    /// Route one piece of peer shuffle traffic: buffer it when the spec
    /// has not landed yet, otherwise feed the task.
    fn on_shuffle_traffic(&mut self, msg: GdhMsg, ctx: &mut Ctx<'_, GdhMsg>) {
        let key = match &msg {
            GdhMsg::ShuffleChunk {
                query_id, exchange, ..
            }
            | GdhMsg::ShuffleEnd {
                query_id, exchange, ..
            } => (*query_id, *exchange),
            _ => return,
        };
        if self.finished.contains(&key) {
            return; // straggler for a completed/torn-down shuffle
        }
        match self.shuffles.get_mut(&key) {
            None => {
                self.shuffles
                    .insert(key, ShuffleState::Pending(vec![msg]));
            }
            Some(ShuffleState::Pending(buf)) => buf.push(msg),
            Some(ShuffleState::Active(_)) => {
                self.advance_shuffle(key, msg, ctx);
                self.maybe_finish_shuffle(key, ctx);
            }
        }
    }

    /// Feed one message to the installed task; a protocol error tears
    /// the task down and travels to the coordinator as the reply
    /// stream's error.
    fn advance_shuffle(
        &mut self,
        key: (QueryId, u32),
        msg: GdhMsg,
        ctx: &mut Ctx<'_, GdhMsg>,
    ) {
        let Some(ShuffleState::Active(task)) = self.shuffles.get_mut(&key) else {
            return;
        };
        if let Err(e) = Self::apply_shuffle_msg(task, msg) {
            let reply_to = task.reply_to;
            let tag = task.tag;
            self.shuffles.remove(&key);
            self.note_shuffle_finished(key);
            let _ = ctx.send(
                reply_to,
                GdhMsg::StreamEnd {
                    query_id: key.0,
                    tag,
                    seq_count: 0,
                    result: Err(e),
                },
            );
        }
    }

    fn apply_shuffle_msg(task: &mut ShuffleTask, msg: GdhMsg) -> Result<()> {
        match msg {
            GdhMsg::ShuffleChunk {
                side,
                tag,
                seq,
                buckets,
                ..
            } => {
                for (bucket, _) in &buckets {
                    if !task.owned.contains(bucket) {
                        return Err(PrismaError::Execution(format!(
                            "shuffle stream {tag}: chunk for bucket {bucket} this site does not own"
                        )));
                    }
                }
                for (_, data) in &buckets {
                    task.shuffled_bits += data.wire_bits();
                }
                let state = task.side_mut(side);
                let mut released: Vec<ShufflePayload> = Vec::new();
                state.reassembly.accept(tag, seq, buckets, &mut released)?;
                for payload in released {
                    for (_, data) in payload {
                        // Decode here — a frame mangled on the wire is a
                        // protocol error that tears the task down and
                        // fails the query, never a silent mis-join.
                        let batch = data.into_batch()?;
                        *state.released.entry(tag).or_default() += batch.len() as u64;
                        state.batches.push(&batch);
                    }
                }
                Ok(())
            }
            GdhMsg::ShuffleEnd {
                side,
                tag,
                seq_count,
                result,
                ..
            } => {
                let stats = result?; // a source-side error fails the site
                let state = task.side_mut(side);
                state.advertised.insert(tag, stats.rows);
                state.reassembly.finish(tag, seq_count)
            }
            other => Err(PrismaError::Execution(format!(
                "unexpected shuffle message {other:?}"
            ))),
        }
    }

    /// Once every peer stream of both sides completed: cross-check the
    /// advertised row counts, run the bucket join locally, and stream
    /// the result to the coordinator.
    fn maybe_finish_shuffle(&mut self, key: (QueryId, u32), ctx: &mut Ctx<'_, GdhMsg>) {
        let complete = matches!(
            self.shuffles.get(&key),
            Some(ShuffleState::Active(task)) if task.all_streams_complete()
        );
        if !complete {
            return;
        }
        let Some(ShuffleState::Active(task)) = self.shuffles.remove(&key) else {
            return;
        };
        self.note_shuffle_finished(key);
        let task = *task;
        let query_id = key.0;
        for state in [&task.left, &task.right] {
            for (tag, advertised) in &state.advertised {
                // Rows a source said it shipped here must be the rows
                // that came out of reassembly — note the per-site count,
                // not the source's total (each site gets a slice).
                let released = state.released.get(tag).copied().unwrap_or(0);
                if *advertised != released {
                    let _ = ctx.send(
                        task.reply_to,
                        GdhMsg::StreamEnd {
                            query_id,
                            tag: task.tag,
                            seq_count: 0,
                            result: Err(PrismaError::Execution(format!(
                                "{query_id}: shuffle stream {tag} advertised {advertised} rows but {released} arrived"
                            ))),
                        },
                    );
                    return;
                }
            }
        }
        let stats = StreamStats {
            rows: 0, // filled by ship_stream
            shuffled_bits: task.shuffled_bits,
        };
        let inputs = shuffle_extras(
            ChunkedRelation::from_batches(task.lschema, task.left.batches.finish()),
            ChunkedRelation::from_batches(task.rschema, task.right.batches.finish()),
        );
        let source = self.ofm.open_shuffle_join(&task.plan, &inputs);
        self.ship_stream(source, task.reply_to, query_id, task.tag, stats, ctx);
    }
}

impl Process<GdhMsg> for OfmActor {
    fn handle(&mut self, msg: GdhMsg, ctx: &mut Ctx<'_, GdhMsg>) {
        // Scripted PE kill: once the injector declares this PE dead the
        // actor falls silent mid-protocol — requests are swallowed, no
        // replies, no stream ends — exactly what a crashed machine
        // looks like to its peers.
        if self.faults.on_message(ctx.self_pe) {
            return;
        }
        match msg {
            GdhMsg::RunSubplan {
                query_id,
                plan,
                extra,
                reply_to,
                tag,
            } => {
                self.ofm.seal_for_scan();
                let source = self.ofm.open_physical(&plan, &extra);
                self.ship_stream(source, reply_to, query_id, tag, StreamStats::default(), ctx);
            }
            GdhMsg::ShuffleSubplan {
                query_id,
                exchange,
                plan,
                key_cols,
                sites,
                restrict_to,
                side,
                tag,
            } => {
                self.ofm.seal_for_scan();
                self.run_shuffle_source(
                    query_id, exchange, &plan, &key_cols, &sites, restrict_to, side, tag, ctx,
                );
            }
            GdhMsg::ShuffleJoin {
                query_id,
                exchange,
                plan,
                lschema,
                rschema,
                buckets,
                left_streams,
                right_streams,
                reply_to,
                tag,
            } => {
                self.install_shuffle_join(
                    query_id,
                    exchange,
                    plan,
                    lschema,
                    rschema,
                    buckets,
                    &left_streams,
                    &right_streams,
                    reply_to,
                    tag,
                    ctx,
                );
            }
            msg @ (GdhMsg::ShuffleChunk { .. } | GdhMsg::ShuffleEnd { .. }) => {
                self.on_shuffle_traffic(msg, ctx);
            }
            GdhMsg::Insert {
                txn,
                rows,
                reply_to,
                tag,
            } => {
                let mut n = 0;
                let mut result = Ok(0);
                for row in rows {
                    match self.ofm.insert(txn, row) {
                        Ok(_) => n += 1,
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                let result = result.map(|_| n);
                self.ship_replica_batch(ctx, false, txn);
                let _ = ctx.send(reply_to, GdhMsg::DmlDone { tag, result });
            }
            GdhMsg::DeleteWhere {
                txn,
                predicate,
                reply_to,
                tag,
            } => {
                let pred = predicate
                    .unwrap_or_else(|| ScalarExpr::lit(true));
                let result = self.ofm.delete_where(txn, &pred);
                self.ship_replica_batch(ctx, false, txn);
                let _ = ctx.send(reply_to, GdhMsg::DmlDone { tag, result });
            }
            GdhMsg::UpdateWhere {
                txn,
                assignments,
                predicate,
                reply_to,
                tag,
            } => {
                let pred = predicate
                    .unwrap_or_else(|| ScalarExpr::lit(true));
                let result = self.ofm.update_where(txn, &pred, &assignments);
                self.ship_replica_batch(ctx, false, txn);
                let _ = ctx.send(reply_to, GdhMsg::DmlDone { tag, result });
            }
            GdhMsg::Prepare { txn, reply_to, tag } => {
                // Scripted crash between receiving the prepare and
                // voting: the coordinator's vote timeout aborts.
                if self.faults.on_2pc(ctx.self_pe, prisma_faultx::TwoPcPhase::Prepare) {
                    return;
                }
                let result = self.ofm.prepare(txn);
                let _ = ctx.send(reply_to, GdhMsg::Vote { tag, result });
            }
            GdhMsg::Commit { txn, reply_to, tag } => {
                // Scripted crash after the commit decision reached this
                // participant but before it applied: the decision is
                // durable at the coordinator, so recovery re-delivers.
                if self.faults.on_2pc(ctx.self_pe, prisma_faultx::TwoPcPhase::Commit) {
                    return;
                }
                let result = self.ofm.commit(txn);
                if result.is_ok()
                    && self.ship_replica_batch(ctx, true, txn)
                {
                    // The 2PC ack is gated on the backup acknowledging
                    // the commit record — once it does, either copy can
                    // serve the committed data, which is what makes a
                    // mid-query failover read-consistent.
                    self.awaiting_replica
                        .insert(txn.index() as u64, (reply_to, tag, result));
                    return;
                }
                let _ = ctx.send(reply_to, GdhMsg::Ack { tag, result });
            }
            GdhMsg::Abort { txn, reply_to, tag } => {
                let result = self.ofm.abort(txn).map(|_| 0);
                self.ship_replica_batch(ctx, false, txn);
                let _ = ctx.send(reply_to, GdhMsg::Ack { tag, result });
            }
            GdhMsg::ReplicaAppend {
                fragment,
                records,
                ack,
                reply_to,
                tag,
            } => {
                let result = if fragment == self.ofm.fragment_id() {
                    self.ofm.replica_apply(records)
                } else {
                    Err(PrismaError::Execution(format!(
                        "replica batch for {fragment} reached the OFM of {}",
                        self.ofm.fragment_id()
                    )))
                };
                if ack {
                    let _ = ctx.send(reply_to, GdhMsg::ReplicaAck { tag, result });
                }
            }
            GdhMsg::ReplicaAck { tag, result } => {
                if let Some((reply_to, coord_tag, local)) =
                    self.awaiting_replica.remove(&tag)
                {
                    // The backup's apply error outranks the local
                    // success: the coordinator must hear that the
                    // redundancy it is counting on does not exist.
                    let result = result.and(local);
                    let _ = ctx.send(reply_to, GdhMsg::Ack { tag: coord_tag, result });
                }
            }
            GdhMsg::CreateIndex {
                column,
                hash,
                reply_to,
                tag,
            } => {
                let result = if hash {
                    self.ofm.fragment_mut().add_hash_index(vec![column])
                } else {
                    self.ofm.fragment_mut().add_btree_index(vec![column])
                }
                .map(|_| 0);
                let _ = ctx.send(reply_to, GdhMsg::Ack { tag, result });
            }
            GdhMsg::Checkpoint { reply_to, tag } => {
                let result = self.ofm.checkpoint();
                let _ = ctx.send(reply_to, GdhMsg::Ack { tag, result });
            }
            GdhMsg::CollectStats { reply_to, tag } => {
                let _ = ctx.send(
                    reply_to,
                    GdhMsg::StatsReport {
                        tag,
                        fragment: self.ofm.fragment_id(),
                        stats: Box::new(self.ofm.statistics()),
                    },
                );
            }
            // Replies arriving at an OFM are protocol errors; ignore.
            GdhMsg::BatchChunk { .. }
            | GdhMsg::StreamEnd { .. }
            | GdhMsg::DmlDone { .. }
            | GdhMsg::Vote { .. }
            | GdhMsg::Ack { .. }
            | GdhMsg::StatsReport { .. } => {}
        }
    }
}
