//! The One-Fragment Manager.

use std::collections::HashMap;
use std::sync::Arc;

use prisma_relalg::{
    Batch, ChunkedRelation, LogicalPlan, PhysicalPlan, Relation, RelationProvider,
};
use prisma_stable::{CheckpointStore, LogPayload, WriteAheadLog};
use prisma_storage::expr::{CmpOp, ScalarExpr};
use prisma_storage::Rid;
use prisma_types::{FragmentId, PrismaError, Result, Schema, Tuple, TxnId, Value};

use crate::fragment::{Fragment, FragmentStats};

/// Scan name the phase-2 shuffle-join plan binds the collected left
/// (probe) buckets to.
pub const SHUFFLE_LEFT: &str = "__shuffle_l";

/// Scan name the phase-2 shuffle-join plan binds the collected right
/// (build) buckets to.
pub const SHUFFLE_RIGHT: &str = "__shuffle_r";

/// Provider bindings for a site-local shuffle join: the collected bucket
/// batches of both sides under the agreed scan names, ready for
/// [`Ofm::open_shuffle_join`] — still in column form; the site plan scans
/// them one batch per unit. One place owns the naming convention shared by
/// the coordinator (which builds the site plan) and the site actor (which
/// runs it).
pub fn shuffle_extras(
    left: ChunkedRelation,
    right: ChunkedRelation,
) -> HashMap<String, Arc<ChunkedRelation>> {
    HashMap::from([
        (SHUFFLE_LEFT.to_owned(), Arc::new(left)),
        (SHUFFLE_RIGHT.to_owned(), Arc::new(right)),
    ])
}

/// The OFM type, per the paper's *generative approach*: "Several OFM types
/// are envisioned, each equipped with the right amount of tools. For
/// example, OFMs needed for query processing only, do not require
/// extensive crash recovery facilities."
pub enum OfmKind {
    /// Base-fragment OFM: WAL + checkpoints on a disk PE.
    Persistent {
        /// Shared write-ahead log (one per disk PE).
        wal: Arc<WriteAheadLog>,
        /// Shared checkpoint store.
        checkpoints: Arc<CheckpointStore>,
    },
    /// Intermediate-result OFM: no recovery machinery at all.
    Transient,
}

impl std::fmt::Debug for OfmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfmKind::Persistent { .. } => f.write_str("Persistent"),
            OfmKind::Transient => f.write_str("Transient"),
        }
    }
}

/// Which access path the local optimizer chose for a selection — exposed
/// so tests and EXPLAIN output can verify index use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Hash-index point lookup on the given index slot.
    HashLookup(usize),
    /// B-tree range scan on the given index slot.
    BTreeRange(usize),
    /// No index applies: sealed chunks are zone-pruned and the survivors
    /// filtered by the vectorized kernel; the delta goes through the row
    /// predicate ([`crate::Fragment::zone_scan`]).
    ZoneScan {
        /// Sealed chunks the kernel ran over.
        chunks_scanned: usize,
        /// Sealed chunks skipped whole by their zone maps.
        chunks_pruned: usize,
    },
}

#[derive(Debug)]
enum UndoOp {
    Inserted(Rid),
    Deleted(Tuple),
    Updated(Rid, Tuple),
}

/// A One-Fragment Manager: one fragment plus every local DBMS duty.
pub struct Ofm {
    name: String,
    fragment: Fragment,
    kind: OfmKind,
    /// Per-transaction undo logs for local abort.
    undo: HashMap<TxnId, Vec<UndoOp>>,
    /// Transactions that voted yes in 2PC and await the decision.
    prepared: HashMap<TxnId, ()>,
    /// Primary role: when true, every redo-relevant log record is also
    /// captured into `replica_out` for the owning actor to ship to the
    /// backup replica over the GDH stream protocol.
    replicating: bool,
    /// Outbox of captured records, drained by [`Ofm::drain_replica_records`].
    replica_out: Vec<LogPayload>,
    /// Backup role: records received from the primary, buffered per
    /// transaction until its commit/abort decision arrives.
    replica_buffer: HashMap<TxnId, Vec<LogPayload>>,
    /// The owning PE's compute worker pool for morsel-parallel plan
    /// execution; `None` runs the serial baseline. Attached by the GDH
    /// at spawn time ([`Ofm::attach_pool`]) — the pool lives beside the
    /// actor, never on the wire.
    pool: Option<Arc<prisma_poolx::WorkerPool>>,
}

impl Ofm {
    /// Build an empty OFM managing fragment `id` of relation `name`.
    pub fn new(id: FragmentId, name: impl Into<String>, schema: Schema, kind: OfmKind) -> Self {
        Ofm {
            name: name.into(),
            fragment: Fragment::new(id, schema),
            kind,
            undo: HashMap::new(),
            prepared: HashMap::new(),
            replicating: false,
            replica_out: Vec::new(),
            replica_buffer: HashMap::new(),
            pool: None,
        }
    }

    /// Attach the PE's compute worker pool: every physical plan this OFM
    /// opens from now on runs its scans, join builds/probes, and
    /// aggregate folds morsel-parallel on it.
    pub fn attach_pool(&mut self, pool: Arc<prisma_poolx::WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Relation name this fragment belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fragment id.
    pub fn fragment_id(&self) -> FragmentId {
        self.fragment.id()
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        self.fragment.schema()
    }

    /// Whether this OFM carries recovery machinery.
    pub fn is_persistent(&self) -> bool {
        matches!(self.kind, OfmKind::Persistent { .. })
    }

    /// Storage statistics.
    pub fn stats(&self) -> FragmentStats {
        self.fragment.stats()
    }

    /// Full per-column statistics snapshot (the `StatsReport` payload) —
    /// computed from the fragment's incrementally-maintained sketches,
    /// exactly where the data lives.
    pub fn statistics(&self) -> prisma_types::FragmentStatistics {
        self.fragment.statistics()
    }

    /// Direct fragment access (index creation, markings, cursors).
    pub fn fragment_mut(&mut self) -> &mut Fragment {
        &mut self.fragment
    }

    /// Direct fragment access (read).
    pub fn fragment(&self) -> &Fragment {
        &self.fragment
    }

    // ---- replication (primary ships its redo log to a backup OFM) ----

    /// Mark this OFM as a replicated primary: from now on every
    /// redo-relevant log record is also queued for shipping to the backup.
    pub fn enable_replication(&mut self) {
        self.replicating = true;
    }

    /// Whether this OFM ships its log to a backup replica.
    pub fn is_replicating(&self) -> bool {
        self.replicating
    }

    /// Drain the queued replica records (primary side). The owning actor
    /// ships these as one `ReplicaAppend` batch; FIFO delivery of the
    /// underlying message layer preserves log order on the backup.
    pub fn drain_replica_records(&mut self) -> Vec<LogPayload> {
        std::mem::take(&mut self.replica_out)
    }

    /// Apply a batch of shipped log records (backup side). Mutations are
    /// buffered per transaction and only touch the fragment once that
    /// transaction's `Commit` record arrives — mirroring the redo rule of
    /// [`Ofm::recover`] — so an aborted primary transaction never surfaces
    /// on the backup. Returns the number of transactions made durable.
    ///
    /// A delete image no live tuple equals means this backup no longer
    /// mirrors its primary. The rest of the batch is still applied (a
    /// partly applied commit would only diverge further), and the first
    /// such image comes back as the error the commit ack carries home.
    pub fn replica_apply(&mut self, records: Vec<LogPayload>) -> Result<usize> {
        let mut committed = 0;
        let mut missing = None;
        for rec in records {
            match rec {
                LogPayload::Insert { txn, .. } | LogPayload::Delete { txn, .. } => {
                    self.replica_buffer.entry(txn).or_default().push(rec);
                }
                LogPayload::Commit { txn } => {
                    for op in self.replica_buffer.remove(&txn).unwrap_or_default() {
                        match op {
                            LogPayload::Insert { tuple, .. } => {
                                self.fragment.insert(tuple)?;
                            }
                            LogPayload::Delete { tuple, .. } => {
                                if self.fragment.delete_by_value(&tuple).is_none() {
                                    missing.get_or_insert_with(|| self.missing_image(txn, &tuple));
                                }
                            }
                            _ => unreachable!("only mutations are buffered"),
                        }
                    }
                    committed += 1;
                }
                LogPayload::Abort { txn } => {
                    self.replica_buffer.remove(&txn);
                }
                _ => {}
            }
        }
        missing.map_or(Ok(committed), Err)
    }

    /// The error for a replayed delete whose image no live tuple equals.
    fn missing_image(&self, txn: TxnId, image: &Tuple) -> PrismaError {
        PrismaError::Execution(format!(
            "{} of {}: {txn} deletes {image}, which no live tuple equals",
            self.fragment.id(),
            self.name
        ))
    }

    // ---- transactional mutations ----

    fn log(&mut self, payload: &LogPayload) {
        if let OfmKind::Persistent { wal, .. } = &self.kind {
            wal.append(payload);
        }
        if self.replicating {
            self.replica_out.push(payload.clone());
        }
    }

    /// Insert under `txn` (undo-logged; WAL redo record appended).
    pub fn insert(&mut self, txn: TxnId, tuple: Tuple) -> Result<Rid> {
        let rid = self.fragment.insert(tuple.clone())?;
        self.undo.entry(txn).or_default().push(UndoOp::Inserted(rid));
        self.log(&LogPayload::Insert {
            txn,
            fragment: self.fragment.id(),
            tuple,
        });
        Ok(rid)
    }

    /// Delete all tuples satisfying `predicate` under `txn`; returns count.
    pub fn delete_where(&mut self, txn: TxnId, predicate: &ScalarExpr) -> Result<usize> {
        predicate.check(self.fragment.schema())?;
        let (_, candidates) = self.plan_selection(predicate);
        let compiled = predicate.compile_predicate();
        let rids: Vec<Rid> = candidates
            .into_iter()
            .filter(|&rid| self.fragment.heap().get(rid).is_some_and(|t| compiled(t)))
            .collect();
        let mut n = 0;
        for rid in rids {
            if let Some(t) = self.fragment.delete(rid) {
                self.undo
                    .entry(txn)
                    .or_default()
                    .push(UndoOp::Deleted(t.clone()));
                self.log(&LogPayload::Delete {
                    txn,
                    fragment: self.fragment.id(),
                    tuple: t,
                });
                n += 1;
            }
        }
        Ok(n)
    }

    /// Update tuples satisfying `predicate`: each assignment sets column
    /// `col` to the value of `expr` over the *old* tuple. Returns count.
    pub fn update_where(
        &mut self,
        txn: TxnId,
        predicate: &ScalarExpr,
        assignments: &[(usize, ScalarExpr)],
    ) -> Result<usize> {
        predicate.check(self.fragment.schema())?;
        for (col, e) in assignments {
            if *col >= self.fragment.schema().arity() {
                return Err(PrismaError::ExprType(format!(
                    "assignment column {col} out of range"
                )));
            }
            e.check(self.fragment.schema())?;
        }
        let (_, candidates) = self.plan_selection(predicate);
        let pred = predicate.compile_predicate();
        let compiled: Vec<(usize, prisma_storage::expr::CompiledExpr)> = assignments
            .iter()
            .map(|(c, e)| (*c, e.compile()))
            .collect();
        let mut n = 0;
        for rid in candidates {
            let Some(old) = self.fragment.heap().get(rid).cloned() else {
                continue;
            };
            if !pred(&old) {
                continue;
            }
            let mut values: Vec<Value> = old.values().to_vec();
            for (col, f) in &compiled {
                values[*col] = f(&old);
            }
            let new = Tuple::new(values);
            self.fragment.update(rid, new.clone())?;
            self.undo
                .entry(txn)
                .or_default()
                .push(UndoOp::Updated(rid, old.clone()));
            self.log(&LogPayload::Delete {
                txn,
                fragment: self.fragment.id(),
                tuple: old,
            });
            self.log(&LogPayload::Insert {
                txn,
                fragment: self.fragment.id(),
                tuple: new,
            });
            n += 1;
        }
        Ok(n)
    }

    // ---- 2PC participant (persistent OFMs only need the disk work) ----

    /// Phase 1: vote. Persistent OFMs force a `Prepared` record; transient
    /// OFMs vote yes trivially. Returns simulated disk ns charged.
    pub fn prepare(&mut self, txn: TxnId) -> Result<u64> {
        let ns = if let OfmKind::Persistent { wal, .. } = &self.kind {
            let (_, ns) = wal.append_durable(&LogPayload::Prepared { txn });
            ns
        } else {
            0
        };
        self.prepared.insert(txn, ());
        Ok(ns)
    }

    /// Phase 2: commit. Forces the `Commit` record for persistent OFMs and
    /// discards the undo log. Returns simulated disk ns charged.
    pub fn commit(&mut self, txn: TxnId) -> Result<u64> {
        let ns = if let OfmKind::Persistent { wal, .. } = &self.kind {
            let (_, ns) = wal.append_durable(&LogPayload::Commit { txn });
            ns
        } else {
            0
        };
        if self.replicating {
            self.replica_out.push(LogPayload::Commit { txn });
        }
        self.prepared.remove(&txn);
        self.undo.remove(&txn);
        Ok(ns)
    }

    /// Abort: undo all of `txn`'s local effects in reverse order.
    pub fn abort(&mut self, txn: TxnId) -> Result<()> {
        self.prepared.remove(&txn);
        if let Some(ops) = self.undo.remove(&txn) {
            for op in ops.into_iter().rev() {
                match op {
                    UndoOp::Inserted(rid) => {
                        self.fragment.delete(rid);
                    }
                    UndoOp::Deleted(t) => {
                        self.fragment.insert(t)?;
                    }
                    UndoOp::Updated(rid, old) => {
                        self.fragment.update(rid, old)?;
                    }
                }
            }
        }
        self.log(&LogPayload::Abort { txn });
        Ok(())
    }

    // ---- local query processing ----

    /// The local query optimizer: inspect `predicate`'s indexable conjuncts
    /// and choose an access path. Returns the chosen path and the candidate
    /// Rids — a superset of the matching rows, so callers still apply the
    /// predicate in full.
    ///
    /// Rules (in priority order, mirroring the knowledge-based flavor of
    /// §2.4 at fragment scope):
    /// 1. `col = literal` with a hash index on `col` → hash lookup;
    /// 2. `col <cmp> literal` with a B-tree on `col` → range scan;
    /// 3. otherwise → zone-pruned chunk scan + delta, candidates in
    ///    ascending Rid order.
    pub fn plan_selection(&self, predicate: &ScalarExpr) -> (AccessPath, Vec<Rid>) {
        let conjuncts = predicate.clone().split_conjunction();
        // Rule 1: hash-index equality.
        for c in &conjuncts {
            if let Some((col, CmpOp::Eq, v)) = c.as_col_cmp_lit() {
                for (slot, idx) in self.fragment.hash_indexes().iter().enumerate() {
                    if idx.key_cols() == [col] {
                        return (AccessPath::HashLookup(slot), idx.lookup_one(v).to_vec());
                    }
                }
            }
        }
        // Rule 2: B-tree range.
        for c in &conjuncts {
            if let Some((col, op, v)) = c.as_col_cmp_lit() {
                for (slot, idx) in self.fragment.btree_indexes().iter().enumerate() {
                    if idx.key_cols() == [col] {
                        let rids = match op {
                            CmpOp::Eq => idx.lookup(std::slice::from_ref(v)).to_vec(),
                            CmpOp::Lt => idx.range_one(None, Some((v, false))),
                            CmpOp::Le => idx.range_one(None, Some((v, true))),
                            CmpOp::Gt => idx.range_one(Some((v, false)), None),
                            CmpOp::Ge => idx.range_one(Some((v, true)), None),
                            CmpOp::Ne => continue,
                        };
                        return (AccessPath::BTreeRange(slot), rids);
                    }
                }
            }
        }
        let scan = self.fragment.zone_scan(predicate);
        (
            AccessPath::ZoneScan {
                chunks_scanned: scan.chunks_scanned,
                chunks_pruned: scan.chunks_pruned,
            },
            scan.rids,
        )
    }

    /// Select tuples satisfying `predicate` (or all, for `None`), using
    /// the local optimizer and the compiled-predicate fast path.
    pub fn select(&self, predicate: Option<&ScalarExpr>) -> Result<Relation> {
        let schema = self.fragment.schema().clone();
        match predicate {
            None => Ok(Relation::new(schema, self.fragment.all_tuples())),
            Some(p) => {
                p.check(&schema)?;
                let (_, rids) = self.plan_selection(p);
                let compiled = p.compile_predicate();
                let mut out = Vec::new();
                for rid in rids {
                    if let Some(t) = self.fragment.heap().get(rid) {
                        // The index narrowed candidates; the residual
                        // predicate still applies in full.
                        if compiled(t) {
                            out.push(t.clone());
                        }
                    }
                }
                Ok(Relation::new(schema, out))
            }
        }
    }

    /// Open a lowered physical subplan against this fragment as a
    /// resumable [`prisma_relalg::BatchStream`] — the seam the streaming
    /// wire protocol pulls through: the OFM actor alternates
    /// [`prisma_relalg::BatchStream::next_batch`] with shipping the
    /// batch, so the coordinator merges early batches while
    /// this fragment is still scanning. Inside `plan`, `Scan(self.name())`
    /// reads this fragment; `extra` supplies shipped-in build sides and
    /// other intermediates by name (already `Arc`-shared, so broadcast
    /// sides are never copied per fragment).
    ///
    /// Scans snapshot the fragment at open time, so the stream stays
    /// consistent however long shipping takes. Batches come out in
    /// whatever physical form the executor produced; callers shipping
    /// across PEs encode them as typed column blocks via
    /// [`Batch::encode_columnar_shared`], so a batch never pivots to rows
    /// on its way to the coordinator.
    pub fn open_physical(
        &self,
        plan: &PhysicalPlan,
        extra: &HashMap<String, Arc<Relation>>,
    ) -> Result<prisma_relalg::BatchStream> {
        self.open_with_inputs(plan, extra, &HashMap::new())
    }

    /// [`Ofm::open_physical`] for a phase-2 shuffle-join site plan: its
    /// two scans read the collected bucket batches ([`shuffle_extras`]) in
    /// column form, so nothing between the wire and the join's probe
    /// builds a row.
    pub fn open_shuffle_join(
        &self,
        plan: &PhysicalPlan,
        inputs: &HashMap<String, Arc<ChunkedRelation>>,
    ) -> Result<prisma_relalg::BatchStream> {
        self.open_with_inputs(plan, &HashMap::new(), inputs)
    }

    fn open_with_inputs(
        &self,
        plan: &PhysicalPlan,
        extra: &HashMap<String, Arc<Relation>>,
        batched: &HashMap<String, Arc<ChunkedRelation>>,
    ) -> Result<prisma_relalg::BatchStream> {
        struct P<'a> {
            ofm: &'a Ofm,
            extra: &'a HashMap<String, Arc<Relation>>,
            batched: &'a HashMap<String, Arc<ChunkedRelation>>,
        }
        impl RelationProvider for P<'_> {
            fn relation(&self, name: &str) -> Result<Arc<Relation>> {
                if name == self.ofm.name {
                    Ok(Arc::new(self.ofm.snapshot()))
                } else if let Some(rel) = self.extra.get(name) {
                    Ok(Arc::clone(rel))
                } else {
                    self.batched.relation(name)
                }
            }

            fn chunked(&self, name: &str) -> Option<Arc<ChunkedRelation>> {
                if name != self.ofm.name {
                    return self.batched.chunked(name);
                }
                let frag = &self.ofm.fragment;
                if frag.sealed_count() == 0 {
                    // All-delta fragments scan through the plain row path.
                    return None;
                }
                Some(Arc::new(ChunkedRelation::new(
                    frag.sealed_chunks(),
                    Relation::new(frag.schema().clone(), frag.delta_tuples()),
                )))
            }
        }
        let provider = P {
            ofm: self,
            extra,
            batched,
        };
        prisma_relalg::open_batches_pooled(plan, &provider, self.pool.clone())
    }

    /// Execute a lowered physical subplan to completion, returning every
    /// batch at once in whatever form the executor produced — a
    /// convenience for embedders and tests; the actor hot path streams
    /// through [`Ofm::open_physical`] instead.
    pub fn execute_physical(
        &self,
        plan: &PhysicalPlan,
        extra: &HashMap<String, Arc<Relation>>,
    ) -> Result<Vec<Batch>> {
        self.open_physical(plan, extra)?.drain()
    }

    /// Execute a local logical subplan: lower it and run the physical
    /// batch pipeline (the reference evaluator is no longer on this path).
    ///
    /// Convenience for embedders and tests. Note it lowers with default
    /// join strategies and deep-copies each `extra` relation into an
    /// `Arc`; the actor hot path uses [`Ofm::open_physical`] directly
    /// with pre-shared extras.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        extra: &HashMap<String, Relation>,
    ) -> Result<Relation> {
        let physical = prisma_relalg::lower(plan)?;
        let shared: HashMap<String, Arc<Relation>> = extra
            .iter()
            .map(|(k, v)| (k.clone(), Arc::new(v.clone())))
            .collect();
        let batches = self.execute_physical(&physical, &shared)?;
        Ok(prisma_relalg::exec::collect_batches(
            physical.output_schema()?,
            batches,
        ))
    }

    /// The paper's per-OFM transitive-closure operator applied to this
    /// fragment (must be binary).
    pub fn transitive_closure(&self) -> Result<Relation> {
        prisma_relalg::eval::transitive_closure(&self.snapshot())
    }

    /// Scan-side seal hook: fold any over-threshold delta into sealed
    /// column chunks before a subplan opens against this fragment, so
    /// cold data accumulated by mutations (dissolved chunks, bulk loads
    /// with a later-lowered threshold) is served columnar from the first
    /// scan. Sealing reorganizes storage only — it is **not** a mutation:
    /// no log record, no replica traffic, no statistics-epoch bump.
    pub fn seal_for_scan(&mut self) {
        self.fragment.seal();
    }

    /// Snapshot the fragment as a relation.
    pub fn snapshot(&self) -> Relation {
        Relation::new(self.fragment.schema().clone(), self.fragment.all_tuples())
    }

    // ---- checkpoint & recovery (persistent OFMs) ----

    /// Write a checkpoint snapshot; returns simulated disk ns.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let OfmKind::Persistent { wal, checkpoints } = &self.kind else {
            return Err(PrismaError::Execution(
                "transient OFM cannot checkpoint".into(),
            ));
        };
        let lsn = wal.append(&LogPayload::Checkpoint {
            fragment: self.fragment.id(),
        });
        let sync_ns = wal.sync();
        let snap_ns = checkpoints.write(prisma_stable::checkpoint::Snapshot {
            fragment: self.fragment.id(),
            as_of_lsn: lsn,
            tuples: self.fragment.all_tuples(),
        });
        Ok(sync_ns + snap_ns)
    }

    /// Rebuild a persistent OFM from stable storage after a crash:
    /// latest checkpoint (if any) + redo of committed transactions'
    /// records past the checkpoint LSN.
    pub fn recover(
        id: FragmentId,
        name: impl Into<String>,
        schema: Schema,
        wal: Arc<WriteAheadLog>,
        checkpoints: Arc<CheckpointStore>,
    ) -> Result<Ofm> {
        checkpoints.recover();
        let mut ofm = Ofm::new(
            id,
            name,
            schema,
            OfmKind::Persistent {
                wal: wal.clone(),
                checkpoints: checkpoints.clone(),
            },
        );
        let mut redo_after: Option<u64> = None;
        if let Some(snap) = checkpoints.load(id) {
            for t in snap.tuples {
                ofm.fragment.insert(t)?;
            }
            redo_after = Some(snap.as_of_lsn);
        }
        let records = wal.read_durable();
        let committed = WriteAheadLog::committed_txns(&records);
        for rec in records {
            if redo_after.is_some_and(|lsn| rec.lsn <= lsn) {
                continue;
            }
            match rec.payload {
                LogPayload::Insert { txn, fragment, tuple }
                    if fragment == id && committed.contains(&txn) =>
                {
                    ofm.fragment.insert(tuple)?;
                }
                LogPayload::Delete { txn, fragment, tuple }
                    if fragment == id && committed.contains(&txn) =>
                {
                    ofm.fragment
                        .delete_by_value(&tuple)
                        .ok_or_else(|| ofm.missing_image(txn, &tuple))?;
                }
                _ => {}
            }
        }
        ofm.fragment.drop_image_index();
        Ok(ofm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_stable::{DiskProfile, SimulatedDisk, StableDevice};
    use prisma_types::{tuple, Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("amount", DataType::Int),
        ])
    }

    fn transient() -> Ofm {
        Ofm::new(FragmentId(0), "acct", schema(), OfmKind::Transient)
    }

    fn persistent() -> (Ofm, Arc<WriteAheadLog>, Arc<CheckpointStore>) {
        let wal_dev: Arc<dyn StableDevice> =
            Arc::new(SimulatedDisk::new(DiskProfile::instant()));
        let ck_dev: Arc<dyn StableDevice> =
            Arc::new(SimulatedDisk::new(DiskProfile::instant()));
        let wal = Arc::new(WriteAheadLog::new(wal_dev));
        let ck = Arc::new(CheckpointStore::open(ck_dev));
        let ofm = Ofm::new(
            FragmentId(0),
            "acct",
            schema(),
            OfmKind::Persistent {
                wal: wal.clone(),
                checkpoints: ck.clone(),
            },
        );
        (ofm, wal, ck)
    }

    #[test]
    fn abort_undoes_everything_in_reverse() {
        let mut ofm = transient();
        let txn = TxnId(1);
        ofm.insert(txn, tuple![1, 100]).unwrap();
        ofm.insert(TxnId(99), tuple![2, 200]).unwrap();
        ofm.commit(TxnId(99)).unwrap();
        ofm.update_where(
            txn,
            &ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(2)),
            &[(1, ScalarExpr::lit(999))],
        )
        .unwrap();
        ofm.delete_where(txn, &ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(2)))
            .unwrap();
        ofm.abort(txn).unwrap();
        let snap = ofm.snapshot().canonicalized();
        assert_eq!(snap.tuples(), &[tuple![2, 200]]);
    }

    #[test]
    fn local_optimizer_picks_hash_then_btree_then_scan() {
        let mut ofm = transient();
        ofm.fragment_mut().add_hash_index(vec![0]).unwrap();
        ofm.fragment_mut().add_btree_index(vec![1]).unwrap();
        let txn = TxnId(1);
        for i in 0..100 {
            ofm.insert(txn, tuple![i, i * 10]).unwrap();
        }
        ofm.commit(txn).unwrap();
        let (path, rids) =
            ofm.plan_selection(&ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(7)));
        assert_eq!(path, AccessPath::HashLookup(0));
        assert_eq!(rids.len(), 1);
        let (path, rids) = ofm.plan_selection(&ScalarExpr::cmp(
            CmpOp::Ge,
            ScalarExpr::col(1),
            ScalarExpr::lit(950),
        ));
        assert_eq!(path, AccessPath::BTreeRange(0));
        assert_eq!(rids.len(), 5);
        let (path, rids) = ofm.plan_selection(&ScalarExpr::cmp(
            CmpOp::Ne,
            ScalarExpr::col(0),
            ScalarExpr::lit(7),
        ));
        // No index serves `<>`; how many chunks there are depends on the
        // lane (`SEAL_EVERY`), that each is scanned or pruned does not.
        let AccessPath::ZoneScan {
            chunks_scanned,
            chunks_pruned,
        } = path
        else {
            panic!("no index serves <>, got {path:?}");
        };
        assert_eq!(
            chunks_scanned + chunks_pruned,
            ofm.fragment().sealed_count()
        );
        assert_eq!(rids.len(), 99);
        // Reversed operand order still uses the index.
        let (path, _) = ofm.plan_selection(&ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::lit(7),
            ScalarExpr::col(0),
        ));
        assert_eq!(path, AccessPath::HashLookup(0));
    }

    #[test]
    fn zone_scan_prunes_refuted_chunks_and_indexes_still_win() {
        let mut ofm = transient();
        ofm.fragment_mut().set_seal_rows(10);
        let txn = TxnId(1);
        for i in 0..95 {
            ofm.insert(txn, tuple![i, i % 10]).unwrap();
        }
        ofm.commit(txn).unwrap();
        assert_eq!(ofm.fragment().sealed_count(), 9);
        let between = |lo: i64, hi: i64| {
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(0), ScalarExpr::lit(lo)),
                ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(0), ScalarExpr::lit(hi)),
            )
        };
        // A range inside one chunk: the other eight are refuted unread.
        let (path, rids) = ofm.plan_selection(&between(42, 47));
        assert_eq!(
            path,
            AccessPath::ZoneScan {
                chunks_scanned: 1,
                chunks_pruned: 8
            }
        );
        assert_eq!(rids.len(), 6);
        assert!(rids.windows(2).all(|w| w[0] < w[1]), "ascending Rid order");
        // A range only the delta holds (and one nothing holds) reads no chunk.
        for (pred, hits) in [(between(90, 200), 5), (between(500, 600), 0)] {
            let (path, rids) = ofm.plan_selection(&pred);
            assert_eq!(
                path,
                AccessPath::ZoneScan {
                    chunks_scanned: 0,
                    chunks_pruned: 9
                }
            );
            assert_eq!(rids.len(), hits);
        }
        // A scattered predicate reaches every chunk.
        let (path, rids) =
            ofm.plan_selection(&ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(3)));
        assert_eq!(
            path,
            AccessPath::ZoneScan {
                chunks_scanned: 9,
                chunks_pruned: 0
            }
        );
        assert_eq!(rids.len(), 10);
        // Index rules keep their priority over the zone scan.
        ofm.fragment_mut().add_hash_index(vec![0]).unwrap();
        ofm.fragment_mut().add_btree_index(vec![1]).unwrap();
        let (path, _) =
            ofm.plan_selection(&ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(42)));
        assert_eq!(path, AccessPath::HashLookup(0));
        let (path, _) = ofm.plan_selection(&ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(1),
            ScalarExpr::lit(2),
        ));
        assert_eq!(path, AccessPath::BTreeRange(0));
        let (path, _) = ofm.plan_selection(&between(42, 47));
        assert!(matches!(path, AccessPath::ZoneScan { .. }));
    }

    #[test]
    fn select_with_index_matches_full_scan() {
        let mut ofm = transient();
        ofm.fragment_mut().add_btree_index(vec![1]).unwrap();
        let txn = TxnId(1);
        for i in 0..50 {
            ofm.insert(txn, tuple![i, i % 7]).unwrap();
        }
        ofm.commit(txn).unwrap();
        let pred = ScalarExpr::and(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::lit(3)),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(10)),
        );
        let via_index = ofm.select(Some(&pred)).unwrap().canonicalized();
        // Strip indexes: full scan reference.
        let mut plain = transient();
        for t in ofm.snapshot().tuples() {
            plain.insert(txn, t.clone()).unwrap();
        }
        let via_scan = plain.select(Some(&pred)).unwrap().canonicalized();
        assert_eq!(via_index, via_scan);
        assert!(!via_index.is_empty());
    }

    #[test]
    fn execute_local_plan_with_shipped_build_side() {
        let mut ofm = transient();
        let txn = TxnId(1);
        for i in 0..10 {
            ofm.insert(txn, tuple![i, i]).unwrap();
        }
        ofm.commit(txn).unwrap();
        let build = Relation::new(
            Schema::new(vec![Column::new("k", DataType::Int)]),
            vec![tuple![3], tuple![5]],
        );
        let plan = LogicalPlan::scan("acct", ofm.schema().clone()).join(
            LogicalPlan::scan("build", build.schema().clone()),
            vec![(0, 0)],
        );
        let mut extra = HashMap::new();
        extra.insert("build".to_owned(), build);
        let out = ofm.execute(&plan, &extra).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn recovery_replays_committed_only() {
        let (mut ofm, wal, ck) = persistent();
        let t1 = TxnId(1);
        let t2 = TxnId(2);
        ofm.insert(t1, tuple![1, 100]).unwrap();
        ofm.prepare(t1).unwrap();
        ofm.commit(t1).unwrap();
        ofm.insert(t2, tuple![2, 200]).unwrap();
        // t2 never commits; crash now (lose nothing synced? records of t2
        // were appended but commit record absent).
        wal.sync();
        wal.device().crash(None);
        let rec = Ofm::recover(FragmentId(0), "acct", schema(), wal, ck).unwrap();
        let snap = rec.snapshot().canonicalized();
        assert_eq!(snap.tuples(), &[tuple![1, 100]]);
    }

    #[test]
    fn recovery_with_checkpoint_and_suffix() {
        let (mut ofm, wal, ck) = persistent();
        let t1 = TxnId(1);
        ofm.insert(t1, tuple![1, 100]).unwrap();
        ofm.insert(t1, tuple![2, 200]).unwrap();
        ofm.commit(t1).unwrap();
        ofm.checkpoint().unwrap();
        let t2 = TxnId(2);
        ofm.delete_where(t2, &ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1)))
            .unwrap();
        ofm.insert(t2, tuple![3, 300]).unwrap();
        ofm.commit(t2).unwrap();
        wal.device().crash(None);
        let rec = Ofm::recover(FragmentId(0), "acct", schema(), wal, ck).unwrap();
        let snap = rec.snapshot().canonicalized();
        assert_eq!(snap.tuples(), &[tuple![2, 200], tuple![3, 300]]);
    }

    #[test]
    fn update_is_logged_as_delete_insert_for_recovery() {
        let (mut ofm, wal, ck) = persistent();
        let t1 = TxnId(1);
        ofm.insert(t1, tuple![1, 100]).unwrap();
        ofm.commit(t1).unwrap();
        let t2 = TxnId(2);
        ofm.update_where(
            t2,
            &ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1)),
            &[(1, ScalarExpr::arith(
                prisma_storage::expr::ArithOp::Add,
                ScalarExpr::col(1),
                ScalarExpr::lit(1),
            ))],
        )
        .unwrap();
        ofm.commit(t2).unwrap();
        wal.device().crash(None);
        let rec = Ofm::recover(FragmentId(0), "acct", schema(), wal, ck).unwrap();
        assert_eq!(rec.snapshot().tuples(), &[tuple![1, 101]]);
    }

    #[test]
    fn transient_ofm_cannot_checkpoint_and_preps_for_free() {
        let mut ofm = transient();
        assert!(ofm.checkpoint().is_err());
        assert_eq!(ofm.prepare(TxnId(1)).unwrap(), 0);
    }

    #[test]
    fn replica_apply_mirrors_committed_work_and_discards_aborts() {
        let mut primary = transient();
        primary.enable_replication();
        let mut backup = transient();

        let t1 = TxnId(1);
        primary.insert(t1, tuple![1, 100]).unwrap();
        primary.insert(t1, tuple![2, 200]).unwrap();
        primary.commit(t1).unwrap();
        let shipped = primary.drain_replica_records();
        assert_eq!(shipped.len(), 3, "two inserts + the commit record");
        assert_eq!(backup.replica_apply(shipped).unwrap(), 1);
        assert_eq!(backup.stats().tuples, 2);

        // Buffered mutations of an aborted transaction never surface.
        let t2 = TxnId(2);
        primary.insert(t2, tuple![3, 300]).unwrap();
        primary.abort(t2).unwrap();
        backup
            .replica_apply(primary.drain_replica_records())
            .unwrap();
        assert_eq!(backup.stats().tuples, 2);

        // Deletes replicate by value.
        let t3 = TxnId(3);
        primary
            .delete_where(t3, &ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(1)))
            .unwrap();
        primary.commit(t3).unwrap();
        backup
            .replica_apply(primary.drain_replica_records())
            .unwrap();
        assert_eq!(backup.stats().tuples, 1);
        assert_eq!(backup.snapshot().tuples(), &[tuple![2, 200]]);
    }

    #[test]
    fn a_backup_that_cannot_find_a_delete_image_says_so() {
        let mut backup = transient();
        backup.fragment_mut().insert(tuple![1, 100]).unwrap();
        let delete = |txn: u32, id: i64| LogPayload::Delete {
            txn: TxnId(txn),
            fragment: FragmentId(0),
            tuple: tuple![id, 100],
        };
        // (7, 100) was never here; (1, 100) of the same commit still goes.
        let err = backup
            .replica_apply(vec![
                delete(4, 7),
                delete(4, 1),
                LogPayload::Commit { txn: TxnId(4) },
            ])
            .unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, PrismaError::Execution(_)), "{msg}");
        for part in ["frag0", "acct", "txn4", "(7, 100)"] {
            assert!(msg.contains(part), "{part} missing from: {msg}");
        }
        assert_eq!(backup.stats().tuples, 0);
        // A missing image of an aborted transaction is never looked up.
        backup
            .replica_apply(vec![delete(5, 7), LogPayload::Abort { txn: TxnId(5) }])
            .unwrap();
    }

    #[test]
    fn recovery_reports_a_redo_delete_without_an_image() {
        let (mut ofm, wal, ck) = persistent();
        ofm.insert(TxnId(1), tuple![1, 100]).unwrap();
        ofm.commit(TxnId(1)).unwrap();
        wal.append(&LogPayload::Delete {
            txn: TxnId(2),
            fragment: FragmentId(0),
            tuple: tuple![9, 900],
        });
        wal.append_durable(&LogPayload::Commit { txn: TxnId(2) });
        let err = Ofm::recover(FragmentId(0), "acct", schema(), wal, ck)
            .err()
            .expect("the log deletes a tuple the fragment never held");
        assert!(err.to_string().contains("(9, 900)"), "{err}");
    }

    #[test]
    fn closure_operator_on_fragment() {
        let edge_schema = Schema::new(vec![
            Column::new("src", DataType::Int),
            Column::new("dst", DataType::Int),
        ]);
        let mut ofm = Ofm::new(FragmentId(1), "edge", edge_schema, OfmKind::Transient);
        let txn = TxnId(1);
        for (a, b) in [(1, 2), (2, 3)] {
            ofm.insert(txn, tuple![a, b]).unwrap();
        }
        ofm.commit(txn).unwrap();
        let tc = ofm.transitive_closure().unwrap();
        assert_eq!(tc.len(), 3);
    }
}
