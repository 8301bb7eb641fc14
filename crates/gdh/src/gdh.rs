//! The Global Data Handler façade: parsers + optimizer + transactions +
//! parallel executor, supervising the OFM actors.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use prisma_multicomputer::{CostModel, Topology};
use prisma_ofm::{Ofm, OfmKind};
use prisma_optimizer::{Optimizer, OptimizerConfig, StatsSource};
use prisma_poolx::{PoolRuntime, TrafficLedger};
use prisma_prismalog as plog;
use prisma_relalg::{LogicalPlan, Relation};
use prisma_sqlfe::{self as sqlfe, PlannedStatement};
use prisma_stable::DiskProfile;
use prisma_storage::expr::ScalarExpr;
use prisma_types::{
    MachineConfig, PeId, PrismaError, Result, Schema, Tuple, TxnId,
};

use crate::allocation::AllocationPolicy;
use crate::dictionary::{DataDictionary, FragmentHandle, RelationInfo};
use crate::exec::{ExecMetrics, ParallelExecutor};
use crate::locks::{LockManager, LockMode};
use crate::message::{GdhMsg, OfmActor};
use crate::txn::TransactionManager;

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// A query result.
    Rows(Relation),
    /// DML row count.
    Affected(usize),
    /// DDL success.
    Done,
}

impl QueryOutcome {
    /// The relation, for callers that know they ran a query.
    pub fn rows(self) -> Result<Relation> {
        match self {
            QueryOutcome::Rows(r) => Ok(r),
            other => Err(PrismaError::Execution(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    /// The affected-row count, for callers that know they ran DML.
    pub fn affected(self) -> Result<usize> {
        match self {
            QueryOutcome::Affected(n) => Ok(n),
            other => Err(PrismaError::Execution(format!(
                "expected a row count, got {other:?}"
            ))),
        }
    }
}

/// One transaction's staged statistics effect on a relation, applied to
/// the dictionary only at commit (dropped on abort — rolled-back DML
/// must never skew row estimates or stale freshness).
enum StagedDml {
    /// Per-fragment row deltas (INSERT/DELETE).
    PerFragment(Vec<(prisma_types::FragmentId, i64)>),
    /// Values changed, row count didn't (UPDATE): epoch bump only.
    EpochOnly,
}

/// Receive one reply against a **deadline shared by the whole fan-out**:
/// each reply narrows the remaining wait instead of resetting the clock,
/// so N outstanding replies are bounded by one reply timeout total — a
/// slow-trickling participant can no longer stall N×timeout before the
/// error surfaces.
fn recv_by(
    mailbox: &prisma_poolx::ExternalMailbox<GdhMsg>,
    deadline: Instant,
) -> Result<GdhMsg> {
    mailbox.recv_timeout(deadline.saturating_duration_since(Instant::now()))
}

/// The GDH: the supervisor of the PRISMA DBMS (paper §2.2).
pub struct GlobalDataHandler {
    config: MachineConfig,
    runtime: Arc<PoolRuntime<GdhMsg>>,
    dictionary: Arc<DataDictionary>,
    locks: Arc<LockManager>,
    txns: TransactionManager,
    executor: ParallelExecutor,
    topology: Topology,
    allocation: AllocationPolicy,
    optimizer_config: OptimizerConfig,
    /// Statistics effects of in-flight transactions, keyed by txn —
    /// flushed to the dictionary at commit, discarded at abort.
    staged_stats: Mutex<HashMap<TxnId, Vec<(String, StagedDml)>>>,
    /// Per-PE compute worker pools for morsel-driven intra-fragment
    /// parallelism, sized by [`MachineConfig::effective_ofm_workers`].
    /// Shared-memory only: pool counters reach `ExecMetrics` through
    /// coordinator-side reads of this set, never through the wire.
    pools: Arc<prisma_poolx::PoolSet>,
    /// Fault injection hooks handed to every spawned OFM actor — inert
    /// in production (one atomic load per message) unless `FAULT_SEED`
    /// or [`GlobalDataHandler::set_fault_injector`] scripted faults.
    faults: Arc<prisma_faultx::FaultInjector>,
}

impl GlobalDataHandler {
    /// Boot the DBMS on a simulated machine: start the POOL-X runtime with
    /// one worker per PE, create stable-storage services on disk PEs, and
    /// stand up the supervisor components.
    pub fn boot(
        config: MachineConfig,
        allocation: AllocationPolicy,
        disk_profile: DiskProfile,
    ) -> Result<GlobalDataHandler> {
        config.validate()?;
        let cost = CostModel::new(&config)?;
        let topology = Topology::build(&config)?;
        let ledger = Arc::new(TrafficLedger::new(cost));
        let runtime: Arc<PoolRuntime<GdhMsg>> = PoolRuntime::start(config.num_pes, ledger);
        let dictionary = Arc::new(DataDictionary::new(config.clone(), disk_profile));
        let locks = Arc::new(LockManager::new());
        let coordinator_log = dictionary.stable_for(PeId(0)).wal;
        let txns = TransactionManager::new(runtime.clone(), locks.clone(), coordinator_log)
            .with_reply_timeout(config.reply_timeout());
        let pools = prisma_poolx::PoolSet::new(config.effective_ofm_workers());
        let executor = ParallelExecutor::new(runtime.clone(), dictionary.clone())
            .with_pools(pools.clone());
        Ok(GlobalDataHandler {
            config,
            runtime,
            dictionary,
            locks,
            txns,
            executor,
            topology,
            allocation,
            optimizer_config: OptimizerConfig::default(),
            staged_stats: Mutex::new(HashMap::new()),
            pools,
            faults: prisma_faultx::global().clone(),
        })
    }

    /// Replace the fault injector handed to subsequently spawned OFM
    /// actors and consulted by the executor's failure detector (call
    /// before `CREATE TABLE`; tests script faults per run instead of
    /// per process via `FAULT_SEED`).
    pub fn set_fault_injector(&mut self, faults: Arc<prisma_faultx::FaultInjector>) {
        self.executor.set_fault_injector(faults.clone());
        self.faults = faults;
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The data dictionary.
    pub fn dictionary(&self) -> &Arc<DataDictionary> {
        &self.dictionary
    }

    /// Communication ledger of the underlying runtime.
    pub fn ledger(&self) -> &Arc<TrafficLedger> {
        self.runtime.ledger()
    }

    /// The per-PE compute worker pools (morsel parallelism); benches
    /// read busy/steal counters from here.
    pub fn pools(&self) -> &Arc<prisma_poolx::PoolSet> {
        &self.pools
    }

    /// Override the optimizer configuration: the optimizer-ablation
    /// tests switch rewrite rules off through it.
    // checkx:allow(dead-pub) the ablation tests of the `prisma` facade reach it through `gdh_mut()`
    pub fn set_optimizer_config(&mut self, cfg: OptimizerConfig) {
        self.optimizer_config = cfg;
    }

    /// Override the physical-lowering tunables (broadcast-vs-partition
    /// threshold); EXPLAIN and execution always share this config.
    pub fn set_physical_config(&mut self, cfg: prisma_optimizer::PhysicalConfig) {
        self.executor.set_physical_config(cfg);
    }

    /// Streaming is the only reply mode. The setter survives as a stub
    /// because the frozen `e0/` benchmark still calls it with `true`;
    /// it selects nothing.
    #[doc(hidden)]
    pub fn set_streaming(&mut self, streaming: bool) {
        assert!(streaming, "materialized replies were removed: streaming is the only reply mode");
    }

    /// The column-block wire is the only wire; a stub for the same
    /// reason as the one above.
    #[doc(hidden)]
    pub fn set_columnar_wire(&mut self, columnar: bool) {
        assert!(columnar, "the row wire was removed: column blocks are the only wire");
    }

    /// Shut the machine down (drains actor mailboxes).
    pub fn shutdown(&self) {
        self.runtime.shutdown();
    }

    // ---------------- DDL ----------------

    /// Create a relation with `frag_count` fragments, hash-fragmented on
    /// `frag_column` (None = round-robin), placed by the allocation
    /// policy; `co_locate_with` anchors locality-aware placement.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        frag_column: Option<usize>,
        frag_count: usize,
        co_locate_with: Option<&str>,
    ) -> Result<()> {
        if frag_count == 0 {
            return Err(PrismaError::Config("frag_count must be > 0".into()));
        }
        let anchor: Option<Vec<PeId>> = match co_locate_with {
            Some(other) => Some(self.dictionary.relation(other)?.pes()),
            None => None,
        };
        let load = self.dictionary.fragments_per_pe();
        let pes = self
            .allocation
            .place(frag_count, &load, &self.topology, anchor.as_deref());
        let mut fragments = Vec::with_capacity(frag_count);
        for pe in pes {
            let id = self.dictionary.alloc_fragment_id();
            let stable = self.dictionary.stable_for(pe);
            let mut ofm = Ofm::new(
                id,
                name,
                schema.clone(),
                OfmKind::Persistent {
                    wal: stable.wal,
                    checkpoints: stable.checkpoints,
                },
            );
            ofm.fragment_mut()
                .set_seal_rows(self.config.effective_seal_rows());
            if let Some(pool) = self.pools.pool_for(pe.0 as usize) {
                ofm.attach_pool(pool);
            }
            // Backup replica on a distinct PE, kept in sync by log
            // shipping from the primary — what a mid-query failover
            // flips to when the primary's PE dies.
            let backup = self.spawn_backup(id, name, &schema, pe, Vec::new())?;
            let mut actor_obj = OfmActor::with_faults(ofm, self.faults.clone());
            if let Some((_, backup_actor)) = backup {
                actor_obj = actor_obj.with_replica(backup_actor);
            }
            let actor = self.runtime.spawn(pe, Box::new(actor_obj))?;
            let mut handle = FragmentHandle::new(id, pe, actor);
            if let Some((backup_pe, backup_actor)) = backup {
                handle = handle.with_backup(backup_pe, backup_actor);
            }
            fragments.push(handle);
        }
        self.dictionary.register(
            name,
            RelationInfo {
                schema,
                frag_column,
                fragments,
            },
        )?;
        Ok(())
    }

    /// Spawn a backup replica OFM for fragment `id` on a PE distinct
    /// from `primary_pe`, pre-seeded with `seed` tuples (empty at
    /// CREATE TABLE; the recovered image when rebuilding after a
    /// crash). The replica is a main-memory mirror — redundancy *is*
    /// its durability story — fed by the primary's shipped log.
    /// Returns `None` on single-PE machines: no distinct PE survives a
    /// crash there.
    fn spawn_backup(
        &self,
        id: prisma_types::FragmentId,
        name: &str,
        schema: &Schema,
        primary_pe: PeId,
        seed: Vec<Tuple>,
    ) -> Result<Option<(PeId, prisma_types::ProcessId)>> {
        if self.config.num_pes < 2 {
            return Ok(None);
        }
        let backup_pe = PeId::from((primary_pe.index() + 1) % self.config.num_pes);
        let mut ofm = Ofm::new(id, name, schema.clone(), OfmKind::Transient);
        ofm.fragment_mut()
            .set_seal_rows(self.config.effective_seal_rows());
        for t in seed {
            ofm.fragment_mut().insert(t)?;
        }
        if let Some(pool) = self.pools.pool_for(backup_pe.index()) {
            ofm.attach_pool(pool);
        }
        let actor = self.runtime.spawn(
            backup_pe,
            Box::new(OfmActor::with_faults(ofm, self.faults.clone())),
        )?;
        Ok(Some((backup_pe, actor)))
    }

    /// Drop a relation and its OFM actors.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let _info = self.dictionary.unregister(name)?;
        // Actors are leaked-but-idle in this prototype (killing requires a
        // process context); their fragments become unreachable.
        Ok(())
    }

    /// Create an index on every fragment.
    pub fn create_index(&self, table: &str, column: usize, hash: bool) -> Result<()> {
        let info = self.dictionary.relation(table)?;
        let mailbox = self.runtime.external_mailbox();
        for (i, frag) in info.fragments.iter().enumerate() {
            self.runtime.send(
                frag.actor,
                GdhMsg::CreateIndex {
                    column,
                    hash,
                    reply_to: mailbox.id,
                    tag: i as u64,
                },
            )?;
        }
        let deadline = Instant::now() + self.config.reply_timeout();
        for _ in 0..info.fragments.len() {
            match recv_by(&mailbox, deadline)? {
                GdhMsg::Ack { result, .. } => {
                    result?;
                }
                other => {
                    return Err(PrismaError::Execution(format!(
                        "unexpected reply {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Checkpoint every fragment of a relation; returns total simulated
    /// disk ns.
    pub fn checkpoint(&self, table: &str) -> Result<u64> {
        let info = self.dictionary.relation(table)?;
        let mailbox = self.runtime.external_mailbox();
        for (i, frag) in info.fragments.iter().enumerate() {
            self.runtime.send(
                frag.actor,
                GdhMsg::Checkpoint {
                    reply_to: mailbox.id,
                    tag: i as u64,
                },
            )?;
        }
        let mut total = 0;
        let deadline = Instant::now() + self.config.reply_timeout();
        for _ in 0..info.fragments.len() {
            if let GdhMsg::Ack { result, .. } = recv_by(&mailbox, deadline)? {
                total += result?;
            }
        }
        Ok(total)
    }

    /// Recover a relation from stable storage: fresh OFMs rebuilt from
    /// checkpoint + committed WAL suffix replace the old actors (paper
    /// §3.2's "automatic recovery upon system failures").
    pub fn recover_relation(&self, name: &str) -> Result<()> {
        let info = self.dictionary.relation(name)?;
        let mut new_fragments = Vec::with_capacity(info.fragments.len());
        for frag in &info.fragments {
            let stable = self.dictionary.stable_for(frag.pe);
            let mut ofm = Ofm::recover(
                frag.id,
                name,
                info.schema.clone(),
                stable.wal,
                stable.checkpoints,
            )?;
            ofm.fragment_mut()
                .set_seal_rows(self.config.effective_seal_rows());
            if let Some(pool) = self.pools.pool_for(frag.pe.0 as usize) {
                ofm.attach_pool(pool);
            }
            // Re-stand the backup replica, seeded with the recovered
            // image so log shipping resumes from a synced pair.
            let backup = self.spawn_backup(
                frag.id,
                name,
                &info.schema,
                frag.pe,
                ofm.fragment().all_tuples(),
            )?;
            let mut actor_obj = OfmActor::with_faults(ofm, self.faults.clone());
            if let Some((_, backup_actor)) = backup {
                actor_obj = actor_obj.with_replica(backup_actor);
            }
            let actor = self.runtime.spawn(frag.pe, Box::new(actor_obj))?;
            let mut handle = FragmentHandle::new(frag.id, frag.pe, actor);
            if let Some((backup_pe, backup_actor)) = backup {
                handle = handle.with_backup(backup_pe, backup_actor);
            }
            new_fragments.push(handle);
        }
        self.dictionary.unregister(name)?;
        self.dictionary.register(
            name,
            RelationInfo {
                schema: info.schema,
                frag_column: info.frag_column,
                fragments: new_fragments,
            },
        )?;
        Ok(())
    }

    // ---------------- transactions & DML ----------------

    /// Begin an explicit transaction.
    pub fn begin(&self) -> TxnId {
        self.txns.begin()
    }

    /// Commit an explicit transaction (2PC). The transaction's staged
    /// statistics effects reach the dictionary only now — estimates
    /// never see uncommitted work.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let result = self.txns.commit(txn).map(|_| ());
        self.settle_staged_stats(txn, result.is_ok());
        result
    }

    /// Abort an explicit transaction. Its staged statistics effects are
    /// discarded — the fragments rolled back, so the cached reports are
    /// still exact.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let result = self.txns.abort(txn);
        self.settle_staged_stats(txn, false);
        result
    }

    /// Stage one DML batch's statistics effect under its transaction.
    fn stage_dml(&self, txn: TxnId, table: &str, dml: StagedDml) {
        self.staged_stats
            .lock()
            .entry(txn)
            .or_default()
            .push((table.to_owned(), dml));
    }

    /// Apply (commit) or drop (abort) a transaction's staged statistics
    /// effects.
    fn settle_staged_stats(&self, txn: TxnId, committed: bool) {
        let Some(staged) = self.staged_stats.lock().remove(&txn) else {
            return;
        };
        if !committed {
            return;
        }
        for (table, dml) in staged {
            match dml {
                StagedDml::PerFragment(deltas) => {
                    self.dictionary.note_mutation_by_fragment(&table, &deltas);
                }
                StagedDml::EpochOnly => self.dictionary.note_mutation(&table, 0),
            }
        }
    }

    /// Send one DML message to each of `targets` (positions into
    /// `info.fragments`), registering each as a 2PC participant of `txn`,
    /// and await exactly those replies: the affected-row count of every
    /// contacted fragment.
    fn dml_fan_out(
        &self,
        txn: TxnId,
        info: &RelationInfo,
        targets: &[usize],
        mut msg_for: impl FnMut(usize, prisma_types::ProcessId) -> GdhMsg,
    ) -> Result<Vec<(prisma_types::FragmentId, usize)>> {
        let mailbox = self.runtime.external_mailbox();
        for &i in targets {
            let frag = &info.fragments[i];
            self.txns.register_participant(txn, frag.actor)?;
            self.runtime.send(frag.actor, msg_for(i, mailbox.id))?;
        }
        let mut affected = Vec::with_capacity(targets.len());
        let deadline = Instant::now() + self.config.reply_timeout();
        for _ in targets {
            match recv_by(&mailbox, deadline)? {
                GdhMsg::DmlDone { tag, result } => {
                    let frag = info.fragments.get(tag as usize).ok_or_else(|| {
                        PrismaError::Execution(format!("DML reply with unknown tag {tag}"))
                    })?;
                    affected.push((frag.id, result?));
                }
                other => {
                    return Err(PrismaError::Execution(format!(
                        "unexpected reply {other:?}"
                    )))
                }
            }
        }
        Ok(affected)
    }

    /// Insert rows under `txn` (routes each row to its fragment).
    pub fn insert(&self, txn: TxnId, table: &str, rows: Vec<Tuple>) -> Result<usize> {
        let info = self.dictionary.relation(table)?;
        self.locks.acquire(txn, table, LockMode::Exclusive)?;
        // Route rows to fragments.
        let mut per_frag: HashMap<usize, Vec<Tuple>> = HashMap::new();
        for row in rows {
            info.schema.check_tuple(row.values())?;
            per_frag
                .entry(info.route(row.values())?)
                .or_default()
                .push(row);
        }
        let targets: Vec<usize> = per_frag.keys().copied().collect();
        let inserted = self.dml_fan_out(txn, &info, &targets, |i, reply_to| GdhMsg::Insert {
            txn,
            rows: per_frag.remove(&i).unwrap_or_default(),
            reply_to,
            tag: i as u64,
        })?;
        let deltas = inserted.iter().map(|&(id, k)| (id, k as i64)).collect();
        self.stage_dml(txn, table, StagedDml::PerFragment(deltas));
        Ok(inserted.iter().map(|(_, k)| k).sum())
    }

    /// Delete matching rows under `txn`. Only the fragments
    /// [`RelationInfo::fragments_for`] keeps are contacted and become
    /// 2PC participants: `WHERE <fragmentation key> = literal` is a
    /// one-fragment statement.
    pub fn delete(&self, txn: TxnId, table: &str, predicate: Option<ScalarExpr>) -> Result<usize> {
        self.locks.acquire(txn, table, LockMode::Exclusive)?;
        let info = self.dictionary.relation(table)?;
        let targets = info.fragments_for(predicate.as_ref());
        let deleted =
            self.dml_fan_out(txn, &info, &targets, |i, reply_to| GdhMsg::DeleteWhere {
                txn,
                predicate: predicate.clone(),
                reply_to,
                tag: i as u64,
            })?;
        let deltas = deleted.iter().map(|&(id, k)| (id, -(k as i64))).collect();
        self.stage_dml(txn, table, StagedDml::PerFragment(deltas));
        Ok(deleted.iter().map(|(_, k)| k).sum())
    }

    /// Update matching rows under `txn`, contacting only the fragments
    /// [`RelationInfo::fragments_for`] keeps. Fragment elimination relies
    /// on every row sitting where its key routes, so an assignment to the
    /// fragmentation column is refused rather than leaving the row
    /// misplaced (rows do not move between fragments).
    pub fn update(
        &self,
        txn: TxnId,
        table: &str,
        assignments: Vec<(usize, ScalarExpr)>,
        predicate: Option<ScalarExpr>,
    ) -> Result<usize> {
        self.locks.acquire(txn, table, LockMode::Exclusive)?;
        let info = self.dictionary.relation(table)?;
        if let Some(key) = info.frag_column {
            if assignments.iter().any(|(col, _)| *col == key) {
                return Err(PrismaError::FragmentKeyUpdate {
                    table: table.to_owned(),
                    column: info.schema.columns()[key].name.clone(),
                });
            }
        }
        let targets = info.fragments_for(predicate.as_ref());
        let updated =
            self.dml_fan_out(txn, &info, &targets, |i, reply_to| GdhMsg::UpdateWhere {
                txn,
                assignments: assignments.clone(),
                predicate: predicate.clone(),
                reply_to,
                tag: i as u64,
            })?;
        let n = updated.iter().map(|(_, k)| k).sum();
        if n > 0 {
            // Values changed (row count didn't): stats go stale at
            // commit, but an UPDATE matching nothing leaves every
            // report exact.
            self.stage_dml(txn, table, StagedDml::EpochOnly);
        }
        Ok(n)
    }

    // ---------------- queries ----------------

    /// Optimize and execute a query plan under shared locks.
    pub fn query(&self, plan: &LogicalPlan) -> Result<(Relation, ExecMetrics)> {
        let txn = self.txns.begin();
        let result = self.query_in(txn, plan);
        match &result {
            Ok(_) => {
                let _ = self.txns.commit(txn);
            }
            Err(_) => {
                let _ = self.txns.abort(txn);
            }
        }
        result
    }

    fn query_in(&self, txn: TxnId, plan: &LogicalPlan) -> Result<(Relation, ExecMetrics)> {
        for rel in plan.scanned_relations() {
            self.locks.acquire(txn, &rel, LockMode::Shared)?;
        }
        let optimizer = Optimizer::new(&*self.dictionary).with_config(self.optimizer_config);
        let (optimized, _trace) = optimizer.optimize(plan)?;
        self.executor.execute(&optimized)
    }

    /// Compile and execute a SQL query, returning rows plus the parallel
    /// executor's metrics (batch/repartition counters drive E8).
    pub fn query_sql_with_metrics(&self, sql: &str) -> Result<(Relation, ExecMetrics)> {
        let planned = sqlfe::compile(sql, &*self.dictionary)?;
        let PlannedStatement::Query(plan) = planned else {
            return Err(PrismaError::Execution("expected a query".into()));
        };
        self.query(&plan)
    }

    /// Execute one SQL statement (auto-commit).
    pub fn execute_sql(&self, sql: &str) -> Result<QueryOutcome> {
        let planned = sqlfe::compile(sql, &*self.dictionary)?;
        match planned {
            PlannedStatement::Query(plan) => {
                let (rows, _) = self.query(&plan)?;
                Ok(QueryOutcome::Rows(rows))
            }
            PlannedStatement::CreateTable {
                name,
                schema,
                frag_column,
                frag_count,
            } => {
                self.create_table(&name, schema, frag_column, frag_count, None)?;
                Ok(QueryOutcome::Done)
            }
            PlannedStatement::DropTable(name) => {
                self.drop_table(&name)?;
                Ok(QueryOutcome::Done)
            }
            PlannedStatement::CreateIndex {
                table,
                column,
                hash,
            } => {
                self.create_index(&table, column, hash)?;
                Ok(QueryOutcome::Done)
            }
            PlannedStatement::Insert { table, rows } => {
                self.autocommit(|txn| self.insert(txn, &table, rows.clone()))
                    .map(QueryOutcome::Affected)
            }
            PlannedStatement::Delete { table, predicate } => {
                self.autocommit(|txn| self.delete(txn, &table, predicate.clone()))
                    .map(QueryOutcome::Affected)
            }
            PlannedStatement::Update {
                table,
                assignments,
                predicate,
            } => self
                .autocommit(|txn| {
                    self.update(txn, &table, assignments.clone(), predicate.clone())
                })
                .map(QueryOutcome::Affected),
        }
    }

    /// Execute one SQL statement inside an explicit transaction (locks
    /// held and changes visible-but-undecided until commit/abort).
    pub fn execute_sql_in(&self, txn: TxnId, sql: &str) -> Result<QueryOutcome> {
        let planned = sqlfe::compile(sql, &*self.dictionary)?;
        match planned {
            PlannedStatement::Query(plan) => {
                let (rows, _) = self.query_in(txn, &plan)?;
                Ok(QueryOutcome::Rows(rows))
            }
            PlannedStatement::Insert { table, rows } => {
                Ok(QueryOutcome::Affected(self.insert(txn, &table, rows)?))
            }
            PlannedStatement::Delete { table, predicate } => {
                Ok(QueryOutcome::Affected(self.delete(txn, &table, predicate)?))
            }
            PlannedStatement::Update {
                table,
                assignments,
                predicate,
            } => Ok(QueryOutcome::Affected(self.update(
                txn,
                &table,
                assignments,
                predicate,
            )?)),
            _ => Err(PrismaError::Execution(
                "DDL is not transactional; run it with execute_sql".into(),
            )),
        }
    }

    fn autocommit<T>(&self, f: impl Fn(TxnId) -> Result<T>) -> Result<T> {
        let txn = self.txns.begin();
        match f(txn) {
            Ok(v) => {
                self.commit(txn)?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    /// EXPLAIN: the optimized logical plan, the lowered physical plan
    /// (with join-distribution and scan-projection choices), and the
    /// knowledge-base firing trace.
    pub fn explain_sql(&self, sql: &str) -> Result<String> {
        self.explain_inner(sql).map(|(_, out)| out)
    }

    /// Shared EXPLAIN body: compile + optimize + lower **once**,
    /// returning the optimized plan alongside the rendered output so
    /// EXPLAIN ANALYZE analyzes exactly the plan it prints.
    fn explain_inner(&self, sql: &str) -> Result<(LogicalPlan, String)> {
        let planned = sqlfe::compile(sql, &*self.dictionary)?;
        let PlannedStatement::Query(plan) = planned else {
            return Err(PrismaError::Execution("EXPLAIN expects a query".into()));
        };
        let optimizer = Optimizer::new(&*self.dictionary).with_config(self.optimizer_config);
        let (optimized, mut trace) = optimizer.optimize(&plan)?;
        let physical = prisma_optimizer::lower_physical(
            &optimized,
            &*self.dictionary,
            self.executor.physical_config(),
            &mut trace,
        )?;
        let mut out = String::new();
        out.push_str("== unoptimized ==\n");
        out.push_str(&plan.to_string());
        out.push_str("== optimized ==\n");
        out.push_str(&optimized.to_string());
        out.push_str("== physical ==\n");
        out.push_str(&physical.to_string());
        out.push_str("== knowledge-base rule firings ==\n");
        for f in &trace.fired {
            out.push_str(f);
            out.push('\n');
        }
        Ok((optimized, out))
    }

    /// Execute a PRISMAlog query: translate to algebra when possible
    /// (distributed execution); fall back to the set-oriented semi-naive
    /// evaluator for mutually-recursive programs.
    pub fn execute_prismalog(&self, program: &str, query: &str) -> Result<Relation> {
        let program = plog::parse_program(program)?;
        let query = plog::parse_query(query)?;
        match plog::compile_query(&program, &query, &*self.dictionary) {
            Ok(plan) => {
                let (rows, _) = self.query(&plan)?;
                Ok(rows)
            }
            Err(PrismaError::UnsafeRule(_)) => {
                // Mutual/non-linear recursion: evaluate centrally over
                // materialized EDB relations.
                let txn = self.txns.begin();
                let mut edb: HashMap<String, Relation> = HashMap::new();
                let defined = program.defined_predicates();
                for rule in &program.rules {
                    for atom in rule.body_atoms() {
                        if !defined.contains(&atom.pred) && !edb.contains_key(&atom.pred) {
                            self.locks.acquire(txn, &atom.pred, LockMode::Shared)?;
                            edb.insert(atom.pred.clone(), self.executor.materialize(&atom.pred)?);
                        }
                    }
                }
                let result = plog::evaluate(&program, &edb)
                    .and_then(|(idb, _)| plog::seminaive::answer_query(&query, &idb, &edb));
                let _ = self.txns.commit(txn);
                result
            }
            Err(e) => Err(e),
        }
    }

    /// Refresh a relation's statistics from its fragments: fan a
    /// [`GdhMsg::CollectStats`] out to every OFM actor and cache the
    /// [`GdhMsg::StatsReport`] replies in the dictionary, stamped with
    /// the relation's current mutation epoch. Each fragment computes its
    /// own summary from incrementally-maintained sketches — only the
    /// bounded reports cross the interconnect, never the data (the old
    /// path materialized the whole relation at the coordinator and
    /// rescanned it).
    ///
    /// Known limitation: reports reflect the **live** fragment state,
    /// including visible-but-undecided writes of transactions still in
    /// flight — refreshing concurrently with an open write transaction
    /// can capture rows that later roll back (or double-count a delta
    /// the commit then applies). Statistics are estimates and the next
    /// refresh corrects them; run refreshes outside open write
    /// transactions when exactness matters.
    pub fn refresh_stats(&self, table: &str) -> Result<()> {
        let info = self.dictionary.relation(table)?;
        let mailbox = self.runtime.external_mailbox();
        for (i, frag) in info.fragments.iter().enumerate() {
            self.runtime.send(
                frag.actor,
                GdhMsg::CollectStats {
                    reply_to: mailbox.id,
                    tag: i as u64,
                },
            )?;
        }
        let deadline = Instant::now() + self.config.reply_timeout();
        for _ in 0..info.fragments.len() {
            match recv_by(&mailbox, deadline)? {
                GdhMsg::StatsReport {
                    fragment, stats, ..
                } => {
                    self.dictionary.put_fragment_stats(table, fragment, *stats);
                }
                other => {
                    return Err(PrismaError::Execution(format!(
                        "unexpected reply {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// EXPLAIN ANALYZE: everything [`GlobalDataHandler::explain_sql`]
    /// prints, plus each operator's **estimated vs. actual** cardinality.
    /// Actuals come from evaluating every subtree against a snapshot of
    /// the scanned relations through the reference evaluator — a debug
    /// path, priced accordingly.
    // checkx:allow(dead-pub) user-facing EXPLAIN ANALYZE; its tests live under `tests/`
    pub fn explain_analyze_sql(&self, sql: &str) -> Result<String> {
        let (optimized, mut out) = self.explain_inner(sql)?;
        let mut db: HashMap<String, Relation> = HashMap::new();
        for name in optimized.scanned_relations() {
            if !db.contains_key(&name) {
                db.insert(name.clone(), self.executor.materialize(&name)?);
            }
        }
        out.push_str("== estimated vs actual ==\n");
        let mut lines: Vec<String> = Vec::new();
        analyze_node(&optimized, 0, &self.dictionary, &mut db, &mut lines)?;
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }

    /// Snapshot a relation (all fragments unioned) — test/debug helper.
    pub fn snapshot(&self, table: &str) -> Result<Relation> {
        self.executor.materialize(table)
    }
}

/// EXPLAIN ANALYZE's estimated-vs-actual walk: every operator is
/// evaluated **exactly once** — children materialize first (bottom-up),
/// then the parent runs over the spliced child results behind synthetic
/// scan names, so a deep plan costs one evaluation per node instead of
/// one per node per ancestor. Recursive operators (Closure/Fixpoint)
/// evaluate whole so their fixpoint bindings stay intact; their children
/// are not annotated. Returns the node's materialized result for the
/// caller (its parent) to splice.
fn analyze_node(
    node: &LogicalPlan,
    depth: usize,
    dict: &DataDictionary,
    db: &mut HashMap<String, Relation>,
    lines: &mut Vec<String>,
) -> Result<Relation> {
    let est = prisma_optimizer::estimate_rows(node, dict);
    let label = prisma_optimizer::op_label(node);
    let freshness = match node {
        LogicalPlan::Scan { relation, .. } => {
            format!(" [stats {}]", StatsSource::stats_freshness(dict, relation))
        }
        _ => String::new(),
    };
    // Reserve this node's line so parents print above their children.
    let slot = lines.len();
    lines.push(String::new());
    let actual = match node {
        LogicalPlan::Scan { .. }
        | LogicalPlan::Values { .. }
        | LogicalPlan::Closure { .. }
        | LogicalPlan::Fixpoint { .. } => prisma_relalg::eval(node, db)?,
        _ => {
            let mut spliced = Vec::new();
            for (i, child) in node.children().into_iter().enumerate() {
                let rel = analyze_node(child, depth + 1, dict, db, lines)?;
                let name = format!("__analyze{depth}_{i}");
                spliced.push(LogicalPlan::scan(&name, rel.schema().clone()));
                db.insert(name, rel);
            }
            let names: Vec<String> = spliced
                .iter()
                .map(|s| match s {
                    LogicalPlan::Scan { relation, .. } => relation.clone(),
                    _ => unreachable!("spliced children are scans"),
                })
                .collect();
            let mut it = spliced.into_iter();
            let mut next = || it.next().expect("children arity matches");
            let rebuilt = match node.clone() {
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
            let rel = prisma_relalg::eval(&rebuilt, db)?;
            for name in names {
                db.remove(&name);
            }
            rel
        }
    };
    lines[slot] = format!(
        "{}{label}: est {est:.0} actual {}{freshness}",
        "  ".repeat(depth),
        actual.len(),
    );
    Ok(actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_stable::LogPayload;
    use prisma_storage::expr::ArithOp;
    use prisma_types::{tuple, Value};

    fn boot() -> GlobalDataHandler {
        let cfg = MachineConfig {
            num_pes: 4,
            topology: prisma_types::TopologyKind::Mesh,
            seal_rows: 8,
            ..MachineConfig::default()
        };
        let gdh =
            GlobalDataHandler::boot(cfg, AllocationPolicy::LoadBalanced, DiskProfile::instant())
                .unwrap();
        gdh.execute_sql(
            "CREATE TABLE t (id INT, v INT NULL, d DOUBLE) FRAGMENTED BY HASH(id) INTO 4",
        )
        .unwrap();
        gdh
    }

    fn key_is(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(v))
    }

    /// The oracle's answer to "which rows does `pred` select".
    fn victims(rows: &[Tuple], schema: &Schema, pred: &ScalarExpr) -> Vec<Tuple> {
        let db = HashMap::from([("t".to_owned(), Relation::new(schema.clone(), rows.to_vec()))]);
        let plan = LogicalPlan::scan("t", schema.clone()).select(pred.clone());
        prisma_relalg::eval(&plan, &db).unwrap().tuples().to_vec()
    }

    #[test]
    fn key_pinned_dml_contacts_one_fragment_and_matches_the_oracle() {
        let gdh = boot();
        let schema = gdh.dictionary.relation("t").unwrap().schema;
        // Two rows per id, so a pinned statement moves duplicates together.
        let mut model: Vec<Tuple> = (0..60i64)
            .map(|i| {
                let v = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 4)
                };
                Tuple::new(vec![Value::Int(i / 2), v, Value::Double(i as f64)])
            })
            .collect();
        let txn = gdh.begin();
        gdh.insert(txn, "t", model.clone()).unwrap();
        gdh.commit(txn).unwrap();

        let v_is_1 = ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(1));
        let cases: Vec<(Option<ScalarExpr>, usize)> = vec![
            (Some(key_is(7)), 1),
            (
                Some(ScalarExpr::eq(ScalarExpr::lit(11), ScalarExpr::col(0))),
                1,
            ),
            (Some(ScalarExpr::and(v_is_1.clone(), key_is(3))), 1),
            (Some(key_is(9999)), 1),
            // Not the key's declared type, not a conjunct, not the key.
            (Some(key_is(5.0)), 4),
            (Some(ScalarExpr::or(key_is(20), key_is(21))), 4),
            (Some(v_is_1), 4),
            (None, 4),
        ];
        let bump = ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(2), ScalarExpr::lit(0.5));
        for delete in [false, true] {
            for (pred, contacted) in &cases {
                let what = format!("delete={delete} {pred:?}");
                let always = ScalarExpr::lit(true);
                let hit = victims(&model, &schema, pred.as_ref().unwrap_or(&always));
                let txn = gdh.begin();
                let n = if delete {
                    gdh.delete(txn, "t", pred.clone()).unwrap()
                } else {
                    let set = vec![(1, ScalarExpr::lit(9)), (2, bump.clone())];
                    gdh.update(txn, "t", set, pred.clone()).unwrap()
                };
                assert_eq!(gdh.txns.participants_of(txn).len(), *contacted, "{what}");
                assert_eq!(n, hit.len(), "{what}");
                gdh.commit(txn).unwrap();
                for old in hit {
                    let at = model
                        .iter()
                        .position(|t| *t == old)
                        .expect("victim is live");
                    model.swap_remove(at);
                    if !delete {
                        let d = bump.eval(&old).unwrap();
                        model.push(Tuple::new(vec![old.get(0).clone(), Value::Int(9), d]));
                    }
                }
                let want = Relation::new(schema.clone(), model.clone()).canonicalized();
                assert_eq!(gdh.snapshot("t").unwrap().canonicalized(), want, "{what}");
            }
        }
        // `id = NULL` is no key: every fragment is asked (and each refuses
        // the comparison's typing, as it did before routing existed).
        let txn = gdh.begin();
        let _ = gdh.delete(txn, "t", Some(key_is(Value::Null)));
        assert_eq!(gdh.txns.participants_of(txn).len(), 4);
        gdh.abort(txn).unwrap();
        gdh.shutdown();
    }

    #[test]
    fn an_update_of_the_fragmentation_column_is_refused_and_changes_nothing() {
        let gdh = boot();
        gdh.execute_sql("INSERT INTO t VALUES (1, 1, 1.0), (2, 2, 2.0), (3, NULL, 3.0)")
            .unwrap();
        let before = gdh.snapshot("t").unwrap().canonicalized();
        for sql in [
            "UPDATE t SET id = id + 1",
            "UPDATE t SET v = 0, id = 7 WHERE id = 2",
        ] {
            let err = gdh.execute_sql(sql).unwrap_err();
            assert_eq!(
                err,
                PrismaError::FragmentKeyUpdate {
                    table: "t".into(),
                    column: "id".into()
                },
                "{sql}"
            );
        }
        assert_eq!(gdh.snapshot("t").unwrap().canonicalized(), before);
        // The table lock of the refused statement is gone with its txn.
        assert_eq!(
            gdh.execute_sql("UPDATE t SET v = 5 WHERE id = 2")
                .unwrap()
                .affected(),
            Ok(1)
        );
        // Without a fragmentation column no placement depends on any value.
        gdh.execute_sql("CREATE TABLE rr (id INT, v INT) FRAGMENTED INTO 3")
            .unwrap();
        gdh.execute_sql("INSERT INTO rr VALUES (1, 1), (2, 2)")
            .unwrap();
        assert_eq!(
            gdh.execute_sql("UPDATE rr SET id = id + 10")
                .unwrap()
                .affected(),
            Ok(2)
        );
        gdh.shutdown();
    }

    #[test]
    fn the_replica_ack_carries_a_backups_missing_delete_image() {
        let gdh = boot();
        gdh.execute_sql("INSERT INTO t VALUES (1, 1, 1.0), (2, 2, 2.0), (3, 3, 3.0), (4, 4, 4.0)")
            .unwrap();
        let info = gdh.dictionary.relation("t").unwrap();
        let frag = &info.fragments[0];
        let (_, backup) = frag.backup.expect("4 PEs replicate every fragment");
        let txn = TxnId(4242);
        let mailbox = gdh.runtime.external_mailbox();
        gdh.runtime
            .send(
                backup,
                GdhMsg::ReplicaAppend {
                    fragment: frag.id,
                    records: vec![
                        LogPayload::Delete {
                            txn,
                            fragment: frag.id,
                            tuple: tuple![77, 7, 7.0],
                        },
                        LogPayload::Commit { txn },
                    ],
                    ack: true,
                    reply_to: mailbox.id,
                    tag: 9,
                },
            )
            .unwrap();
        let deadline = Instant::now() + gdh.config.reply_timeout();
        match recv_by(&mailbox, deadline).unwrap() {
            GdhMsg::ReplicaAck {
                tag: 9,
                result: Err(PrismaError::Execution(msg)),
            } => {
                for part in [
                    frag.id.to_string(),
                    txn.to_string(),
                    "(77, 7, 7)".to_owned(),
                ] {
                    assert!(msg.contains(&part), "{part} missing from: {msg}");
                }
            }
            other => panic!("expected a failed ReplicaAck, got {other:?}"),
        }
        gdh.shutdown();
    }
}
