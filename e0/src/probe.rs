//! The traced run's part B: replay, on standalone public objects, what an
//! iteration's statements make one fragment and the coordinator do, and
//! time each call in isolation.
//!
//! The rows the dictionary routes to every relation's **first fragment**
//! are loaded into a standalone [`Ofm`] (persistent, replicating, with a
//! transient backup beside it); each round takes the workload's next
//! statement list and times the same-named calls. What one fragment
//! ships is encoded, reassembled, decoded and merged the way the wire and
//! the coordinator would. None of this touches the machine.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use prisma_core::multicomputer::StreamReassembly;
use prisma_core::ofm::{Ofm, OfmKind};
use prisma_core::optimizer::{lower_physical, Optimizer, PhysicalConfig, Trace};
use prisma_core::poolx::WorkerPool;
use prisma_core::prismalog as plog;
use prisma_core::relalg::exec::{collect_batches, partition_positions};
use prisma_core::relalg::{
    execute_physical, open_batches_pooled, Batch, LogicalPlan, PhysicalPlan,
};
use prisma_core::sqlfe::{self, PlannedStatement};
use prisma_core::stable::{
    CheckpointStore, DiskProfile, LogPayload, SimulatedDisk, StableDevice, WriteAheadLog,
};
use prisma_core::types::{FragmentId, TxnId};
use prisma_core::{PrismaMachine, Relation};

use crate::check::Base;
use crate::machine::SEAL_ROWS;
use crate::run::Budget;
use crate::stats::midmean;
use crate::workloads::{Stmt, Workload};

/// The replayed layer metrics, per iteration.
#[derive(Debug, Default)]
pub struct Replay {
    /// Statement lists replayed.
    pub rounds: usize,
    values: HashMap<&'static str, f64>,
}

impl Replay {
    /// A replayed metric by its `BENCHMARK.json` name; `None` when no
    /// statement of the workload reaches that call.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

fn fresh_wal() -> Arc<WriteAheadLog> {
    let dev: Arc<dyn StableDevice> = Arc::new(SimulatedDisk::new(DiskProfile::instant()));
    Arc::new(WriteAheadLog::new(dev))
}

/// One relation's first fragment, standing alone.
struct Site {
    primary: Ofm,
    backup: Ofm,
    /// The fragment's rows as loaded, for the row-provider replays.
    rows: Arc<Relation>,
}

impl Site {
    /// Load fragment 0 of `name` without sealing, then seal it in one
    /// timed call (`ofm.seal_load_us`).
    fn build(
        db: &PrismaMachine,
        name: &str,
        rel: &Relation,
        hash_index: Option<usize>,
        seal_load_ns: &mut u64,
    ) -> Result<Site, String> {
        let info = db
            .gdh()
            .dictionary()
            .relation(name)
            .map_err(|e| e.to_string())?;
        let mine: Vec<_> = rel
            .tuples()
            .iter()
            .filter(|t| info.route(t.values()).is_ok_and(|f| f == 0))
            .cloned()
            .collect();
        let ck: Arc<dyn StableDevice> = Arc::new(SimulatedDisk::new(DiskProfile::instant()));
        let mut primary = Ofm::new(
            FragmentId(0),
            name,
            rel.schema().clone(),
            OfmKind::Persistent {
                wal: fresh_wal(),
                checkpoints: Arc::new(CheckpointStore::open(ck)),
            },
        );
        let mut backup = Ofm::new(
            FragmentId(0),
            name,
            rel.schema().clone(),
            OfmKind::Transient,
        );
        for ofm in [&mut primary, &mut backup] {
            if let Some(col) = hash_index {
                ofm.fragment_mut()
                    .add_hash_index(vec![col])
                    .map_err(|e| e.to_string())?;
            }
            ofm.fragment_mut().set_seal_rows(usize::MAX);
            for t in &mine {
                ofm.fragment_mut()
                    .insert(t.clone())
                    .map_err(|e| e.to_string())?;
            }
            ofm.fragment_mut().set_seal_rows(SEAL_ROWS);
        }
        let t0 = Instant::now();
        primary.seal_for_scan();
        *seal_load_ns += t0.elapsed().as_nanos() as u64;
        backup.seal_for_scan();
        primary.enable_replication();
        Ok(Site {
            primary,
            backup,
            rows: Arc::new(Relation::new(rel.schema().clone(), mine)),
        })
    }
}

/// Nanoseconds per metric within one round.
#[derive(Default)]
struct Round(HashMap<&'static str, u64>);

impl Round {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        *self.0.entry(name).or_default() += t0.elapsed().as_nanos() as u64;
        out
    }

    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }
}

struct Replayer<'a> {
    db: &'a PrismaMachine,
    base: Base,
    indexes: Vec<(&'static str, usize)>,
    physical: PhysicalConfig,
    sites: HashMap<String, Site>,
    seal_load_ns: u64,
    pool: Arc<WorkerPool>,
    wal: Arc<WriteAheadLog>,
    next_txn: u32,
}

fn first_join(plan: &PhysicalPlan) -> Option<&PhysicalPlan> {
    if matches!(plan, PhysicalPlan::HashJoin { .. }) {
        return Some(plan);
    }
    plan.children().into_iter().find_map(first_join)
}

/// The first `Filter` sitting directly on a scan: `(predicate, scan)`.
fn first_scan_filter(
    plan: &PhysicalPlan,
) -> Option<(&prisma_core::storage::expr::ScalarExpr, &PhysicalPlan)> {
    if let PhysicalPlan::Filter { input, predicate } = plan {
        if matches!(**input, PhysicalPlan::SeqScan { .. }) {
            return Some((predicate, input));
        }
    }
    plan.children().into_iter().find_map(first_scan_filter)
}

/// Does every scan under `plan` read a stored relation? (A join inside
/// a fixpoint's step reads the fixpoint's bindings and cannot run alone.)
fn reads_only(plan: &PhysicalPlan, stored: &Base) -> bool {
    match plan {
        PhysicalPlan::SeqScan { relation, .. } => stored.contains_key(relation),
        other => other.children().into_iter().all(|c| reads_only(c, stored)),
    }
}

fn is_recursive(plan: &PhysicalPlan) -> bool {
    matches!(
        plan,
        PhysicalPlan::Closure { .. } | PhysicalPlan::Fixpoint { .. }
    ) || plan.children().into_iter().any(is_recursive)
}

impl Replayer<'_> {
    /// Build the standalone first fragment of `name` on first use.
    fn ensure_site(&mut self, name: &str) -> Result<(), String> {
        if !self.sites.contains_key(name) {
            let rel = self
                .base
                .get(name)
                .cloned()
                .ok_or_else(|| format!("no generated rows for {name}"))?;
            let index = self
                .indexes
                .iter()
                .find(|(t, _)| *t == name)
                .map(|(_, c)| *c);
            let site = Site::build(self.db, name, &rel, index, &mut self.seal_load_ns)?;
            self.sites.insert(name.to_owned(), site);
        }
        Ok(())
    }

    fn site(&mut self, name: &str) -> Result<&mut Site, String> {
        self.ensure_site(name)?;
        self.sites
            .get_mut(name)
            .ok_or_else(|| format!("site {name} missing"))
    }

    /// What a query makes one fragment, the wire and the coordinator do.
    fn query(&mut self, plan: &LogicalPlan, round: &mut Round) -> Result<(), String> {
        let e = |e: prisma_core::PrismaError| e.to_string();
        let dict = self.db.gdh().dictionary().clone();
        let (optimized, _) = Optimizer::new(&*dict).optimize(plan).map_err(e)?;
        let physical =
            lower_physical(&optimized, &*dict, self.physical, &mut Trace::sink()).map_err(e)?;
        // Stored relations only: a fixpoint's own bindings (`path`,
        // `Δpath`) are scans too, but no fragment holds them.
        let relations: Vec<String> = optimized
            .scanned_relations()
            .into_iter()
            .filter(|r| self.base.contains_key(r))
            .collect();
        let Some(first) = relations.first().cloned() else {
            return Ok(());
        };
        // Fragment 0 of every scanned relation, as plain rows.
        let mut rows0: HashMap<String, Arc<Relation>> = HashMap::new();
        for name in &relations {
            let rows = self.site(name)?.rows.clone();
            rows0.insert(name.clone(), rows);
        }
        // One relation: the fragment runs the whole plan. Several: it
        // scans its share of the first one for the shuffle or broadcast.
        let local = if relations.len() == 1 {
            physical.clone()
        } else {
            let schema = rows0[&first].schema().clone();
            prisma_core::relalg::lower(&LogicalPlan::scan(&first, schema)).map_err(e)?
        };
        let schema = local.output_schema().map_err(e)?;
        let none = HashMap::new();
        let ofm = &self.sites[&first].primary;
        let batches = round
            .time("ofm.open_physical_us", || {
                ofm.open_physical(&local, &none).and_then(|s| s.drain())
            })
            .map_err(e)?;
        if let Some((predicate, scan)) = first_scan_filter(&physical) {
            if matches!(scan, PhysicalPlan::SeqScan { relation, .. } if *relation == first) {
                let scanned = ofm
                    .open_physical(scan, &none)
                    .and_then(|s| s.drain())
                    .map_err(e)?;
                round.time("storage.kernel_us", || {
                    let mut kernel = predicate.compile_vec_predicate();
                    let mut hits = Vec::new();
                    let mut total = 0usize;
                    for b in &scanned {
                        let (cols, sel) = b.to_columns();
                        kernel.select(&cols, &sel, &mut hits);
                        total += hits.len();
                    }
                    total
                });
            }
        }
        let blocks: Vec<_> = round.time("types.wire_encode_us", || {
            batches.iter().map(Batch::encode_columnar).collect()
        });
        round.add(
            "wire_bytes",
            blocks.iter().map(|b| b.as_bytes().len() as u64).sum(),
        );
        round.add("wire_rows", blocks.iter().map(|b| b.rows() as u64).sum());
        let arrived = round
            .time("multicomputer.reassembly_us", || {
                let mut streams = StreamReassembly::expecting([0u64]);
                let mut out = Vec::with_capacity(blocks.len());
                let n = blocks.len() as u64;
                for (seq, b) in blocks.into_iter().enumerate() {
                    streams.accept(0, seq as u64, b, &mut out)?;
                }
                streams.finish(0, n)?;
                Ok(out)
            })
            .map_err(e)?;
        let decoded = round
            .time("types.wire_decode_us", || {
                arrived
                    .iter()
                    .map(Batch::from_block)
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(e)?;
        round.time("relalg.merge_us", || collect_batches(schema, decoded));

        round
            .time("relalg.exec_serial_us", || {
                open_batches_pooled(&physical, &rows0, None).and_then(|s| s.drain())
            })
            .map_err(e)?;
        let busy0 = self.pool.stats().busy_total();
        let pool = self.pool.clone();
        round
            .time("relalg.exec_pooled_us", || {
                open_batches_pooled(&physical, &rows0, Some(pool)).and_then(|s| s.drain())
            })
            .map_err(e)?;
        round.add("pooled_busy_ns", self.pool.stats().busy_total() - busy0);

        if let Some(join) = first_join(&physical).filter(|j| reads_only(j, &self.base)) {
            round
                .time("relalg.hash_join_us", || execute_physical(join, &rows0))
                .map_err(e)?;
            if let PhysicalPlan::HashJoin { left, on, .. } = join {
                let keys: Vec<usize> = on.iter().map(|(l, _)| *l).collect();
                let probe_side = open_batches_pooled(left, &rows0, None)
                    .and_then(|s| s.drain())
                    .map_err(e)?;
                let parts = fragments_of(self.db, &self.base) as usize;
                round.time("relalg.partition_us", || {
                    let mut bytes = 0usize;
                    for b in &probe_side {
                        for positions in partition_positions(b, &keys, parts) {
                            bytes += b.encode_positions(&positions).as_bytes().len();
                        }
                    }
                    bytes
                });
            }
        }
        if is_recursive(&physical) {
            let base = &self.base;
            round
                .time("relalg.closure_us", || execute_physical(&physical, base))
                .map_err(e)?;
        }
        Ok(())
    }

    /// What one DML statement makes fragment 0 do. Returns the table.
    fn dml(&mut self, sql: &str, txn: TxnId, round: &mut Round) -> Result<String, String> {
        let e = |e: prisma_core::PrismaError| e.to_string();
        let dict = self.db.gdh().dictionary().clone();
        match sqlfe::compile(sql, &*dict).map_err(e)? {
            PlannedStatement::Insert { table, rows } => {
                let info = dict.relation(&table).map_err(e)?;
                let mine: Vec<_> = rows
                    .into_iter()
                    .filter(|t| info.route(t.values()).is_ok_and(|f| f == 0))
                    .collect();
                let ofm = &mut self.site(&table)?.primary;
                round
                    .time("ofm.insert_us", || {
                        mine.into_iter()
                            .try_for_each(|t| ofm.insert(txn, t).map(|_| ()))
                    })
                    .map_err(e)?;
                Ok(table)
            }
            PlannedStatement::Update {
                table,
                assignments,
                predicate: Some(predicate),
            } => {
                let ofm = &mut self.site(&table)?.primary;
                round
                    .time("ofm.update_where_us", || {
                        ofm.update_where(txn, &predicate, &assignments)
                    })
                    .map_err(e)?;
                Ok(table)
            }
            PlannedStatement::Delete {
                table,
                predicate: Some(predicate),
            } => {
                let ofm = &mut self.site(&table)?.primary;
                round
                    .time("ofm.delete_where_us", || ofm.delete_where(txn, &predicate))
                    .map_err(e)?;
                Ok(table)
            }
            other => Err(format!("replay: unsupported DML {other:?}")),
        }
    }

    /// Commit `txn` at every touched site: 2PC vote and decision, the
    /// shipped log applied at the backup, the same records appended to a
    /// log of their own.
    fn commit(
        &mut self,
        txn: TxnId,
        tables: &BTreeSet<String>,
        round: &mut Round,
    ) -> Result<(), String> {
        let e = |e: prisma_core::PrismaError| e.to_string();
        let wal = self.wal.clone();
        for table in tables {
            let site = self.site(table)?;
            round
                .time("ofm.prepare_commit_us", || {
                    site.primary
                        .prepare(txn)
                        .and_then(|_| site.primary.commit(txn))
                })
                .map_err(e)?;
            let records = site.primary.drain_replica_records();
            round.time("stable.wal_append_us", || {
                for r in &records {
                    if matches!(r, LogPayload::Commit { .. }) {
                        wal.append_durable(r);
                    } else {
                        wal.append(r);
                    }
                }
            });
            round
                .time("ofm.replica_apply_us", || {
                    site.backup.replica_apply(records)
                })
                .map_err(e)?;
        }
        Ok(())
    }

    fn round(&mut self, stmts: &[Stmt]) -> Result<Round, String> {
        let mut round = Round::default();
        let mut touched: BTreeSet<String> = BTreeSet::new();
        for stmt in stmts {
            match stmt {
                Stmt::Query { sql, .. } => {
                    let plan = crate::check::query_plan(self.db, sql)?;
                    self.query(&plan, &mut round)?;
                }
                Stmt::Plog { program, query, .. } => {
                    let dict = self.db.gdh().dictionary().clone();
                    let compiled = plog::parse_program(program)
                        .and_then(|p| plog::compile_query(&p, &plog::parse_query(query)?, &*dict));
                    // Untranslatable programs run at the coordinator only;
                    // part A times that (`prismalog.seminaive_us`).
                    if let Ok(plan) = compiled {
                        self.query(&plan, &mut round)?;
                    }
                }
                Stmt::Dml { sql, .. } => {
                    let txn = self.fresh_txn();
                    let table = self.dml(sql, txn, &mut round)?;
                    let one = BTreeSet::from([table]);
                    self.commit(txn, &one, &mut round)?;
                    touched.extend(one);
                }
                Stmt::Txn { stmts, .. } => {
                    let txn = self.fresh_txn();
                    let mut tables = BTreeSet::new();
                    for (sql, _) in stmts {
                        tables.insert(self.dml(sql, txn, &mut round)?);
                    }
                    self.commit(txn, &tables, &mut round)?;
                    touched.extend(tables);
                }
            }
        }
        // The scan hook's share: re-seal what this round's DML dissolved.
        for table in &touched {
            let site = self.site(table)?;
            round.time("ofm.seal_us", || site.primary.seal_for_scan());
            site.backup.seal_for_scan();
        }
        Ok(round)
    }

    fn fresh_txn(&mut self) -> TxnId {
        self.next_txn += 1;
        TxnId(self.next_txn)
    }
}

/// Most fragments any of the workload's relations has.
pub fn fragments_of(db: &PrismaMachine, base: &Base) -> f64 {
    base.keys()
        .filter_map(|name| db.gdh().dictionary().relation(name).ok())
        .map(|info| info.fragments.len())
        .max()
        .unwrap_or(1) as f64
}

/// Replay the workload's next statement lists for `budget`. Call after
/// the machine's own loops and invariants: the rounds advance the
/// workload's model past what the machine holds.
pub fn replay(
    w: &mut dyn Workload,
    db: &PrismaMachine,
    physical: PhysicalConfig,
    budget: Budget,
) -> Result<Replay, String> {
    let mut r = Replayer {
        db,
        base: w.base().clone(),
        indexes: w.hash_indexes(),
        physical,
        sites: HashMap::new(),
        seal_load_ns: 0,
        pool: WorkerPool::new(crate::machine::OFM_WORKERS),
        wal: fresh_wal(),
        next_txn: 0,
    };
    let mut series: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let started = Instant::now();
    let mut rounds = 0usize;
    loop {
        match budget {
            Budget::Time(d) if rounds > 0 && started.elapsed() >= d => break,
            Budget::Count(n) if rounds as u64 >= n => break,
            _ => {}
        }
        let round = r.round(&w.plan())?;
        for (name, ns) in round.0 {
            series.entry(name).or_default().push(ns as f64);
        }
        rounds += 1;
    }
    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let mid = |name: &str| series.get(name).map(|v| midmean(v));
    for (&name, v) in &series {
        if name.ends_with("_us") {
            values.insert(name, midmean(v) / 1e3);
        }
    }
    values.insert("ofm.seal_load_us", r.seal_load_ns as f64 / 1e3);
    if let (Some(bytes), Some(rows)) = (mid("wire_bytes"), mid("wire_rows")) {
        values.insert("types.wire_bytes_per_row", bytes / rows.max(1.0));
    }
    if let (Some(busy), Some(serial)) = (mid("pooled_busy_ns"), mid("relalg.exec_serial_us")) {
        values.insert("poolx.work_inflation", busy / serial.max(1.0));
    }
    Ok(Replay { rounds, values })
}
