//! The data dictionary: relations, fragmentation, placement, statistics.
//!
//! ## Statistics lifecycle
//!
//! Per-fragment statistics are cached here, keyed `(relation, fragment)`
//! and stamped with the relation's **mutation epoch** at caching time.
//! Every DML batch bumps the epoch ([`DataDictionary::note_mutation`]),
//! so freshness is a pure epoch comparison: a relation's stats are
//! *fresh* when every current fragment reported at the current epoch,
//! *stale* when reports exist but predate the last mutation (or cover
//! only some fragments), *absent* when nothing was ever collected.
//! The table-level [`TableStats`] view the estimator consumes is derived
//! by merging the cached fragment reports (plus the row delta of
//! mutations since the last refresh); stale stats still beat defaults,
//! and EXPLAIN names the freshness of whatever fed each decision.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use prisma_optimizer::{StatsSource, TableStats};
use prisma_stable::{CheckpointStore, DiskProfile, SimulatedDisk, StableDevice, WriteAheadLog};
use prisma_storage::expr::{CmpOp, ScalarExpr};
use prisma_types::{
    FragmentId, FragmentStatistics, MachineConfig, PeId, PrismaError, ProcessId, Result,
    Schema, StatsFreshness, Value,
};

/// One fragment's placement: which PE it lives on and the actor serving it.
///
/// Replicated fragments additionally carry a backup replica on a
/// *distinct* PE (the dictionary's placement rule — primary and backup
/// never share a PE, or one crash would take both) and a placement
/// `epoch` that [`DataDictionary::fail_over_fragment`] bumps on every
/// failover, so streams opened against a dead primary are recognizably
/// stale.
#[derive(Debug, Clone)]
pub struct FragmentHandle {
    /// Fragment id (unique machine-wide).
    pub id: FragmentId,
    /// Hosting processing element.
    pub pe: PeId,
    /// The OFM actor's address.
    pub actor: ProcessId,
    /// Backup replica placement (PE + actor), `None` when unreplicated.
    pub backup: Option<(PeId, ProcessId)>,
    /// Placement epoch; 0 at creation, +1 per failover.
    pub epoch: u32,
}

impl FragmentHandle {
    /// An unreplicated handle at epoch 0.
    pub fn new(id: FragmentId, pe: PeId, actor: ProcessId) -> Self {
        FragmentHandle {
            id,
            pe,
            actor,
            backup: None,
            epoch: 0,
        }
    }

    /// Attach a backup replica. Panics if the backup shares the primary's
    /// PE — that placement defeats replication by construction.
    pub fn with_backup(mut self, pe: PeId, actor: ProcessId) -> Self {
        assert_ne!(
            pe, self.pe,
            "backup replica of {} must live on a distinct PE",
            self.id
        );
        self.backup = Some((pe, actor));
        self
    }
}

/// Dictionary entry for one relation.
#[derive(Debug, Clone)]
pub struct RelationInfo {
    /// Relation schema.
    pub schema: Schema,
    /// Hash-fragmentation column (None = round-robin placement of rows).
    pub frag_column: Option<usize>,
    /// The fragments in partition order.
    pub fragments: Vec<FragmentHandle>,
}

impl RelationInfo {
    /// Which fragment a row belongs to. Errors on a fragment-less
    /// relation instead of hitting the `% 0` panic the modulo would be.
    pub fn route(&self, values: &[Value]) -> Result<usize> {
        if self.fragments.is_empty() {
            return Err(PrismaError::Execution(
                "cannot route tuple: relation has no fragments".to_owned(),
            ));
        }
        Ok(match self.frag_column {
            Some(col) => self.fragment_of_key(&values[col]),
            // Round-robin by whole-row hash keeps routing deterministic
            // without dictionary mutation on every insert.
            None => {
                use std::hash::{BuildHasher, Hash, Hasher};
                let mut h = prisma_storage::FnvBuild.build_hasher();
                for v in values {
                    v.hash(&mut h);
                }
                (h.finish() as usize) % self.fragments.len()
            }
        })
    }

    /// The fragment holding every row whose fragmentation key is `key`
    /// (callers guarantee at least one fragment).
    fn fragment_of_key(&self, key: &Value) -> usize {
        use std::hash::BuildHasher;
        (prisma_storage::FnvBuild.hash_one(key) as usize) % self.fragments.len()
    }

    /// Fragment elimination by fragmentation key: the positions (into
    /// [`RelationInfo::fragments`]) of the fragments that can hold a row
    /// satisfying `predicate`. A conjunct `frag_column = literal` (either
    /// orientation) pins the statement to the one fragment [`route`] sends
    /// that key to — but only for a literal of exactly the column's
    /// declared type: a NULL, a literal of another type, a relation without
    /// a fragmentation column or a predicate without such a conjunct keep
    /// every fragment.
    ///
    /// Sound only while every row sits where [`route`] puts it, which is
    /// why the GDH refuses to update a fragmentation column in place.
    ///
    /// [`route`]: RelationInfo::route
    pub fn fragments_for(&self, predicate: Option<&ScalarExpr>) -> Vec<usize> {
        let pinned = || {
            let col = self.frag_column?;
            let declared = self.schema.column(col)?.dtype;
            predicate?
                .clone()
                .split_conjunction()
                .iter()
                .find_map(|factor| match factor.as_col_cmp_lit() {
                    Some((c, CmpOp::Eq, v)) if c == col && v.data_type() == Some(declared) => {
                        Some(self.fragment_of_key(v))
                    }
                    _ => None,
                })
        };
        if self.fragments.is_empty() {
            return Vec::new();
        }
        pinned().map_or_else(|| (0..self.fragments.len()).collect(), |f| vec![f])
    }

    /// PEs hosting this relation's fragments.
    pub fn pes(&self) -> Vec<PeId> {
        self.fragments.iter().map(|f| f.pe).collect()
    }
}

/// Stable-storage services of one disk PE (paper §3.2: only some PEs own
/// disks; their neighbours use them for recovery).
#[derive(Clone)]
pub struct StableServices {
    /// Shared write-ahead log.
    pub wal: Arc<WriteAheadLog>,
    /// Shared checkpoint store.
    pub checkpoints: Arc<CheckpointStore>,
}

/// One fragment's cached statistics report plus the relation mutation
/// epoch it was taken at.
#[derive(Debug, Clone)]
struct CachedFragmentStats {
    stats: FragmentStatistics,
    as_of_epoch: u64,
}

/// Mutation bookkeeping for one relation: the staleness epoch and the
/// net row deltas since the last stats refresh (so merged row estimates
/// stay usable between refreshes).
#[derive(Debug, Clone, Default)]
struct MutationState {
    epoch: u64,
    /// Bumped on every event that changes what `merged_table_stats`
    /// would compute (mutations AND arriving reports) — the version key
    /// that keeps the merged-stats cache from resurrecting a result
    /// computed before a concurrent invalidation.
    gen: u64,
    /// Net row delta per fragment since **that fragment's** last report
    /// — reset fragment-by-fragment as reports arrive, so a partial
    /// refresh never double-counts a delta a fresh report already
    /// includes.
    pending_by_fragment: HashMap<FragmentId, i64>,
    /// Delta not attributable to a fragment (relation-level
    /// [`DataDictionary::note_mutation`]); resets only when every
    /// fragment has re-reported at the current epoch.
    pending_unattributed: i64,
}

impl MutationState {
    fn pending_total(&self) -> i64 {
        self.pending_unattributed + self.pending_by_fragment.values().sum::<i64>()
    }
}

/// The GDH data dictionary.
pub struct DataDictionary {
    config: MachineConfig,
    relations: RwLock<HashMap<String, RelationInfo>>,
    stats: RwLock<HashMap<String, Arc<TableStats>>>,
    /// Per-(relation, fragment) statistics reports from the OFMs.
    fragment_stats: RwLock<HashMap<String, HashMap<FragmentId, CachedFragmentStats>>>,
    /// Per-relation mutation epoch + row delta since the last refresh.
    mutations: RwLock<HashMap<String, MutationState>>,
    /// Memoized merge of the cached fragment reports — planning calls
    /// `table_stats` many times per query, and re-merging histograms on
    /// each would dominate. Entries are keyed by the relation's
    /// [`MutationState::gen`] at compute time: any report or mutation
    /// bumps the gen, so a stale entry (including one racing in after
    /// an invalidation) simply never matches again. The value is an
    /// `Arc` because a hit is handed to the caller as-is — one query
    /// consults `table_stats` dozens of times, and deep-cloning the
    /// merged histograms and MCV lists on every hit dominated the
    /// planning cost of placement-heavy workloads (E8).
    merged_cache: RwLock<HashMap<String, (u64, Arc<TableStats>)>>,
    stable: HashMap<usize, StableServices>,
    next_fragment: RwLock<u32>,
}

impl DataDictionary {
    /// Build the dictionary, creating stable-storage services on every
    /// disk-owning PE of the configuration.
    pub fn new(config: MachineConfig, disk_profile: DiskProfile) -> Self {
        let mut stable = HashMap::new();
        for pe in 0..config.num_pes {
            if config.pe_has_disk(pe) {
                let wal_dev: Arc<dyn StableDevice> =
                    Arc::new(SimulatedDisk::new(disk_profile));
                let ck_dev: Arc<dyn StableDevice> =
                    Arc::new(SimulatedDisk::new(disk_profile));
                stable.insert(
                    pe,
                    StableServices {
                        wal: Arc::new(WriteAheadLog::new(wal_dev)),
                        checkpoints: Arc::new(CheckpointStore::open(ck_dev)),
                    },
                );
            }
        }
        DataDictionary {
            config,
            relations: RwLock::new(HashMap::new()),
            stats: RwLock::new(HashMap::new()),
            fragment_stats: RwLock::new(HashMap::new()),
            mutations: RwLock::new(HashMap::new()),
            merged_cache: RwLock::new(HashMap::new()),
            stable,
            next_fragment: RwLock::new(0),
        }
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Allocate a machine-wide unique fragment id.
    pub fn alloc_fragment_id(&self) -> FragmentId {
        let mut n = self.next_fragment.write();
        let id = FragmentId(*n);
        *n += 1;
        id
    }

    /// The stable services a fragment hosted on `pe` uses: the nearest
    /// disk PE at or below it (paper: "some of the processing elements
    /// will also be connected to secondary storage").
    pub fn stable_for(&self, pe: PeId) -> StableServices {
        let stride = self.config.disk_stride;
        let disk_pe = (pe.index() / stride) * stride;
        self.stable
            .get(&disk_pe)
            .or_else(|| self.stable.get(&0))
            .expect("PE 0 always has a disk")
            .clone()
    }

    /// Register a relation.
    pub fn register(&self, name: &str, info: RelationInfo) -> Result<()> {
        let mut rels = self.relations.write();
        if rels.contains_key(name) {
            return Err(PrismaError::DuplicateRelation(name.to_owned()));
        }
        rels.insert(name.to_owned(), info);
        Ok(())
    }

    /// Remove a relation, returning its entry.
    pub fn unregister(&self, name: &str) -> Result<RelationInfo> {
        self.stats.write().remove(name);
        self.fragment_stats.write().remove(name);
        self.mutations.write().remove(name);
        self.merged_cache.write().remove(name);
        self.relations
            .write()
            .remove(name)
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Result<RelationInfo> {
        self.relations
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PrismaError::UnknownRelation(name.to_owned()))
    }

    /// Fail a fragment over to its backup replica: the backup becomes the
    /// primary, the placement epoch bumps (so streams opened against the
    /// dead primary are recognizably stale), and the handle is left
    /// unreplicated until a new backup is provisioned. Returns the
    /// post-failover handle.
    ///
    /// Errors when the fragment is unknown or has no surviving replica —
    /// the caller's query dies with that error instead of retrying
    /// forever against nothing.
    pub fn fail_over_fragment(&self, id: FragmentId) -> Result<FragmentHandle> {
        let mut rels = self.relations.write();
        for info in rels.values_mut() {
            if let Some(f) = info.fragments.iter_mut().find(|f| f.id == id) {
                let (pe, actor) = f.backup.take().ok_or_else(|| {
                    PrismaError::MachineFault(format!(
                        "{id}: primary on {} lost and no backup replica survives",
                        f.pe
                    ))
                })?;
                f.pe = pe;
                f.actor = actor;
                f.epoch += 1;
                return Ok(f.clone());
            }
        }
        Err(PrismaError::NoSuchFragment(id))
    }

    /// The current handle of a fragment, wherever it lives.
    pub fn fragment_handle(&self, id: FragmentId) -> Option<FragmentHandle> {
        let rels = self.relations.read();
        rels.values()
            .flat_map(|info| info.fragments.iter())
            .find(|f| f.id == id)
            .cloned()
    }

    /// Current fragment count per PE — the load signal for allocation.
    pub fn fragments_per_pe(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.num_pes];
        for info in self.relations.read().values() {
            for f in &info.fragments {
                counts[f.pe.index()] += 1;
            }
        }
        counts
    }

    /// The relation's current mutation epoch (0 until the first DML).
    pub fn mutation_epoch(&self, name: &str) -> u64 {
        self.mutations.read().get(name).map_or(0, |m| m.epoch)
    }

    /// Record a DML batch whose row delta cannot be attributed to
    /// specific fragments: bumps the staleness epoch (cached fragment
    /// stats for `name` are stale from here on) and accumulates the
    /// delta so merged row estimates stay usable between refreshes.
    pub fn note_mutation(&self, name: &str, row_delta: i64) {
        let mut m = self.mutations.write();
        let state = m.entry(name.to_owned()).or_default();
        state.epoch += 1;
        state.gen += 1;
        state.pending_unattributed += row_delta;
        drop(m);
        self.adjust_legacy_rows(name, row_delta);
    }

    /// Record a DML batch with per-fragment row deltas (the DML fan-out
    /// knows exactly which fragment absorbed how many rows). Preferred
    /// over [`DataDictionary::note_mutation`]: a later report from one
    /// fragment clears only **its** delta, so a partial refresh never
    /// double-counts rows a fresh report already includes.
    pub fn note_mutation_by_fragment(&self, name: &str, deltas: &[(FragmentId, i64)]) {
        // A batch that changed nothing (e.g. a DELETE matching no rows)
        // leaves every cached report exact — don't stale them.
        if deltas.iter().all(|&(_, d)| d == 0) {
            return;
        }
        let mut m = self.mutations.write();
        let state = m.entry(name.to_owned()).or_default();
        state.epoch += 1;
        state.gen += 1;
        for &(frag, d) in deltas {
            if d != 0 {
                *state.pending_by_fragment.entry(frag).or_default() += d;
            }
        }
        drop(m);
        self.adjust_legacy_rows(name, deltas.iter().map(|&(_, d)| d).sum());
    }

    /// The single definition of "fully reported": every current
    /// fragment of `name` has a cached report stamped at `epoch`. Both
    /// the pending-delta reset and EXPLAIN's freshness label must agree
    /// on this rule.
    fn all_reported_at(
        &self,
        name: &str,
        per_rel: &HashMap<FragmentId, CachedFragmentStats>,
        epoch: u64,
    ) -> bool {
        self.relations.read().get(name).is_some_and(|info| {
            info.fragments
                .iter()
                .all(|f| per_rel.get(&f.id).is_some_and(|c| c.as_of_epoch == epoch))
        })
    }

    /// Keep any legacy table-level summary row-adjusted too.
    fn adjust_legacy_rows(&self, name: &str, row_delta: i64) {
        if let Some(s) = self.stats.write().get_mut(name) {
            // Copy-on-write: estimators may still hold the old Arc.
            Arc::make_mut(s).rows = (s.rows as i64 + row_delta).max(0) as u64;
        }
    }

    /// Cache one fragment's statistics report at the current mutation
    /// epoch. The report subsumes the fragment's own pending delta
    /// immediately; the unattributed delta resets once every current
    /// fragment has reported at this epoch (the relation is fresh again).
    pub fn put_fragment_stats(&self, name: &str, fragment: FragmentId, stats: FragmentStatistics) {
        let epoch = self.mutation_epoch(name);
        let mut cache = self.fragment_stats.write();
        let per_rel = cache.entry(name.to_owned()).or_default();
        per_rel.insert(
            fragment,
            CachedFragmentStats {
                stats,
                as_of_epoch: epoch,
            },
        );
        let all_fresh = self.all_reported_at(name, per_rel, epoch);
        drop(cache);
        let mut m = self.mutations.write();
        let state = m.entry(name.to_owned()).or_default();
        state.gen += 1; // a new report changes what the merge computes
        // Re-validate the epoch under the lock: a mutation that raced
        // in after the report was stamped recorded deltas the report
        // does NOT include — those must survive (the stats are stale
        // either way; leaving the delta keeps the merged row count
        // honest).
        if state.epoch == epoch {
            state.pending_by_fragment.remove(&fragment);
            if all_fresh {
                state.pending_unattributed = 0;
            }
        }
    }

    /// Merge the cached fragment reports into the table-level view, with
    /// the pending mutation delta applied to the row count. `None` when
    /// no fragment of `name` ever reported. Memoized per relation —
    /// every report and mutation invalidates — because planning one
    /// query consults `table_stats` many times (per-operator estimates,
    /// skew checks, placement weights).
    fn merged_table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        // Snapshot the generation FIRST: the computed merge is tagged
        // with it, so a mutation racing in mid-compute makes this entry
        // a guaranteed miss instead of a poisoned cache.
        let gen = self.mutations.read().get(name).map_or(0, |m| m.gen);
        if let Some((cached_gen, hit)) = self.merged_cache.read().get(name) {
            if *cached_gen == gen {
                // A cache hit is a pointer bump, not a histogram clone.
                return Some(Arc::clone(hit));
            }
        }
        let cache = self.fragment_stats.read();
        let per_rel = cache.get(name)?;
        if per_rel.is_empty() {
            return None;
        }
        let info = self.relations.read().get(name).cloned();
        // Partition order keeps the merge deterministic.
        let parts: Vec<FragmentStatistics> = match &info {
            Some(info) => info
                .fragments
                .iter()
                .filter_map(|f| per_rel.get(&f.id).map(|c| c.stats.clone()))
                .collect(),
            None => per_rel.values().map(|c| c.stats.clone()).collect(),
        };
        if parts.is_empty() {
            return None;
        }
        let mut merged =
            TableStats::from_fragments(&parts, info.as_ref().and_then(|i| i.frag_column));
        let pending = self
            .mutations
            .read()
            .get(name)
            .map_or(0, MutationState::pending_total);
        merged.rows = (merged.rows as i64 + pending).max(0) as u64;
        drop(cache);
        let merged = Arc::new(merged);
        self.merged_cache
            .write()
            .insert(name.to_owned(), (gen, Arc::clone(&merged)));
        Some(merged)
    }
}

impl StatsSource for DataDictionary {
    fn fragmentation(&self, name: &str) -> Option<Vec<FragmentId>> {
        let rels = self.relations.read();
        Some(rels.get(name)?.fragments.iter().map(|f| f.id).collect())
    }

    fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        // Fragment reports (even stale ones) beat the legacy summary,
        // which beats the arity-aware default.
        if let Some(merged) = self.merged_table_stats(name) {
            return Some(merged);
        }
        if let Some(s) = self.stats.read().get(name) {
            return Some(Arc::clone(s));
        }
        let rels = self.relations.read();
        let info = rels.get(name)?;
        let arity = info.schema.arity();
        Some(Arc::new(TableStats {
            rows: 1000,
            distinct: vec![100; arity],
            min: vec![None; arity],
            max: vec![None; arity],
            ..TableStats::default()
        }))
    }

    fn fragment_stats(&self, name: &str) -> Option<Vec<(FragmentId, FragmentStatistics)>> {
        let cache = self.fragment_stats.read();
        let per_rel = cache.get(name)?;
        let info = self.relations.read().get(name)?.clone();
        // Partition order, skipping fragments that never reported.
        let out: Vec<(FragmentId, FragmentStatistics)> = info
            .fragments
            .iter()
            .filter_map(|f| per_rel.get(&f.id).map(|c| (f.id, c.stats.clone())))
            .collect();
        (!out.is_empty()).then_some(out)
    }

    fn fragment_rows(&self, name: &str) -> Option<Vec<(FragmentId, u64)>> {
        // The placement pass calls this per partitioned join per query:
        // read just the row counts, never clone the full reports.
        let cache = self.fragment_stats.read();
        let per_rel = cache.get(name)?;
        let info = self.relations.read().get(name)?.clone();
        let out: Vec<(FragmentId, u64)> = info
            .fragments
            .iter()
            .filter_map(|f| per_rel.get(&f.id).map(|c| (f.id, c.stats.rows)))
            .collect();
        (!out.is_empty()).then_some(out)
    }

    fn stats_freshness(&self, name: &str) -> StatsFreshness {
        let epoch = self.mutation_epoch(name);
        let cache = self.fragment_stats.read();
        if let Some(per_rel) = cache.get(name) {
            if !per_rel.is_empty() {
                return if self.all_reported_at(name, per_rel, epoch) {
                    StatsFreshness::Fresh
                } else {
                    StatsFreshness::Stale
                };
            }
        }
        if self.stats.read().contains_key(name) {
            StatsFreshness::Stale // a summary exists but its provenance is unknown
        } else {
            StatsFreshness::Absent
        }
    }
}

impl prisma_sqlfe::Catalog for DataDictionary {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.relation(name)?.schema)
    }
}

impl prisma_prismalog::SchemaSource for DataDictionary {
    fn edb_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.relation(name)?.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::{tuple, Column, DataType};

    impl DataDictionary {
        /// Install a table-level summary directly, bypassing the
        /// per-fragment statistics lifecycle.
        fn put_stats(&self, name: &str, stats: TableStats) {
            self.stats.write().insert(name.to_owned(), Arc::new(stats));
        }
    }

    fn dict() -> DataDictionary {
        DataDictionary::new(MachineConfig::paper_prototype(), DiskProfile::instant())
    }

    fn info(frags: usize, frag_column: Option<usize>) -> RelationInfo {
        RelationInfo {
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
            ]),
            frag_column,
            fragments: (0..frags)
                .map(|i| {
                    FragmentHandle::new(FragmentId(i as u32), PeId::from(i), ProcessId(i as u32))
                })
                .collect(),
        }
    }

    #[test]
    fn register_lookup_unregister() {
        let d = dict();
        d.register("t", info(4, Some(0))).unwrap();
        assert!(d.register("t", info(4, Some(0))).is_err());
        assert_eq!(d.relation("t").unwrap().fragments.len(), 4);
        d.unregister("t").unwrap();
        assert!(d.relation("t").is_err());
    }

    #[test]
    fn hash_routing_is_deterministic_and_spread() {
        let d = dict();
        d.register("t", info(4, Some(0))).unwrap();
        let info = d.relation("t").unwrap();
        let mut seen = vec![0usize; 4];
        for i in 0..100 {
            let row = tuple![i, "x"];
            let f = info.route(row.values()).unwrap();
            assert_eq!(f, info.route(row.values()).unwrap());
            seen[f] += 1;
        }
        assert!(seen.iter().all(|&c| c > 10), "skewed routing: {seen:?}");
    }

    #[test]
    fn a_key_equality_of_the_declared_type_pins_one_fragment() {
        let t = info(4, Some(0));
        let all = vec![0, 1, 2, 3];
        let key_is = |v: Value| ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(v));
        for k in 0..50 {
            let home = t.route(tuple![k, "x"].values()).unwrap();
            let b_is_x = ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit("x"));
            let flipped = ScalarExpr::eq(ScalarExpr::lit(k), ScalarExpr::col(0));
            for pinned in [
                key_is(Value::Int(k)),
                flipped,
                ScalarExpr::and(b_is_x.clone(), key_is(Value::Int(k))),
            ] {
                assert_eq!(t.fragments_for(Some(&pinned)), vec![home], "{pinned:?}");
            }
            // Not an equality conjunct on the key, or not the key's type.
            for broadcast in [
                key_is(Value::Double(k as f64)),
                ScalarExpr::or(key_is(Value::Int(k)), b_is_x.clone()),
                ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(0), ScalarExpr::lit(k)),
                b_is_x,
            ] {
                assert_eq!(t.fragments_for(Some(&broadcast)), all, "{broadcast:?}");
            }
        }
        assert_eq!(t.fragments_for(Some(&key_is(Value::Null))), all);
        assert_eq!(t.fragments_for(Some(&key_is(Value::from("7")))), all);
        assert_eq!(t.fragments_for(None), all);
        // No fragmentation column: a row's home depends on the whole row.
        assert_eq!(
            info(4, None).fragments_for(Some(&key_is(Value::Int(7)))),
            all
        );
        assert!(info(0, Some(0))
            .fragments_for(Some(&key_is(Value::Int(7))))
            .is_empty());
    }

    #[test]
    fn routing_into_zero_fragments_errors_instead_of_panicking() {
        // Regression: both routing arms used to end in `% fragments.len()`,
        // a modulo-by-zero panic for a fragment-less relation.
        let empty = info(0, Some(0));
        let row = tuple![1, "x"];
        assert!(matches!(
            empty.route(row.values()),
            Err(PrismaError::Execution(m)) if m.contains("no fragments")
        ));
        let empty_rr = info(0, None);
        assert!(empty_rr.route(row.values()).is_err());
    }

    #[test]
    fn failover_flips_to_backup_and_bumps_epoch() {
        let d = dict();
        let mut i = info(2, Some(0));
        i.fragments[0] = FragmentHandle::new(FragmentId(0), PeId(0), ProcessId(0))
            .with_backup(PeId(3), ProcessId(30));
        d.register("t", i).unwrap();

        let flipped = d.fail_over_fragment(FragmentId(0)).unwrap();
        assert_eq!(flipped.pe, PeId(3));
        assert_eq!(flipped.actor, ProcessId(30));
        assert_eq!(flipped.epoch, 1);
        assert!(flipped.backup.is_none(), "backup was consumed");
        // The dictionary view reflects the flip.
        let after = d.relation("t").unwrap();
        assert_eq!(after.fragments[0].pe, PeId(3));
        assert_eq!(after.fragments[0].epoch, 1);

        // A second failure of the same fragment has nowhere to go.
        assert!(matches!(
            d.fail_over_fragment(FragmentId(0)),
            Err(PrismaError::MachineFault(m)) if m.contains("no backup")
        ));
        // Unreplicated fragments fail over with the same clear error.
        assert!(d.fail_over_fragment(FragmentId(1)).is_err());
        // Unknown fragments are named.
        assert!(matches!(
            d.fail_over_fragment(FragmentId(99)),
            Err(PrismaError::NoSuchFragment(_))
        ));
        assert_eq!(d.fragment_handle(FragmentId(0)).unwrap().pe, PeId(3));
        assert!(d.fragment_handle(FragmentId(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "distinct PE")]
    fn backup_on_the_primary_pe_is_rejected() {
        let _ = FragmentHandle::new(FragmentId(0), PeId(1), ProcessId(0))
            .with_backup(PeId(1), ProcessId(1));
    }

    #[test]
    fn stable_services_shared_within_stride() {
        let d = dict();
        let a = d.stable_for(PeId(1));
        let b = d.stable_for(PeId(7));
        let c = d.stable_for(PeId(8));
        assert!(Arc::ptr_eq(&a.wal, &b.wal), "PE1 and PE7 share disk PE0");
        assert!(!Arc::ptr_eq(&a.wal, &c.wal), "PE8 has its own disk");
    }

    #[test]
    fn stats_fallback_has_relation_arity() {
        let d = dict();
        d.register("t", info(2, None)).unwrap();
        let s = d.table_stats("t").unwrap();
        assert_eq!(s.distinct.len(), 2);
        assert!(d.table_stats("ghost").is_none());
        d.put_stats(
            "t",
            TableStats {
                rows: 5,
                distinct: vec![5, 5],
                min: vec![None, None],
                max: vec![None, None],
                ..TableStats::default()
            },
        );
        d.note_mutation("t", 3);
        assert_eq!(d.table_stats("t").unwrap().rows, 8);
    }

    #[test]
    fn fragment_stats_cache_merge_and_freshness() {
        use prisma_types::{ColumnStats, FragmentStatistics};
        let d = dict();
        d.register("t", info(2, Some(0))).unwrap();
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Absent);

        let frag = |rows: u64, lo: i64, hi: i64| FragmentStatistics {
            rows,
            bytes: rows * 16,
            columns: vec![
                ColumnStats {
                    distinct: rows,
                    min: Some(Value::Int(lo)),
                    max: Some(Value::Int(hi)),
                    ..ColumnStats::default()
                },
                ColumnStats::default(),
            ],
        };
        // One of two fragments reported: usable but stale.
        d.put_fragment_stats("t", FragmentId(0), frag(10, 0, 9));
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Stale);
        assert_eq!(d.table_stats("t").unwrap().rows, 10);

        // Both reported at the current epoch: fresh, merged.
        d.put_fragment_stats("t", FragmentId(1), frag(20, 10, 29));
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Fresh);
        let merged = d.table_stats("t").unwrap();
        assert_eq!(merged.rows, 30);
        assert_eq!(merged.min[0], Some(Value::Int(0)));
        assert_eq!(merged.max[0], Some(Value::Int(29)));
        // Column 0 is the hash-fragmentation column: distinct sums.
        assert_eq!(merged.distinct[0], 30);
        assert_eq!(d.fragment_stats("t").unwrap().len(), 2);

        // DML bumps the epoch: stats go stale, merged rows track the
        // pending delta until the next refresh.
        d.note_mutation("t", 5);
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Stale);
        assert_eq!(d.table_stats("t").unwrap().rows, 35);

        // Re-reporting both fragments at the new epoch subsumes the
        // delta and restores freshness.
        d.put_fragment_stats("t", FragmentId(0), frag(15, 0, 14));
        d.put_fragment_stats("t", FragmentId(1), frag(20, 10, 29));
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Fresh);
        assert_eq!(d.table_stats("t").unwrap().rows, 35);
    }

    #[test]
    fn partial_refresh_does_not_double_count_pending_rows() {
        use prisma_types::{ColumnStats, FragmentStatistics};
        let d = dict();
        d.register("t", info(2, None)).unwrap();
        let frag = |rows: u64| FragmentStatistics {
            rows,
            bytes: rows * 16,
            columns: vec![ColumnStats::default(), ColumnStats::default()],
        };
        d.put_fragment_stats("t", FragmentId(0), frag(10));
        d.put_fragment_stats("t", FragmentId(1), frag(10));
        assert_eq!(d.table_stats("t").unwrap().rows, 20);

        // 5 rows into fragment 0; its re-report (15 rows) subsumes the
        // delta even though fragment 1 never re-reported — the merged
        // count must be 25, not 30.
        d.note_mutation_by_fragment("t", &[(FragmentId(0), 5)]);
        assert_eq!(d.table_stats("t").unwrap().rows, 25);
        d.put_fragment_stats("t", FragmentId(0), frag(15));
        assert_eq!(d.table_stats("t").unwrap().rows, 25);
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Stale);

        // Fragment 1's re-report completes the refresh: fresh, exact.
        d.put_fragment_stats("t", FragmentId(1), frag(10));
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Fresh);
        assert_eq!(d.table_stats("t").unwrap().rows, 25);

        // A DML batch that changed nothing leaves the reports exact —
        // freshness must not flip.
        d.note_mutation_by_fragment("t", &[(FragmentId(0), 0), (FragmentId(1), 0)]);
        assert_eq!(d.stats_freshness("t"), prisma_types::StatsFreshness::Fresh);
        assert_eq!(d.table_stats("t").unwrap().rows, 25);
    }

    #[test]
    fn fragment_ids_unique() {
        let d = dict();
        let a = d.alloc_fragment_id();
        let b = d.alloc_fragment_id();
        assert_ne!(a, b);
    }
}
