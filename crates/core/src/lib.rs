//! # prisma-core
//!
//! The public façade of the PRISMA database machine reproduction: a
//! **distributed, main-memory DBMS on a simulated 64-PE multi-computer**
//! (Apers, Kersten, Oerlemans — EDBT 1988).
//!
//! ```
//! use prisma_core::PrismaMachine;
//!
//! let db = PrismaMachine::builder().pes(8).build().unwrap();
//! db.sql("CREATE TABLE emp (id INT, dept INT) FRAGMENTED BY HASH(id) INTO 4").unwrap();
//! db.sql("INSERT INTO emp VALUES (1, 10), (2, 10), (3, 20)").unwrap();
//! let rows = db.query("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept").unwrap();
//! assert_eq!(rows.len(), 2);
//!
//! // The paper's second interface: PRISMAlog (Datalog-class rules).
//! db.sql("CREATE TABLE edge (src INT, dst INT) FRAGMENTED INTO 2").unwrap();
//! db.sql("INSERT INTO edge VALUES (1,2),(2,3)").unwrap();
//! let paths = db.prismalog(
//!     "path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).",
//!     "?- path(1, X).",
//! ).unwrap();
//! assert_eq!(paths.len(), 2);
//! db.shutdown();
//! ```
//!
//! Everything underneath is re-exported: the interconnect model
//! ([`multicomputer`]), POOL-X runtime ([`poolx`]), storage structures and
//! expression compiler ([`storage`]), stable storage ([`stable`]), algebra
//! ([`relalg`]), One-Fragment Managers ([`ofm`]), SQL and PRISMAlog front
//! ends ([`sqlfe`], [`prismalog`]), the knowledge-based optimizer
//! ([`optimizer`]), the Global Data Handler ([`gdh`]) and the
//! deterministic fault-injection layer ([`faultx`]).

pub use prisma_faultx as faultx;
pub use prisma_gdh as gdh;
pub use prisma_multicomputer as multicomputer;
pub use prisma_ofm as ofm;
pub use prisma_optimizer as optimizer;
pub use prisma_poolx as poolx;
pub use prisma_prismalog as prismalog;
pub use prisma_relalg as relalg;
pub use prisma_sqlfe as sqlfe;
pub use prisma_stable as stable;
pub use prisma_storage as storage;
pub use prisma_types as types;
pub use prisma_workload as workload;

pub use prisma_gdh::{AllocationPolicy, GlobalDataHandler, QueryOutcome};
pub use prisma_relalg::Relation;
pub use prisma_types::{
    MachineConfig, PrismaError, Result, Schema, TopologyKind, Tuple, TxnId, Value,
};

use prisma_stable::DiskProfile;

/// Builder for a [`PrismaMachine`].
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    config: MachineConfig,
    allocation: AllocationPolicy,
    disk_profile: DiskProfile,
}

impl MachineBuilder {
    /// Number of processing elements (default: the paper's 64).
    pub fn pes(mut self, n: usize) -> Self {
        self.config.num_pes = n;
        self
    }

    /// Interconnect topology (default: mesh; the paper's alternative is a
    /// chordal ring).
    pub fn topology(mut self, t: TopologyKind) -> Self {
        self.config.topology = t;
        self
    }

    /// Fragment-placement policy of the data-allocation manager.
    pub fn allocation(mut self, p: AllocationPolicy) -> Self {
        self.allocation = p;
        self
    }

    /// Latency profile of the simulated disks on disk PEs (default:
    /// instant, so tests don't pay 20 ms seeks; benches use
    /// [`DiskProfile::default`] for period-realistic numbers).
    pub fn disk_profile(mut self, p: DiskProfile) -> Self {
        self.disk_profile = p;
        self
    }

    /// Rows-per-chunk threshold at which fragments seal column chunks
    /// (default 0: resolve from `SEAL_EVERY`, else 1024).
    pub fn seal_rows(mut self, rows: usize) -> Self {
        self.config.seal_rows = rows;
        self
    }

    /// Full configuration override.
    pub fn config(mut self, c: MachineConfig) -> Self {
        self.config = c;
        self
    }

    /// Boot the machine.
    pub fn build(self) -> Result<PrismaMachine> {
        Ok(PrismaMachine {
            gdh: GlobalDataHandler::boot(self.config, self.allocation, self.disk_profile)?,
        })
    }
}

/// A running PRISMA database machine.
pub struct PrismaMachine {
    gdh: GlobalDataHandler,
}

impl PrismaMachine {
    /// Builder with paper defaults.
    pub fn builder() -> MachineBuilder {
        MachineBuilder {
            config: MachineConfig::paper_prototype(),
            allocation: AllocationPolicy::LoadBalanced,
            disk_profile: DiskProfile::instant(),
        }
    }

    /// Boot with all defaults (64 PEs, mesh, load-balanced placement).
    pub fn boot() -> Result<PrismaMachine> {
        PrismaMachine::builder().build()
    }

    /// Execute one SQL statement.
    pub fn sql(&self, sql: &str) -> Result<QueryOutcome> {
        self.gdh.execute_sql(sql)
    }

    /// Execute a SQL query and return its rows.
    pub fn query(&self, sql: &str) -> Result<Relation> {
        self.gdh.execute_sql(sql)?.rows()
    }

    /// Execute a SQL query, returning rows plus the parallel executor's
    /// metrics (fragment tasks, batches shipped, join strategies used).
    pub fn query_with_metrics(
        &self,
        sql: &str,
    ) -> Result<(Relation, prisma_gdh::exec::ExecMetrics)> {
        self.gdh.query_sql_with_metrics(sql)
    }

    /// Run a PRISMAlog program against the stored relations and answer the
    /// query atom.
    pub fn prismalog(&self, program: &str, query: &str) -> Result<Relation> {
        self.gdh.execute_prismalog(program, query)
    }

    /// EXPLAIN a query: unoptimized plan, optimized plan, and the
    /// knowledge-base rule firings.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.gdh.explain_sql(sql)
    }

    /// Begin / commit / abort explicit transactions.
    pub fn begin(&self) -> TxnId {
        self.gdh.begin()
    }

    /// Execute a statement inside an explicit transaction.
    pub fn sql_in(&self, txn: TxnId, sql: &str) -> Result<QueryOutcome> {
        self.gdh.execute_sql_in(txn, sql)
    }

    /// Two-phase commit.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.gdh.commit(txn)
    }

    /// Abort and roll back.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.gdh.abort(txn)
    }

    /// Recompute optimizer statistics for a relation.
    pub fn refresh_stats(&self, table: &str) -> Result<()> {
        self.gdh.refresh_stats(table)
    }

    /// Force checkpoints for a relation (returns simulated disk ns).
    pub fn checkpoint(&self, table: &str) -> Result<u64> {
        self.gdh.checkpoint(table)
    }

    /// Rebuild a relation from stable storage (crash recovery).
    pub fn recover(&self, table: &str) -> Result<()> {
        self.gdh.recover_relation(table)
    }

    /// The supervising Global Data Handler (full API).
    pub fn gdh(&self) -> &GlobalDataHandler {
        &self.gdh
    }

    /// Mutable GDH access (optimizer-config overrides for ablations).
    pub fn gdh_mut(&mut self) -> &mut GlobalDataHandler {
        &mut self.gdh
    }

    /// Stop all PE workers.
    pub fn shutdown(&self) {
        self.gdh.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let db = PrismaMachine::builder().pes(4).build().unwrap();
        db.sql("CREATE TABLE t (a INT, b STRING) FRAGMENTED BY HASH(a) INTO 2")
            .unwrap();
        db.sql("INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'x')")
            .unwrap();
        let rows = db
            .query("SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY b")
            .unwrap();
        assert_eq!(rows.len(), 2);
        db.shutdown();
    }

    #[test]
    fn builder_options() {
        let db = PrismaMachine::builder()
            .pes(9)
            .topology(TopologyKind::ChordalRing { stride: 3 })
            .allocation(AllocationPolicy::RoundRobin)
            .build()
            .unwrap();
        assert_eq!(db.gdh().config().num_pes, 9);
        db.shutdown();
    }
}
