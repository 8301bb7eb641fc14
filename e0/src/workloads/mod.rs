//! The seven workloads. Each is a small model of its tables plus a
//! generator of per-iteration statement lists with the results they must
//! produce; the engine only ever sees the generated SQL and rows.

use std::collections::HashMap;

use prisma_core::gdh::ExecMetrics;
use prisma_core::optimizer::PhysicalConfig;
use prisma_core::types::MachineConfig;
use prisma_core::PrismaMachine;

use crate::check::{Base, Expect};
use crate::machine;
use crate::spec::WorkloadSpec;

mod failover;
mod join;
mod oltp;
mod recursive;
mod wisc;

/// Table sizes: the full benchmark, or `--smoke` (≈ 2000-row tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Small tables, a handful of iterations.
    pub smoke: bool,
}

impl Scale {
    /// `full` rows normally, `smoke` rows under `--smoke`.
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One statement of an iteration, with what it must return.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `PrismaMachine::query_with_metrics`.
    Query {
        /// Statement id in the workload's table (`S1`, `F1`, …).
        id: &'static str,
        /// The SQL text.
        sql: String,
        /// The result it must produce.
        expect: Expect,
    },
    /// `PrismaMachine::prismalog`.
    Plog {
        /// Statement id.
        id: &'static str,
        /// The rules.
        program: &'static str,
        /// The query atom.
        query: &'static str,
        /// The result it must produce.
        expect: Expect,
    },
    /// `PrismaMachine::sql` on one auto-committed DML statement.
    Dml {
        /// Statement id.
        id: &'static str,
        /// The SQL text.
        sql: String,
        /// Rows it must affect.
        affected: usize,
    },
    /// `begin` – `sql_in`… – `commit`.
    Txn {
        /// Statement id.
        id: &'static str,
        /// `(sql, rows it must affect)` in order.
        stmts: Vec<(String, usize)>,
    },
}

impl Stmt {
    /// The statement's id.
    pub fn id(&self) -> &'static str {
        match self {
            Stmt::Query { id, .. }
            | Stmt::Plog { id, .. }
            | Stmt::Dml { id, .. }
            | Stmt::Txn { id, .. } => id,
        }
    }
}

/// `ExecMetrics` summed per statement id over the warm-up iterations.
pub type Seen = HashMap<&'static str, ExecMetrics>;

/// A workload: its tables' model and its statement generator.
pub trait Workload {
    /// Machine configuration (the fixed 8-PE machine unless overridden).
    fn config(&self) -> MachineConfig {
        machine::config(machine::PES, 60)
    }

    /// Physical-lowering tunables (the defaults unless overridden).
    fn physical(&self) -> PhysicalConfig {
        PhysicalConfig::default()
    }

    /// Boot, load, refresh statistics, and check every distinct
    /// statement against the oracle. Returns the machine the iterations
    /// run on.
    fn setup(&mut self) -> Result<PrismaMachine, String>;

    /// The generated base relations (what the oracle and the per-layer
    /// replay read).
    fn base(&self) -> &Base;

    /// The next iteration's statements; advances the model.
    fn plan(&mut self) -> Vec<Stmt>;

    /// A query every fragment refutes: what is left is the fixed cost of
    /// dispatch, round trip and merge (`gdh.null_query_us`).
    fn null_query(&self) -> &'static str;

    /// `(table, column)` of every hash index the set-up creates, so the
    /// per-layer replay can stand the same fragments up.
    fn hash_indexes(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    /// A machine of its own for the next iteration, prepared outside the
    /// timer (only `failover` needs one: its killed PE stays dead).
    fn iteration_machine(&mut self) -> Result<Option<PrismaMachine>, String> {
        Ok(None)
    }

    /// Does the warm-up show the workload exercises what it claims to?
    fn check_warmup(&self, _seen: &Seen) -> Result<(), String> {
        Ok(())
    }

    /// End-of-run invariants (conserved sums, row counts).
    fn finish(&mut self, _db: &PrismaMachine) -> Result<(), String> {
        Ok(())
    }
}

/// Build the workload `spec` names, with inputs made from `seed`.
pub fn make(spec: &WorkloadSpec, scale: Scale, seed: u64) -> Box<dyn Workload> {
    match spec.name {
        "scan_ship" => Box::new(wisc::Wisc::new(wisc::Mix::ScanShip, scale, seed)),
        "filter_agg" => Box::new(wisc::Wisc::new(wisc::Mix::FilterAgg, scale, seed)),
        "scan_after_dml" => Box::new(wisc::Wisc::new(wisc::Mix::ScanAfterDml, scale, seed)),
        "join_shuffle" => Box::new(join::JoinShuffle::new(scale, seed)),
        "oltp_txn" => Box::new(oltp::Oltp::new(scale, seed)),
        "recursive" => Box::new(recursive::Recursive::new(scale, seed)),
        _ => Box::new(failover::Failover::new(scale, seed)),
    }
}

/// `CREATE`/DDL helper: run one statement, naming it on failure.
pub(crate) fn ddl(db: &PrismaMachine, sql: &str) -> Result<(), String> {
    db.sql(sql).map(|_| ()).map_err(|e| format!("{sql}: {e}"))
}

/// A scalar `SELECT` (one row, one integer column).
pub(crate) fn scalar(db: &PrismaMachine, sql: &str) -> Result<i64, String> {
    let rel = db.query(sql).map_err(|e| format!("{sql}: {e}"))?;
    rel.tuples()
        .first()
        .and_then(|t| t.values().first().and_then(|v| v.as_int()))
        .ok_or_else(|| format!("{sql}: no scalar result"))
}
