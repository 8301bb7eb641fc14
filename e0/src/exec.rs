//! Running one statement: through the public façade (the untraced run),
//! or step by step with a span around each call the façade would make
//! (the traced run's part A).

use std::collections::HashMap;

use prisma_core::gdh::ExecMetrics;
use prisma_core::optimizer::{lower_physical, Optimizer, PhysicalConfig, Trace};
use prisma_core::prismalog as plog;
use prisma_core::relalg::LogicalPlan;
use prisma_core::sqlfe::{self, PlannedStatement};
use prisma_core::{PrismaError, PrismaMachine, Relation, TxnId};

use crate::trace::{SpanId, Tracer};
use crate::workloads::Stmt;

/// What a statement returned.
#[derive(Debug, Default)]
pub struct StmtOut {
    /// The rows of a query (`None` for DML, whose affected-row counts are
    /// checked on the spot).
    pub rows: Option<Relation>,
    /// The parallel executor's counters (zero for DML and the PRISMAlog
    /// façade, which do not return them).
    pub metrics: ExecMetrics,
}

/// `a += b` for the counters the warm-up assertions read.
pub fn add_metrics(a: &mut ExecMetrics, b: &ExecMetrics) {
    a.broadcast_joins += b.broadcast_joins;
    a.partitioned_joins += b.partitioned_joins;
    a.chunks_scanned += b.chunks_scanned;
    a.chunks_pruned += b.chunks_pruned;
    a.failovers += b.failovers;
    a.streams_rerequested += b.streams_rerequested;
}

fn affected(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: affected {got} rows, expected {want}"))
    }
}

/// Does `out` hold what `stmt` must return?
pub fn verify(stmt: &Stmt, out: &StmtOut) -> Result<(), String> {
    match stmt {
        Stmt::Query { id, expect, .. } | Stmt::Plog { id, expect, .. } => match &out.rows {
            Some(rows) => expect.verify(rows).map_err(|e| format!("{id}: {e}")),
            None => Err(format!("{id}: no rows returned")),
        },
        Stmt::Dml { .. } | Stmt::Txn { .. } => Ok(()),
    }
}

/// Run `stmt` through the public façade, as a client would.
pub fn run_plain(db: &PrismaMachine, stmt: &Stmt) -> Result<StmtOut, String> {
    match stmt {
        Stmt::Query { id, sql, .. } => {
            let (rows, metrics) = db
                .query_with_metrics(sql)
                .map_err(|e| format!("{id}: {e}"))?;
            Ok(StmtOut {
                rows: Some(rows),
                metrics,
            })
        }
        Stmt::Plog {
            id, program, query, ..
        } => {
            let rows = db
                .prismalog(program, query)
                .map_err(|e| format!("{id}: {e}"))?;
            Ok(StmtOut {
                rows: Some(rows),
                ..StmtOut::default()
            })
        }
        Stmt::Dml {
            id,
            sql,
            affected: want,
        } => {
            let n = db
                .sql(sql)
                .and_then(|o| o.affected())
                .map_err(|e| format!("{id}: {e}"))?;
            affected(id, n, *want)?;
            Ok(StmtOut::default())
        }
        Stmt::Txn { id, stmts } => {
            let txn = db.begin();
            for (sql, want) in stmts {
                let n = match db.sql_in(txn, sql).and_then(|o| o.affected()) {
                    Ok(n) => n,
                    Err(e) => {
                        let _ = db.abort(txn);
                        return Err(format!("{id}: {e}"));
                    }
                };
                if let Err(e) = affected(id, n, *want) {
                    let _ = db.abort(txn);
                    return Err(e);
                }
            }
            db.commit(txn).map_err(|e| format!("{id}: commit: {e}"))?;
            Ok(StmtOut::default())
        }
    }
}

/// The traced executor: performs the façade's steps itself — compile,
/// optimize, lower, `GlobalDataHandler::query` (or `insert`/`update`/
/// `delete`/`commit`) — with a span around each, all from outside the
/// engine. `optimize` and `lower_physical` run once more inside
/// `GlobalDataHandler::query`; the extra pass is part of what
/// `trace.overhead_share` reports.
pub struct Traced<'a> {
    /// Where spans go.
    pub tracer: &'a mut Tracer,
    /// The lowering tunables the machine was booted with.
    pub physical: PhysicalConfig,
}

impl Traced<'_> {
    /// Run `stmt` under the span `parent`.
    pub fn run(
        &mut self,
        db: &PrismaMachine,
        stmt: &Stmt,
        parent: SpanId,
    ) -> Result<StmtOut, String> {
        let id = stmt.id();
        let span = self.tracer.open("stmt", id, parent);
        let out = self.run_inner(db, stmt, span);
        self.tracer.close(span);
        out.map_err(|e| format!("{id}: {e}"))
    }

    fn run_inner(
        &mut self,
        db: &PrismaMachine,
        stmt: &Stmt,
        span: SpanId,
    ) -> Result<StmtOut, String> {
        let id = stmt.id();
        match stmt {
            Stmt::Query { sql, .. } => match self.compile(db, sql, id, span)? {
                PlannedStatement::Query(plan) => self.query(db, &plan, id, span),
                _ => Err("expected a query".to_owned()),
            },
            Stmt::Plog { program, query, .. } => self.prismalog(db, program, query, id, span),
            Stmt::Dml {
                sql,
                affected: want,
                ..
            } => {
                let txn = db.gdh().begin();
                self.dml(db, txn, sql, *want, id, span)?;
                self.commit(db, txn, id, span)?;
                Ok(StmtOut::default())
            }
            Stmt::Txn { stmts, .. } => {
                let txn = db.gdh().begin();
                for (sql, want) in stmts {
                    self.dml(db, txn, sql, *want, id, span)?;
                }
                self.commit(db, txn, id, span)?;
                Ok(StmtOut::default())
            }
        }
    }

    fn compile(
        &mut self,
        db: &PrismaMachine,
        sql: &str,
        id: &'static str,
        parent: SpanId,
    ) -> Result<PlannedStatement, String> {
        self.tracer
            .timed("sqlfe.compile", id, parent, || {
                sqlfe::compile(sql, &**db.gdh().dictionary())
            })
            .map_err(|e| e.to_string())
    }

    fn query(
        &mut self,
        db: &PrismaMachine,
        plan: &LogicalPlan,
        id: &'static str,
        parent: SpanId,
    ) -> Result<StmtOut, String> {
        let dict = db.gdh().dictionary();
        let (optimized, _) = self
            .tracer
            .timed("optimizer.optimize", id, parent, || {
                Optimizer::new(&**dict).optimize(plan)
            })
            .map_err(|e| e.to_string())?;
        let physical = self.physical;
        self.tracer
            .timed("optimizer.lower_physical", id, parent, || {
                lower_physical(&optimized, &**dict, physical, &mut Trace::sink())
            })
            .map_err(|e| e.to_string())?;
        let span = self.tracer.open("gdh.query", id, parent);
        let result = db.gdh().query(plan);
        self.tracer.close(span);
        let (rows, m) = result.map_err(|e| e.to_string())?;
        for (key, v) in [
            ("first_batch_us", m.first_batch_micros),
            ("fragment_tasks", m.fragment_tasks),
            ("batches_shipped", m.batches_shipped),
            ("tuples_shipped", m.tuples_shipped),
            ("shuffled_direct_bits", m.shuffled_direct_bits),
            ("max_site_shuffled_bits", m.max_site_shuffled_bits),
            ("chunks_scanned", m.chunks_scanned),
            ("chunks_pruned", m.chunks_pruned),
            ("failovers", m.failovers),
            ("streams_rerequested", m.streams_rerequested),
        ] {
            self.tracer.count(span, key, v as f64);
        }
        Ok(StmtOut {
            rows: Some(rows),
            metrics: m,
        })
    }

    /// `GlobalDataHandler::execute_prismalog`, step by step: translate to
    /// algebra and run distributed, or — for programs the translation
    /// rejects — materialize the EDB relations at the coordinator and
    /// evaluate semi-naively there.
    fn prismalog(
        &mut self,
        db: &PrismaMachine,
        program: &str,
        query: &str,
        id: &'static str,
        parent: SpanId,
    ) -> Result<StmtOut, String> {
        let span = self.tracer.open("prismalog.compile", id, parent);
        let parsed = plog::parse_program(program).and_then(|p| Ok((p, plog::parse_query(query)?)));
        let compiled = parsed.map(|(p, q)| {
            let plan = plog::compile_query(&p, &q, &**db.gdh().dictionary());
            (p, q, plan)
        });
        self.tracer.close(span);
        let (prog, atom, plan) = compiled.map_err(|e| e.to_string())?;
        match plan {
            Ok(plan) => self.query(db, &plan, id, parent),
            Err(PrismaError::UnsafeRule(_)) => {
                let defined = prog.defined_predicates();
                let mut edb: HashMap<String, Relation> = HashMap::new();
                let span = self.tracer.open("gdh.query", id, parent);
                for rule in &prog.rules {
                    for a in rule.body_atoms() {
                        if !defined.contains(&a.pred) && !edb.contains_key(&a.pred) {
                            match db.gdh().snapshot(&a.pred) {
                                Ok(rel) => edb.insert(a.pred.clone(), rel),
                                Err(e) => {
                                    self.tracer.close(span);
                                    return Err(e.to_string());
                                }
                            };
                        }
                    }
                }
                self.tracer.close(span);
                let rows = self
                    .tracer
                    .timed("prismalog.seminaive", id, parent, || {
                        plog::evaluate(&prog, &edb)
                            .and_then(|(idb, _)| plog::seminaive::answer_query(&atom, &idb, &edb))
                    })
                    .map_err(|e| e.to_string())?;
                Ok(StmtOut {
                    rows: Some(rows),
                    ..StmtOut::default()
                })
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn dml(
        &mut self,
        db: &PrismaMachine,
        txn: TxnId,
        sql: &str,
        want: usize,
        id: &'static str,
        parent: SpanId,
    ) -> Result<(), String> {
        let planned = match self.compile(db, sql, id, parent) {
            Ok(p) => p,
            Err(e) => {
                let _ = db.gdh().abort(txn);
                return Err(e);
            }
        };
        let gdh = db.gdh();
        let result = self.tracer.timed("gdh.dml", id, parent, || match planned {
            PlannedStatement::Insert { table, rows } => gdh.insert(txn, &table, rows),
            PlannedStatement::Update {
                table,
                assignments,
                predicate,
            } => gdh.update(txn, &table, assignments, predicate),
            PlannedStatement::Delete { table, predicate } => gdh.delete(txn, &table, predicate),
            other => Err(PrismaError::Execution(format!("not DML: {other:?}"))),
        });
        match result
            .map_err(|e| e.to_string())
            .and_then(|n| affected(id, n, want))
        {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = gdh.abort(txn);
                Err(e)
            }
        }
    }

    fn commit(
        &mut self,
        db: &PrismaMachine,
        txn: TxnId,
        id: &'static str,
        parent: SpanId,
    ) -> Result<(), String> {
        self.tracer
            .timed("gdh.commit", id, parent, || db.gdh().commit(txn))
            .map_err(|e| format!("commit: {e}"))
    }
}
