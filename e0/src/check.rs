//! Result verification: the house oracle (`relalg::eval`) at set-up, and
//! an order-independent checksum in the measured loop.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use prisma_core::relalg::LogicalPlan;
use prisma_core::sqlfe::PlannedStatement;
use prisma_core::{PrismaMachine, Relation, Value};

/// The generated base relations a workload's oracle evaluates over.
pub type Base = HashMap<String, Arc<Relation>>;

/// What a statement's result must look like.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Row count.
    pub rows: usize,
    /// Wrapping sum of [`row_hash`] over the rows (order-independent).
    pub checksum: u64,
    /// When set, the result must equal this relation tuple for tuple, in
    /// order (the failover workload's "bit-identical to the fault-free
    /// run").
    pub exact: Option<Arc<Relation>>,
}

/// A keyless multiply-rotate hasher: the same value in every process, and
/// cheap enough that checking 150 000 rows per iteration stays a small
/// part of the client's time.
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^ (z >> 29)
    }
}

/// Hash of one row (column order matters, row order will not).
pub fn row_hash(values: &[Value]) -> u64 {
    let mut h = RowHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Count and checksum of a relation.
pub fn summarize(rel: &Relation) -> Expect {
    Expect {
        rows: rel.len(),
        checksum: rel
            .tuples()
            .iter()
            .fold(0u64, |acc, t| acc.wrapping_add(row_hash(t.values()))),
        exact: None,
    }
}

impl Expect {
    /// The expectation of a statement planned before set-up recorded its
    /// result: no result satisfies it, so the slip shows as a failed
    /// iteration rather than as a panic or a vacuous pass.
    pub fn unset() -> Expect {
        Expect {
            rows: usize::MAX,
            checksum: 0,
            exact: None,
        }
    }

    /// Check a result against the expectation.
    pub fn verify(&self, got: &Relation) -> Result<(), String> {
        if let Some(exact) = &self.exact {
            if got.tuples() != exact.tuples() {
                return Err(format!(
                    "result differs from the reference run ({} vs {} rows)",
                    got.len(),
                    exact.len()
                ));
            }
            return Ok(());
        }
        let s = summarize(got);
        if s.rows != self.rows {
            return Err(format!("{} rows, expected {}", s.rows, self.rows));
        }
        if s.checksum != self.checksum {
            return Err(format!(
                "checksum {:016x}, expected {:016x}",
                s.checksum, self.checksum
            ));
        }
        Ok(())
    }
}

/// Compile `sql` against the machine's dictionary; it must be a query.
pub fn query_plan(db: &PrismaMachine, sql: &str) -> Result<LogicalPlan, String> {
    match prisma_core::sqlfe::compile(sql, &**db.gdh().dictionary()) {
        Ok(PlannedStatement::Query(plan)) => Ok(plan),
        Ok(_) => Err(format!("not a query: {sql}")),
        Err(e) => Err(format!("compile {sql}: {e}")),
    }
}

fn same_canonical(got: Relation, oracle: Relation, what: &str) -> Result<(), String> {
    let (got, oracle) = (got.canonicalized(), oracle.canonicalized());
    if got.tuples() == oracle.tuples() {
        Ok(())
    } else {
        Err(format!(
            "{what}: machine returned {} rows, oracle {} rows, or the rows differ",
            got.len(),
            oracle.len()
        ))
    }
}

/// Run `sql` on the machine and through `relalg::eval` over `base`;
/// canonicalized, the two must agree tuple for tuple. Returns the
/// machine's result (in its own order).
///
/// The oracle evaluates the plan after the optimizer's logical rewrites:
/// the planner's raw `FROM a, b WHERE a.x = b.x` is a filter over a cross
/// product, which the reference evaluator cannot hold for 40 000 × 20 000
/// rows. Everything below the rewrite — executor, kernels, storage, wire,
/// merge — is still checked against an independent evaluation.
pub fn oracle_sql(db: &PrismaMachine, base: &Base, sql: &str) -> Result<Relation, String> {
    let plan = query_plan(db, sql)?;
    let (plan, _) = prisma_core::optimizer::Optimizer::new(&**db.gdh().dictionary())
        .optimize(&plan)
        .map_err(|e| format!("optimize {sql}: {e}"))?;
    let oracle =
        prisma_core::relalg::eval(&plan, base).map_err(|e| format!("oracle {sql}: {e}"))?;
    let got = db.query(sql).map_err(|e| format!("{sql}: {e}"))?;
    same_canonical(got.clone(), oracle, sql)?;
    Ok(got)
}

/// Run a PRISMAlog query on the machine and through the set-oriented
/// semi-naive evaluator (the repository's ground truth for the algebra
/// translation) over `base`; canonicalized, the two must agree.
pub fn oracle_prismalog(
    db: &PrismaMachine,
    base: &Base,
    program: &str,
    query: &str,
) -> Result<Relation, String> {
    use prisma_core::prismalog as plog;
    let prog = plog::parse_program(program).map_err(|e| format!("{program}: {e}"))?;
    let atom = plog::parse_query(query).map_err(|e| format!("{query}: {e}"))?;
    let oracle = plog::evaluate(&prog, base)
        .and_then(|(idb, _)| plog::seminaive::answer_query(&atom, &idb, base))
        .map_err(|e| format!("oracle {query}: {e}"))?;
    let got = db
        .prismalog(program, query)
        .map_err(|e| format!("{query}: {e}"))?;
    same_canonical(got.clone(), oracle, query)?;
    Ok(got)
}
