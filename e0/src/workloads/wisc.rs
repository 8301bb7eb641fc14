//! The three workloads over one 100 000-row Wisconsin table, `wisc`
//! (`HASH(unique1) INTO 4`, loaded in `unique2` order so sealed chunks
//! are clustered on `unique2` and scattered on `unique1`).

use std::collections::HashMap;
use std::sync::Arc;

use prisma_core::types::tuple;
use prisma_core::workload::{values_clause, wisconsin_rows, wisconsin_schema};
use prisma_core::{PrismaMachine, Relation, Tuple, Value};

use super::{ddl, scalar, Scale, Seen, Stmt, Workload};
use crate::check::{self, row_hash, Base, Expect};
use crate::machine;
use crate::rng::SplitMix64;

const S1: &str = "SELECT unique1, unique2, string4 FROM wisc";
const S2: &str = "SELECT unique2, ten, hundred FROM wisc WHERE two = 0";
const A1: &str = "SELECT ten, COUNT(*) AS n, SUM(hundred) AS s FROM wisc GROUP BY ten";
const A2: &str =
    "SELECT string4, COUNT(*) AS n FROM wisc WHERE ten BETWEEN 2 AND 5 GROUP BY string4";
/// Rows `scan_after_dml` inserts (and later deletes) per iteration.
const FRESH: usize = 64;
/// Point updates per `scan_after_dml` iteration.
const UPDATES: usize = 2;
const STRINGS: [&str; 4] = ["AAAA", "HHHH", "OOOO", "VVVV"];

/// Which statement list runs over `wisc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// S1 + S2: full and half scans shipped whole.
    ScanShip,
    /// 8×F1 + 4×F2 + A1 + A2: selective scans and aggregates.
    FilterAgg,
    /// 2×U1 + I2 + D1, then S1 + F1.
    ScanAfterDml,
}

/// Model of `wisc` plus the statement generator for one [`Mix`].
pub struct Wisc {
    mix: Mix,
    smoke: bool,
    n: usize,
    /// Width of the F1/F2 ranges: 2 % of the table.
    width: usize,
    base: Base,
    rng: SplitMix64,
    /// Prefix sums of `row_hash([unique1, unique2])` in `unique2` order
    /// and in `unique1` order: a range query's checksum in O(1).
    pref_u2: Vec<u64>,
    pref_u1: Vec<u64>,
    /// Results of the parameterless statements (S1, S2, A1, A2),
    /// recorded at set-up.
    fixed: HashMap<&'static str, Expect>,
    /// `scan_after_dml`: update keys, batches inserted so far, point
    /// updates applied, and `SUM(hundred)` of the loaded rows.
    update_keys: Vec<usize>,
    batches: u64,
    updates_done: u64,
    hundred_sum: i64,
}

fn fresh_batch(n: usize, batch: u64) -> Vec<Tuple> {
    (0..FRESH as i64)
        .map(|j| {
            let k = n as i64 + batch as i64 * FRESH as i64 + j;
            tuple![k, k, k % 2, k % 10, k % 100, STRINGS[(k % 4) as usize]]
        })
        .collect()
}

/// Checksum contribution of a fresh batch to S1 (`unique1, unique2, string4`).
fn fresh_s1_sum(rows: &[Tuple]) -> u64 {
    rows.iter().fold(0u64, |acc, t| {
        acc.wrapping_add(row_hash(&[
            t.get(0).clone(),
            t.get(1).clone(),
            t.get(5).clone(),
        ]))
    })
}

fn pair_hash(u1: i64, u2: i64) -> u64 {
    row_hash(&[Value::Int(u1), Value::Int(u2)])
}

impl Wisc {
    pub fn new(mix: Mix, scale: Scale, seed: u64) -> Self {
        let n = scale.pick(100_000, 2_000);
        let rows = wisconsin_rows(n, seed);
        let mut pref_u2 = vec![0u64; n + 1];
        let mut by_u1 = vec![0i64; n];
        for (u2, t) in rows.iter().enumerate() {
            let u1 = t.get(0).as_int().unwrap_or(0);
            pref_u2[u2 + 1] = pref_u2[u2].wrapping_add(pair_hash(u1, u2 as i64));
            by_u1[u1 as usize] = u2 as i64;
        }
        let mut pref_u1 = vec![0u64; n + 1];
        for (u1, &u2) in by_u1.iter().enumerate() {
            pref_u1[u1 + 1] = pref_u1[u1].wrapping_add(pair_hash(u1 as i64, u2));
        }
        let hundred_sum = rows.iter().filter_map(|t| t.get(4).as_int()).sum();
        let mut rng = SplitMix64::new(seed, 0x5743);
        let update_keys = if mix == Mix::ScanAfterDml {
            rng.permutation(n)
        } else {
            Vec::new()
        };
        let mut base = Base::new();
        base.insert(
            "wisc".to_owned(),
            Arc::new(Relation::new(wisconsin_schema(), rows)),
        );
        Wisc {
            mix,
            smoke: scale.smoke,
            n,
            width: n / 50,
            base,
            rng,
            pref_u2,
            pref_u1,
            fixed: HashMap::new(),
            update_keys,
            batches: 0,
            updates_done: 0,
            hundred_sum,
        }
    }

    fn range_sql(column: &str, lo: usize, hi: usize) -> String {
        format!("SELECT unique1, unique2 FROM wisc WHERE {column} BETWEEN {lo} AND {hi}")
    }

    /// A seeded range query on `column` with its expected result.
    fn range_stmt(&mut self, id: &'static str, column: &'static str) -> Stmt {
        let lo = self.rng.below((self.n - self.width) as u64) as usize;
        let hi = lo + self.width - 1;
        let pref = if column == "unique2" {
            &self.pref_u2
        } else {
            &self.pref_u1
        };
        Stmt::Query {
            id,
            sql: Self::range_sql(column, lo, hi),
            expect: Expect {
                rows: self.width,
                checksum: pref[hi + 1].wrapping_sub(pref[lo]),
                exact: None,
            },
        }
    }

    /// A parameterless statement with the result set-up recorded for it.
    fn fixed(&self, id: &'static str, sql: &str) -> Stmt {
        Stmt::Query {
            id,
            sql: sql.to_owned(),
            expect: self.fixed.get(id).cloned().unwrap_or_else(Expect::unset),
        }
    }

    /// Check `sql` against the oracle and record its result under `id`.
    fn record(&mut self, db: &PrismaMachine, id: &'static str, sql: &str) -> Result<(), String> {
        let got = check::oracle_sql(db, &self.base, sql)?;
        self.fixed.insert(id, check::summarize(&got));
        Ok(())
    }

    fn insert_sql(rows: &[Tuple]) -> String {
        format!("INSERT INTO wisc VALUES {}", values_clause(rows))
    }
}

impl Workload for Wisc {
    fn setup(&mut self) -> Result<PrismaMachine, String> {
        let db = machine::boot(self.config(), self.physical())?;
        ddl(
            &db,
            "CREATE TABLE wisc (unique1 INT, unique2 INT, two INT, ten INT, hundred INT, string4 STRING) FRAGMENTED BY HASH(unique1) INTO 4",
        )?;
        machine::load(&db, "wisc", self.base["wisc"].tuples())?;
        // Every distinct statement against the oracle, once.
        let lo = self.n / 3;
        let hi = lo + self.width - 1;
        match self.mix {
            Mix::ScanShip => {
                self.record(&db, "S1", S1)?;
                self.record(&db, "S2", S2)?;
            }
            Mix::FilterAgg => {
                for column in ["unique2", "unique1"] {
                    check::oracle_sql(&db, &self.base, &Self::range_sql(column, lo, hi))?;
                }
                self.record(&db, "A1", A1)?;
                self.record(&db, "A2", A2)?;
            }
            Mix::ScanAfterDml => {
                self.record(&db, "S1", S1)?;
                check::oracle_sql(&db, &self.base, &Self::range_sql("unique2", lo, hi))?;
                // Batch 0, so the first iteration has 64 rows to delete.
                let n = db
                    .sql(&Self::insert_sql(&fresh_batch(self.n, 0)))
                    .and_then(|o| o.affected())
                    .map_err(|e| format!("insert batch 0: {e}"))?;
                if n != FRESH {
                    return Err(format!("insert batch 0 affected {n} rows"));
                }
            }
        }
        Ok(db)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn null_query(&self) -> &'static str {
        "SELECT unique2 FROM wisc WHERE unique1 = -1"
    }

    fn plan(&mut self) -> Vec<Stmt> {
        match self.mix {
            Mix::ScanShip => vec![self.fixed("S1", S1), self.fixed("S2", S2)],
            Mix::FilterAgg => {
                let mut stmts = Vec::with_capacity(14);
                for _ in 0..8 {
                    stmts.push(self.range_stmt("F1", "unique2"));
                }
                for _ in 0..4 {
                    stmts.push(self.range_stmt("F2", "unique1"));
                }
                stmts.push(self.fixed("A1", A1));
                stmts.push(self.fixed("A2", A2));
                stmts
            }
            Mix::ScanAfterDml => {
                let mut stmts = Vec::with_capacity(6);
                for _ in 0..UPDATES {
                    let k = self.update_keys[self.updates_done as usize % self.n];
                    self.updates_done += 1;
                    stmts.push(Stmt::Dml {
                        id: "U1",
                        sql: format!("UPDATE wisc SET hundred = hundred + 1 WHERE unique1 = {k}"),
                        affected: 1,
                    });
                }
                self.batches += 1;
                let fresh = fresh_batch(self.n, self.batches);
                stmts.push(Stmt::Dml {
                    id: "I2",
                    sql: Self::insert_sql(&fresh),
                    affected: FRESH,
                });
                let gone = self.n as u64 + (self.batches - 1) * FRESH as u64;
                stmts.push(Stmt::Dml {
                    id: "D1",
                    sql: format!(
                        "DELETE FROM wisc WHERE unique2 BETWEEN {gone} AND {}",
                        gone + FRESH as u64 - 1
                    ),
                    affected: FRESH,
                });
                // S1 now sees the loaded rows plus exactly the fresh batch.
                let mut s1 = self.fixed("S1", S1);
                if let Stmt::Query { expect, .. } = &mut s1 {
                    expect.rows = expect.rows.saturating_add(FRESH);
                    expect.checksum = expect.checksum.wrapping_add(fresh_s1_sum(&fresh));
                }
                stmts.push(s1);
                stmts.push(self.range_stmt("F1", "unique2"));
                stmts
            }
        }
    }

    fn check_warmup(&self, seen: &Seen) -> Result<(), String> {
        let ratio = |id: &str| {
            seen.get(id).map(|m| {
                m.chunks_pruned as f64 / (m.chunks_scanned + m.chunks_pruned).max(1) as f64
            })
        };
        match self.mix {
            // ≈ 2000-row smoke tables never fill a 1024-row chunk.
            _ if self.smoke => Ok(()),
            Mix::ScanShip => Ok(()),
            Mix::FilterAgg => {
                let (f1, f2) = (ratio("F1").unwrap_or(0.0), ratio("F2").unwrap_or(1.0));
                if f1 < 0.5 {
                    return Err(format!(
                        "F1 prune ratio {f1:.3} < 0.5: the clustered range is not zone-pruned"
                    ));
                }
                if f2 > 0.05 {
                    return Err(format!("F2 prune ratio {f2:.3} > 0.05: the scattered range should reach every chunk"));
                }
                Ok(())
            }
            Mix::ScanAfterDml => match seen.get("S1") {
                Some(m) if m.chunks_scanned > 0 => Ok(()),
                _ => Err("S1 scanned no sealed chunk after the DML: nothing re-sealed".to_owned()),
            },
        }
    }

    fn finish(&mut self, db: &PrismaMachine) -> Result<(), String> {
        if self.mix != Mix::ScanAfterDml {
            return Ok(());
        }
        let rows = scalar(db, "SELECT COUNT(*) AS n FROM wisc")?;
        if rows != (self.n + FRESH) as i64 {
            return Err(format!(
                "wisc holds {rows} rows, expected {}",
                self.n + FRESH
            ));
        }
        let live: i64 = fresh_batch(self.n, self.batches)
            .iter()
            .filter_map(|t| t.get(4).as_int())
            .sum();
        let want = self.hundred_sum + self.updates_done as i64 + live;
        let got = scalar(db, "SELECT SUM(hundred) AS s FROM wisc")?;
        if got != want {
            return Err(format!("SUM(hundred) = {got}, expected {want}"));
        }
        Ok(())
    }
}
