//! `oltp_txn`: a two-update transfer under an explicit transaction, four
//! point reads and a ten-row insert per iteration — statements so short
//! that parsing, planning, locking, 2PC and mailbox round trips are the
//! whole cost.

use std::sync::Arc;

use prisma_core::types::{Column, DataType, Schema};
use prisma_core::workload::{accounts_rows, accounts_schema, transfer_stream, Transfer};
use prisma_core::{PrismaMachine, Relation, Value};

use super::{ddl, scalar, Scale, Stmt, Workload};
use crate::check::{self, row_hash, Base, Expect};
use crate::machine;
use crate::rng::SplitMix64;

const INITIAL: i64 = 1000;
const HIST_ROWS: usize = 10;
/// Transfers generated per call of `transfer_stream`.
const BLOCK: usize = 4096;

pub struct Oltp {
    seed: u64,
    n: usize,
    base: Base,
    /// The model: what every account must hold after the transfers so far.
    balances: Vec<i64>,
    transfers: Vec<Transfer>,
    blocks: u64,
    next: usize,
    iterations: u64,
    rng: SplitMix64,
}

impl Oltp {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let n = scale.pick(20_000, 2_000);
        let mut base = Base::new();
        base.insert(
            "acct".to_owned(),
            Arc::new(Relation::new(
                accounts_schema(),
                accounts_rows(n, 10, INITIAL),
            )),
        );
        base.insert(
            "hist".to_owned(),
            Arc::new(Relation::new(
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("acct", DataType::Int),
                    Column::new("amount", DataType::Int),
                ]),
                Vec::new(),
            )),
        );
        Oltp {
            seed,
            n,
            base,
            balances: vec![INITIAL; n],
            transfers: Vec::new(),
            blocks: 0,
            next: 0,
            iterations: 0,
            rng: SplitMix64::new(seed, 0x4F4C),
        }
    }

    fn next_transfer(&mut self) -> Transfer {
        if self.next == self.transfers.len() {
            self.blocks += 1;
            self.transfers =
                transfer_stream(self.n, BLOCK, self.seed.wrapping_add(self.blocks << 32));
            self.next = 0;
        }
        self.next += 1;
        self.transfers[self.next - 1]
    }

    fn point(&self, k: i64) -> Stmt {
        Stmt::Query {
            id: "P1",
            sql: format!("SELECT balance FROM acct WHERE id = {k}"),
            expect: Expect {
                rows: 1,
                checksum: row_hash(&[Value::Int(self.balances[k as usize])]),
                exact: None,
            },
        }
    }
}

impl Workload for Oltp {
    fn setup(&mut self) -> Result<PrismaMachine, String> {
        let db = machine::boot(self.config(), self.physical())?;
        ddl(
            &db,
            "CREATE TABLE acct (id INT, branch INT, balance INT) FRAGMENTED BY HASH(id) INTO 4",
        )?;
        ddl(&db, "CREATE HASH INDEX ON acct (id)")?;
        ddl(
            &db,
            "CREATE TABLE hist (id INT, acct INT, amount INT) FRAGMENTED BY HASH(id) INTO 4",
        )?;
        machine::load(&db, "acct", self.base["acct"].tuples())?;
        db.refresh_stats("hist")
            .map_err(|e| format!("refresh_stats hist: {e}"))?;
        check::oracle_sql(
            &db,
            &self.base,
            &format!("SELECT balance FROM acct WHERE id = {}", self.n / 2),
        )?;
        check::oracle_sql(&db, &self.base, "SELECT SUM(balance) AS s FROM acct")?;
        Ok(db)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn null_query(&self) -> &'static str {
        "SELECT balance FROM acct WHERE id = -1"
    }

    fn hash_indexes(&self) -> Vec<(&'static str, usize)> {
        vec![("acct", 0)]
    }

    fn plan(&mut self) -> Vec<Stmt> {
        let t = self.next_transfer();
        self.balances[t.from as usize] -= t.amount;
        self.balances[t.to as usize] += t.amount;
        let mut stmts = vec![Stmt::Txn {
            id: "T1",
            stmts: vec![
                (
                    format!(
                        "UPDATE acct SET balance = balance - {} WHERE id = {}",
                        t.amount, t.from
                    ),
                    1,
                ),
                (
                    format!(
                        "UPDATE acct SET balance = balance + {} WHERE id = {}",
                        t.amount, t.to
                    ),
                    1,
                ),
            ],
        }];
        // Both ends of the transfer, so every committed update is read
        // back, plus two accounts picked at random.
        stmts.push(self.point(t.from));
        stmts.push(self.point(t.to));
        for _ in 0..2 {
            let k = self.rng.below(self.n as u64) as i64;
            stmts.push(self.point(k));
        }
        let first = self.iterations * HIST_ROWS as u64;
        let values: Vec<String> = (0..HIST_ROWS as u64)
            .map(|j| format!("({}, {}, {})", first + j, t.from, t.amount))
            .collect();
        stmts.push(Stmt::Dml {
            id: "I1",
            sql: format!("INSERT INTO hist VALUES {}", values.join(",")),
            affected: HIST_ROWS,
        });
        self.iterations += 1;
        stmts
    }

    fn finish(&mut self, db: &PrismaMachine) -> Result<(), String> {
        let total = scalar(db, "SELECT SUM(balance) AS s FROM acct")?;
        if total != self.n as i64 * INITIAL {
            return Err(format!("SUM(balance) = {total}: money was created or lost"));
        }
        let hist = scalar(db, "SELECT COUNT(*) AS n FROM hist")?;
        if hist != (self.iterations * HIST_ROWS as u64) as i64 {
            return Err(format!(
                "hist holds {hist} rows after {} iterations",
                self.iterations
            ));
        }
        Ok(())
    }
}
