//! `join_shuffle`: a grace join, a broadcast join, and a join under a
//! ten-group aggregate, over two Wisconsin tables and a ten-row lookup.

use std::sync::Arc;

use prisma_core::types::{tuple, Column, DataType, Schema};
use prisma_core::workload::{wisconsin_rows, wisconsin_schema};
use prisma_core::{PrismaMachine, Relation};

use super::{ddl, Scale, Seen, Stmt, Workload};
use crate::check::{self, Base, Expect};
use crate::machine;

const J1: &str = "SELECT a.unique2, b.unique2 FROM jl a, jr b WHERE a.unique1 = b.unique1";
const J2: &str = "SELECT a.unique2, t.label FROM jl a, tiny t WHERE a.ten = t.k";
const J3: &str = "SELECT a.ten, COUNT(*) AS n, SUM(b.hundred) AS s FROM jl a, jr b WHERE a.unique1 = b.unique1 GROUP BY a.ten";
const WISC_DDL: &str =
    "(unique1 INT, unique2 INT, two INT, ten INT, hundred INT, string4 STRING) FRAGMENTED BY HASH(unique1) INTO 4";

pub struct JoinShuffle {
    base: Base,
    expect: Vec<(&'static str, &'static str, Expect)>,
}

impl JoinShuffle {
    pub fn new(scale: Scale, seed: u64) -> Self {
        // Both sides stay above the 1024-row broadcast threshold even
        // under --smoke, so J1/J3 partition there too.
        let (nl, nr) = (scale.pick(40_000, 2_400), scale.pick(20_000, 1_600));
        let tiny_schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("label", DataType::Str),
        ]);
        let tiny = (0..10i64).map(|k| tuple![k, format!("L{k}")]).collect();
        let mut base = Base::new();
        base.insert(
            "jl".to_owned(),
            Arc::new(Relation::new(wisconsin_schema(), wisconsin_rows(nl, seed))),
        );
        base.insert(
            "jr".to_owned(),
            Arc::new(Relation::new(
                wisconsin_schema(),
                wisconsin_rows(nr, seed.wrapping_add(1)),
            )),
        );
        base.insert(
            "tiny".to_owned(),
            Arc::new(Relation::new(tiny_schema, tiny)),
        );
        JoinShuffle {
            base,
            expect: Vec::new(),
        }
    }
}

impl Workload for JoinShuffle {
    fn setup(&mut self) -> Result<PrismaMachine, String> {
        let db = machine::boot(self.config(), self.physical())?;
        ddl(&db, &format!("CREATE TABLE jl {WISC_DDL}"))?;
        ddl(&db, &format!("CREATE TABLE jr {WISC_DDL}"))?;
        ddl(
            &db,
            "CREATE TABLE tiny (k INT, label STRING) FRAGMENTED INTO 1",
        )?;
        for table in ["jl", "jr", "tiny"] {
            machine::load(&db, table, self.base[table].tuples())?;
        }
        self.expect.clear();
        for (id, sql) in [("J1", J1), ("J2", J2), ("J3", J3)] {
            let got = check::oracle_sql(&db, &self.base, sql)?;
            self.expect.push((id, sql, check::summarize(&got)));
        }
        Ok(db)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn null_query(&self) -> &'static str {
        "SELECT unique2 FROM jl WHERE unique1 = -1"
    }

    fn plan(&mut self) -> Vec<Stmt> {
        self.expect
            .iter()
            .map(|(id, sql, expect)| Stmt::Query {
                id,
                sql: (*sql).to_owned(),
                expect: expect.clone(),
            })
            .collect()
    }

    fn check_warmup(&self, seen: &Seen) -> Result<(), String> {
        for id in ["J1", "J3"] {
            if seen.get(id).is_none_or(|m| m.partitioned_joins == 0) {
                return Err(format!("{id} did not run as a partitioned (grace) join"));
            }
        }
        if seen.get("J2").is_none_or(|m| m.broadcast_joins == 0) {
            return Err("J2 did not run as a broadcast join".to_owned());
        }
        Ok(())
    }
}
