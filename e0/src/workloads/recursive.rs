//! `recursive`: the paper's second interface. A SQL `CLOSURE`, a linear
//! PRISMAlog recursion (translated to a distributed fixpoint) and a
//! mutual recursion, which the translation rejects and the coordinator
//! evaluates semi-naively over materialized relations.

use std::sync::Arc;

use prisma_core::prismalog as plog;
use prisma_core::types::{Column, DataType, Schema};
use prisma_core::workload::{edge_schema, graph_edges, GraphShape};
use prisma_core::{PrismaError, PrismaMachine, Relation};

use super::{ddl, Scale, Stmt, Workload};
use crate::check::{self, Base, Expect};
use crate::machine;

const R1: &str = "SELECT c.dst FROM CLOSURE(edge) c WHERE c.src = 0";
const R2_PROGRAM: &str = "path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).";
const R2_QUERY: &str = "?- path(0, X).";
const R3_PROGRAM: &str = "even(0). even(Y) :- succ(X,Y), odd(X). odd(Y) :- succ(X,Y), even(X).";
const R3_QUERY: &str = "?- even(X).";

pub struct Recursive {
    base: Base,
    chain: usize,
    expect: Vec<Expect>,
}

impl Recursive {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (nodes, chain) = (scale.pick(2_000, 200), scale.pick(300, 40));
        let succ_schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]);
        let mut base = Base::new();
        base.insert(
            "edge".to_owned(),
            Arc::new(Relation::new(
                edge_schema(),
                graph_edges(GraphShape::BinaryTree, nodes, seed),
            )),
        );
        base.insert(
            "succ".to_owned(),
            Arc::new(Relation::new(
                succ_schema,
                graph_edges(GraphShape::Chain, chain, seed),
            )),
        );
        Recursive {
            base,
            chain,
            expect: Vec::new(),
        }
    }

    /// Does the algebra translation accept `program`? (`false` = the
    /// façade falls back to the coordinator's semi-naive evaluator.)
    fn translates(db: &PrismaMachine, program: &str, query: &str) -> Result<bool, String> {
        let prog = plog::parse_program(program).map_err(|e| e.to_string())?;
        let atom = plog::parse_query(query).map_err(|e| e.to_string())?;
        match plog::compile_query(&prog, &atom, &**db.gdh().dictionary()) {
            Ok(_) => Ok(true),
            Err(PrismaError::UnsafeRule(_)) => Ok(false),
            Err(e) => Err(format!("{query}: {e}")),
        }
    }
}

impl Workload for Recursive {
    fn setup(&mut self) -> Result<PrismaMachine, String> {
        let db = machine::boot(self.config(), self.physical())?;
        ddl(
            &db,
            "CREATE TABLE edge (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 4",
        )?;
        ddl(&db, "CREATE TABLE succ (a INT, b INT) FRAGMENTED INTO 2")?;
        for table in ["edge", "succ"] {
            machine::load(&db, table, self.base[table].tuples())?;
        }
        if !Self::translates(&db, R2_PROGRAM, R2_QUERY)? {
            return Err("R2 no longer translates to a distributed fixpoint".to_owned());
        }
        if Self::translates(&db, R3_PROGRAM, R3_QUERY)? {
            return Err("R3 no longer takes the coordinator semi-naive fallback".to_owned());
        }
        let r1 = check::oracle_sql(&db, &self.base, R1)?;
        let r2 = check::oracle_prismalog(&db, &self.base, R2_PROGRAM, R2_QUERY)?;
        let r3 = check::oracle_prismalog(&db, &self.base, R3_PROGRAM, R3_QUERY)?;
        // R3's oracle is the evaluator the fallback itself runs, so also
        // hold it to the closed form: the even numbers of the chain.
        if r3.len() != self.chain.div_ceil(2) {
            return Err(format!(
                "R3 returned {} rows for a chain of {}",
                r3.len(),
                self.chain
            ));
        }
        self.expect = [r1, r2, r3].iter().map(check::summarize).collect();
        Ok(db)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn null_query(&self) -> &'static str {
        "SELECT dst FROM edge WHERE src = -1"
    }

    fn plan(&mut self) -> Vec<Stmt> {
        let e = |i: usize| self.expect.get(i).cloned().unwrap_or_else(Expect::unset);
        vec![
            Stmt::Query {
                id: "R1",
                sql: R1.to_owned(),
                expect: e(0),
            },
            Stmt::Plog {
                id: "R2",
                program: R2_PROGRAM,
                query: R2_QUERY,
                expect: e(1),
            },
            Stmt::Plog {
                id: "R3",
                program: R3_PROGRAM,
                query: R3_QUERY,
                expect: e(2),
            },
        ]
    }
}
