//! # prisma-prismalog
//!
//! **PRISMAlog** — the logic-programming interface of the PRISMA machine
//! (paper §2.3):
//!
//! > "The logic programming language that is defined in PRISMA is called
//! > PRISMAlog and has an expressive power similar to Datalog and LDL. It
//! > is based on definite, function-free Horn clauses and its syntax is
//! > similar to Prolog. One of the main differences between pure Prolog
//! > and PRISMAlog is that the latter is set-oriented, which makes it more
//! > suitable for parallel evaluation. The semantics of PRISMAlog is
//! > defined in terms of extensions of the relational algebra. Facts
//! > correspond to tuples in relations in the database. Rules are view
//! > definitions including recursion."
//!
//! This crate implements exactly that contract:
//!
//! * [`parser`] — Prolog-like syntax: facts, rules (`:-`), queries (`?-`),
//!   comparison built-ins;
//! * [`analyze`] — safety (range restriction), arity consistency, and the
//!   predicate dependency graph with SCC detection;
//! * [`translate`] — rules become **relational-algebra view definitions**;
//!   a linearly self-recursive predicate becomes a
//!   [`prisma_relalg::LogicalPlan::Fixpoint`] (evaluated semi-naively),
//!   and the `closure(edge)` idiom maps onto the OFM transitive-closure
//!   operator;
//! * [`seminaive`] — a direct set-oriented semi-naive evaluator for
//!   arbitrary (including mutually) recursive programs, used as ground
//!   truth for the algebra translation, with a naive mode that checks
//!   the semi-naive one.

pub mod analyze;
pub mod ast;
pub mod parser;
pub mod seminaive;
pub mod translate;

pub use ast::{Atom, Literal, Program, Rule, Term};
pub use parser::{parse_program, parse_query};
pub use seminaive::{evaluate, EvalStats};
pub use translate::{compile_query, SchemaSource};
