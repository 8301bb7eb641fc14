//! Unified error type for the PRISMA machine.

use std::fmt;

use crate::ids::{FragmentId, PeId, TxnId};

/// Convenient result alias used across all `prisma-*` crates.
pub type Result<T> = std::result::Result<T, PrismaError>;

/// All the ways an operation on the database machine can fail.
///
/// The variants are grouped roughly by subsystem: schema/typing errors from
/// the front ends, execution errors from the OFMs and executor, transaction
/// errors from the concurrency-control unit, and machine errors from the
/// multi-computer substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum PrismaError {
    // ---- parsing / typing ----
    /// Lex or parse failure in SQL or PRISMAlog, with position context.
    Parse(String),
    /// Column name not found during resolution.
    UnknownColumn(String),
    /// Column name matched more than one column.
    AmbiguousColumn(String),
    /// Relation name not in the data dictionary.
    UnknownRelation(String),
    /// Relation already exists in the data dictionary.
    DuplicateRelation(String),
    /// Tuple arity differs from schema arity.
    ArityMismatch { expected: usize, got: usize },
    /// Value type incompatible with column type.
    TypeMismatch {
        column: String,
        expected: String,
        got: String,
    },
    /// NULL stored in a NOT NULL column.
    NullViolation(String),
    /// Ill-typed expression (e.g. `'a' + 1`).
    ExprType(String),
    /// PRISMAlog rule violates the safety (range-restriction) condition.
    UnsafeRule(String),

    // ---- execution ----
    /// Arithmetic failure at runtime (overflow, division by zero).
    Arithmetic(String),
    /// Fragment not found on the addressed OFM.
    NoSuchFragment(FragmentId),
    /// A fragment outgrew its PE's memory budget (paper §3.2: 16 MB/PE).
    OutOfMemory {
        pe: PeId,
        requested: usize,
        available: usize,
    },
    /// `UPDATE` assigns to the column a relation is hash-fragmented on:
    /// the row would have to move to another fragment, which this machine
    /// does not do — delete it and insert the new version instead.
    FragmentKeyUpdate { table: String, column: String },
    /// Generic executor failure.
    Execution(String),

    // ---- transactions ----
    /// Transaction aborted; the payload says why (deadlock victim,
    /// participant vote, explicit rollback, ...).
    TxnAborted { txn: TxnId, reason: String },
    /// Deadlock detected in the wait-for graph; this transaction was the
    /// chosen victim.
    Deadlock(TxnId),
    /// Operation referenced a transaction unknown to the manager.
    UnknownTxn(TxnId),

    // ---- machine / substrate ----
    /// Message sent to a dead or never-created process.
    ProcessUnreachable(String),
    /// Recovery found the stable store corrupt beyond the last checkpoint.
    CorruptLog(String),
    /// Simulated hardware fault injected by a test.
    MachineFault(String),
    /// Catch-all for configuration mistakes (bad topology size, zero PEs).
    Config(String),
}

impl fmt::Display for PrismaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use PrismaError::*;
        match self {
            Parse(m) => write!(f, "parse error: {m}"),
            UnknownColumn(c) => write!(f, "unknown column: {c}"),
            AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            UnknownRelation(r) => write!(f, "unknown relation: {r}"),
            DuplicateRelation(r) => write!(f, "relation already exists: {r}"),
            ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            TypeMismatch {
                column,
                expected,
                got,
            } => write!(f, "type mismatch in {column}: expected {expected}, got {got}"),
            NullViolation(c) => write!(f, "NULL not allowed in column {c}"),
            ExprType(m) => write!(f, "expression type error: {m}"),
            UnsafeRule(m) => write!(f, "unsafe PRISMAlog rule: {m}"),
            Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            NoSuchFragment(id) => write!(f, "no such fragment: {id}"),
            OutOfMemory {
                pe,
                requested,
                available,
            } => write!(
                f,
                "out of memory on {pe}: requested {requested} bytes, {available} available"
            ),
            FragmentKeyUpdate { table, column } => write!(
                f,
                "cannot update {table}.{column}: {table} is fragmented by it and rows do not move between fragments"
            ),
            Execution(m) => write!(f, "execution error: {m}"),
            TxnAborted { txn, reason } => write!(f, "{txn} aborted: {reason}"),
            Deadlock(txn) => write!(f, "deadlock: {txn} chosen as victim"),
            UnknownTxn(txn) => write!(f, "unknown transaction: {txn}"),
            ProcessUnreachable(m) => write!(f, "process unreachable: {m}"),
            CorruptLog(m) => write!(f, "corrupt stable storage: {m}"),
            MachineFault(m) => write!(f, "machine fault: {m}"),
            Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for PrismaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PrismaError::OutOfMemory {
            pe: PeId(3),
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("pe3") && s.contains("100") && s.contains("10"));
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn std::error::Error> = Box::new(PrismaError::Parse("x".into()));
        assert!(e.to_string().starts_with("parse error"));
    }
}
