//! # prisma-workload
//!
//! Deterministic workload generators for the PRISMA experiments:
//! Wisconsin-style benchmark relations (the standard of the paper's era),
//! recursive-query graphs, and bank-transfer transaction mixes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prisma_types::{tuple, Column, DataType, Schema, Tuple};

/// Schema of a Wisconsin-style relation: `unique1` (a permuted key),
/// `unique2` (sequential key), low-cardinality selection columns, and a
/// string payload.
pub fn wisconsin_schema() -> Schema {
    Schema::new(vec![
        Column::new("unique1", DataType::Int),
        Column::new("unique2", DataType::Int),
        Column::new("two", DataType::Int),
        Column::new("ten", DataType::Int),
        Column::new("hundred", DataType::Int),
        Column::new("string4", DataType::Str),
    ])
}

/// Generate `n` Wisconsin-style rows; `unique1` is a deterministic
/// pseudo-random permutation of `0..n` so selections on it hit scattered
/// fragments.
pub fn wisconsin_rows(n: usize, seed: u64) -> Vec<Tuple> {
    let mut perm: Vec<i64> = (0..n as i64).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    const STRINGS: [&str; 4] = ["AAAA", "HHHH", "OOOO", "VVVV"];
    perm.into_iter()
        .enumerate()
        .map(|(u2, u1)| {
            let u2 = u2 as i64;
            tuple![
                u1,
                u2,
                u2 % 2,
                u2 % 10,
                u2 % 100,
                STRINGS[(u2 % 4) as usize]
            ]
        })
        .collect()
}

/// Shape of generated graphs for recursive queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// A single path `0 → 1 → … → n-1`: worst-case fixpoint depth.
    Chain,
    /// A complete binary tree with edges parent → child.
    BinaryTree,
    /// Each node gets `out_degree` random successors: shallow but wide.
    Random {
        /// Successors per node.
        out_degree: usize,
    },
    /// `2 × (n/2)` grid with right/down edges — moderate depth and width.
    Grid,
}

/// Schema of an edge relation.
pub fn edge_schema() -> Schema {
    Schema::new(vec![
        Column::new("src", DataType::Int),
        Column::new("dst", DataType::Int),
    ])
}

/// Generate the edge list of a graph over `n` nodes.
pub fn graph_edges(shape: GraphShape, n: usize, seed: u64) -> Vec<Tuple> {
    let mut edges = Vec::new();
    match shape {
        GraphShape::Chain => {
            for i in 0..n.saturating_sub(1) {
                edges.push(tuple![i as i64, (i + 1) as i64]);
            }
        }
        GraphShape::BinaryTree => {
            for i in 0..n {
                for c in [2 * i + 1, 2 * i + 2] {
                    if c < n {
                        edges.push(tuple![i as i64, c as i64]);
                    }
                }
            }
        }
        GraphShape::Random { out_degree } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..n {
                for _ in 0..out_degree {
                    let j = rng.gen_range(0..n);
                    edges.push(tuple![i as i64, j as i64]);
                }
            }
        }
        GraphShape::Grid => {
            let cols = (n / 2).max(1);
            let id = |r: usize, c: usize| (r * cols + c) as i64;
            for r in 0..2 {
                for c in 0..cols {
                    if c + 1 < cols {
                        edges.push(tuple![id(r, c), id(r, c + 1)]);
                    }
                    if r == 0 {
                        edges.push(tuple![id(0, c), id(1, c)]);
                    }
                }
            }
        }
    }
    edges
}

/// Schema of the bank-accounts relation used by the transaction
/// workloads.
pub fn accounts_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("branch", DataType::Int),
        Column::new("balance", DataType::Int),
    ])
}

/// `n` accounts spread over `branches` branches, each with `initial`
/// balance.
pub fn accounts_rows(n: usize, branches: usize, initial: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| tuple![i as i64, (i % branches.max(1)) as i64, initial])
        .collect()
}

/// A transfer: move `amount` from one account to another (two updates in
/// one transaction — the canonical 2PC workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Debited account.
    pub from: i64,
    /// Credited account.
    pub to: i64,
    /// Amount.
    pub amount: i64,
}

/// Generate a deterministic stream of random transfers.
pub fn transfer_stream(n_accounts: usize, n_transfers: usize, seed: u64) -> Vec<Transfer> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_transfers)
        .map(|_| {
            let from = rng.gen_range(0..n_accounts) as i64;
            let mut to = rng.gen_range(0..n_accounts) as i64;
            if to == from {
                to = (to + 1) % n_accounts as i64;
            }
            Transfer {
                from,
                to,
                amount: rng.gen_range(1..100),
            }
        })
        .collect()
}

/// Render rows as a SQL VALUES list (helper for loading via the SQL front
/// end in examples and benches).
pub fn values_clause(rows: &[Tuple]) -> String {
    let mut out = String::new();
    for (i, t) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('(');
        for (j, v) in t.values().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(')');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn wisconsin_unique1_is_a_permutation() {
        let rows = wisconsin_rows(1000, 42);
        let u1: HashSet<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(u1.len(), 1000);
        assert!(u1.contains(&0) && u1.contains(&999));
        // Deterministic for a fixed seed.
        assert_eq!(rows, wisconsin_rows(1000, 42));
        assert_ne!(rows, wisconsin_rows(1000, 43));
        // Schema admits the rows.
        for r in &rows[..10] {
            wisconsin_schema().check_tuple(r.values()).unwrap();
        }
    }

    #[test]
    fn graph_shapes() {
        assert_eq!(graph_edges(GraphShape::Chain, 10, 0).len(), 9);
        let tree = graph_edges(GraphShape::BinaryTree, 7, 0);
        assert_eq!(tree.len(), 6);
        let rnd = graph_edges(GraphShape::Random { out_degree: 3 }, 10, 1);
        assert_eq!(rnd.len(), 30);
        let grid = graph_edges(GraphShape::Grid, 10, 0);
        assert!(!grid.is_empty());
        for e in grid {
            edge_schema().check_tuple(e.values()).unwrap();
        }
    }

    #[test]
    fn transfers_never_self_transfer() {
        for t in transfer_stream(10, 200, 7) {
            assert_ne!(t.from, t.to);
            assert!(t.amount > 0);
        }
    }

    #[test]
    fn values_clause_renders_sql() {
        let rows = vec![tuple![1, "a"], tuple![2, "b"]];
        assert_eq!(values_clause(&rows), "(1,'a'),(2,'b')");
    }

    #[test]
    fn accounts_preserve_total_balance_invariant_base() {
        let rows = accounts_rows(100, 10, 1000);
        let total: i64 = rows.iter().map(|t| t.get(2).as_int().unwrap()).sum();
        assert_eq!(total, 100_000);
    }
}
