//! The two commuting squares behind point DML, as property tests.
//!
//! **Victim search.** `UPDATE`/`DELETE` find their victims through zone
//! maps and vectorized kernels over the sealed chunks. The other path
//! round the square is a plain heap walk under the interpreter, kept here
//! as the reference: both must name the same Rids in the same
//! order, and driving a fragment through either must leave it in the same
//! state — tuples slot for slot, sealed/delta split, statistics.
//!
//! **Replay.** A backup replica and WAL recovery re-find every shipped
//! delete image by value, through a lazily built tuple-hash index. The
//! reference is the linear scan it replaced: lowest Rid among equal
//! tuples. Whatever mix of committed and aborted transactions ran at the
//! primary, the backup and a recovered fragment hold exactly the committed
//! multiset.
//!
//! Fragment states mix sealed chunks and delta, NULL-heavy runs, NaN and
//! `-0.0`; CI re-runs this file in every lane (`SEAL_EVERY=8` included).

use std::sync::Arc;

use proptest::prelude::*;

use prisma_ofm::{Fragment, Ofm, OfmKind};
use prisma_stable::{CheckpointStore, DiskProfile, SimulatedDisk, StableDevice, WriteAheadLog};
use prisma_storage::expr::{ArithOp, CmpOp, ScalarExpr};
use prisma_storage::Rid;
use prisma_types::{Column, DataType, FragmentId, Schema, Tuple, TxnId, Value};

/// Splitmix64 step: deterministic randomness so a failing case
/// reproduces from the generated seed alone.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(seed: &mut u64, n: u64) -> u64 {
    next(seed) % n
}

fn frag_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("grp", DataType::Int),
        Column::nullable("val", DataType::Double),
    ])
}

/// A double from a domain that holds every awkward value a zone bound or
/// a kernel comparison can meet.
fn random_double(seed: &mut u64) -> f64 {
    match below(seed, 12) {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        _ => below(seed, 100) as f64 - 20.0,
    }
}

/// How much of a driven fragment ends up sealed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Mixed,
    AllDelta,
    AllSealed,
}

fn shape_of(k: u64) -> Shape {
    match k % 4 {
        0 => Shape::AllDelta,
        1 => Shape::AllSealed,
        _ => Shape::Mixed,
    }
}

/// Drive `frag` through `n_ops` random operations: batched inserts (one
/// batch in four NULL-heavy, so whole chunks seal with all-NULL columns),
/// deletes and in-place updates of random live rows (dissolving chunks)
/// and explicit reseal points. Ids ascend, so `id` is clustered across
/// chunks while `grp`/`val` are scattered.
fn drive(frag: &mut Fragment, seed: &mut u64, seal_rows: usize, n_ops: usize, shape: Shape) {
    frag.set_seal_rows(match shape {
        Shape::AllDelta => usize::MAX,
        _ => seal_rows,
    });
    let mut next_id = 0i64;
    for _ in 0..n_ops {
        match below(seed, 10) {
            0..=4 => {
                let rows = below(seed, 2 * seal_rows as u64 + 1);
                let null_heavy = below(seed, 4) == 0;
                for _ in 0..rows {
                    let grp = if null_heavy || below(seed, 8) == 0 {
                        Value::Null
                    } else {
                        Value::Int(below(seed, 5) as i64)
                    };
                    let val = if null_heavy {
                        Value::Null
                    } else {
                        Value::Double(random_double(seed))
                    };
                    frag.insert(Tuple::new(vec![Value::Int(next_id), grp, val]))
                        .unwrap();
                    next_id += 1;
                }
            }
            5 | 6 => {
                let rids = frag.heap().rids();
                if !rids.is_empty() {
                    frag.delete(rids[below(seed, rids.len() as u64) as usize]);
                }
            }
            7 | 8 => {
                let rids = frag.heap().rids();
                if !rids.is_empty() {
                    let rid = rids[below(seed, rids.len() as u64) as usize];
                    let mut vals = frag.heap().get(rid).unwrap().values().to_vec();
                    vals[2] = Value::Double(random_double(seed));
                    frag.update(rid, Tuple::new(vals)).unwrap();
                }
            }
            _ => frag.seal(),
        }
    }
    if shape == Shape::AllSealed {
        // Trim the delta to nothing: every live row sits in a chunk.
        frag.seal();
        for rid in frag.heap().rids().into_iter().rev().take(frag.delta_rows()) {
            frag.delete(rid);
        }
        frag.seal();
    }
}

fn col_cmp(op: CmpOp, col: usize, lit: impl Into<Value>) -> ScalarExpr {
    ScalarExpr::cmp(op, ScalarExpr::col(col), ScalarExpr::lit(lit))
}

/// One comparison. Constants on `id` cluster around chunk-boundary ids so
/// zone refutation decides right at the min/max edges; literals are now
/// and then of the other numeric type, NULL, or on the left-hand side.
fn random_cmp(seed: &mut u64, seal_rows: usize, max_id: i64) -> ScalarExpr {
    let op = match below(seed, 6) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    };
    let (col, lit) = match below(seed, 3) {
        0 => {
            let chunk = below(seed, max_id as u64 / seal_rows as u64 + 1) as i64;
            let edge = chunk * seal_rows as i64 + below(seed, 3) as i64 - 1;
            let lit = match below(seed, 6) {
                0 => Value::Double(edge as f64),
                1 => Value::Double(edge as f64 + 0.5),
                _ => Value::Int(edge),
            };
            (0, lit)
        }
        1 => (1, Value::Int(below(seed, 6) as i64)),
        _ => match below(seed, 5) {
            0 => (2, Value::Int(below(seed, 80) as i64 - 20)),
            _ => (2, Value::Double(random_double(seed))),
        },
    };
    let lit = if below(seed, 12) == 0 {
        Value::Null
    } else {
        lit
    };
    if below(seed, 5) == 0 {
        ScalarExpr::cmp(op.flip(), ScalarExpr::lit(lit), ScalarExpr::col(col))
    } else {
        col_cmp(op, col, lit)
    }
}

/// `=`, `<>`, ranges, BETWEEN, conjunctions, OR, IS NULL, `col = NULL`.
fn random_predicate(seed: &mut u64, seal_rows: usize, max_id: i64) -> ScalarExpr {
    let base = random_cmp(seed, seal_rows, max_id);
    match below(seed, 7) {
        0 => {
            let lo = below(seed, max_id as u64 + 1) as i64;
            let hi = lo + below(seed, 2 * seal_rows as u64) as i64;
            ScalarExpr::and(col_cmp(CmpOp::Ge, 0, lo), col_cmp(CmpOp::Le, 0, hi))
        }
        1 => ScalarExpr::and(base, random_cmp(seed, seal_rows, max_id)),
        2 => ScalarExpr::or(base, random_cmp(seed, seal_rows, max_id)),
        3 => ScalarExpr::IsNull(Box::new(ScalarExpr::col(1 + below(seed, 2) as usize))),
        4 => ScalarExpr::and(base, col_cmp(CmpOp::Eq, 1, Value::Null)),
        _ => base,
    }
}

/// The reference side of the victim square: a heap walk by pointer,
/// through the interpreter.
fn heap_walk(frag: &Fragment, pred: &ScalarExpr) -> Vec<Rid> {
    frag.heap()
        .iter()
        .filter(|(_, t)| pred.eval_predicate(t).unwrap())
        .map(|(rid, _)| rid)
        .collect()
}

fn transient() -> Ofm {
    Ofm::new(FragmentId(0), "t", frag_schema(), OfmKind::Transient)
}

/// Everything two fragments driven through equivalent DML must share.
fn assert_same_state(got: &Fragment, want: &Fragment, what: &str) {
    assert_eq!(
        got.all_tuples(),
        want.all_tuples(),
        "{what}: tuples by slot"
    );
    assert_eq!(
        (got.sealed_count(), got.sealed_rows(), got.delta_rows()),
        (want.sealed_count(), want.sealed_rows(), want.delta_rows()),
        "{what}: sealed/delta split"
    );
    assert_eq!(got.delta_tuples(), want.delta_tuples(), "{what}: delta");
    assert_eq!(got.statistics(), want.statistics(), "{what}: statistics");
}

proptest! {
    /// Zone maps + kernels over the chunks and over the delta batch select
    /// exactly the Rids a heap walk through the interpreter selects, in
    /// the same order.
    #[test]
    fn victim_search_agrees_with_a_heap_walk(
        seed in 0u64..u64::MAX,
        seal_rows in 4usize..24,
        n_ops in 10usize..60,
        shape in 0u64..4,
    ) {
        let mut s = seed;
        let mut frag = Fragment::new(FragmentId(0), frag_schema());
        drive(&mut frag, &mut s, seal_rows, n_ops, shape_of(shape));
        match shape_of(shape) {
            Shape::AllDelta => prop_assert_eq!(frag.sealed_count(), 0),
            Shape::AllSealed => prop_assert_eq!(frag.delta_rows(), 0),
            Shape::Mixed => {}
        }
        let max_id = frag.len() as i64;
        for _ in 0..8 {
            let pred = random_predicate(&mut s, seal_rows, max_id);
            let scan = frag.zone_scan(&pred).unwrap();
            prop_assert_eq!(
                scan.chunks_scanned + scan.chunks_pruned, frag.sealed_count(),
                "every chunk is scanned or pruned ({:?}, seed {})", pred, seed
            );
            prop_assert!(
                scan.rids.windows(2).all(|w| w[0] < w[1]),
                "candidates ascend ({:?}, seed {})", pred, seed
            );
            prop_assert_eq!(
                &scan.rids, &heap_walk(&frag, &pred),
                "victims diverged ({:?}, seed {})", pred, seed
            );
        }
    }

    /// `delete_where` / `update_where` leave the fragment exactly as the
    /// heap-walk reference leaves its twin.
    #[test]
    fn dml_through_the_zone_scan_equals_dml_through_a_heap_walk(
        seed in 0u64..u64::MAX,
        seal_rows in 4usize..24,
        n_ops in 10usize..50,
        shape in 0u64..4,
    ) {
        let (mut got, mut want) = (transient(), transient());
        for ofm in [&mut got, &mut want] {
            let mut s = seed;
            drive(ofm.fragment_mut(), &mut s, seal_rows, n_ops, shape_of(shape));
        }
        let mut s = seed ^ 0x5eed;
        let max_id = got.fragment().len() as i64;
        let txn = TxnId(1);
        for round in 0..4 {
            let pred = random_predicate(&mut s, seal_rows, max_id);
            let what = format!("round {round}, {pred:?}, seed {seed}");
            if pred.check(&frag_schema()).is_err() {
                // A NULL literal types as BOOL: DML refuses `id = NULL`
                // before any victim search (the property above covers it).
                prop_assert!(got.delete_where(txn, &pred).is_err(), "{}", what);
                continue;
            }
            let victims = heap_walk(want.fragment(), &pred);
            if below(&mut s, 2) == 0 {
                let n = got.delete_where(txn, &pred).unwrap();
                prop_assert_eq!(n, victims.len(), "{}", what);
                for rid in victims {
                    want.fragment_mut().delete(rid);
                }
            } else {
                // val = val + 1 (NULL stays NULL), grp = a constant.
                let bump = ScalarExpr::arith(
                    ArithOp::Add,
                    ScalarExpr::col(2),
                    ScalarExpr::lit(1.0),
                );
                let grp = below(&mut s, 5) as i64;
                let assignments = [(2, bump.clone()), (1, ScalarExpr::lit(grp))];
                let n = got.update_where(txn, &pred, &assignments).unwrap();
                prop_assert_eq!(n, victims.len(), "{}", what);
                for rid in victims {
                    let old = want.fragment().heap().get(rid).unwrap().clone();
                    let new = vec![old.get(0).clone(), Value::Int(grp), bump.eval(&old).unwrap()];
                    want.fragment_mut().update(rid, Tuple::new(new)).unwrap();
                }
            }
            // Victim order decides free-slot order: fresh rows must land in
            // the same slots on both sides.
            for i in 0..3 {
                let fresh = Tuple::new(vec![Value::Int(1000 + i), Value::Null, Value::Null]);
                got.insert(txn, fresh.clone()).unwrap();
                want.fragment_mut().insert(fresh).unwrap();
            }
            assert_same_state(got.fragment(), want.fragment(), &what);
            if below(&mut s, 3) == 0 {
                // The scan hook between statements.
                got.seal_for_scan();
                want.seal_for_scan();
            }
        }
    }
}

// ---------------- the replay square ----------------

fn dup_schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::nullable("v", DataType::Int),
    ])
}

/// A tuple from a domain small enough that duplicates are the rule.
fn dup_tuple(seed: &mut u64) -> Tuple {
    let v = match below(seed, 4) {
        0 => Value::Null,
        v => Value::Int(v as i64),
    };
    Tuple::new(vec![Value::Int(below(seed, 5) as i64), v])
}

/// What `delete_by_value` did before it had an index: the first live
/// tuple equal to the image in slot order.
fn linear_find(frag: &Fragment, image: &Tuple) -> Option<Rid> {
    frag.heap()
        .iter()
        .find(|(_, t)| *t == image)
        .map(|(rid, _)| rid)
}

fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by(|a, b| a.values().cmp(b.values()));
    tuples
}

fn persistent() -> (Ofm, Arc<WriteAheadLog>, Arc<CheckpointStore>) {
    let disk = || -> Arc<dyn StableDevice> { Arc::new(SimulatedDisk::new(DiskProfile::instant())) };
    let wal = Arc::new(WriteAheadLog::new(disk()));
    let ck = Arc::new(CheckpointStore::open(disk()));
    let kind = OfmKind::Persistent {
        wal: wal.clone(),
        checkpoints: ck.clone(),
    };
    (Ofm::new(FragmentId(0), "dup", dup_schema(), kind), wal, ck)
}

proptest! {
    /// The indexed `delete_by_value` removes the Rid the linear scan would
    /// have — lowest among equal tuples, `None` for an absent image —
    /// while inserts, deletes and updates keep maintaining the index.
    #[test]
    fn indexed_delete_by_value_picks_the_rid_a_linear_scan_picks(
        seed in 0u64..u64::MAX,
        n_ops in 20usize..200,
    ) {
        let mut s = seed;
        let mut frag = Fragment::new(FragmentId(0), dup_schema());
        frag.set_seal_rows(8);
        for _ in 0..n_ops {
            match below(&mut s, 8) {
                0..=2 => {
                    frag.insert(dup_tuple(&mut s)).unwrap();
                }
                3 => {
                    let rids = frag.heap().rids();
                    if !rids.is_empty() {
                        frag.delete(rids[below(&mut s, rids.len() as u64) as usize]);
                    }
                }
                4 => {
                    let rids = frag.heap().rids();
                    if !rids.is_empty() {
                        let rid = rids[below(&mut s, rids.len() as u64) as usize];
                        frag.update(rid, dup_tuple(&mut s)).unwrap();
                    }
                }
                _ => {
                    let image = dup_tuple(&mut s);
                    let want = linear_find(&frag, &image);
                    let before = frag.len();
                    prop_assert_eq!(
                        frag.delete_by_value(&image), want,
                        "image {} (seed {})", image, seed
                    );
                    prop_assert_eq!(frag.len(), before - want.is_some() as usize);
                }
            }
        }
    }

    /// Any mix of committed and aborted transactions of inserts, updates
    /// and deletes over a table full of duplicates: after every decision
    /// the backup fed by the shipped log holds exactly the primary's
    /// committed multiset, and so does a fragment recovered from the WAL
    /// (with or without a checkpoint on the way).
    #[test]
    fn backup_and_recovery_hold_the_committed_multiset(
        seed in 0u64..u64::MAX,
        n_txns in 4usize..24,
    ) {
        let mut s = seed;
        let (mut primary, wal, ck) = persistent();
        primary.enable_replication();
        primary.fragment_mut().set_seal_rows(8);
        let mut backup = Ofm::new(FragmentId(0), "dup", dup_schema(), OfmKind::Transient);
        backup.fragment_mut().set_seal_rows(8);

        let k_is = |k: u64| col_cmp(CmpOp::Eq, 0, k as i64);
        for t in 0..n_txns {
            let txn = TxnId(t as u32 + 1);
            for _ in 0..1 + below(&mut s, 5) {
                match below(&mut s, 6) {
                    0..=2 => {
                        primary.insert(txn, dup_tuple(&mut s)).unwrap();
                    }
                    3 => {
                        // v = v + 1 WHERE k = c: duplicates update together.
                        let bump = ScalarExpr::arith(
                            ArithOp::Add,
                            ScalarExpr::col(1),
                            ScalarExpr::lit(1),
                        );
                        primary
                            .update_where(txn, &k_is(below(&mut s, 5)), &[(1, bump)])
                            .unwrap();
                    }
                    4 => {
                        primary.delete_where(txn, &k_is(below(&mut s, 5))).unwrap();
                    }
                    _ => {
                        let pred = col_cmp(CmpOp::Eq, 1, below(&mut s, 4) as i64);
                        primary.delete_where(txn, &pred).unwrap();
                    }
                }
                if below(&mut s, 2) == 0 {
                    // The actor ships after every statement; sometimes the
                    // whole transaction travels with its decision instead.
                    backup.replica_apply(primary.drain_replica_records()).unwrap();
                }
            }
            if below(&mut s, 3) == 0 {
                primary.abort(txn).unwrap();
            } else {
                primary.prepare(txn).unwrap();
                primary.commit(txn).unwrap();
            }
            backup.replica_apply(primary.drain_replica_records()).unwrap();
            let committed = sorted(primary.fragment().all_tuples());
            prop_assert_eq!(
                sorted(backup.fragment().all_tuples()), committed.clone(),
                "backup diverged after {} (seed {})", txn, seed
            );
            match below(&mut s, 8) {
                0 => {
                    primary.checkpoint().unwrap();
                }
                1 => {
                    let recovered =
                        Ofm::recover(FragmentId(0), "dup", dup_schema(), wal.clone(), ck.clone())
                            .unwrap();
                    prop_assert_eq!(
                        sorted(recovered.fragment().all_tuples()), committed,
                        "recovery diverged after {} (seed {})", txn, seed
                    );
                }
                _ => {}
            }
        }
        let recovered = Ofm::recover(FragmentId(0), "dup", dup_schema(), wal, ck).unwrap();
        prop_assert_eq!(
            sorted(recovered.fragment().all_tuples()),
            sorted(primary.fragment().all_tuples()),
            "final recovery diverged (seed {})", seed
        );
    }
}
