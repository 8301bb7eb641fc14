//! Allocation-count regression test for the row-materialization hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file is a test binary of its own and holds **one** `#[test]`: nothing
//! else may allocate while a count is being taken (CI also runs it with
//! `--test-threads=1`).
//!
//! The obligations:
//!
//! * a `Tuple` collected from an iterator whose length std trusts costs
//!   one allocation (the `Arc<[Value]>` itself);
//! * collecting a wire-decoded block of N `(Int, Int, Str)` rows costs
//!   N + O(columns) allocations — one per row, nothing per string (the
//!   decoder's strings are moved into the rows);
//! * a hash-join probe whose keys all miss costs O(batches), not one key
//!   vector per probed row;
//! * an N-row probe that matches through `Project(HashJoin)` costs
//!   O(batches × columns) plus one allocation per output `String` — no
//!   key, no joined row, no projected row per probed row;
//! * wire blocks → batch windows → site join → `encode_columnar` never
//!   builds a row at all;
//! * an inline filter costs a fixed handful per batch, its scratch reused;
//! * a group-by costs O(groups + batches), not O(rows).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Arc;

use prisma_relalg::exec::collect_batches;
use prisma_relalg::{
    execute_batches, execute_physical, lower, AggExpr, AggFunc, Batch, BatchWindows,
    ChunkedRelation, LogicalPlan, Relation, BATCH_SIZE,
};
use prisma_storage::expr::ScalarExpr;
use prisma_types::{Column, DataType, Schema, Tuple, Value};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one `GlobalAlloc` states; the counter
// is a relaxed statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) performed while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn schema(cols: &[(&str, DataType)]) -> Schema {
    Schema::new(cols.iter().map(|&(n, t)| Column::new(n, t)).collect())
}

#[test]
fn row_materialization_allocates_once_per_row() {
    // 1. One allocation per collected tuple, through every shape the hot
    //    builders use: a mapped range, mapped slice indices, a chain.
    let src = [Value::Int(1), Value::Str("payload".into()), Value::Null];
    let (t, n) = allocations(|| (0..3).map(|i: i64| Value::Int(i)).collect::<Tuple>());
    assert_eq!((t.arity(), n), (3, 1), "range-mapped collect");
    let wide = Tuple::new(src.to_vec());
    let (p, n) = allocations(|| wide.project(&[2, 0]));
    assert_eq!((p.arity(), n), (2, 1), "Tuple::project");
    let (c, n) = allocations(|| wide.concat(&p));
    // The Str payload is cloned: one more allocation, for the string.
    assert_eq!((c.arity(), n), (5, 2), "Tuple::concat");

    // 2. N rows off the wire: N row allocations + O(columns).
    const N: usize = 4096;
    let rows: Vec<Tuple> = (0..N as i64)
        .map(|i| {
            [Value::Int(i), Value::Int(i % 7), Value::Str(format!("string-payload-{i:08}"))]
                .into_iter()
                .collect()
        })
        .collect();
    let block = Batch::owned(rows.clone()).encode_columnar();
    let wire_schema = schema(&[("a", DataType::Int), ("b", DataType::Int), ("s", DataType::Str)]);
    let decoded = Batch::from_block(&block).expect("a block this test encoded");
    let (rel, n) = allocations(|| collect_batches(wire_schema, vec![decoded]));
    assert_eq!(rel.tuples(), rows.as_slice());
    assert!(
        (N as u64..=N as u64 + 16).contains(&n),
        "collecting {N} decoded rows took {n} allocations; want one per row plus O(columns)"
    );

    // 3. An all-miss probe allocates per batch, never per probed row.
    let two_ints = schema(&[("k", DataType::Int), ("v", DataType::Int)]);
    let probe: Vec<Tuple> = (0..N as i64)
        .map(|i| [Value::Int(i), Value::Int(i)].into_iter().collect())
        .collect();
    let build: Vec<Tuple> = (0..64_i64)
        .map(|i| [Value::Int(-1 - i), Value::Int(i)].into_iter().collect())
        .collect();
    let db = HashMap::from([
        ("probe".to_owned(), Relation::new(two_ints.clone(), probe)),
        ("build".to_owned(), Relation::new(two_ints.clone(), build)),
    ]);
    let join = lower(
        &LogicalPlan::scan("probe", two_ints.clone())
            .join(LogicalPlan::scan("build", two_ints), vec![(0, 0)]),
    )
    .expect("a hash join lowers");
    let (joined, n) = allocations(|| execute_physical(&join, &db).expect("join runs"));
    assert!(joined.is_empty(), "every probe key misses");
    assert!(
        n < N as u64 / 8,
        "an all-miss probe of {N} rows took {n} allocations; keys must be hashed in place"
    );

    // 4. Every probe row matches one of ten build rows. Keeping only Int
    //    columns above the join costs O(batches x columns); keeping the
    //    build side's Str column adds one allocation per output string.
    let labelled = schema(&[("k", DataType::Int), ("label", DataType::Str)]);
    let two_ints = schema(&[("k", DataType::Int), ("v", DataType::Int)]);
    let probe: Vec<Tuple> = (0..N as i64)
        .map(|i| [Value::Int(i % 10), Value::Int(i)].into_iter().collect())
        .collect();
    let build: Vec<Tuple> = (0..10_i64)
        .map(|k| [Value::Int(k), Value::Str(format!("label-{k}"))].into_iter().collect())
        .collect();
    let db = HashMap::from([
        ("probe".to_owned(), Relation::new(two_ints.clone(), probe)),
        ("build".to_owned(), Relation::new(labelled.clone(), build)),
    ]);
    let joined = LogicalPlan::scan("probe", two_ints.clone())
        .join(LogicalPlan::scan("build", labelled), vec![(0, 0)]);
    for (keep, strings) in [(&[1, 2][..], 0), (&[1, 3][..], N as u64)] {
        let plan = lower(&joined.clone().project_cols(keep).expect("ordinals in range"))
            .expect("a projected join lowers");
        let (batches, n) = allocations(|| execute_batches(&plan, &db).expect("join runs"));
        assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), N);
        assert!(
            (strings..strings + N as u64 / 8).contains(&n),
            "projecting {keep:?} above a {N}-row matching probe took {n} allocations; \
             want {strings} for the strings plus O(batches x columns)"
        );
    }

    // 5. What a grace-join site does between the wire and the wire: decode
    //    the bucket blocks, append them into batch windows, join, encode.
    let encode = |rows: Vec<Tuple>| -> Vec<_> {
        rows.chunks(300).map(|run| Batch::owned(run.to_vec()).encode_columnar()).collect()
    };
    let lblocks = encode(
        (0..N as i64).map(|i| [Value::Int(i), Value::Int(-i)].into_iter().collect()).collect(),
    );
    let rblocks = encode(
        (0..N as i64 / 2).map(|i| [Value::Int(i * 2), Value::Int(i)].into_iter().collect()).collect(),
    );
    let site_join = lower(
        &LogicalPlan::scan("l", two_ints.clone())
            .join(LogicalPlan::scan("r", two_ints.clone()), vec![(0, 0)]),
    )
    .expect("a hash join lowers");
    let (shipped, n) = allocations(|| {
        let collect = |blocks: &[prisma_types::wire::BlockChunk]| {
            let mut windows = BatchWindows::new(BATCH_SIZE);
            for block in blocks {
                windows.push(&Batch::from_block(block).expect("a block this test encoded"));
            }
            Arc::new(ChunkedRelation::from_batches(two_ints.clone(), windows.finish()))
        };
        let inputs = HashMap::from([
            ("l".to_owned(), collect(&lblocks)),
            ("r".to_owned(), collect(&rblocks)),
        ]);
        let out = execute_batches(&site_join, &inputs).expect("site join runs");
        out.iter().map(|b| b.encode_columnar().rows()).sum::<usize>()
    });
    assert_eq!(shipped, N / 2);
    assert!(
        n < N as u64 / 4,
        "decoding, joining and re-encoding {N} + {} received rows took {n} allocations; \
         a row was built somewhere",
        N / 2
    );

    // 6. A filter keeping every other row of an N-row scan costs a fixed
    //    handful per batch: the lazy column set over the window's rows,
    //    the pivoted predicate column, the escaping index vector and the
    //    batch's own handles. The predicate and selection scratch are
    //    reused across batches; a fresh selection buffer would add one
    //    allocation per batch.
    // 7. A 16-group GROUP BY over the same rows costs O(groups + batches):
    //    the group table opens each group once, a batch costs its key
    //    buffer.
    let kv = schema(&[("k", DataType::Int), ("v", DataType::Int)]);
    let scan = LogicalPlan::scan("t", kv.clone());
    let even = ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::lit(0));
    let filter = lower(&scan.clone().select(even)).expect("a filter lowers");
    let grouped = lower(&LogicalPlan::Aggregate {
        input: Box::new(scan),
        group_by: vec![0],
        aggs: vec![AggExpr::new(AggFunc::CountStar, 0, "n"), AggExpr::new(AggFunc::Sum, 1, "s")],
    })
    .expect("an aggregate lowers");
    let mut filtered = Vec::new();
    for n_rows in [N, 2 * N] {
        let batches = (n_rows / BATCH_SIZE) as u64;
        let rows = (0..n_rows as i64).map(|i| [Value::Int(i % 16), Value::Int(i % 2)].into_iter().collect());
        let db = HashMap::from([("t".to_owned(), Relation::new(kv.clone(), rows.collect()))]);
        let (kept, n) = allocations(|| execute_batches(&filter, &db).expect("filter runs"));
        assert_eq!(kept.iter().map(Batch::len).sum::<usize>(), n_rows / 2);
        assert!(n < 16 * batches, "filtering {n_rows} rows took {n} allocations");
        filtered.push((batches, n));

        let (groups, n) = allocations(|| execute_physical(&grouped, &db).expect("aggregate runs"));
        assert_eq!(groups.len(), 16);
        assert!(
            n <= 10 * 16 + 4 * batches,
            "grouping {n_rows} rows into 16 groups took {n} allocations; want O(groups + batches)"
        );
    }
    let [(b1, n1), (b2, n2)] = filtered[..] else { unreachable!("two sizes ran") };
    assert!(
        n2 - n1 <= 9 * (b2 - b1),
        "a filtered batch costs {} allocations; the inline filter must reuse its scratch",
        (n2 - n1) as f64 / (b2 - b1) as f64
    );
}
