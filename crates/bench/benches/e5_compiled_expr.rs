//! E5 — compiled expression routines vs interpretation (paper §2.5), and
//! the vectorized column-at-a-time kernels layered on top of them.
//!
//! "Each OFM is equipped with an expression compiler to generate routines
//! dynamically … it avoids the otherwise excessive interpretation overhead
//! incurred by a query expression interpreter." Measures the same
//! predicates over ≥100k tuples via the tree-walking interpreter, the
//! closure compiler, and the vectorized kernels, and records the
//! scalar-vs-vectorized trajectory in `BENCH_e5.json` at the repo root.
//!
//! Environment knobs (all optional):
//!
//! * `E5_ROWS`    — row count (default 100000)
//! * `E5_ITERS`   — timed samples per measurement (default 30)
//! * `E5_SMOKE=1` — run only the scalar-vs-vectorized comparison, skip
//!   the criterion groups (CI's bench-smoke step)
//! * `E5_ENFORCE=1` — exit non-zero if the vectorized Int-filter path is
//!   not faster than the per-tuple compiled path

use std::time::Instant;

use criterion::{black_box, Criterion};
use prisma_bench::{enforce, env_flag, env_knob, median, sorted_samples, write_json};
use prisma_core::storage::expr::{ArithOp, CmpOp, ScalarExpr};
use prisma_core::types::{ColumnVec, LazyColumns, SelVec, Tuple};
use prisma_core::workload::wisconsin_rows;

/// Column chunks of the batch pipeline's size, built once (column-at-a-
/// time engines store columnar; pivot cost is measured by E2, not here).
const CHUNK: usize = 1024;

fn predicates() -> Vec<(&'static str, ScalarExpr)> {
    vec![
        (
            "simple_cmp",
            // unique1 < 5000
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::lit(5000)),
        ),
        (
            "conjunction3",
            // two = 1 AND ten < 7 AND hundred >= 20
            ScalarExpr::conjunction(vec![
                ScalarExpr::eq(ScalarExpr::col(2), ScalarExpr::lit(1)),
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(3), ScalarExpr::lit(7)),
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(4), ScalarExpr::lit(20)),
            ]),
        ),
        (
            "arith_heavy",
            // (unique1 * 3 + unique2) % 7 = 0 AND string4 = 'AAAA'
            ScalarExpr::and(
                ScalarExpr::eq(
                    ScalarExpr::arith(
                        ArithOp::Rem,
                        ScalarExpr::arith(
                            ArithOp::Add,
                            ScalarExpr::arith(
                                ArithOp::Mul,
                                ScalarExpr::col(0),
                                ScalarExpr::lit(3),
                            ),
                            ScalarExpr::col(1),
                        ),
                        ScalarExpr::lit(7),
                    ),
                    ScalarExpr::lit(0),
                ),
                ScalarExpr::eq(ScalarExpr::col(5), ScalarExpr::lit("AAAA")),
            ),
        ),
    ]
}

/// Chunked columnar view of the rows, pre-materialized so the timed
/// loops measure kernel cost, not pivot cost (pivot cost is E2's
/// business; the executor itself pivots lazily per referenced column).
fn to_chunks(rows: &[Tuple]) -> Vec<LazyColumns> {
    rows.chunks(CHUNK)
        .map(|c| LazyColumns::from_cols(ColumnVec::pivot(c)))
        .collect()
}

/// Median wall-clock ns of `iters` runs of `f` (one warm-up first).
fn time_ns(iters: usize, mut f: impl FnMut() -> usize) -> (u64, usize) {
    let check = black_box(f());
    let timed = || {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_nanos() as u64
    };
    (*median(&sorted_samples(iters, timed, |&ns| ns)), check)
}

struct Comparison {
    name: &'static str,
    scalar_ns: u64,
    vectorized_ns: u64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.vectorized_ns.max(1) as f64
    }
}

/// The headline E5 comparison: per-tuple `CompiledExpr` routines vs the
/// vectorized kernels, on an Int filter and an arithmetic projection.
fn compare_scalar_vs_vectorized(
    rows: &[Tuple],
    chunks: &[LazyColumns],
    iters: usize,
) -> Vec<Comparison> {
    let sels: Vec<SelVec> = chunks
        .iter()
        .map(|c| SelVec::all(if c.arity() == 0 { 0 } else { c.col(0).len() }))
        .collect();
    let mut out = Vec::new();

    // --- Int filter: unique1 < n/2 ---
    let pred = ScalarExpr::cmp(
        CmpOp::Lt,
        ScalarExpr::col(0),
        ScalarExpr::lit((rows.len() / 2) as i64),
    );
    let scalar = pred.compile_predicate();
    let (scalar_ns, n_scalar) =
        time_ns(iters, || rows.iter().filter(|t| scalar(t)).count());
    let mut vpred = pred.compile_vec_predicate();
    let mut sel_buf: Vec<u32> = Vec::new();
    let (vector_ns, n_vector) = time_ns(iters, || {
        let mut kept = 0;
        for (cols, sel) in chunks.iter().zip(&sels) {
            vpred.select(cols, sel, &mut sel_buf);
            kept += sel_buf.len();
        }
        kept
    });
    assert_eq!(n_scalar, n_vector, "filter paths disagree");
    out.push(Comparison {
        name: "int_filter",
        scalar_ns,
        vectorized_ns: vector_ns,
    });

    // --- Arithmetic projection: unique1 * 3 + unique2 ---
    let proj = ScalarExpr::arith(
        ArithOp::Add,
        ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(0), ScalarExpr::lit(3)),
        ScalarExpr::col(1),
    );
    let scalar = proj.compile();
    let (scalar_ns, _) = time_ns(iters, || {
        rows.iter()
            .map(|t| black_box(scalar(t)))
            .filter(|v| !v.is_null())
            .count()
    });
    let vproj = proj.compile_vec();
    let (vector_ns, _) = time_ns(iters, || {
        let mut n = 0;
        for (cols, sel) in chunks.iter().zip(&sels) {
            n += black_box(vproj.eval(cols, sel)).len();
        }
        n
    });
    out.push(Comparison {
        name: "arith_project",
        scalar_ns,
        vectorized_ns: vector_ns,
    });
    out
}

fn to_json(rows: usize, iters: usize, comps: &[Comparison]) -> String {
    let benches: Vec<String> = comps
        .iter()
        .map(|c| {
            format!(
                "    \"{}\": {{\"scalar_ns\": {}, \"vectorized_ns\": {}, \"speedup\": {:.2}}}",
                c.name,
                c.scalar_ns,
                c.vectorized_ns,
                c.speedup()
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"e5_compiled_expr\",\n  \"rows\": {rows},\n  \"iters\": {iters},\n  \"benches\": {{\n{}\n  }}\n}}\n",
        benches.join(",\n")
    )
}

/// The original criterion groups: interpreter vs compiler vs vectorized
/// at three predicate complexities, plus compile cost.
fn criterion_groups(c: &mut Criterion, rows: &[Tuple], chunks: &[LazyColumns]) {
    let sels: Vec<SelVec> = chunks
        .iter()
        .map(|ch| SelVec::all(if ch.arity() == 0 { 0 } else { ch.col(0).len() }))
        .collect();
    let mut group = c.benchmark_group("e5_compiled_expr");
    for (name, pred) in predicates() {
        // Sanity: all three paths agree.
        let compiled = pred.compile_predicate();
        let n_interp = rows
            .iter()
            .filter(|t| pred.eval_predicate(t).unwrap())
            .count();
        let n_comp = rows.iter().filter(|t| compiled(t)).count();
        assert_eq!(n_interp, n_comp);
        let mut vpred = pred.compile_vec_predicate();
        let mut buf = Vec::new();
        let n_vec: usize = chunks
            .iter()
            .zip(&sels)
            .map(|(cols, sel)| {
                vpred.select(cols, sel, &mut buf);
                buf.len()
            })
            .sum();
        assert_eq!(n_interp, n_vec);
        eprintln!("[E5:{name}] selects {n_comp} of {} tuples", rows.len());

        group.bench_function(format!("interpreted/{name}"), |b| {
            b.iter(|| {
                rows.iter()
                    .filter(|t| pred.eval_predicate(t).unwrap())
                    .count()
            })
        });
        group.bench_function(format!("compiled/{name}"), |b| {
            let f = pred.compile_predicate();
            b.iter(|| rows.iter().filter(|t| f(t)).count())
        });
        group.bench_function(format!("vectorized/{name}"), |b| {
            let mut f = pred.compile_vec_predicate();
            let mut buf = Vec::new();
            b.iter(|| {
                let mut kept = 0;
                for (cols, sel) in chunks.iter().zip(&sels) {
                    f.select(cols, sel, &mut buf);
                    kept += buf.len();
                }
                kept
            })
        });
        group.bench_function(format!("compile_cost/{name}"), |b| {
            b.iter(|| pred.compile_predicate())
        });
    }
    group.finish();
}

fn main() {
    let n: usize = env_knob("E5_ROWS", 100_000);
    let iters: usize = env_knob("E5_ITERS", 30);

    let rows: Vec<Tuple> = wisconsin_rows(n, 3);
    let chunks = to_chunks(&rows);

    let comps = compare_scalar_vs_vectorized(&rows, &chunks, iters);
    for c in &comps {
        eprintln!(
            "[E5:{}] scalar {} ns  vectorized {} ns  speedup {:.2}x",
            c.name,
            c.scalar_ns,
            c.vectorized_ns,
            c.speedup()
        );
    }
    write_json("E5", "BENCH_e5.json", &to_json(n, iters, &comps));

    if enforce("E5") {
        let filter = comps
            .iter()
            .find(|c| c.name == "int_filter")
            .expect("int_filter always measured");
        assert!(
            filter.vectorized_ns < filter.scalar_ns,
            "vectorized Int filter regressed: {} ns vs scalar {} ns",
            filter.vectorized_ns,
            filter.scalar_ns
        );
    }
    if env_flag("E5_SMOKE") {
        return;
    }
    criterion_groups(&mut Criterion::default(), &rows, &chunks);
}
