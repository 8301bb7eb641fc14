//! E5 — compiled expression routines vs interpretation (paper §2.5), and
//! the vectorized column-at-a-time kernels layered on top of them.
//!
//! "Each OFM is equipped with an expression compiler to generate routines
//! dynamically … it avoids the otherwise excessive interpretation overhead
//! incurred by a query expression interpreter." Measures an Int filter
//! and an arithmetic projection over ≥100k tuples through the per-tuple
//! compiled routines and through the vectorized kernels, and records the
//! scalar-vs-vectorized trajectory in `BENCH_e5.json` at the repo root.
//!
//! Environment knobs (all optional):
//!
//! * `E5_ROWS`    — row count (default 100000)
//! * `E5_ITERS`   — timed samples per measurement (default 30)
//! * `E5_ENFORCE=1` — exit non-zero if the vectorized Int-filter path is
//!   not faster than the per-tuple compiled path

use std::hint::black_box;
use std::time::Instant;

use prisma_bench::{enforce, env_knob, median, sorted_samples, write_json};
use prisma_core::storage::expr::{ArithOp, CmpOp, ScalarExpr};
use prisma_core::types::{ColumnVec, LazyColumns, SelVec, Tuple};
use prisma_core::workload::wisconsin_rows;

/// Column chunks of the batch pipeline's size, built once (column-at-a-
/// time engines store columnar; pivot cost is not measured here).
const CHUNK: usize = 1024;

/// Chunked columnar view of the rows, pre-materialized so the timed
/// loops measure kernel cost, not pivot cost (the executor itself
/// pivots lazily per referenced column).
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
}
