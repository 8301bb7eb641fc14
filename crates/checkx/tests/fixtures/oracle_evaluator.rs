//! Lint fixture: a reference evaluator that reaches for the kernels.
//! Never compiled — lexed by tests/lint_fixtures.rs.

use prisma_storage::expr::{CompiledVecPredicate, ScalarExpr};

fn select(p: &ScalarExpr, rows: &[Tuple]) -> Vec<Tuple> {
    let mut kernel = p.compile_vec_predicate(); // FINDING: line 7
    let name = "compile_vec"; // a string is no reference
    // compile_vec in a comment is no reference either
    // checkx:allow(oracle-evaluator) — no allow lifts the rule
    let e = p.compile_vec(); // FINDING: line 11
    rows.iter().filter(|t| p.eval_predicate(t).unwrap()).cloned().collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_agrees() {
        let _ = ScalarExpr::col(0).compile_vec();
    }
}
