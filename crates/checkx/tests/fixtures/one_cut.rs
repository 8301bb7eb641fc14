//! Lint fixture: an executor that decides placement again.
//! Never compiled — lexed by tests/lint_fixtures.rs.

use prisma_relalg::{LogicalPlan, PhysicalPlan};

impl ParallelExecutor {
    fn run_logical(&self, plan: &LogicalPlan) -> Result<Relation> {
        let name = "LogicalPlan"; // a string is no reference
        // LogicalPlan in a comment is no reference either
        // checkx:allow(one-cut) — no allow lifts the rule
        match plan {
            _ if self.pushable(plan) => self.run_on_fragments(plan),
            other => self.local(other as &LogicalPlan),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn lowers_before_running() {
        let _ = lower_physical(&LogicalPlan::scan("t", schema()));
    }
}
