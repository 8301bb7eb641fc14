//! Lint fixture: an executor that runs the lowered plan as it is.
//! Never compiled — lexed by tests/lint_fixtures.rs.

use prisma_relalg::{ExchangeKind, PhysicalPlan};

impl ParallelExecutor {
    fn run(&self, plan: &PhysicalPlan) -> Result<Relation> {
        if let PhysicalPlan::Exchange { input, kind: ExchangeKind::Gather } = plan {
            return self.gather(input);
        }
        self.splice(plan)
    }
}

#[cfg(test)]
mod tests {
    use prisma_relalg::LogicalPlan;

    #[test]
    fn lowers_before_running() {
        let _ = lower_physical(&LogicalPlan::scan("t", schema()));
    }
}
