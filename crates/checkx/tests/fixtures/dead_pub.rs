//! Lint fixture: the `pub` items of a library crate, some of them dead.
//! Never compiled — lexed by tests/lint_fixtures.rs as a storage source.

pub fn tested_only() {} // FINDING: line 4, only the test module calls it

pub fn reexported_only() {} // FINDING: line 6, a `pub use` is no use

pub fn used_by_example() {}

pub struct UsedByBenchmark;

// checkx:allow(dead-pub) deliberate API: the fixture's users call it
pub fn deliberate_api() {}

pub(crate) fn crate_private() {}

pub const fn called_here() -> u32 {
    7
}

pub fn caller() -> u32 {
    let tested_only_doc = "tested_only";
    called_here()
}

pub mod paths {}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helper() {}

    #[test]
    fn calls() {
        tested_only();
        test_helper();
    }
}
