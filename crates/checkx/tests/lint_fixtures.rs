//! Linter self-tests: every rule driven over fixture sources with known
//! violations (and known non-violations), plus the workspace-clean gate
//! — the same zero-findings bar CI enforces, kept inside `cargo test`
//! so a violation fails the tier-1 suite even without the CI lane.

use std::path::Path;

use prisma_checkx::lint::{
    self, gdhmsg_exhaustive, lex, oracle_evaluator, sync_unwrap, wall_clock, wire_constants_hash,
    wire_fingerprint,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn sync_unwrap_flags_locks_and_channels_not_options() {
    let lexed = lex(&fixture("sync_unwrap.rs"));
    let findings = sync_unwrap(Path::new("sync_unwrap.rs"), &lexed);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    // Exactly the two seeded violations: the bare `.lock().unwrap()` and
    // the `.recv().expect(..)`. The suppressed one, the Option unwrap,
    // the free function, the string decoy, and the #[cfg(test)] module
    // must all stay silent.
    assert_eq!(lines, vec![5, 9], "findings: {findings:#?}");
    assert!(findings[0].message.contains("lock"), "{}", findings[0]);
    assert!(findings[1].message.contains("recv"), "{}", findings[1]);
}

#[test]
fn wall_clock_flags_now_reads_not_types() {
    let lexed = lex(&fixture("wall_clock.rs"));
    let findings = wall_clock(Path::new("wall_clock.rs"), &lexed);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    // Instant::now and SystemTime::now; the allowed one and the
    // type-position mentions stay silent.
    assert_eq!(lines, vec![7, 11], "findings: {findings:#?}");
}

#[test]
fn oracle_evaluator_flags_kernel_names_outside_tests() {
    let lexed = lex(&fixture("oracle_evaluator.rs"));
    let findings = oracle_evaluator(Path::new("oracle_evaluator.rs"), &lexed);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    // The import, the predicate kernel and the expression kernel — even
    // under an allow; the string, the comment and the test module stay
    // silent.
    assert_eq!(lines, vec![4, 7, 11], "findings: {findings:#?}");
    assert!(findings[0].message.contains("CompiledVecPredicate"), "{}", findings[0]);
}

#[test]
fn gdhmsg_rule_sees_through_wildcard_arms() {
    let lexed = lex(&fixture("gdhmsg_partial.rs"));
    let path = Path::new("gdhmsg_partial.rs");
    let findings = gdhmsg_exhaustive((path, &lexed), (path, &lexed), &[(path, &lexed)]);
    assert_eq!(findings.len(), 1, "findings: {findings:#?}");
    assert!(
        findings[0].message.contains("GdhMsg::Cancel"),
        "{}",
        findings[0]
    );
    // Dispatching Cancel explicitly clears the finding.
    let fixed = fixture("gdhmsg_partial.rs").replace("_ => {}", "GdhMsg::Cancel(_) => {}");
    let lexed = lex(&fixed);
    let findings = gdhmsg_exhaustive((path, &lexed), (path, &lexed), &[(path, &lexed)]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn wire_fingerprint_pins_the_constants() {
    let base = "const MAGIC: &[u8; 4] = b\"PCB1\";\nconst TAG_INT_RAW: u8 = 0;\n";
    let hash = format!("{:016x}", wire_constants_hash(&lex(base).toks));
    let path = Path::new("wire.rs");

    // Pinned correctly: clean.
    let good = format!("// checkx:wire-fingerprint {hash}\n{base}");
    assert!(wire_fingerprint(path, &lex(&good)).is_empty());

    // Constant changed under an unchanged pin: flagged.
    let drifted = good.replace("TAG_INT_RAW: u8 = 0", "TAG_INT_RAW: u8 = 9");
    let findings = wire_fingerprint(path, &lex(&drifted));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("version tag"), "{}", findings[0]);

    // Reformatting (whitespace only) does not change the fingerprint.
    let reformatted = good.replace("const MAGIC: &[u8; 4] = b\"PCB1\";", "const MAGIC : &[u8;4]=b\"PCB1\" ;");
    assert!(wire_fingerprint(path, &lex(&reformatted)).is_empty());

    // No directive at all: flagged with the hash to pin.
    let findings = wire_fingerprint(path, &lex(base));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains(&hash), "{}", findings[0]);
}

#[test]
fn workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/checkx → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let sources = lint::collect_sources(root).expect("collect workspace sources");
    assert!(sources.len() > 50, "walker found only {} files", sources.len());
    let findings = lint::run_all(&sources);
    assert!(
        findings.is_empty(),
        "checkx-lint findings in the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
