//! Linter self-tests: every rule driven over fixture sources with known
//! violations (and known non-violations), plus the workspace-clean gate
//! — the same zero-findings bar CI enforces, kept inside `cargo test`
//! so a violation fails the tier-1 suite even without the CI lane.

use std::path::Path;

use prisma_checkx::lint::{
    self, dead_pub, gdhmsg_exhaustive, lex, one_cut, oracle_evaluator, sync_unwrap, wall_clock,
    wire_constants_hash, wire_fingerprint, Lexed,
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
fn one_cut_flags_logical_plans_in_the_executor() {
    let lexed = lex(&fixture("one_cut.rs"));
    let findings = one_cut(Path::new("one_cut.rs"), &lexed);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    // The import and the re-derived placement — even under an allow; the
    // string, the comment and the test module stay silent.
    assert_eq!(lines, vec![4, 7, 13], "findings: {findings:#?}");
    assert!(findings[0].message.contains("PhysicalPlan"), "{}", findings[0]);
    // An executor that takes the lowered plan is clean.
    let lexed = lex(&fixture("one_cut_clean.rs"));
    let findings = one_cut(Path::new("one_cut_clean.rs"), &lexed);
    assert!(findings.is_empty(), "findings: {findings:#?}");
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

/// Run `dead-pub` over the fixture as a storage source, beside a crate
/// root that re-exports two of its items and the given readers.
fn dead_pub_lines(fixture_src: &str, readers: &[(&str, &str)]) -> Vec<(u32, String)> {
    let lib = lex(fixture_src);
    let root = lex("pub mod dead_pub;\npub use dead_pub::{reexported_only, tested_only};\n");
    let readers: Vec<(&Path, Lexed)> = readers
        .iter()
        .map(|(p, src)| (Path::new(*p), lex(src)))
        .collect();
    let mut files = vec![
        (Path::new("crates/storage/src/dead_pub.rs"), &lib),
        (Path::new("crates/storage/src/lib.rs"), &root),
    ];
    files.extend(readers.iter().map(|(p, l)| (*p, l)));
    let findings = dead_pub(&files, lint::in_dead_pub_scope);
    assert!(
        findings.iter().all(|f| f.rule == "dead-pub"),
        "findings: {findings:#?}"
    );
    findings
        .iter()
        .map(|f| {
            (
                f.line,
                f.message.split('`').nth(3).unwrap_or_default().to_string(),
            )
        })
        .collect()
}

#[test]
fn dead_pub_counts_uses_outside_tests_and_use_lines() {
    let src = fixture("dead_pub.rs");
    let example =
        "fn main() {\n    prisma::storage::used_by_example();\n    prisma::storage::caller();\n}\n";
    // e0 is read for uses but not linted: its own dead `pub fn` is no finding.
    let e0 = "pub fn e0_only() {}\nfn run() { let _ = prisma::storage::UsedByBenchmark; }\n";
    let readers = [("examples/demo.rs", example), ("e0/src/run.rs", e0)];
    // Called only from `#[cfg(test)]` code, and re-exported only: both
    // dead. The string, the test helper, `pub(crate)`, the module and
    // the allowed item stay silent.
    let want = |extra: &[(u32, &str)]| {
        let mut v = vec![
            (4, "tested_only".to_string()),
            (6, "reexported_only".to_string()),
        ];
        v.extend(extra.iter().map(|(l, n)| (*l, n.to_string())));
        v.sort();
        v
    };
    assert_eq!(dead_pub_lines(&src, &readers), want(&[]));

    // What the example and the benchmark reference is alive only through them.
    assert_eq!(
        dead_pub_lines(&src, &[("e0/src/run.rs", e0)]),
        want(&[(8, "used_by_example"), (21, "caller")])
    );
    assert_eq!(
        dead_pub_lines(&src, &[("examples/demo.rs", example)]),
        want(&[(10, "UsedByBenchmark")])
    );

    // The allow comment is what keeps the deliberate API quiet.
    let unallowed = src.replace("// checkx:allow(dead-pub)", "//");
    assert_eq!(
        dead_pub_lines(&unallowed, &readers),
        want(&[(13, "deliberate_api")])
    );
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
