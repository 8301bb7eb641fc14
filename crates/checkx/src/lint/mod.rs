//! Project-invariant lint: lexer, rules, and the workspace driver the
//! `checkx-lint` binary wraps.

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use lexer::{lex, Lexed};
pub use rules::{
    dead_pub, gdhmsg_exhaustive, oracle_evaluator, sync_unwrap, wall_clock, wire_constants_hash,
    wire_fingerprint, Finding,
};

/// Crates whose sources must be simulation-deterministic: the data
/// model and codecs, storage, the planners, the interconnect cost model,
/// the workload generator, and the (seeded) fault injector. These are
/// the components whose outputs are asserted bit-identical across runs
/// and replicas; the live actor runtime (`gdh`, `ofm`, `poolx`, `core`)
/// legitimately reads wall clocks for timeouts and metrics and is out of
/// scope.
const DETERMINISTIC_CRATES: &[&str] = &[
    "types",
    "storage",
    "stable",
    "relalg",
    "optimizer",
    "sqlfe",
    "prismalog",
    "multicomputer",
    "workload",
    "faultx",
];

/// Crates whose `pub` items must have a caller outside their tests
/// (`dead-pub`).
const DEAD_PUB_CRATES: &[&str] = &["ofm", "storage", "multicomputer", "gdh"];

/// Directories read only for the uses `dead-pub` counts: no rule lints
/// them. `e0/` is the standing benchmark, a package of its own.
const REFERENCE_DIRS: &[&str] = &["src", "examples", "crates/bench/benches", "e0/src"];

/// Where the wire-format constants (and their pinned fingerprint) live.
const WIRE_FILE: &str = "crates/types/src/wire.rs";

/// The reference evaluator, which must share no evaluator with the
/// executor it checks.
const ORACLE_FILE: &str = "crates/relalg/src/eval.rs";

/// One source file staged for linting.
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Lexed content.
    pub lexed: Lexed,
}

/// Collect every lintable `.rs` file under `root` (the workspace
/// checkout), `crates/*/src/**`, followed by the files `dead-pub` reads
/// for uses only: the root `src/`, `examples/`,
/// `crates/bench/benches/` and `e0/src/` ([`is_linted`] tells the two
/// apart). Deliberately excluded:
///
/// * `crates/shims/` — vendored stand-ins for third-party crates, held
///   to the upstream API (poisoning-`unwrap_or_else` patterns and
///   timeout clocks are *their* contract, not project style);
/// * `tests/` — the rules' "outside tests" scope, plus this crate's own
///   deliberately-violating lint fixtures.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() || entry.file_name() == "shims" {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            walk(&src, root, &mut files)?;
        }
    }
    for dir in REFERENCE_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk(&path, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let content = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile {
                path: rel,
                lexed: lex(&content),
            });
        }
    }
    Ok(())
}

/// True when `path` (workspace-relative) is a `crates/<name>/src` file
/// of a crate in `scope`.
fn in_crates(path: &Path, scope: impl Fn(&str) -> bool) -> bool {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    comps.next().is_some_and(|c| c == "crates")
        && comps.next().is_some_and(|c| scope(&c))
        && comps.next().is_some_and(|c| c == "src")
}

/// True when `path` (workspace-relative) is a crate source the rules
/// lint, not a file read only for `dead-pub`'s uses.
pub fn is_linted(path: &Path) -> bool {
    in_crates(path, |_| true)
}

/// True when `path` (workspace-relative) belongs to a crate whose
/// sources must be simulation-deterministic.
pub fn in_deterministic_scope(path: &Path) -> bool {
    in_crates(path, |c| DETERMINISTIC_CRATES.contains(&c))
}

/// True when `path` (workspace-relative) belongs to a crate whose `pub`
/// items `dead-pub` checks.
pub fn in_dead_pub_scope(path: &Path) -> bool {
    in_crates(path, |c| DEAD_PUB_CRATES.contains(&c))
}

/// Run every rule over the staged sources. This is the whole linter:
/// the binary only adds I/O and an exit code.
pub fn run_all(sources: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in sources.iter().filter(|f| is_linted(&f.path)) {
        findings.extend(sync_unwrap(&f.path, &f.lexed));
        if in_deterministic_scope(&f.path) {
            findings.extend(wall_clock(&f.path, &f.lexed));
        }
        if f.path == Path::new(WIRE_FILE) {
            findings.extend(wire_fingerprint(&f.path, &f.lexed));
        }
        if f.path == Path::new(ORACLE_FILE) {
            findings.extend(oracle_evaluator(&f.path, &f.lexed));
        }
    }
    // The GdhMsg protocol rule needs the enum file plus the actor loops.
    let find = |name: &str| sources.iter().find(|f| f.path == Path::new(name));
    let enum_file = find("crates/gdh/src/message.rs");
    if let Some(enum_file) = enum_file {
        let actors: Vec<(&Path, &Lexed)> = [
            "crates/gdh/src/gdh.rs",
            "crates/gdh/src/exec.rs",
            "crates/gdh/src/txn.rs",
            "crates/gdh/src/message.rs",
        ]
        .iter()
        .filter_map(|n| find(n).map(|f| (f.path.as_path(), &f.lexed)))
        .collect();
        findings.extend(gdhmsg_exhaustive(
            (enum_file.path.as_path(), &enum_file.lexed),
            (enum_file.path.as_path(), &enum_file.lexed),
            &actors,
        ));
    }
    let all: Vec<(&Path, &Lexed)> = sources
        .iter()
        .map(|f| (f.path.as_path(), &f.lexed))
        .collect();
    findings.extend(dead_pub(&all, in_dead_pub_scope));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}
