//! Workspace linter for the checkx project invariants.
//!
//! ```text
//! checkx-lint [ROOT]              lint the workspace at ROOT (default .)
//! checkx-lint --wire-fingerprint  print the current wire-constant hash
//! ```
//!
//! Exits 1 when any finding survives (CI enforces zero), 2 on I/O
//! errors. Suppress an individual finding with
//! `// checkx:allow(<rule>)` on the same or preceding line; a
//! `dead-pub` allow states on that line why the item is API.

use std::path::PathBuf;
use std::process::ExitCode;

use prisma_checkx::lint;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut print_fingerprint = false;
    for a in &args {
        match a.as_str() {
            "--wire-fingerprint" => print_fingerprint = true,
            "--help" | "-h" => {
                eprintln!("usage: checkx-lint [--wire-fingerprint] [ROOT]");
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }
    let sources = match lint::collect_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("checkx-lint: cannot read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if print_fingerprint {
        match sources
            .iter()
            .find(|f| f.path.ends_with("types/src/wire.rs"))
        {
            Some(wire) => {
                println!("{:016x}", lint::wire_constants_hash(&wire.lexed.toks));
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("checkx-lint: wire.rs not found under {}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    let findings = lint::run_all(&sources);
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!(
            "checkx-lint: {} files clean (sync-unwrap, wall-clock, gdhmsg-exhaustive, wire-fingerprint, oracle-evaluator, one-cut, dead-pub)",
            sources.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("checkx-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
