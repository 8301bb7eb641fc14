//! `e0` — the standing end-to-end benchmark. See `README.md` beside
//! `Cargo.toml`.
//!
//! ```text
//! e0 --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! e0 --compare a.jsonl b.jsonl
//! e0 --benchmark-json            # the text of BENCHMARK.json, from src/spec.rs
//! ```

use std::process::ExitCode;

use e0::run::{run, Args};
use e0::spec::{self, FORBIDDEN_ENV, WORKLOADS};

const USAGE: &str = "usage: e0 --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       e0 --compare <baseline.jsonl> <candidate.jsonl>\n       e0 --benchmark-json";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        spec: &WORKLOADS[0],
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of: {}", names.join(", "))
                })?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    out.spec = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--benchmark-json") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => match e0::compare::compare_files(a, b) {
                Ok((table, within)) => {
                    print!("{table}");
                    if within {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("e0: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    // The engine reads these at boot; the benchmark fixes every one of
    // them through MachineConfig, so a set variable means the numbers
    // would describe a different machine than the echo line claims.
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "e0: refusing to run with {} set: the benchmark configures the machine itself; unset and retry",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let parsed = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e0: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(report) => {
            println!("{}", report.echo);
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e0: {}: {e}", parsed.spec.name);
            ExitCode::FAILURE
        }
    }
}
