//! Smoke test: every workload runs end to end at `--smoke` scale, traced
//! and untraced, verifies its results, and prints exactly the metrics
//! `BENCHMARK.json` names — so the file the driver reads, the tables in
//! `src/spec.rs` and the binary's output cannot drift apart.

use std::process::{Command, Output};

use e0::json::{self, Json};
use e0::spec::{END_TO_END, FORBIDDEN_ENV, PER_LAYER, WORKLOADS};

/// The benchmark binary with the engine's environment knobs removed (CI's
/// full-suite lanes set them for the workspace's own tests).
fn e0() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_e0"));
    for key in FORBIDDEN_ENV {
        cmd.env_remove(key);
    }
    cmd
}

fn in_alphabet(s: &str, extra: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn benchmark_json_is_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        e0::spec::benchmark_json(),
        "BENCHMARK.json is out of date: regenerate it with `e0 --benchmark-json`"
    );
    // The contract's limits on what the tables may say.
    let bench = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = bench
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for spec in &WORKLOADS {
        assert!(
            in_alphabet(spec.name, "") && spec.name.len() <= 64,
            "{}",
            spec.name
        );
        assert!(
            spec.why.len() <= 200 && !spec.why.contains(['\n', '"', '\\']),
            "{}",
            spec.name
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(in_alphabet(m.name, "") && m.name.len() <= 64, "{}", m.name);
        assert!(
            in_alphabet(m.unit, "/%") && m.unit.len() <= 16,
            "{}",
            m.unit
        );
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a metric name is used twice"
    );
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

#[test]
fn every_workload_runs_and_prints_every_metric_once() {
    for spec in &WORKLOADS {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = e0()
                .args([
                    "--workload",
                    spec.name,
                    "--smoke",
                    "--trace",
                    trace,
                    "--seed",
                    "3",
                ])
                .output()
                .expect("e0 runs");
            let stdout = stdout_of(&out);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed: {}\n{stdout}",
                spec.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let mut lines = stdout.lines().rev();
            let result = json::parse(lines.next().expect("a result line")).expect("result parses");
            let echo = json::parse(lines.next().expect("an echo line")).expect("echo parses");
            let echo = echo.get("e0").expect("echo object");
            assert_eq!(echo.get("workload").and_then(Json::as_str), Some(spec.name));
            assert!(echo
                .get("config")
                .and_then(|c| c.get("ofm_workers"))
                .is_some());
            assert!(echo
                .get("host_cores")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0));

            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result
                .get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0));

            // The parser rejects duplicate keys, so "once" is implied.
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = table.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{} --trace {trace}", spec.name);
            for m in table {
                let got = &metrics[m.name];
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                let v = got.get("value").and_then(Json::as_f64).expect("a number");
                assert!(v.is_finite(), "{} = {v}", m.name);
                if m.bound.is_some() {
                    assert!(v > 0.0, "end-to-end metric {} read {v}", m.name);
                }
            }
            if trace == "1" {
                let spans = echo
                    .get("spans_file")
                    .and_then(Json::as_str)
                    .expect("spans_file");
                let text = std::fs::read_to_string(spans).expect("spans file written");
                let first = json::parse(text.lines().next().expect("a span")).expect("span parses");
                for key in [
                    "id", "parent", "iter", "name", "start_ns", "end_ns", "self_ns",
                ] {
                    assert!(first.get(key).is_some(), "span lacks {key}");
                }
            }
        }
    }
}

#[test]
fn refuses_to_run_under_engine_environment_knobs() {
    for key in FORBIDDEN_ENV {
        let out = e0()
            .env(key, "1")
            .args(["--workload", "scan_ship", "--smoke"])
            .output()
            .expect("e0 runs");
        assert!(!out.status.success(), "{key} was accepted");
        assert!(stdout_of(&out).is_empty(), "{key}: printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains(key));
    }
}

#[test]
fn compare_reads_two_result_files() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut paths = Vec::new();
    for name in ["a.jsonl", "b.jsonl"] {
        let out = e0()
            .args(["--workload", "recursive", "--smoke"])
            .output()
            .expect("e0 runs");
        assert!(out.status.success());
        let path = dir.join(name);
        std::fs::write(&path, &out.stdout).expect("write result file");
        paths.push(path);
    }
    let out = e0()
        .arg("--compare")
        .args(&paths)
        .output()
        .expect("e0 --compare runs");
    // 0 = within bounds, 1 = a bound exceeded (three-iteration smoke runs
    // may well differ); anything else means the files were not read.
    assert!(matches!(out.status.code(), Some(0 | 1)), "{:?}", out.status);
    let table = stdout_of(&out);
    for m in &END_TO_END {
        assert_eq!(
            table.matches(&format!(" {} [", m.name)).count(),
            1,
            "{table}"
        );
    }
    // A file compared with itself is always within bounds.
    let same = e0()
        .arg("--compare")
        .args([&paths[0], &paths[0]])
        .output()
        .expect("e0 --compare runs");
    assert!(same.status.success());
}
