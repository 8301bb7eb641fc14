//! `e0 --compare a.jsonl b.jsonl`: the repeatability self-check.
//!
//! Each file is the concatenated standard output of a set of runs: pairs
//! of an echo line (`{"e0": {...}}`) and a result line. Runs of one
//! workload and mode are pooled and each metric's **median** compared;
//! end-to-end metrics are held to their bound, per-layer metrics are
//! listed without one.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

/// `(workload, metric) → values`, one per run in the file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let mut workload: Option<String> = None;
    for (n, line) in text.lines().enumerate() {
        if !line.starts_with('{') {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if let Some(echo) = v.get("e0") {
            workload = echo
                .get("workload")
                .and_then(Json::as_str)
                .map(str::to_owned);
        } else if let Some(metrics) = v.get("metrics").and_then(Json::as_obj) {
            let w = workload
                .take()
                .ok_or_else(|| format!("{path}:{}: result line without an echo line", n + 1))?;
            for (name, m) in metrics {
                if let Some(x) = m.get("value").and_then(Json::as_f64) {
                    runs.entry((w.clone(), name.clone())).or_default().push(x);
                }
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no e0 result lines"));
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let d = if m.better == "higher" { a - b } else { b - a };
    d / a.abs().max(f64::MIN_POSITIVE)
}

/// Compare two result files. Returns the table and whether every
/// end-to-end metric of `b` is within its bound of `a`.
pub fn compare_files(a: &str, b: &str) -> Result<(String, bool), String> {
    let (ra, rb) = (read(a)?, read(b)?);
    let mut table = format!(
        "{:<15} {:<34} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict"
    );
    let mut within = true;
    for w in &WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let key = (w.name.to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (ra.get(&key), rb.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = worsening(m, ma, mb);
            let (bound, verdict) = match m.bound {
                Some(bound) if worse > bound => {
                    within = false;
                    (format!("{:.1}%", bound * 100.0), "EXCEEDED")
                }
                Some(bound) => (format!("{:.1}%", bound * 100.0), "ok"),
                None => ("-".to_owned(), ""),
            };
            table.push_str(&format!(
                "{:<15} {:<34} {:>14.4} {:>14.4} {:>8.2}% {:>7}  {}\n",
                w.name,
                format!("{} [{}]", m.name, m.unit),
                ma,
                mb,
                worse * 100.0,
                bound,
                verdict
            ));
        }
    }
    Ok((table, within))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_of_worse() {
        let lower = &END_TO_END[1]; // iter_p50_ms
        let higher = &END_TO_END[3]; // iters_per_s
        assert!(worsening(lower, 10.0, 11.0) > 0.09);
        assert!(worsening(lower, 10.0, 9.0) < 0.0);
        assert!(worsening(higher, 10.0, 9.0) > 0.09);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }
}
