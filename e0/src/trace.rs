//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each crate's public functions. Spans stay in memory and are
//! written out once, when the run ends; the engine is not instrumented.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; 0 is "no parent".
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id (its position in the trace).
    pub id: SpanId,
    /// The span that caused this one (0 for an iteration's root).
    pub parent: SpanId,
    /// Iteration the span belongs to — the request identifier every span
    /// of one pass over the statement list shares.
    pub iter: u64,
    /// Layer-qualified name, e.g. `gdh.query`.
    pub name: &'static str,
    /// Statement id (`S1`, `T1`, …) or `""`.
    pub stmt: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counts taken at the same boundary (ledger, pool, `ExecMetrics`).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall time covered.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span opened so far, in opening order.
    pub spans: Vec<Span>,
    iter: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            iter: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to iteration `iter`.
    pub fn set_iteration(&mut self, iter: u64) {
        self.iter = iter;
    }

    /// Open a span under `parent`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, stmt: &'static str, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            iter: self.iter,
            name,
            stmt,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        id
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = now;
        }
    }

    /// Time `f` as a span under `parent`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        stmt: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, stmt, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Attach a count to span `id`.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.counts.push((key, value));
        }
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover. Children never overlap here (one client, one
    /// statement at a time), so that part is the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                covered[s.parent as usize - 1] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per-iteration totals of `value(span)` over spans named `name`, in
    /// iteration order (iterations without such a span contribute 0).
    pub fn per_iteration(&self, name: &str, value: impl Fn(&Span) -> f64) -> Vec<f64> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for s in &self.spans {
            if s.name == "iteration" {
                out.push((s.iter, 0.0));
            }
        }
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Ok(pos) = out.binary_search_by_key(&s.iter, |(i, _)| *i) {
                out[pos].1 += value(s);
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Write the trace as JSON lines: one span per line with its self
    /// time, so a reader needs no second pass.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"iter\": {}, \"name\": \"{}\", \"stmt\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{",
                s.id, s.parent, s.iter, s.name, s.stmt, s.start_ns, s.end_ns, self_ns
            )?;
            for (k, (key, v)) in s.counts.iter().enumerate() {
                write!(out, "{}\"{key}\": {v}", if k > 0 { ", " } else { "" })?;
            }
            writeln!(out, "}}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.set_iteration(3);
        let root = t.open("iteration", "", 0);
        let a = t.open("gdh.query", "S1", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        t.close(root);
        t.count(a, "rows", 5.0);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[1], t.spans[1].dur_ns());
        assert_eq!(selfs[0], t.spans[0].dur_ns() - t.spans[1].dur_ns());
        assert_eq!(t.per_iteration("gdh.query", |s| s.dur_ns() as f64).len(), 1);
        assert_eq!(t.per_iteration("nope", |_| 1.0), vec![0.0]);
        assert_eq!(t.spans[1].iter, 3);
    }
}
