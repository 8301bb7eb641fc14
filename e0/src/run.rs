//! One benchmark run: set up, warm up, drive the closed loop for the
//! requested time, verify, and assemble the metrics.

use std::time::{Duration, Instant};

use prisma_core::poolx::COORDINATOR_PE;
use prisma_core::PrismaMachine;

use crate::check::Expect;
use crate::exec::{self, add_metrics, StmtOut, Traced};
use crate::probe;
use crate::spec::{MetricSpec, WorkloadSpec, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, midmean, percentile, segments, sorted};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Scale, Seen, Stmt, Workload};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Iterations per loop under `--smoke`.
const SMOKE_ITERATIONS: u64 = 3;
/// Segments the measured iterations are cut into (see [`end_to_end`]).
const SEGMENTS: usize = 20;
/// Fewer, longer segments for the tail percentile, which needs more
/// samples per segment than a median does.
const TAIL_SEGMENTS: usize = 8;
/// Fault-free iterations the traced run times as the reference for
/// `gdh.recovery_ms`.
const REFERENCE_ITERATIONS: u64 = 5;
/// Most failure messages kept for the report.
const MAX_ERRORS: usize = 5;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the closed loop measures for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Small tables, three iterations per loop.
    pub smoke: bool,
}

impl Args {
    /// Untimed warm-up iterations of this run.
    fn warmup(&self) -> u64 {
        if self.smoke {
            1
        } else {
            self.spec.warmup
        }
    }

    /// A loop's budget: `share` of the seconds, or three iterations
    /// under `--smoke`.
    fn budget(&self, share: f64) -> Budget {
        if self.smoke {
            Budget::Count(SMOKE_ITERATIONS)
        } else {
            Budget::Time(Duration::from_secs_f64(self.seconds * share))
        }
    }
}

/// How long a loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start iterations until this much time has passed.
    Time(Duration),
    /// Exactly this many iterations.
    Count(u64),
}

/// One verified iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Wall time of the statement list (verification excluded).
    pub wall_ns: u64,
    /// Process CPU time over the same interval, all threads.
    pub cpu_ns: u64,
    /// `TrafficLedger::remote_bytes` over the same interval.
    pub wire_bytes: u64,
}

/// What a loop produced.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// One sample per iteration that ran and verified.
    pub samples: Vec<Sample>,
    /// Iterations started.
    pub attempted: u64,
    /// Iterations that errored or failed verification.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// `ExecMetrics` summed per statement id.
    pub seen: Seen,
}

impl LoopOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, other: LoopOut) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// Machine-wide counters read at an iteration's boundaries in the traced
/// run.
struct Counters {
    remote_bytes: u64,
    remote_msgs: u64,
    coord_recv: u64,
    modeled_ns: f64,
    morsels: u64,
    steals: u64,
    busy: Vec<u64>,
}

impl Counters {
    fn read(db: &PrismaMachine) -> Counters {
        let ledger = db.gdh().ledger();
        let pools = db.gdh().pools().total_stats();
        Counters {
            remote_bytes: ledger.remote_bytes(),
            remote_msgs: ledger.remote_messages(),
            coord_recv: ledger.pe_bytes(COORDINATOR_PE).1,
            modeled_ns: ledger.est_transfer_ns(),
            morsels: pools.morsels,
            steals: pools.steals,
            busy: pools.busy_nanos,
        }
    }

    /// `(key, after − before)` for every counter.
    fn since(&self, before: &Counters) -> Vec<(&'static str, f64)> {
        let busy: Vec<u64> = self
            .busy
            .iter()
            .enumerate()
            .map(|(i, b)| b.saturating_sub(before.busy.get(i).copied().unwrap_or(0)))
            .collect();
        vec![
            (
                "remote_bytes",
                (self.remote_bytes - before.remote_bytes) as f64,
            ),
            (
                "remote_msgs",
                (self.remote_msgs - before.remote_msgs) as f64,
            ),
            (
                "coord_recv_bytes",
                (self.coord_recv - before.coord_recv) as f64,
            ),
            ("modeled_transfer_ns", self.modeled_ns - before.modeled_ns),
            ("pool_morsels", (self.morsels - before.morsels) as f64),
            ("pool_steals", (self.steals - before.steals) as f64),
            ("pool_busy_total_ns", busy.iter().sum::<u64>() as f64),
            (
                "pool_busy_max_ns",
                busy.iter().copied().max().unwrap_or(0) as f64,
            ),
        ]
    }
}

/// Drive the closed loop: one client, the next statement sent when the
/// previous returned. Results are kept until the iteration's timer has
/// stopped and verified then, so checking them costs the client, not the
/// measured machine.
///
/// `own_machines: false` keeps every iteration on `main_db` even for a
/// workload that prepares a machine per iteration — the fault-free
/// reference `gdh.recovery_ms` is measured against.
pub fn drive(
    w: &mut dyn Workload,
    main_db: &PrismaMachine,
    budget: Budget,
    mut traced: Option<&mut Traced<'_>>,
    own_machines: bool,
) -> LoopOut {
    let mut out = LoopOut::default();
    let started = Instant::now();
    loop {
        match budget {
            Budget::Time(d) if started.elapsed() >= d => break,
            Budget::Count(n) if out.attempted >= n => break,
            _ => {}
        }
        out.attempted += 1;
        let own = match if own_machines {
            w.iteration_machine()
        } else {
            Ok(None)
        } {
            Ok(own) => own,
            Err(e) => {
                out.fail(format!("iteration machine: {e}"));
                continue;
            }
        };
        let db = own.as_ref().unwrap_or(main_db);
        let stmts = w.plan();
        let mut outs: Vec<Result<StmtOut, String>> = Vec::with_capacity(stmts.len());
        let ledger = db.gdh().ledger();
        let sample = match traced.as_deref_mut() {
            None => {
                let (bytes0, cpu0, t0) =
                    (ledger.remote_bytes(), sys::process_cpu(), Instant::now());
                for s in &stmts {
                    outs.push(exec::run_plain(db, s));
                }
                Sample {
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    cpu_ns: (sys::process_cpu() - cpu0).as_nanos() as u64,
                    wire_bytes: ledger.remote_bytes() - bytes0,
                }
            }
            Some(t) => {
                t.tracer.set_iteration(out.attempted);
                // Outside the iteration span: the fixed per-query cost,
                // always on the fault-free machine (on `failover` a query
                // here would consume the armed kill).
                let null = Stmt::Query {
                    id: "N0",
                    sql: w.null_query().to_owned(),
                    expect: Expect {
                        rows: 0,
                        checksum: 0,
                        exact: None,
                    },
                };
                let span = t.tracer.open("gdh.null_query", "N0", 0);
                let r = exec::run_plain(main_db, &null);
                t.tracer.close(span);
                if let Err(e) = r.and_then(|o| exec::verify(&null, &o)) {
                    out.fail(e);
                }
                let before = Counters::read(db);
                let (cpu0, t0) = (sys::process_cpu(), Instant::now());
                let root = t.tracer.open("iteration", "", 0);
                for s in &stmts {
                    outs.push(t.run(db, s, root));
                }
                t.tracer.close(root);
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let cpu_ns = (sys::process_cpu() - cpu0).as_nanos() as u64;
                let after = Counters::read(db);
                let wire_bytes = after.remote_bytes - before.remote_bytes;
                for (key, v) in after.since(&before) {
                    t.tracer.count(root, key, v);
                }
                Sample {
                    wall_ns,
                    cpu_ns,
                    wire_bytes,
                }
            }
        };
        let mut ok = true;
        for (s, r) in stmts.iter().zip(outs) {
            match r.and_then(|o| exec::verify(s, &o).map(|()| o)) {
                Ok(o) => add_metrics(out.seen.entry(s.id()).or_default(), &o.metrics),
                Err(e) => {
                    if ok {
                        out.fail(e);
                    }
                    ok = false;
                }
            }
        }
        if ok {
            out.samples.push(sample);
        }
        if let Some(own) = own {
            own.shutdown();
        }
    }
    out
}

/// Boot + load + statistics + oracle verification + warm-up: everything
/// `setup_s` covers. Returns the workload model, its machine, and the
/// seconds it all took.
pub fn set_up(args: &Args) -> Result<(Box<dyn Workload>, PrismaMachine, f64), String> {
    let t0 = Instant::now();
    let scale = Scale { smoke: args.smoke };
    let mut w = workloads::make(args.spec, scale, args.seed);
    let db = w.setup()?;
    let warm = drive(&mut *w, &db, Budget::Count(args.warmup()), None, true);
    if warm.failed > 0 {
        db.shutdown();
        return Err(format!("warm-up failed: {}", warm.errors.join("; ")));
    }
    if let Err(e) = w.check_warmup(&warm.seen) {
        db.shutdown();
        return Err(format!("warm-up does not exercise the workload: {e}"));
    }
    Ok((w, db, t0.elapsed().as_secs_f64()))
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Every iteration verified and the end-of-run invariants held.
    pub correct: bool,
    /// Iterations started in the measured loops.
    pub attempted: u64,
    /// Iterations that errored or failed verification.
    pub failed: u64,
    /// The metrics of this mode, in `spec` order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    /// Samples behind each timing, failure messages, configuration: the
    /// run's echo line (one JSON object).
    pub echo: String,
}

/// The `p`-quantile of the samples' wall times, in ns.
fn wall_percentile(samples: &[Sample], p: f64) -> f64 {
    percentile(
        &sorted(&samples.iter().map(|s| s.wall_ns as f64).collect::<Vec<_>>()),
        p,
    )
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// End-to-end metrics from the untraced samples.
///
/// The iterations are cut into consecutive segments, each timing is
/// computed per segment, and the **quiet quartile** of the segment values
/// is reported: the 25th percentile where lower is better, the 75th for
/// throughput. The sandbox's host slows the guest in bursts of one to
/// five seconds, about a third of the time; a burst only ever makes a
/// segment worse, so the quiet quartile reads the machine between bursts,
/// while a change in the engine moves every segment and so the quartile.
fn end_to_end(
    spec: &WorkloadSpec,
    samples: &[Sample],
    setups: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static MetricSpec, f64)> {
    let quiet = |parts: usize, quantile: f64, f: &dyn Fn(&[Sample]) -> f64| -> f64 {
        let values: Vec<f64> = segments(samples.len(), parts)
            .into_iter()
            .map(|r| f(&samples[r]))
            .collect();
        percentile(&sorted(&values), quantile)
    };
    let count = |seg: &[Sample]| seg.len().max(1) as f64;
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(setups),
            "iter_p50_ms" => quiet(SEGMENTS, 0.25, &|seg| ms(wall_percentile(seg, 0.5))),
            "iter_tail_ms" => quiet(TAIL_SEGMENTS, 0.25, &|seg| {
                ms(wall_percentile(seg, spec.tail))
            }),
            "iters_per_s" => quiet(SEGMENTS, 0.75, &|seg| {
                count(seg) / (seg.iter().map(|s| s.wall_ns).sum::<u64>().max(1) as f64 / 1e9)
            }),
            "cpu_ms_per_iter" => quiet(SEGMENTS, 0.25, &|seg| {
                ms(seg.iter().map(|s| s.cpu_ns).sum::<u64>() as f64) / count(seg)
            }),
            "wire_kb_per_iter" => quiet(SEGMENTS, 0.25, &|seg| {
                seg.iter().map(|s| s.wire_bytes).sum::<u64>() as f64 / count(seg) / 1024.0
            }),
            _ => peak_rss_mb,
        }
    };
    END_TO_END.iter().map(|m| (m, value(m.name))).collect()
}

/// What an empty timed section reads, in µs: a layer the workload never
/// enters is reported as this — the timer's own cost, measured in this
/// run — rather than as a constant.
fn timer_floor_us() -> f64 {
    let reads: Vec<f64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    us(midmean(&reads))
}

/// Per-layer metrics from the traced loop, the replay, and the untraced
/// loop of the same run.
fn per_layer(
    tracer: &Tracer,
    replay: &probe::Replay,
    untraced: &[Sample],
    traced: &[Sample],
    reference_ns: f64,
    fragments: f64,
) -> Vec<(&'static MetricSpec, f64)> {
    let floor = timer_floor_us();
    let entered_us = |name: &str| {
        tracer
            .spans
            .iter()
            .any(|s| s.name == name)
            .then(|| us(midmean(&tracer.per_iteration(name, |s| s.dur_ns() as f64))))
    };
    let span_us = |name: &str| entered_us(name).unwrap_or(floor);
    let counts = |span: &str, key: &str| {
        tracer.per_iteration(span, |s| {
            s.counts
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .sum()
        })
    };
    let count_of = |span: &str, key: &str| mean(&counts(span, key));
    let (plain_p50, traced_p50) = (wall_percentile(untraced, 0.5), wall_percentile(traced, 0.5));
    let scanned = count_of("gdh.query", "chunks_scanned");
    let pruned = count_of("gdh.query", "chunks_pruned");
    // What the outside view explains of one iteration. Queries stream, so
    // fragments and coordinator overlap and the longer of the two blocks:
    // per wave of fragments the replayed scan, encode, join and partition
    // work of one fragment, against the coordinator's decode, reassembly
    // and merge of every fragment's stream. DML does not overlap: the
    // fragment's work, then the backup's apply and the log append. Four
    // fragments on two cores run in two waves; one fragment is replayed
    // and stands for each wave.
    let waves = (fragments / sys::host_cores() as f64).ceil().max(1.0);
    let front_us: f64 = [
        "sqlfe.compile",
        "optimizer.optimize",
        "optimizer.lower_physical",
        "prismalog.compile",
        "prismalog.seminaive",
    ]
    .iter()
    .filter_map(|n| entered_us(n))
    .sum();
    let sum_replayed = |names: &[&str]| -> f64 { names.iter().filter_map(|n| replay.get(n)).sum() };
    let fragment_query_us = waves
        * sum_replayed(&[
            "ofm.open_physical_us",
            "types.wire_encode_us",
            "relalg.hash_join_us",
            "relalg.partition_us",
        ]);
    let coordinator_query_us = fragments
        * sum_replayed(&[
            "types.wire_decode_us",
            "multicomputer.reassembly_us",
            "relalg.merge_us",
        ]);
    let dml_us = waves
        * sum_replayed(&[
            "ofm.seal_us",
            "ofm.insert_us",
            "ofm.update_where_us",
            "ofm.delete_where_us",
            "ofm.prepare_commit_us",
        ])
        + sum_replayed(&["stable.wal_append_us", "ofm.replica_apply_us"]);
    let accounted_us = front_us + fragment_query_us.max(coordinator_query_us) + dml_us;
    let value = |m: &MetricSpec| -> f64 {
        match m.name {
            "sqlfe.compile_us" => span_us("sqlfe.compile"),
            "optimizer.optimize_us" => span_us("optimizer.optimize"),
            "optimizer.lower_physical_us" => span_us("optimizer.lower_physical"),
            "prismalog.compile_us" => span_us("prismalog.compile"),
            "prismalog.seminaive_us" => span_us("prismalog.seminaive"),
            "gdh.query_us" => span_us("gdh.query"),
            "gdh.first_batch_us" => midmean(&counts("gdh.query", "first_batch_us")),
            "gdh.null_query_us" => span_us("gdh.null_query"),
            "gdh.dml_us" => span_us("gdh.dml"),
            "gdh.commit_us" => span_us("gdh.commit"),
            "gdh.fragment_tasks" => count_of("gdh.query", "fragment_tasks"),
            "gdh.batches_shipped" => count_of("gdh.query", "batches_shipped"),
            "gdh.tuples_shipped" => count_of("gdh.query", "tuples_shipped"),
            "gdh.shuffled_direct_kb" => count_of("gdh.query", "shuffled_direct_bits") / 8192.0,
            "gdh.max_site_shuffled_kb" => count_of("gdh.query", "max_site_shuffled_bits") / 8192.0,
            "gdh.recovery_ms" => ms(plain_p50 - reference_ns),
            "gdh.failovers" => count_of("gdh.query", "failovers"),
            "gdh.streams_rerequested" => count_of("gdh.query", "streams_rerequested"),
            "ofm.chunks_scanned" => scanned,
            "ofm.chunks_pruned" => pruned,
            "ofm.prune_ratio" => pruned / (scanned + pruned).max(1.0),
            "multicomputer.remote_kb" => count_of("iteration", "remote_bytes") / 1024.0,
            "multicomputer.remote_msgs" => count_of("iteration", "remote_msgs"),
            "multicomputer.coord_recv_kb" => count_of("iteration", "coord_recv_bytes") / 1024.0,
            "multicomputer.modeled_transfer_ms" => ms(count_of("iteration", "modeled_transfer_ns")),
            "poolx.morsels" => count_of("iteration", "pool_morsels"),
            "poolx.steals" => count_of("iteration", "pool_steals"),
            "poolx.busy_total_us" => us(midmean(&counts("iteration", "pool_busy_total_ns"))),
            "poolx.busy_max_us" => us(midmean(&counts("iteration", "pool_busy_max_ns"))),
            "trace.overhead_share" => (traced_p50 - plain_p50) / plain_p50.max(1.0),
            "trace.accounted_share" => accounted_us * 1e3 / plain_p50.max(1.0),
            replayed => replay
                .get(replayed)
                .unwrap_or(if m.unit == "us" { floor } else { 0.0 }),
        }
    };
    PER_LAYER.iter().map(|m| (m, value(m))).collect()
}

/// Where the traced run writes its spans: under the Cargo target
/// directory — the one named in the environment (the benchmark driver
/// sets `CARGO_TARGET_DIR`, relative to the checkout it runs from), else
/// the package's own `target/`. Both are inside the checkout and ignored
/// by git.
fn spans_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        std::path::PathBuf::from,
    );
    target.join("e0").join(format!("{workload}.spans.jsonl"))
}

/// Run the workload once and report.
pub fn run(args: &Args) -> Result<Report, String> {
    let (mut w, db, first_setup) = set_up(args)?;
    let cfg = w.config();
    let physical = w.physical();
    let mut total = LoopOut::default();
    let mut spans_written = String::new();
    let samples_note;
    let metrics = if args.trace {
        // Reference for `gdh.recovery_ms`: the same statements on the
        // fault-free machine, as the warm-up ran them.
        let reference = drive(
            &mut *w,
            &db,
            Budget::Count(REFERENCE_ITERATIONS),
            None,
            false,
        );
        let plain = drive(&mut *w, &db, args.budget(0.4), None, true);
        let mut tracer = Tracer::default();
        let traced = drive(
            &mut *w,
            &db,
            args.budget(0.4),
            Some(&mut Traced {
                tracer: &mut tracer,
                physical,
            }),
            true,
        );
        let reference_ns = wall_percentile(&reference.samples, 0.5);
        let finish = w.finish(&db);
        let replay = match probe::replay(&mut *w, &db, physical, args.budget(0.2)) {
            Ok(r) => r,
            Err(e) => {
                total.fail(format!("replay: {e}"));
                probe::Replay::default()
            }
        };
        let fragments = probe::fragments_of(&db, w.base());
        let metrics = per_layer(
            &tracer,
            &replay,
            &plain.samples,
            &traced.samples,
            reference_ns,
            fragments,
        );
        let path = spans_path(args.spec.name);
        match tracer.write_jsonl(&path) {
            Ok(()) => spans_written = path.display().to_string(),
            Err(e) => total.fail(format!("writing {}: {e}", path.display())),
        }
        samples_note = format!(
            "\"untraced_iterations\": {}, \"traced_iterations\": {}, \"replay_rounds\": {}, \"spans\": {}",
            plain.samples.len(),
            traced.samples.len(),
            replay.rounds,
            tracer.spans.len()
        );
        total.absorb(reference);
        total.absorb(plain);
        total.absorb(traced);
        if let Err(e) = finish {
            total.fail(format!("end-of-run invariant: {e}"));
        }
        db.shutdown();
        metrics
    } else {
        let plain = drive(&mut *w, &db, args.budget(1.0), None, true);
        if let Err(e) = w.finish(&db) {
            total.fail(format!("end-of-run invariant: {e}"));
        }
        let peak_rss_mb = sys::peak_rss_mb();
        db.shutdown();
        drop(db);
        drop(w);
        // Set up again, only to time it: `setup_s` is the median.
        let mut setups = vec![first_setup];
        while !args.smoke && setups.len() < SETUPS {
            let (_w, db, secs) = set_up(args)?;
            db.shutdown();
            setups.push(secs);
        }
        let n = plain.samples.len();
        samples_note = format!(
            "\"iterations\": {n}, \"segments\": {}, \"tail_percentile\": {}, \"tail_segments\": {}, \"samples_per_tail_segment\": {}, \"setups\": {}",
            SEGMENTS.min(n.max(1)),
            args.spec.tail,
            TAIL_SEGMENTS.min(n.max(1)),
            n / TAIL_SEGMENTS.min(n.max(1)),
            setups.len()
        );
        let metrics = end_to_end(args.spec, &plain.samples, &setups, peak_rss_mb);
        total.absorb(plain);
        metrics
    };
    let errors: Vec<String> = total
        .errors
        .iter()
        .map(|e| format!("\"{}\"", crate::json::esc(e)))
        .collect();
    let echo = format!(
        "{{\"e0\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"host_cores\": {}, \"git\": \"{}\", \"warmup_iterations\": {}, {}, \"spans_file\": \"{}\", \"errors\": [{}], \"config\": {}}}}}",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        sys::host_cores(),
        crate::json::esc(&sys::git_revision()),
        args.warmup(),
        samples_note,
        crate::json::esc(&spans_written),
        errors.join(", "),
        crate::machine::config_json(&cfg, &physical),
    );
    Ok(Report {
        correct: total.failed == 0 && total.attempted > 0,
        attempted: total.attempted.max(1),
        failed: total.failed,
        metrics,
        echo,
    })
}

impl Report {
    /// The run's last line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
