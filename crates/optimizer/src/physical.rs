//! Physical lowering: the optimizer's parallelism rule family made
//! concrete (paper §2.4: "applying parallelism to minimize response
//! time").
//!
//! Lowers an optimized [`LogicalPlan`] to a [`PhysicalPlan`] and makes the
//! two physical choices the distributed executor consumes:
//!
//! 1. **Join distribution** — per equi-join, broadcast the small side when
//!    its estimated cardinality is at most
//!    [`PhysicalConfig::broadcast_max_rows`], otherwise hash-partition
//!    both sides (grace join). Estimates come from the size-estimation
//!    rule family in [`crate::cardinality`]. The threshold is
//!    **skew-adjusted**: a heavily-repeated join key concentrates one
//!    hash bucket, so partitioning buys less balance than the uniform
//!    model assumes — the broadcast cutoff is raised in proportion to the
//!    heaviest key's share of the rows (known from the per-fragment
//!    most-common-value statistics).
//! 2. **Projection fusion** — a pure column projection directly above a
//!    scan is folded into the scan, so fragments ship only the columns
//!    the query needs (fewer 256-bit packets on the interconnect).
//! 3. **Shuffle placement** — each partitioned join's buckets are
//!    assigned to phase-2 site fragments. With per-fragment statistics
//!    available, buckets are **weight-balanced**: the most-common join
//!    keys of both sides are mapped through the executor's own bucket
//!    hash to estimate per-bucket row weight, and buckets go greedily to
//!    the least-loaded site (initial load = the site fragment's own
//!    resident rows). Without statistics — or with
//!    [`PhysicalConfig::skew_aware_placement`] off — placement falls back
//!    to round-robin over the probe side's fragments.
//!
//! Every choice is recorded in the explain [`Trace`], along with
//! per-operator cardinality estimates and the freshness
//! (fresh/stale/absent) of the statistics each decision consumed.

use prisma_relalg::{lower_with, JoinStrategy, LogicalPlan, PhysicalPlan, ShufflePlacement};
use prisma_storage::expr::ScalarExpr;
use prisma_types::{FragmentId, Result};

use crate::cardinality::{base_column, estimate_rows};
use crate::stats::StatsSource;
use crate::Trace;

/// How strongly join-key skew raises the broadcast cutoff: the effective
/// threshold is `broadcast_max_rows * (1 + SKEW_BROADCAST_BOOST * f)`
/// where `f` is the heaviest key's fraction of its side's rows.
const SKEW_BROADCAST_BOOST: f64 = 4.0;

/// Tunables for the physical lowering.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalConfig {
    /// Broadcast a join side when its estimated row count is at most
    /// this; otherwise partition both sides.
    pub broadcast_max_rows: f64,
    /// Bucket count for partitioned-join shuffles (None = one bucket per
    /// fragment of the larger side). Exposed so experiments and tests
    /// can force bucket-count/fragment-count mismatches.
    pub shuffle_parts: Option<usize>,
    /// Weight-balance shuffle buckets over sites using the join key's
    /// most-common values and per-fragment loads (true, the default).
    /// `false` keeps the probe-side round-robin placement — the E8
    /// baseline.
    pub skew_aware_placement: bool,
}

impl Default for PhysicalConfig {
    fn default() -> Self {
        PhysicalConfig {
            // One batch per fragment is cheap to copy everywhere; beyond
            // that, repartitioning moves each tuple once instead of
            // |fragments| times.
            broadcast_max_rows: 1024.0,
            shuffle_parts: None,
            skew_aware_placement: true,
        }
    }
}

/// Lower an optimized logical plan to its physical form, choosing join
/// strategies from cardinality estimates and fusing projections into
/// scans.
pub fn lower_physical(
    plan: &LogicalPlan,
    stats: &dyn StatsSource,
    config: PhysicalConfig,
    trace: &mut Trace,
) -> Result<PhysicalPlan> {
    let mut strategy_notes: Vec<String> = Vec::new();
    let mut skew_notes: Vec<String> = Vec::new();
    let physical = lower_with(plan, &mut |join| {
        let LogicalPlan::Join { left, right, .. } = join else {
            return JoinStrategy::Broadcast;
        };
        let l = estimate_rows(left, stats);
        let r = estimate_rows(right, stats);
        // A repeated join key concentrates one hash bucket, so a grace
        // join's balance benefit shrinks with skew — raise the broadcast
        // cutoff in proportion to the heaviest key's row share.
        let skew = join_key_skew(join, stats);
        let threshold = config.broadcast_max_rows * (1.0 + SKEW_BROADCAST_BOOST * skew);
        let strategy = if l.min(r) <= threshold {
            JoinStrategy::Broadcast
        } else {
            JoinStrategy::Partitioned
        };
        if skew > 0.0 && l.min(r) > config.broadcast_max_rows && l.min(r) <= threshold {
            skew_notes.push(format!(
                "heaviest join key holds {:.0}% of its side's rows; broadcast \
                 threshold raised {:.0} → {threshold:.0}",
                skew * 100.0,
                config.broadcast_max_rows,
            ));
        }
        strategy_notes.push(format!("{strategy} (est left={l:.0}, right={r:.0})"));
        strategy
    })?;
    for note in strategy_notes {
        trace.note("physical-join-strategy", note);
    }
    for note in skew_notes {
        trace.note("physical-join-skew", note);
    }
    let physical = fuse_projections(physical, trace);
    let mut physical = place_shuffles(physical, stats, config, trace);
    physical.push_prune_hints();
    if trace.enabled() {
        note_prune_hints(&physical, trace);
    }
    if trace.enabled() {
        // The annotation walks exist for EXPLAIN's reader; the
        // executor's per-query lowering passes a sink trace and skips
        // them (note_cardinalities re-estimates every subtree — O(n²)
        // in plan size — which is fine for a debug surface, not for the
        // hot path).
        note_vectorized(&physical, trace);
        note_exchanges(&physical, stats, ScanDest::Coordinator, trace);
        note_stats_sources(plan, stats, trace);
        note_cardinalities(plan, stats, trace);
    }
    Ok(physical)
}

/// The heaviest join-key value's share of its side's rows, over every
/// key pair of the join (0 when no side's key column has most-common
/// value statistics). Both sides matter: either one's heavy hitter
/// concentrates the same hash bucket.
fn join_key_skew(join: &LogicalPlan, stats: &dyn StatsSource) -> f64 {
    let LogicalPlan::Join {
        left, right, on, ..
    } = join
    else {
        return 0.0;
    };
    let mut skew = 0.0f64;
    for &(lc, rc) in on {
        for (side, col) in [(&**left, lc), (&**right, rc)] {
            let Some((rel, base)) = base_column(side, col) else {
                continue;
            };
            let Some(ts) = stats.table_stats(rel) else {
                continue;
            };
            if ts.rows > 0 {
                if let Some((_, c)) = ts.mcv_of(base).first() {
                    skew = skew.max(*c as f64 / ts.rows as f64);
                }
            }
        }
    }
    skew.clamp(0.0, 1.0)
}

/// Record the statistics provenance of every base relation the plan
/// scans: freshness (fresh/stale/absent) and how many columns carry
/// histograms — so EXPLAIN names the stats that fed each decision.
fn note_stats_sources(plan: &LogicalPlan, stats: &dyn StatsSource, trace: &mut Trace) {
    let mut seen = std::collections::BTreeSet::new();
    for rel in plan.scanned_relations() {
        if rel.starts_with("__") || rel.starts_with('Δ') || !seen.insert(rel.clone()) {
            continue;
        }
        let freshness = stats.stats_freshness(&rel);
        let detail = match stats.table_stats(&rel) {
            Some(ts) => {
                let with_hist = ts.hist.iter().filter(|h| h.is_some()).count();
                format!(
                    "{rel}: {freshness} ({} row(s), {with_hist}/{} column histogram(s))",
                    ts.rows,
                    ts.hist.len().max(ts.distinct.len()),
                )
            }
            None => format!("{rel}: {freshness} (estimates run on defaults)"),
        };
        trace.note("stats-source", detail);
    }
}

/// Record the estimated output cardinality of every operator, bottom-up
/// — the `est=` half of EXPLAIN's estimated-vs-actual view (EXPLAIN
/// ANALYZE fills in the actuals).
fn note_cardinalities(plan: &LogicalPlan, stats: &dyn StatsSource, trace: &mut Trace) {
    for child in plan.children() {
        note_cardinalities(child, stats, trace);
    }
    trace.note(
        "physical-cardinality",
        format!(
            "{}: est {:.0} row(s)",
            op_label(plan),
            estimate_rows(plan, stats)
        ),
    );
}

/// Short operator label for cardinality notes (also used by EXPLAIN
/// ANALYZE's estimated-vs-actual section).
pub fn op_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { relation, .. } => format!("Scan({relation})"),
        LogicalPlan::Values { .. } => "Values".into(),
        LogicalPlan::Select { .. } => "Select".into(),
        LogicalPlan::Project { .. } => "Project".into(),
        LogicalPlan::Join { kind, .. } => format!("Join[{kind:?}]"),
        LogicalPlan::Union { .. } => "Union".into(),
        LogicalPlan::Difference { .. } => "Difference".into(),
        LogicalPlan::Distinct { .. } => "Distinct".into(),
        LogicalPlan::Aggregate { .. } => "Aggregate".into(),
        LogicalPlan::Sort { .. } => "Sort".into(),
        LogicalPlan::Limit { .. } => "Limit".into(),
        LogicalPlan::Closure { .. } => "Closure".into(),
        LogicalPlan::Fixpoint { name, .. } => format!("Fixpoint({name})"),
    }
}

/// The base relation a shippable join side scans, when the side is a
/// single-relation operator chain (the only shape the parallel executor
/// runs as a grace join).
fn scanned_base_relation(plan: &PhysicalPlan) -> Option<&str> {
    match plan {
        PhysicalPlan::SeqScan { relation, .. } => {
            (!relation.starts_with("__") && !relation.starts_with('Δ'))
                .then_some(relation.as_str())
        }
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            scanned_base_relation(input)
        }
        _ => None,
    }
}

/// Emit the shuffle placement map for every partitioned join whose sides
/// scan known-fragmented base relations: bucket `j` of both sides is
/// joined at a fragment of the **left** (probe) relation, chosen
/// round-robin, so phase-1 streams address their chunks straight at the
/// phase-2 site actors instead of relaying through the coordinator.
/// Bucket count defaults to the larger side's fragment count
/// ([`PhysicalConfig::shuffle_parts`] overrides).
fn place_shuffles(
    plan: PhysicalPlan,
    stats: &dyn StatsSource,
    config: PhysicalConfig,
    trace: &mut Trace,
) -> PhysicalPlan {
    match plan {
        PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            on,
            residual,
            strategy: JoinStrategy::Partitioned,
            placement: None,
        } => {
            let left = Box::new(place_shuffles(*left, stats, config, trace));
            let right = Box::new(place_shuffles(*right, stats, config, trace));
            let placement = match (
                scanned_base_relation(&left).and_then(|r| stats.fragmentation(r)),
                scanned_base_relation(&right).and_then(|r| stats.fragmentation(r)),
            ) {
                (Some(lfrags), Some(rfrags)) if !lfrags.is_empty() => {
                    let parts = config
                        .shuffle_parts
                        .unwrap_or_else(|| lfrags.len().max(rfrags.len()))
                        .max(1);
                    let lrel = scanned_base_relation(&left).expect("checked above");
                    let weighted = if config.skew_aware_placement {
                        weighted_placement(&left, &right, &on, parts, &lfrags, lrel, stats)
                    } else {
                        None
                    };
                    let p = match weighted {
                        Some((p, max_bucket, max_site)) => {
                            trace.note(
                                "physical-shuffle-placement",
                                format!(
                                    "{} bucket(s) skew-weighted over {} site(s) of {lrel} \
                                     (max bucket est {max_bucket:.0} row(s), max site est \
                                     {max_site:.0})",
                                    p.parts,
                                    lfrags.len().min(p.parts),
                                ),
                            );
                            p
                        }
                        None => {
                            let p = ShufflePlacement::round_robin(parts, &lfrags);
                            trace.note(
                                "physical-shuffle-placement",
                                format!(
                                    "{} bucket(s) over {} site(s) of {lrel}",
                                    p.parts,
                                    lfrags.len().min(p.parts),
                                ),
                            );
                            p
                        }
                    };
                    Some(p)
                }
                _ => None,
            };
            PhysicalPlan::HashJoin {
                left,
                right,
                kind,
                on,
                residual,
                strategy: JoinStrategy::Partitioned,
                placement,
            }
        }
        other => map_children(other, &mut |c| place_shuffles(c, stats, config, trace)),
    }
}

/// Trace a physical side plan's output column back to its base-relation
/// column through Filter/Project/projecting-scan chains — the shapes the
/// parallel executor ships as grace-join sides.
fn physical_base_column(plan: &PhysicalPlan, col: usize) -> Option<(&str, usize)> {
    match plan {
        PhysicalPlan::SeqScan {
            relation,
            projection,
            ..
        } => {
            let base = match projection {
                Some(cols) => *cols.get(col)?,
                None => col,
            };
            (!relation.starts_with("__") && !relation.starts_with('Δ'))
                .then_some((relation.as_str(), base))
        }
        PhysicalPlan::Filter { input, .. } => physical_base_column(input, col),
        PhysicalPlan::Project { input, exprs, .. } => match exprs.get(col)? {
            ScalarExpr::Col(i) => physical_base_column(input, *i),
            _ => None,
        },
        _ => None,
    }
}

/// Weight-balanced shuffle placement: estimate each bucket's row weight
/// from both sides' most-common join-key values (mapped through the
/// executor's own [`prisma_relalg::exec::key_hash`] bucketing, so the
/// estimate and the runtime agree on where each value lands) plus a
/// uniform share for the remaining rows, then assign buckets greedily —
/// heaviest first — to the least-loaded probe-side fragment, seeding
/// each site's load with its resident rows (the per-PE load signal).
///
/// Returns `None` — and the caller falls back to round-robin — when the
/// join key is multi-column (per-column MCVs cannot predict the joint
/// hash) or when neither side's key column has most-common-value
/// statistics (the weights would be flat and the greedy pass would
/// reproduce round-robin anyway).
fn weighted_placement(
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    on: &[(usize, usize)],
    parts: usize,
    lfrags: &[FragmentId],
    lrel: &str,
    stats: &dyn StatsSource,
) -> Option<(ShufflePlacement, f64, f64)> {
    let &[(lc, rc)] = on else {
        return None;
    };
    let mut weights = vec![0.0f64; parts];
    let mut any_mcv = false;
    for (side, col) in [(left, lc), (right, rc)] {
        let Some((rel, base)) = physical_base_column(side, col) else {
            continue;
        };
        let Some(ts) = stats.table_stats(rel) else {
            continue;
        };
        let mcv = ts.mcv_of(base);
        if mcv.is_empty() {
            for w in weights.iter_mut() {
                *w += ts.rows as f64 / parts as f64;
            }
            continue;
        }
        any_mcv = true;
        let mcv_rows: u64 = mcv.iter().map(|&(_, c)| c).sum();
        let rest = ts.rows.saturating_sub(mcv_rows) as f64 / parts as f64;
        for w in weights.iter_mut() {
            *w += rest;
        }
        for (v, c) in mcv {
            let j = (prisma_relalg::exec::key_hash(std::slice::from_ref(v))
                % parts as u64) as usize;
            weights[j] += *c as f64;
        }
    }
    if !any_mcv {
        return None;
    }
    // Seed each site with its resident rows, so a fragment already
    // holding more data attracts fewer buckets. `fragment_rows` (not
    // `fragment_stats`): only the counts matter here, and this runs per
    // partitioned join per query — cloning every fragment's histograms
    // and MCV lists for one u64 apiece was measurable in E8.
    let mut loads: Vec<f64> = match stats.fragment_rows(lrel) {
        Some(fs) => lfrags
            .iter()
            .map(|fid| {
                fs.iter()
                    .find(|(id, _)| id == fid)
                    .map_or(0.0, |&(_, rows)| rows as f64)
            })
            .collect(),
        None => vec![0.0; lfrags.len()],
    };
    let mut order: Vec<usize> = (0..parts).collect();
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut sites = vec![lfrags[0]; parts];
    for j in order {
        let (s, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .expect("at least one site");
        sites[j] = lfrags[s];
        loads[s] += weights[j];
    }
    let max_bucket = weights.iter().copied().fold(0.0f64, f64::max);
    let max_site = loads.iter().copied().fold(0.0f64, f64::max);
    Some((ShufflePlacement { parts, sites }, max_bucket, max_site))
}

/// Rebuild one node with `f` applied to each child (structure-preserving
/// recursion helper for physical-plan passes).
fn map_children(
    plan: PhysicalPlan,
    f: &mut impl FnMut(PhysicalPlan) -> PhysicalPlan,
) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            on,
            residual,
            strategy,
            placement,
        } => PhysicalPlan::HashJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            on,
            residual,
            strategy,
            placement,
        },
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind,
            residual,
        } => PhysicalPlan::NestedLoopJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            residual,
        },
        PhysicalPlan::Union { left, right, all } => PhysicalPlan::Union {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            all,
        },
        PhysicalPlan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        PhysicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: Box::new(f(*input)),
        },
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
        },
        PhysicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        PhysicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(f(*input)),
            n,
        },
        PhysicalPlan::Closure { input, seed } => PhysicalPlan::Closure {
            input: Box::new(f(*input)),
            seed,
        },
        PhysicalPlan::Fixpoint { name, base, step } => PhysicalPlan::Fixpoint {
            name,
            base: Box::new(f(*base)),
            step: Box::new(f(*step)),
        },
        leaf @ (PhysicalPlan::SeqScan { .. } | PhysicalPlan::Values { .. }) => leaf,
    }
}

/// Where a base-relation scan's output goes first.
#[derive(Clone, Copy)]
enum ScanDest {
    /// Batches stream to the coordinator (plain scans, both sides of a
    /// broadcast join).
    Coordinator,
    /// Buckets stream to the phase-2 sites of the enclosing grace join.
    Site,
}

/// Record in the EXPLAIN trace how each exchange ships its data.
/// Base-relation scans and grace-join repartitioning **stream** — one
/// `BatchChunk`/`ShuffleChunk` message per produced batch, merged while
/// fragments still scan — while a broadcast join's build side is the one
/// remaining **materialized** exchange (it must be complete before it is
/// copied to every fragment). `dest` is where the enclosing operator
/// sends a scan's output; a decomposable aggregate the executor runs
/// below the exchange is noted with the place its partials are computed.
fn note_exchanges(plan: &PhysicalPlan, stats: &dyn StatsSource, dest: ScanDest, trace: &mut Trace) {
    match plan {
        PhysicalPlan::SeqScan { relation, .. } if !relation.starts_with("__") => {
            let ships = match dest {
                ScanDest::Coordinator => "streams batches fragment→coordinator",
                ScanDest::Site => "streams buckets fragment→site",
            };
            trace.note("physical-exchange", format!("scan {relation}: {ships}"));
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            strategy,
            ..
        } => {
            match strategy {
                JoinStrategy::Partitioned => trace.note(
                    "physical-exchange",
                    "partitioned join: both sides stream buckets per-batch, \
                     addressed fragment→fragment at the phase-2 sites"
                        .to_owned(),
                ),
                JoinStrategy::Broadcast => trace.note(
                    "physical-exchange",
                    "broadcast join: build side materialized, probe side streams".to_owned(),
                ),
            }
            let dest = if shuffles(plan) {
                ScanDest::Site
            } else {
                ScanDest::Coordinator
            };
            note_exchanges(left, stats, dest, trace);
            note_exchanges(right, stats, dest, trace);
        }
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            note_exchanges(input, stats, dest, trace)
        }
        PhysicalPlan::HashAggregate { input, aggs, .. } => {
            if aggs.iter().all(|a| a.func.decomposable()) {
                if let Some(place) = partial_aggregate_place(input, stats) {
                    trace.note(
                        "physical-exchange",
                        format!("partial aggregate at {place}, merged at the coordinator"),
                    );
                }
            }
            note_exchanges(input, stats, ScanDest::Coordinator, trace);
        }
        _ => {
            for child in plan.children() {
                note_exchanges(child, stats, ScanDest::Coordinator, trace);
            }
        }
    }
}

/// Whether the executor runs this join as a direct-shuffle grace join: an
/// inner partitioned hash join whose sides are both single-relation
/// chains (anything else broadcasts or joins at the coordinator).
fn shuffles(join: &PhysicalPlan) -> bool {
    matches!(
        join,
        PhysicalPlan::HashJoin {
            left,
            right,
            kind: prisma_relalg::JoinKind::Inner,
            strategy: JoinStrategy::Partitioned,
            ..
        } if scanned_base_relation(left).is_some() && scanned_base_relation(right).is_some()
    )
}

/// Where the executor computes the partials of a decomposable aggregate
/// over `input`, when it runs them below the exchange: at every fragment
/// of a single-relation chain; over a Filter/Project chain on an inner
/// join, at the grace join's phase-2 sites or at the fragments a
/// broadcast join probes.
fn partial_aggregate_place(input: &PhysicalPlan, stats: &dyn StatsSource) -> Option<String> {
    let fragments_of = |rel: &str| match stats.fragmentation(rel) {
        Some(frags) => format!("{} fragment(s) of {rel}", frags.len()),
        None => format!("the fragments of {rel}"),
    };
    if let Some(rel) = scanned_base_relation(input) {
        return Some(fragments_of(rel));
    }
    match input {
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            partial_aggregate_place(input, stats)
        }
        PhysicalPlan::HashJoin { placement, .. } if shuffles(input) => Some(match placement {
            Some(p) => format!("{} site(s)", p.by_site().len()),
            None => "the shuffle sites".to_owned(),
        }),
        PhysicalPlan::HashJoin {
            left,
            right,
            kind: prisma_relalg::JoinKind::Inner,
            ..
        }
        | PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind: prisma_relalg::JoinKind::Inner,
            ..
        } => scanned_base_relation(left)
            .or_else(|| scanned_base_relation(right))
            .map(fragments_of),
        _ => None,
    }
}

/// Record in the EXPLAIN trace which operators will evaluate their
/// expressions through the vectorized (column-at-a-time) kernels: every
/// Filter predicate and every non-fused Project in the physical plan.
fn note_vectorized(plan: &PhysicalPlan, trace: &mut Trace) {
    match plan {
        PhysicalPlan::Filter { input, predicate } => {
            trace.note("physical-vectorized-eval", format!("filter {predicate}"));
            note_vectorized(input, trace);
        }
        PhysicalPlan::Project { input, exprs, .. } => {
            let shown: Vec<String> = exprs.iter().map(ToString::to_string).collect();
            trace.note(
                "physical-vectorized-eval",
                format!("project [{}]", shown.join(", ")),
            );
            note_vectorized(input, trace);
        }
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. }
        | PhysicalPlan::Union { left, right, .. }
        | PhysicalPlan::Difference { left, right } => {
            note_vectorized(left, trace);
            note_vectorized(right, trace);
        }
        PhysicalPlan::Distinct { input }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Closure { input, .. } => note_vectorized(input, trace),
        PhysicalPlan::Fixpoint { base, step, .. } => {
            note_vectorized(base, trace);
            note_vectorized(step, trace);
        }
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::Values { .. } => {}
    }
}

/// Record in the EXPLAIN trace which scans carry a zone-map prune hint
/// (the filter predicate copied down by
/// [`PhysicalPlan::push_prune_hints`]): sealed chunks whose zone maps
/// refute the hint are skipped whole at scan open.
fn note_prune_hints(plan: &PhysicalPlan, trace: &mut Trace) {
    if let PhysicalPlan::SeqScan {
        relation,
        prune: Some(p),
        ..
    } = plan
    {
        trace.note("physical-zone-prune", format!("{relation} prune {p}"));
    }
    for c in plan.children() {
        note_prune_hints(c, trace);
    }
}

/// Fold `Project [Col…] → SeqScan` pairs into projecting scans. Only
/// pure column projections whose output schema matches the scan schema's
/// projection are fused — expression evaluation and renaming stay as
/// explicit operators.
fn fuse_projections(plan: PhysicalPlan, trace: &mut Trace) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let input = fuse_projections(*input, trace);
            if let PhysicalPlan::SeqScan {
                relation,
                schema: base,
                projection: None,
                prune,
            } = &input
            {
                let cols: Option<Vec<usize>> = exprs
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Col(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if let Some(cols) = cols {
                    if base.project(&cols) == schema {
                        trace.note(
                            "physical-scan-projection",
                            format!("{relation} cols={cols:?}"),
                        );
                        return PhysicalPlan::SeqScan {
                            relation: relation.clone(),
                            schema: base.clone(),
                            projection: Some(cols),
                            prune: prune.clone(),
                        };
                    }
                }
            }
            PhysicalPlan::Project {
                input: Box::new(input),
                exprs,
                schema,
            }
        }
        PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(fuse_projections(*input, trace)),
            predicate,
        },
        PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            on,
            residual,
            strategy,
            placement,
        } => PhysicalPlan::HashJoin {
            left: Box::new(fuse_projections(*left, trace)),
            right: Box::new(fuse_projections(*right, trace)),
            kind,
            on,
            residual,
            strategy,
            placement,
        },
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind,
            residual,
        } => PhysicalPlan::NestedLoopJoin {
            left: Box::new(fuse_projections(*left, trace)),
            right: Box::new(fuse_projections(*right, trace)),
            kind,
            residual,
        },
        PhysicalPlan::Union { left, right, all } => PhysicalPlan::Union {
            left: Box::new(fuse_projections(*left, trace)),
            right: Box::new(fuse_projections(*right, trace)),
            all,
        },
        PhysicalPlan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(fuse_projections(*left, trace)),
            right: Box::new(fuse_projections(*right, trace)),
        },
        PhysicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: Box::new(fuse_projections(*input, trace)),
        },
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(fuse_projections(*input, trace)),
            group_by,
            aggs,
        },
        PhysicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(fuse_projections(*input, trace)),
            keys,
        },
        PhysicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(fuse_projections(*input, trace)),
            n,
        },
        PhysicalPlan::Closure { input, seed } => PhysicalPlan::Closure {
            input: Box::new(fuse_projections(*input, trace)),
            seed,
        },
        PhysicalPlan::Fixpoint { name, base, step } => PhysicalPlan::Fixpoint {
            name,
            base: Box::new(fuse_projections(*base, trace)),
            step: Box::new(fuse_projections(*step, trace)),
        },
        leaf @ (PhysicalPlan::SeqScan { .. } | PhysicalPlan::Values { .. }) => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;
    use prisma_types::{Column, DataType, Schema};
    use std::collections::HashMap;

    fn schema2() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ])
    }

    fn stats() -> HashMap<String, TableStats> {
        let mut m = HashMap::new();
        for (name, rows) in [("big", 100_000u64), ("huge", 50_000), ("small", 40)] {
            m.insert(
                name.to_owned(),
                TableStats {
                    rows,
                    distinct: vec![rows, rows / 10],
                    min: vec![None, None],
                    max: vec![None, None],
                    ..TableStats::default()
                },
            );
        }
        m
    }

    #[test]
    fn small_side_broadcasts_large_sides_partition() {
        let s = stats();
        let small_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("small", schema2()), vec![(1, 0)]);
        let mut trace = Trace::default();
        let phys =
            lower_physical(&small_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert!(matches!(
            phys,
            PhysicalPlan::HashJoin {
                strategy: JoinStrategy::Broadcast,
                ..
            }
        ));

        let big_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let phys = lower_physical(&big_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert!(matches!(
            phys,
            PhysicalPlan::HashJoin {
                strategy: JoinStrategy::Partitioned,
                ..
            }
        ));
        assert!(trace.count_of("physical-join-strategy") == 2, "{:?}", trace.fired);
    }

    #[test]
    fn pure_column_projection_fuses_into_scan() {
        let s = stats();
        let plan = LogicalPlan::scan("big", schema2()).project_cols(&[1]).unwrap();
        let mut trace = Trace::default();
        let phys = lower_physical(&plan, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert!(matches!(
            &phys,
            PhysicalPlan::SeqScan {
                projection: Some(cols),
                ..
            } if cols == &vec![1]
        ));
        assert_eq!(trace.count_of("physical-scan-projection"), 1);
        // The fused scan's schema matches the logical projection exactly.
        assert_eq!(phys.output_schema().unwrap(), plan.output_schema().unwrap());
    }

    #[test]
    fn explain_notes_vectorized_filter_and_project() {
        use prisma_storage::expr::CmpOp;
        let s = stats();
        let plan = LogicalPlan::scan("big", schema2())
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(0),
                ScalarExpr::lit(5),
            ))
            .project_cols(&[1])
            .unwrap();
        let mut trace = Trace::default();
        lower_physical(&plan, &s, PhysicalConfig::default(), &mut trace).unwrap();
        // Both the filter predicate and the projection above it (not
        // adjacent to the scan, so not fused) evaluate vectorized.
        assert_eq!(trace.count_of("physical-vectorized-eval"), 2);
        assert!(trace
            .fired
            .iter()
            .any(|f| f.contains("physical-vectorized-eval: filter")));

        // A pure column projection directly above the scan is fused away
        // and leaves no vectorized-eval note.
        let fused = LogicalPlan::scan("big", schema2()).project_cols(&[1]).unwrap();
        let mut trace = Trace::default();
        lower_physical(&fused, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(trace.count_of("physical-vectorized-eval"), 0);
    }

    #[test]
    fn explain_notes_streaming_exchanges() {
        let s = stats();
        // Broadcast join: both scans stream; the build side is the one
        // materialized exchange.
        let small_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("small", schema2()), vec![(1, 0)]);
        let mut trace = Trace::default();
        lower_physical(&small_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(trace.count_of("physical-exchange"), 3, "{:?}", trace.fired);
        assert!(trace
            .fired
            .iter()
            .any(|f| f.contains("broadcast join: build side materialized")));
        assert!(trace
            .fired
            .iter()
            .any(|f| f.contains("scan big: streams batches")));

        // Partitioned join: buckets stream per-batch, and the scans feed
        // the phase-2 sites, not the coordinator.
        let big_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let mut trace = Trace::default();
        lower_physical(&big_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(trace.count_of("physical-exchange"), 3, "{:?}", trace.fired);
        assert!(trace
            .fired
            .iter()
            .any(|f| f.contains("partitioned join: both sides stream buckets per-batch")));
        for rel in ["big", "huge"] {
            assert!(
                trace
                    .fired
                    .iter()
                    .any(|f| f.contains(&format!("scan {rel}: streams buckets fragment→site"))),
                "{:?}",
                trace.fired
            );
        }
        assert!(!trace
            .fired
            .iter()
            .any(|f| f.contains("fragment→coordinator")));
    }

    #[test]
    fn explain_notes_where_partial_aggregates_run() {
        use prisma_relalg::{AggExpr, AggFunc};
        use prisma_types::FragmentId;
        let frags: HashMap<String, Vec<FragmentId>> = [
            ("big".to_owned(), (0..4).map(FragmentId).collect()),
            ("huge".to_owned(), (4..7).map(FragmentId).collect()),
            ("small".to_owned(), vec![FragmentId(7)]),
        ]
        .into_iter()
        .collect();
        let s = Fragged(stats(), frags);
        let count_by = |input: LogicalPlan, func: AggFunc| LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![1],
            aggs: vec![AggExpr::new(func, 0, "x")],
        };
        let note_of = |plan: &LogicalPlan| {
            let mut trace = Trace::default();
            lower_physical(plan, &s, PhysicalConfig::default(), &mut trace).unwrap();
            trace
                .fired
                .into_iter()
                .find(|f| f.contains("partial aggregate"))
        };
        let grace = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let broadcast = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("small", schema2()), vec![(1, 0)]);

        // Single relation: one partial per fragment.
        let note = note_of(&count_by(LogicalPlan::scan("big", schema2()), AggFunc::Sum));
        assert!(note
            .unwrap()
            .contains("at 4 fragment(s) of big, merged at the coordinator"));
        // Grace join under a projection: one partial per phase-2 site
        // (4 buckets over big's 4 fragments).
        let note = note_of(&count_by(
            grace.clone().project_cols(&[0, 3]).unwrap(),
            AggFunc::Count,
        ));
        assert!(note
            .unwrap()
            .contains("at 4 site(s), merged at the coordinator"));
        // Broadcast join: one partial per fragment of the probed relation.
        let note = note_of(&count_by(broadcast, AggFunc::Max));
        assert!(note.unwrap().contains("at 4 fragment(s) of big"));
        // AVG is not decomposable: the rows go to the coordinator.
        assert_eq!(note_of(&count_by(grace, AggFunc::Avg)), None);
    }

    /// Stats source that also knows fragmentation (what the GDH data
    /// dictionary provides at run time).
    struct Fragged(HashMap<String, TableStats>, HashMap<String, Vec<prisma_types::FragmentId>>);

    impl StatsSource for Fragged {
        fn table_stats(&self, name: &str) -> Option<std::sync::Arc<TableStats>> {
            self.0.get(name).map(|s| std::sync::Arc::new(s.clone()))
        }
        fn fragmentation(&self, name: &str) -> Option<Vec<prisma_types::FragmentId>> {
            self.1.get(name).cloned()
        }
    }

    #[test]
    fn partitioned_join_gets_a_shuffle_placement_map() {
        use prisma_types::FragmentId;
        let frags: HashMap<String, Vec<FragmentId>> = [
            ("big".to_owned(), vec![FragmentId(0), FragmentId(1)]),
            ("huge".to_owned(), (2..5).map(FragmentId).collect()),
        ]
        .into_iter()
        .collect();
        let s = Fragged(stats(), frags);
        let join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let mut trace = Trace::default();
        let phys = lower_physical(&join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        let PhysicalPlan::HashJoin {
            placement: Some(p), ..
        } = &phys
        else {
            panic!("no placement: {phys}");
        };
        // Buckets = the larger side's fragment count; every site is a
        // fragment of the left (probe) relation, round-robin.
        assert_eq!(p.parts, 3);
        assert_eq!(p.sites, vec![FragmentId(0), FragmentId(1), FragmentId(0)]);
        assert_eq!(p.by_site().len(), 2);
        assert_eq!(trace.count_of("physical-shuffle-placement"), 1);
        assert!(phys.to_string().contains("shuffle 3×buckets→2 site(s)"), "{phys}");

        // The bucket count is overridable — including past the fragment
        // count (the mismatch edge the executor must survive).
        let s = Fragged(
            stats(),
            [
                ("big".to_owned(), vec![FragmentId(0), FragmentId(1)]),
                ("huge".to_owned(), (2..5).map(FragmentId).collect()),
            ]
            .into_iter()
            .collect(),
        );
        let cfg = PhysicalConfig {
            shuffle_parts: Some(7),
            ..PhysicalConfig::default()
        };
        let mut trace = Trace::default();
        let phys = lower_physical(&join, &s, cfg, &mut trace).unwrap();
        let PhysicalPlan::HashJoin {
            placement: Some(p), ..
        } = &phys
        else {
            panic!("no placement: {phys}");
        };
        assert_eq!(p.parts, 7);
        assert_eq!(p.sites.len(), 7);

        // Without fragmentation knowledge the map is omitted (the
        // executor derives a default).
        let mut trace = Trace::default();
        let phys =
            lower_physical(&join, &stats(), PhysicalConfig::default(), &mut trace).unwrap();
        assert!(matches!(
            phys,
            PhysicalPlan::HashJoin {
                placement: None,
                ..
            }
        ));
    }

    /// Stats source with fragmentation, per-fragment statistics and MCVs
    /// — everything the dictionary provides at run time.
    struct FullStats {
        tables: HashMap<String, TableStats>,
        frags: HashMap<String, Vec<prisma_types::FragmentId>>,
        frag_stats: HashMap<String, Vec<(prisma_types::FragmentId, prisma_types::FragmentStatistics)>>,
    }

    impl StatsSource for FullStats {
        fn table_stats(&self, name: &str) -> Option<std::sync::Arc<TableStats>> {
            self.tables.get(name).map(|s| std::sync::Arc::new(s.clone()))
        }
        fn fragmentation(&self, name: &str) -> Option<Vec<prisma_types::FragmentId>> {
            self.frags.get(name).cloned()
        }
        fn fragment_stats(
            &self,
            name: &str,
        ) -> Option<Vec<(prisma_types::FragmentId, prisma_types::FragmentStatistics)>> {
            self.frag_stats.get(name).cloned()
        }
        fn stats_freshness(&self, name: &str) -> prisma_types::StatsFreshness {
            if self.tables.contains_key(name) {
                prisma_types::StatsFreshness::Fresh
            } else {
                prisma_types::StatsFreshness::Absent
            }
        }
    }

    #[test]
    fn skew_weighted_placement_spreads_heavy_buckets() {
        use prisma_types::{FragmentId, Value};
        // One join-key value carries most of both sides' rows; its
        // bucket outweighs everything else combined, so the weighted
        // pass must give its site no other bucket (round-robin would
        // stack 3 more on it).
        let mut tables = stats();
        let heavy = Value::Int(7);
        tables.get_mut("big").unwrap().mcv =
            vec![vec![(heavy.clone(), 60_000)], Vec::new()];
        tables.get_mut("huge").unwrap().mcv =
            vec![vec![(heavy.clone(), 20_000)], Vec::new()];
        let frags: HashMap<String, Vec<FragmentId>> = [
            ("big".to_owned(), vec![FragmentId(0), FragmentId(1)]),
            ("huge".to_owned(), vec![FragmentId(2), FragmentId(3)]),
        ]
        .into_iter()
        .collect();
        let s = FullStats {
            tables,
            frags,
            frag_stats: HashMap::new(),
        };
        let join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let cfg = PhysicalConfig {
            shuffle_parts: Some(8),
            ..PhysicalConfig::default()
        };
        let mut trace = Trace::default();
        let phys = lower_physical(&join, &s, cfg, &mut trace).unwrap();
        let PhysicalPlan::HashJoin {
            placement: Some(p), ..
        } = &phys
        else {
            panic!("no placement: {phys}");
        };
        assert_eq!(p.parts, 8);
        assert_eq!(trace.count_of("physical-shuffle-placement"), 1);
        assert!(
            trace.fired.iter().any(|f| f.contains("skew-weighted")),
            "{:?}",
            trace.fired
        );
        // The heavy value's bucket must sit alone on its site: every
        // other bucket goes to the other fragment.
        let heavy_bucket =
            (prisma_relalg::exec::key_hash(std::slice::from_ref(&heavy)) % 8) as usize;
        let heavy_site = p.sites[heavy_bucket];
        let colocated = p
            .sites
            .iter()
            .enumerate()
            .filter(|&(j, &s)| j != heavy_bucket && s == heavy_site)
            .count();
        assert_eq!(colocated, 0, "heavy bucket shares its site: {:?}", p.sites);

        // The baseline flag restores probe-side round-robin.
        let cfg = PhysicalConfig {
            shuffle_parts: Some(8),
            skew_aware_placement: false,
            ..PhysicalConfig::default()
        };
        let mut trace = Trace::default();
        let phys = lower_physical(&join, &s, cfg, &mut trace).unwrap();
        let PhysicalPlan::HashJoin {
            placement: Some(p), ..
        } = &phys
        else {
            panic!("no placement: {phys}");
        };
        assert_eq!(
            p.sites,
            ShufflePlacement::round_robin(8, &[prisma_types::FragmentId(0), prisma_types::FragmentId(1)]).sites
        );
        assert!(!trace.fired.iter().any(|f| f.contains("skew-weighted")));
    }

    #[test]
    fn key_skew_raises_the_broadcast_threshold() {
        use prisma_types::Value;
        // Both sides estimated above the base threshold (2000 > 1024),
        // but the join key's heaviest value holds half the big side's
        // rows: threshold × (1 + 4·0.5) = 3× → broadcast after all.
        let mut tables = HashMap::new();
        tables.insert(
            "l".to_owned(),
            TableStats {
                rows: 2_000,
                distinct: vec![2_000, 10],
                min: vec![None, None],
                max: vec![None, None],
                ..TableStats::default()
            },
        );
        let mut rstats = TableStats {
            rows: 40_000,
            distinct: vec![100, 10],
            min: vec![None, None],
            max: vec![None, None],
            ..TableStats::default()
        };
        rstats.mcv = vec![vec![(Value::Int(1), 20_000)], Vec::new()];
        tables.insert("r".to_owned(), rstats);
        let join = LogicalPlan::scan("l", schema2())
            .join(LogicalPlan::scan("r", schema2()), vec![(0, 0)]);
        let mut trace = Trace::default();
        let phys =
            lower_physical(&join, &tables, PhysicalConfig::default(), &mut trace).unwrap();
        assert!(
            matches!(
                phys,
                PhysicalPlan::HashJoin {
                    strategy: JoinStrategy::Broadcast,
                    ..
                }
            ),
            "{phys}"
        );
        assert_eq!(trace.count_of("physical-join-skew"), 1, "{:?}", trace.fired);

        // Without the skew the same sizes partition.
        let mut tables2 = tables.clone();
        tables2.get_mut("r").unwrap().mcv = Vec::new();
        let mut trace = Trace::default();
        let phys =
            lower_physical(&join, &tables2, PhysicalConfig::default(), &mut trace).unwrap();
        assert!(matches!(
            phys,
            PhysicalPlan::HashJoin {
                strategy: JoinStrategy::Partitioned,
                ..
            }
        ));
    }

    #[test]
    fn explain_notes_cardinalities_and_stats_sources() {
        use prisma_storage::expr::CmpOp;
        let s = stats();
        let plan = LogicalPlan::scan("big", schema2())
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(0),
                ScalarExpr::lit(5),
            ))
            .join(LogicalPlan::scan("mystery", schema2()), vec![(0, 0)]);
        let mut trace = Trace::default();
        lower_physical(&plan, &s, PhysicalConfig::default(), &mut trace).unwrap();
        // One cardinality note per operator: 2 scans + select + join.
        assert_eq!(trace.count_of("physical-cardinality"), 4, "{:?}", trace.fired);
        assert!(trace
            .fired
            .iter()
            .any(|f| f.contains("Scan(big): est 100000 row(s)")));
        // Both relations' stats provenance is named; the unknown one is
        // absent.
        assert_eq!(trace.count_of("stats-source"), 2);
        assert!(trace.fired.iter().any(|f| f.contains("big: fresh")));
        assert!(trace
            .fired
            .iter()
            .any(|f| f.contains("mystery: absent")));
    }

    #[test]
    fn renaming_projection_is_not_fused() {
        use prisma_storage::expr::ScalarExpr;
        let s = stats();
        let renamed = LogicalPlan::Project {
            input: Box::new(LogicalPlan::scan("big", schema2())),
            exprs: vec![ScalarExpr::col(1)],
            schema: Schema::new(vec![Column::new("renamed", DataType::Int)]),
        };
        let mut trace = Trace::default();
        let phys = lower_physical(&renamed, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert!(matches!(phys, PhysicalPlan::Project { .. }));
        assert_eq!(trace.count_of("physical-scan-projection"), 0);
    }
}
