//! Physical lowering: the optimizer's parallelism rule family made
//! concrete (paper §2.4: "applying parallelism to minimize response
//! time").
//!
//! Lowers an optimized [`LogicalPlan`] to a [`PhysicalPlan`] and decides
//! where every operator runs, stating each data movement as an
//! [`ExchangeKind`] node (the placement rules of `Placer`). The GDH runs
//! exactly this plan, and EXPLAIN prints it. The choices:
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
//!    to round-robin over the probe side's fragments. The map rides on
//!    both of the join's `Shuffle` exchanges.
//!
//! Every choice is recorded in the explain [`Trace`], along with
//! per-operator cardinality estimates and the freshness
//! (fresh/stale/absent) of the statistics each decision consumed.

use prisma_relalg::{
    lower, AggExpr, AggFunc, ExchangeKind, JoinKind, LogicalPlan, PhysicalPlan, ShufflePlacement,
};
use prisma_storage::expr::ScalarExpr;
use prisma_types::{FragmentId, Result, Schema};

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

/// Lower an optimized logical plan to its physical form: place the
/// exchanges, choosing join strategies from cardinality estimates, and
/// fuse projections into scans.
pub fn lower_physical(
    plan: &LogicalPlan,
    stats: &dyn StatsSource,
    config: PhysicalConfig,
    trace: &mut Trace,
) -> Result<PhysicalPlan> {
    let mut physical = lower(plan)?;
    let mut placer = Placer {
        stats,
        config,
        trace,
    };
    if placer.place(plan, &mut physical) != Site::Coordinator {
        wrap(&mut physical, ExchangeKind::Gather);
    }
    let mut physical = fuse_projections(physical, trace);
    physical.push_prune_hints();
    if trace.enabled() {
        // The annotation walks exist for EXPLAIN's reader; the
        // executor's per-query lowering passes a sink trace and skips
        // them (note_cardinalities re-estimates every subtree — O(n²)
        // in plan size — which is fine for a debug surface, not for the
        // hot path).
        note_prune_hints(&physical, trace);
        note_vectorized(&physical, trace);
        note_stats_sources(plan, stats, trace);
        note_cardinalities(plan, stats, trace);
    }
    Ok(physical)
}

/// Where a lowered subtree's output is computed.
#[derive(Debug, Clone, PartialEq)]
enum Site {
    /// At the coordinator (or nowhere yet: literal rows).
    Coordinator,
    /// At every fragment of this base relation: a Filter/Project chain
    /// over its scan.
    Fragments(String),
    /// With a distributed join, below one `Gather`: at the shuffle sites
    /// or at the fragments a broadcast probes.
    Join,
}

/// A name a fragment stores: not an executor-internal (`__…`) scan and
/// not a fixpoint's delta binding.
fn is_base(relation: &str) -> bool {
    !relation.starts_with("__") && !relation.starts_with('Δ')
}

/// Move `plan` out, leaving an empty `Values` behind.
fn take(plan: &mut PhysicalPlan) -> Box<PhysicalPlan> {
    let empty = PhysicalPlan::Values {
        schema: Schema::empty(),
        rows: Vec::new(),
    };
    Box::new(std::mem::replace(plan, empty))
}

/// Put an exchange of `kind` over `plan`, in place.
fn wrap(plan: &mut PhysicalPlan, kind: ExchangeKind) {
    *plan = PhysicalPlan::Exchange {
        input: take(plan),
        kind,
    };
}

/// Gather a distributed input to the coordinator.
fn gather(plan: &mut PhysicalPlan, site: &Site) {
    if *site != Site::Coordinator {
        wrap(plan, ExchangeKind::Gather);
    }
}

/// Places the exchanges, bottom-up over the logical plan and its
/// node-for-node lowering. The rules:
///
/// * a Filter/Project chain over a base relation's scan runs at that
///   relation's fragments;
/// * an inner equi-join of two such chains that the cardinality chooser
///   partitions gets a `Shuffle` on each input and runs at the shuffle
///   sites;
/// * any other inner join runs at the fragments of an input that is such
///   a chain, the left one first; the other input is gathered if it is
///   distributed and `Broadcast` to those fragments;
/// * a Filter/Project chain over a distributed join runs with the join;
/// * a decomposable aggregate over any of these splits into a partial
///   aggregate below a `Gather` and a final one above it;
/// * everything else runs at the coordinator over a `Gather` on each
///   distributed input — under a closure or fixpoint, a `Gather` on each
///   base scan, so the recursion's bindings stay whole.
struct Placer<'a> {
    stats: &'a dyn StatsSource,
    config: PhysicalConfig,
    trace: &'a mut Trace,
}

impl Placer<'_> {
    /// Place the exchanges in `physical`, the lowering of `logical`, and
    /// say where its output is computed (the caller gathers it).
    fn place(&mut self, logical: &LogicalPlan, physical: &mut PhysicalPlan) -> Site {
        match logical {
            LogicalPlan::Scan { relation, .. } if is_base(relation) => {
                return Site::Fragments(relation.clone())
            }
            LogicalPlan::Closure { .. } | LogicalPlan::Fixpoint { .. } => {
                gather_scans(physical, &logical.scanned_relations());
                return Site::Coordinator;
            }
            _ => {}
        }
        let sites: Vec<Site> = logical
            .children()
            .into_iter()
            .zip(physical.children_mut())
            .map(|(l, p)| self.place(l, p))
            .collect();
        let partitioned = match logical {
            LogicalPlan::Join { on, .. } if !on.is_empty() => self.partitions(logical),
            _ => false,
        };
        match (logical, &sites[..]) {
            (LogicalPlan::Select { .. } | LogicalPlan::Project { .. }, [site])
                if *site != Site::Coordinator =>
            {
                site.clone()
            }
            (
                LogicalPlan::Join {
                    kind: JoinKind::Inner,
                    on,
                    ..
                },
                [ls, rs],
            ) => {
                let [left, right] = &mut physical.children_mut()[..] else {
                    unreachable!("a join lowers to a two-input node");
                };
                match (ls, rs) {
                    (Site::Fragments(lrel), Site::Fragments(rrel)) if partitioned => {
                        let placement = self.shuffle_placement(left, right, on, lrel, rrel);
                        let keys =
                            |side: fn(&(usize, usize)) -> usize| on.iter().map(side).collect();
                        wrap(
                            left,
                            ExchangeKind::Shuffle {
                                keys: keys(|k| k.0),
                                placement: placement.clone(),
                            },
                        );
                        wrap(
                            right,
                            ExchangeKind::Shuffle {
                                keys: keys(|k| k.1),
                                placement,
                            },
                        );
                    }
                    (Site::Fragments(_), _) => {
                        gather(right, rs);
                        wrap(right, ExchangeKind::Broadcast);
                    }
                    (_, Site::Fragments(_)) => {
                        gather(left, ls);
                        wrap(left, ExchangeKind::Broadcast);
                    }
                    _ => {
                        gather(left, ls);
                        gather(right, rs);
                        return Site::Coordinator;
                    }
                }
                Site::Join
            }
            (LogicalPlan::Aggregate { aggs, .. }, [site])
                if *site != Site::Coordinator && aggs.iter().all(|a| a.func.decomposable()) =>
            {
                split_aggregate(physical);
                Site::Coordinator
            }
            _ => {
                for (child, site) in physical.children_mut().into_iter().zip(&sites) {
                    gather(child, site);
                }
                Site::Coordinator
            }
        }
    }

    /// The cardinality chooser: partition an equi-join's inputs when both
    /// are estimated above the (skew-adjusted) broadcast threshold.
    fn partitions(&mut self, join: &LogicalPlan) -> bool {
        let LogicalPlan::Join { left, right, .. } = join else {
            return false;
        };
        let l = estimate_rows(left, self.stats);
        let r = estimate_rows(right, self.stats);
        // A repeated join key concentrates one hash bucket, so a grace
        // join's balance benefit shrinks with skew — raise the broadcast
        // cutoff in proportion to the heaviest key's row share.
        let skew = join_key_skew(join, self.stats);
        let base = self.config.broadcast_max_rows;
        let threshold = base * (1.0 + SKEW_BROADCAST_BOOST * skew);
        let partitioned = l.min(r) > threshold;
        if skew > 0.0 && l.min(r) > base && !partitioned {
            self.trace.note(
                "physical-join-skew",
                format!(
                    "heaviest join key holds {:.0}% of its side's rows; broadcast \
                     threshold raised {base:.0} → {threshold:.0}",
                    skew * 100.0,
                ),
            );
        }
        let strategy = if partitioned {
            "partitioned"
        } else {
            "broadcast"
        };
        self.trace.note(
            "physical-join-strategy",
            format!("{strategy} (est left={l:.0}, right={r:.0})"),
        );
        partitioned
    }

    /// The shuffle placement map of a partitioned join of `lrel` and
    /// `rrel`: bucket `j` of both sides is joined at a fragment of the
    /// **left** (probe) relation, so phase-1 streams address their chunks
    /// straight at the phase-2 site actors instead of relaying through
    /// the coordinator. Bucket count defaults to the larger side's
    /// fragment count ([`PhysicalConfig::shuffle_parts`] overrides).
    /// `None` when either relation's fragmentation is unknown.
    fn shuffle_placement(
        &mut self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        on: &[(usize, usize)],
        lrel: &str,
        rrel: &str,
    ) -> Option<ShufflePlacement> {
        let lfrags = self.stats.fragmentation(lrel).filter(|f| !f.is_empty())?;
        let rfrags = self.stats.fragmentation(rrel)?;
        let parts = self
            .config
            .shuffle_parts
            .unwrap_or_else(|| lfrags.len().max(rfrags.len()))
            .max(1);
        let weighted = if self.config.skew_aware_placement {
            weighted_placement(left, right, on, parts, &lfrags, lrel, self.stats)
        } else {
            None
        };
        let sites = lfrags.len().min(parts);
        Some(match weighted {
            Some((p, max_bucket, max_site)) => {
                self.trace.note(
                    "physical-shuffle-placement",
                    format!(
                        "{parts} bucket(s) skew-weighted over {sites} site(s) of {lrel} \
                         (max bucket est {max_bucket:.0} row(s), max site est {max_site:.0})",
                    ),
                );
                p
            }
            None => {
                self.trace.note(
                    "physical-shuffle-placement",
                    format!("{parts} bucket(s) over {sites} site(s) of {lrel}"),
                );
                ShufflePlacement::round_robin(parts, &lfrags)
            }
        })
    }
}

/// Gather every scan of one of `relations` under `plan` to the
/// coordinator, whole (a closure's or fixpoint's base relations).
fn gather_scans(plan: &mut PhysicalPlan, relations: &[String]) {
    if matches!(plan, PhysicalPlan::SeqScan { relation, .. } if relations.contains(relation)) {
        wrap(plan, ExchangeKind::Gather);
        return;
    }
    for child in plan.children_mut() {
        gather_scans(child, relations);
    }
}

/// Split a decomposable `HashAggregate` in two: the partial aggregate
/// runs below a `Gather` where its input runs, and a final aggregate at
/// the coordinator merges the partials — aggregate `i` of the partials
/// sits at column `g + i`; COUNT partials merge as SUM, the rest as
/// themselves.
fn split_aggregate(plan: &mut PhysicalPlan) {
    let PhysicalPlan::HashAggregate { group_by, aggs, .. } = &*plan else {
        unreachable!("an aggregate lowers to a hash aggregate");
    };
    let g = group_by.len();
    let merge: Vec<AggExpr> = aggs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let func = match a.func {
                AggFunc::CountStar | AggFunc::Count => AggFunc::Sum,
                func => func,
            };
            AggExpr::new(func, g + i, a.name.clone())
        })
        .collect();
    wrap(plan, ExchangeKind::Gather);
    *plan = PhysicalPlan::HashAggregate {
        input: take(plan),
        group_by: (0..g).collect(),
        aggs: merge,
    };
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
        } => PhysicalPlan::HashJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            on,
            residual,
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
        PhysicalPlan::Exchange { input, kind } => PhysicalPlan::Exchange {
            input: Box::new(f(*input)),
            kind,
        },
        leaf @ (PhysicalPlan::SeqScan { .. } | PhysicalPlan::Values { .. }) => leaf,
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
        | PhysicalPlan::Closure { input, .. }
        | PhysicalPlan::Exchange { input, .. } => note_vectorized(input, trace),
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
        other => map_children(other, &mut |c| fuse_projections(c, trace)),
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

    /// The plan's exchanges, top-down.
    fn exchanges(plan: &PhysicalPlan) -> Vec<&ExchangeKind> {
        let mut out = Vec::new();
        if let PhysicalPlan::Exchange { kind, .. } = plan {
            out.push(kind);
        }
        for c in plan.children() {
            out.extend(exchanges(c));
        }
        out
    }

    /// The shuffle placement map of the plan's first `Shuffle`.
    fn placement_of(plan: &PhysicalPlan) -> Option<&ShufflePlacement> {
        exchanges(plan).into_iter().find_map(|k| match k {
            ExchangeKind::Shuffle { placement, .. } => placement.as_ref(),
            _ => None,
        })
    }

    fn count(plan: &PhysicalPlan, pred: fn(&ExchangeKind) -> bool) -> usize {
        exchanges(plan).into_iter().filter(|k| pred(k)).count()
    }

    fn is_gather(k: &ExchangeKind) -> bool {
        matches!(k, ExchangeKind::Gather)
    }

    fn is_broadcast(k: &ExchangeKind) -> bool {
        matches!(k, ExchangeKind::Broadcast)
    }

    fn is_shuffle(k: &ExchangeKind) -> bool {
        matches!(k, ExchangeKind::Shuffle { .. })
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
        assert_eq!(count(&phys, is_broadcast), 1, "{phys}");
        assert_eq!(count(&phys, is_shuffle), 0, "{phys}");

        let big_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let phys = lower_physical(&big_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(count(&phys, is_shuffle), 2, "{phys}");
        assert_eq!(count(&phys, is_broadcast), 0, "{phys}");
        assert!(trace.count_of("physical-join-strategy") == 2, "{:?}", trace.fired);
    }

    #[test]
    fn pure_column_projection_fuses_into_scan() {
        let s = stats();
        let plan = LogicalPlan::scan("big", schema2()).project_cols(&[1]).unwrap();
        let mut trace = Trace::default();
        let phys = lower_physical(&plan, &s, PhysicalConfig::default(), &mut trace).unwrap();
        let PhysicalPlan::Exchange { input, .. } = &phys else {
            panic!("a scan is gathered: {phys}");
        };
        assert!(matches!(
            input.as_ref(),
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
        // Broadcast join: the probe side's scan streams to the
        // coordinator with the join (the root `Gather`); the build side
        // is gathered whole, then broadcast.
        let small_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("small", schema2()), vec![(1, 0)]);
        let mut trace = Trace::default();
        let phys = lower_physical(&small_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(exchanges(&phys).len(), 3, "{phys}");
        let txt = phys.to_string();
        assert!(
            txt.contains("    Broadcast\n      Gather\n        SeqScan small\n"),
            "{txt}"
        );
        assert!(
            txt.starts_with("Gather\n  HashJoin on [l#1=r#0]\n    SeqScan big\n"),
            "{txt}"
        );

        // Partitioned join: both scans stream buckets to the phase-2
        // sites, and only the join's result reaches the coordinator.
        let big_join = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let mut trace = Trace::default();
        let phys = lower_physical(&big_join, &s, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(exchanges(&phys).len(), 3, "{phys}");
        assert_eq!(count(&phys, is_shuffle), 2, "{phys}");
        let txt = phys.to_string();
        for rel in ["big", "huge"] {
            assert!(
                txt.contains(&format!("    Shuffle on [0]\n      SeqScan {rel}\n")),
                "{txt}"
            );
        }
        assert!(txt.starts_with("Gather\n  HashJoin"), "{txt}");
        assert_eq!(count(&phys, is_gather), 1, "{phys}");
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
        let lowered = |plan: &LogicalPlan| {
            lower_physical(plan, &s, PhysicalConfig::default(), &mut Trace::default()).unwrap()
        };
        // The partial aggregate, when the plan splits one: the hash
        // aggregate right below the `Gather` under the final aggregate.
        let partial = |phys: &PhysicalPlan| match phys {
            PhysicalPlan::HashAggregate { input, .. } => match input.as_ref() {
                PhysicalPlan::Exchange {
                    input,
                    kind: ExchangeKind::Gather,
                } if matches!(input.as_ref(), PhysicalPlan::HashAggregate { .. }) => {
                    Some(input.to_string())
                }
                _ => None,
            },
            _ => None,
        };
        let grace = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("huge", schema2()), vec![(0, 0)]);
        let broadcast = LogicalPlan::scan("big", schema2())
            .join(LogicalPlan::scan("small", schema2()), vec![(1, 0)]);

        // Single relation: one partial per fragment of big, merged at
        // the coordinator.
        let phys = lowered(&count_by(LogicalPlan::scan("big", schema2()), AggFunc::Sum));
        let part = partial(&phys).unwrap_or_else(|| panic!("no partial: {phys}"));
        assert!(part.ends_with("  SeqScan big\n"), "{phys}");
        assert_eq!(s.fragmentation("big").map(|f| f.len()), Some(4));
        // Grace join under a projection: one partial per phase-2 site
        // (4 buckets over big's 4 fragments).
        let phys = lowered(&count_by(grace.clone().project_cols(&[0, 3]).unwrap(), AggFunc::Count));
        let part = partial(&phys).unwrap_or_else(|| panic!("no partial: {phys}"));
        assert!(part.contains("Shuffle on [0] 4×buckets→4 site(s)"), "{phys}");
        // Broadcast join: one partial per fragment of the probed relation.
        let phys = lowered(&count_by(broadcast, AggFunc::Max));
        let part = partial(&phys).unwrap_or_else(|| panic!("no partial: {phys}"));
        assert!(part.contains("    SeqScan big\n"), "{phys}");
        assert!(part.contains("Broadcast\n"), "{phys}");
        // AVG is not decomposable: the rows go to the coordinator.
        let phys = lowered(&count_by(grace, AggFunc::Avg));
        assert_eq!(partial(&phys), None, "{phys}");
        assert_eq!(phys.to_string().matches("HashAggregate").count(), 1, "{phys}");
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
        let Some(p) = placement_of(&phys) else {
            panic!("no placement: {phys}");
        };
        // Buckets = the larger side's fragment count; every site is a
        // fragment of the left (probe) relation, round-robin.
        assert_eq!(p.parts, 3);
        assert_eq!(p.sites, vec![FragmentId(0), FragmentId(1), FragmentId(0)]);
        assert_eq!(p.by_site().len(), 2);
        assert_eq!(trace.count_of("physical-shuffle-placement"), 1);
        assert!(phys.to_string().contains("Shuffle on [0] 3×buckets→2 site(s)"), "{phys}");

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
        let Some(p) = placement_of(&phys) else {
            panic!("no placement: {phys}");
        };
        assert_eq!(p.parts, 7);
        assert_eq!(p.sites.len(), 7);

        // Without fragmentation knowledge the map is omitted (the
        // executor derives a default).
        let mut trace = Trace::default();
        let phys =
            lower_physical(&join, &stats(), PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(count(&phys, is_shuffle), 2, "{phys}");
        assert_eq!(placement_of(&phys), None, "{phys}");
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
        let Some(p) = placement_of(&phys) else {
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
        let Some(p) = placement_of(&phys) else {
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
        assert_eq!(count(&phys, is_broadcast), 1, "{phys}");
        assert_eq!(trace.count_of("physical-join-skew"), 1, "{:?}", trace.fired);

        // Without the skew the same sizes partition.
        let mut tables2 = tables.clone();
        tables2.get_mut("r").unwrap().mcv = Vec::new();
        let mut trace = Trace::default();
        let phys =
            lower_physical(&join, &tables2, PhysicalConfig::default(), &mut trace).unwrap();
        assert_eq!(count(&phys, is_shuffle), 2, "{phys}");
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
        let PhysicalPlan::Exchange { input, .. } = &phys else {
            panic!("a projected scan is gathered: {phys}");
        };
        assert!(matches!(**input, PhysicalPlan::Project { .. }), "{phys}");
        assert_eq!(trace.count_of("physical-scan-projection"), 0);
    }
}
