//! Physical plans: the executable operator tree.
//!
//! A [`PhysicalPlan`] is lowered from a [`LogicalPlan`] and names the
//! *algorithm* for each algebra node: scans carry fused projections,
//! equi-joins become hash joins, theta joins become nested loops, and
//! aggregation is explicitly hash-based. The tree is what the Global Data
//! Handler ships to One-Fragment Managers (paper §2.2: subqueries are sent
//! to the OFMs, which execute them against their fragment) and what the
//! batch executor in [`crate::exec`] pulls tuples through.
//!
//! Where data moves between sites is stated by [`PhysicalPlan::Exchange`]
//! nodes (Graefe's exchange operator): [`lower`] places none, the
//! optimizer's physical pass places them all. On one site there is
//! nothing to move, so the batch executor runs an exchange as the
//! identity.

use std::fmt;

use prisma_storage::expr::ScalarExpr;
use prisma_types::{FragmentId, PrismaError, Result, Schema, Tuple};

use crate::agg::AggExpr;
use crate::plan::{JoinKind, LogicalPlan};

/// Where each hash bucket of a partitioned (grace) join is joined: the
/// optimizer's **shuffle placement map**, naming the phase-2 site
/// fragment per bucket so phase-1 repartition streams can be addressed
/// fragment→fragment — the coordinator orchestrates but never relays
/// tuples (paper §2.2: subqueries run where the data is).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShufflePlacement {
    /// Bucket count both sides hash into.
    pub parts: usize,
    /// Owning (phase-2 site) fragment per bucket; length `parts`.
    pub sites: Vec<FragmentId>,
}

impl ShufflePlacement {
    /// Round-robin buckets over the site fragments (the default layout:
    /// every site joins ⌈parts/sites⌉ buckets).
    pub fn round_robin(parts: usize, site_fragments: &[FragmentId]) -> ShufflePlacement {
        assert!(!site_fragments.is_empty(), "a shuffle needs at least one site");
        ShufflePlacement {
            parts,
            sites: (0..parts)
                .map(|j| site_fragments[j % site_fragments.len()])
                .collect(),
        }
    }

    /// The distinct sites in first-bucket order, each with the buckets it
    /// owns.
    pub fn by_site(&self) -> Vec<(FragmentId, Vec<usize>)> {
        let mut order: Vec<FragmentId> = Vec::new();
        let mut buckets: std::collections::HashMap<FragmentId, Vec<usize>> =
            std::collections::HashMap::new();
        for (j, &site) in self.sites.iter().enumerate() {
            if !buckets.contains_key(&site) {
                order.push(site);
            }
            buckets.entry(site).or_default().push(j);
        }
        order
            .into_iter()
            .map(|s| {
                let b = buckets.remove(&s).expect("collected above");
                (s, b)
            })
            .collect()
    }
}

/// How a [`PhysicalPlan::Exchange`] moves its input between sites.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeKind {
    /// Every fragment (or shuffle site) running the input streams its
    /// batches to the coordinator, which unions them.
    Gather,
    /// The coordinator-resident input ships whole to every fragment the
    /// enclosing join runs at.
    Broadcast,
    /// Every fragment hash-partitions the input on `keys` and streams
    /// each bucket straight to the site that joins it.
    Shuffle {
        /// Columns of the input the buckets hash on.
        keys: Vec<usize>,
        /// The optimizer's bucket→site map (None = the executor derives
        /// a round-robin one).
        placement: Option<ShufflePlacement>,
    },
}

/// The physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan a named base relation (or a fixpoint binding), optionally
    /// projecting columns at the source so only needed attributes flow.
    SeqScan {
        /// Relation name.
        relation: String,
        /// Schema of the *stored* relation.
        schema: Schema,
        /// Columns to keep (None = all, in storage order).
        projection: Option<Vec<usize>>,
        /// Pushed-down copy of the predicate directly above this scan,
        /// used *only* for zone-map refutation of sealed chunks. The
        /// `Filter` node above is retained for exactness — pruning skips
        /// chunks whose zone maps prove no row can match; everything else
        /// still flows through the filter. Over the **stored** schema
        /// (column ordinals pre-projection).
        prune: Option<ScalarExpr>,
    },
    /// Literal rows.
    Values {
        /// Row schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// σ, run by the predicate kernel.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// π over expressions.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// One expression per output column.
        exprs: Vec<ScalarExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Equi-join: build a hash table on the right, probe with the left.
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Join flavour.
        kind: JoinKind,
        /// Key pairs `(left ordinal, right ordinal)`; never empty.
        on: Vec<(usize, usize)>,
        /// Residual predicate over the concatenated schema.
        residual: Option<ScalarExpr>,
    },
    /// Theta join without equi-keys: materialize right, loop over left.
    NestedLoopJoin {
        /// Outer side.
        left: Box<PhysicalPlan>,
        /// Inner (materialized) side.
        right: Box<PhysicalPlan>,
        /// Join flavour.
        kind: JoinKind,
        /// Predicate over the concatenated schema (None = cross join).
        residual: Option<ScalarExpr>,
    },
    /// Bag/set union.
    Union {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Keep duplicates when true.
        all: bool,
    },
    /// Set difference (deduplicating, like the algebra).
    Difference {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input (builds the exclusion set).
        right: Box<PhysicalPlan>,
    },
    /// Streaming duplicate elimination.
    Distinct {
        /// Input operator.
        input: Box<PhysicalPlan>,
    },
    /// γ via a hash table keyed on the group columns.
    HashAggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Group-by ordinals (empty = one global group).
        group_by: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Materializing sort.
    Sort {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// `(column, ascending)` keys.
        keys: Vec<(usize, bool)>,
    },
    /// Stop after `n` tuples.
    Limit {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Row budget.
        n: usize,
    },
    /// Seeded semi-naive transitive closure (the OFM operator of §2.5):
    /// σ_seed(TC(input)), computed by starting the recursion from the
    /// input pairs whose source passes `seed`. A path never continues
    /// through a NULL node.
    Closure {
        /// Binary input.
        input: Box<PhysicalPlan>,
        /// Predicate over the source column (ordinal 0) only; `None`
        /// keeps every source.
        seed: Option<ScalarExpr>,
    },
    /// Semi-naive linear fixpoint; `Scan(name)`/`Scan(Δname)` inside
    /// `step` read the accumulator/delta bindings.
    Fixpoint {
        /// Binding name.
        name: String,
        /// Base case.
        base: Box<PhysicalPlan>,
        /// Recursive step.
        step: Box<PhysicalPlan>,
    },
    /// Data movement between sites; the identity on one site.
    Exchange {
        /// The operator whose output moves.
        input: Box<PhysicalPlan>,
        /// How it moves.
        kind: ExchangeKind,
    },
}

/// Lower a logical plan node for node: one algorithm per algebra
/// operator, no exchanges.
pub fn lower(plan: &LogicalPlan) -> Result<PhysicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { relation, schema } => PhysicalPlan::SeqScan {
            relation: relation.clone(),
            schema: schema.clone(),
            projection: None,
            prune: None,
        },
        LogicalPlan::Values { schema, rows } => PhysicalPlan::Values {
            schema: schema.clone(),
            rows: rows.clone(),
        },
        LogicalPlan::Select { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(lower(input)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: Box::new(lower(input)?),
            exprs: exprs.clone(),
            schema: schema.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            if on.is_empty() {
                PhysicalPlan::NestedLoopJoin {
                    left: Box::new(lower(left)?),
                    right: Box::new(lower(right)?),
                    kind: *kind,
                    residual: residual.clone(),
                }
            } else {
                PhysicalPlan::HashJoin {
                    left: Box::new(lower(left)?),
                    right: Box::new(lower(right)?),
                    kind: *kind,
                    on: on.clone(),
                    residual: residual.clone(),
                }
            }
        }
        LogicalPlan::Union { left, right, all } => PhysicalPlan::Union {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
            all: *all,
        },
        LogicalPlan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: Box::new(lower(input)?),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(lower(input)?),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
            input: Box::new(lower(input)?),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(lower(input)?),
            n: *n,
        },
        LogicalPlan::Closure { input, seed } => PhysicalPlan::Closure {
            input: Box::new(lower(input)?),
            seed: seed.clone(),
        },
        LogicalPlan::Fixpoint { name, base, step } => PhysicalPlan::Fixpoint {
            name: name.clone(),
            base: Box::new(lower(base)?),
            step: Box::new(lower(step)?),
        },
    })
}

impl PhysicalPlan {
    /// Output schema, derived structurally.
    pub fn output_schema(&self) -> Result<Schema> {
        Ok(match self {
            PhysicalPlan::SeqScan {
                schema, projection, ..
            } => match projection {
                None => schema.clone(),
                Some(cols) => schema.project(cols),
            },
            PhysicalPlan::Values { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Closure { input, .. }
            | PhysicalPlan::Exchange { input, .. } => input.output_schema()?,
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::HashJoin {
                left, right, kind, ..
            }
            | PhysicalPlan::NestedLoopJoin {
                left, right, kind, ..
            } => match kind {
                JoinKind::Inner => left.output_schema()?.join(&right.output_schema()?),
                JoinKind::Semi | JoinKind::Anti => left.output_schema()?,
            },
            PhysicalPlan::Union { left, .. } | PhysicalPlan::Difference { left, .. } => {
                left.output_schema()?
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                // Delegate to the logical derivation to keep one source of
                // truth for aggregate typing.
                let logical = LogicalPlan::Aggregate {
                    input: Box::new(LogicalPlan::Values {
                        schema: input.output_schema()?,
                        rows: vec![],
                    }),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                };
                logical.output_schema()?
            }
            PhysicalPlan::Fixpoint { base, .. } => base.output_schema()?,
        })
    }

    /// Copy each `Filter` predicate onto the `SeqScan` directly beneath
    /// it as a zone-map **prune hint** (rewritten to stored-schema
    /// ordinals when the scan projects). The filter itself is left in
    /// place: pruning is refutation-only, so the plan's results are
    /// bit-identical with or without the hints — chunks the zone maps
    /// cannot refute still pass through the exact predicate.
    pub fn push_prune_hints(&mut self) {
        if let PhysicalPlan::Filter { input, predicate } = self {
            if let PhysicalPlan::SeqScan {
                projection, prune, ..
            } = input.as_mut()
            {
                let hint = match projection {
                    None => Some(predicate.clone()),
                    Some(cols) => {
                        // Filter ordinals are over the projected schema;
                        // zone maps are per stored column. Remap through
                        // the projection (validated plans never index
                        // past it, but stay conservative if one does).
                        if predicate.columns().iter().any(|&i| i >= cols.len()) {
                            None
                        } else {
                            let cols = cols.clone();
                            Some(predicate.remap_columns(&|i| cols[i]))
                        }
                    }
                };
                if hint.is_some() {
                    *prune = hint;
                }
            }
        }
        for c in self.children_mut() {
            c.push_prune_hints();
        }
    }

    /// Immediate children, mutably.
    pub fn children_mut(&mut self) -> Vec<&mut PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. } | PhysicalPlan::Values { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Closure { input, .. }
            | PhysicalPlan::Exchange { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::Union { left, right, .. }
            | PhysicalPlan::Difference { left, right } => vec![left, right],
            PhysicalPlan::Fixpoint { base, step, .. } => vec![base, step],
        }
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. } | PhysicalPlan::Values { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Closure { input, .. }
            | PhysicalPlan::Exchange { input, .. } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::Union { left, right, .. }
            | PhysicalPlan::Difference { left, right } => vec![left, right],
            PhysicalPlan::Fixpoint { base, step, .. } => vec![base, step],
        }
    }

    /// Validate ordinals and expression types against derived schemas.
    pub fn validate(&self) -> Result<Schema> {
        let schema = self.output_schema()?;
        match self {
            PhysicalPlan::SeqScan {
                schema: base,
                projection,
                ..
            } => {
                if let Some(cols) = projection {
                    for &c in cols {
                        if c >= base.arity() {
                            return Err(PrismaError::ExprType(format!(
                                "scan projection column {c} out of range"
                            )));
                        }
                    }
                }
            }
            PhysicalPlan::Filter { input, predicate } => {
                let in_schema = input.validate()?;
                predicate.check(&in_schema)?;
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let in_schema = input.validate()?;
                for e in exprs {
                    e.check(&in_schema)?;
                }
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                on,
                residual,
                ..
            } => {
                let ls = left.validate()?;
                let rs = right.validate()?;
                for &(l, r) in on {
                    if l >= ls.arity() || r >= rs.arity() {
                        return Err(PrismaError::ExprType(format!(
                            "join key ({l},{r}) out of range"
                        )));
                    }
                }
                if let Some(p) = residual {
                    p.check(&ls.join(&rs))?;
                }
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                residual,
                ..
            } => {
                let ls = left.validate()?;
                let rs = right.validate()?;
                if let Some(p) = residual {
                    p.check(&ls.join(&rs))?;
                }
            }
            PhysicalPlan::Closure {
                input,
                seed: Some(p),
            } => {
                crate::plan::check_closure_seed(p, &input.validate()?)?;
            }
            _ => {
                for c in self.children() {
                    c.validate()?;
                }
            }
        }
        Ok(schema)
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PhysicalPlan::SeqScan {
                relation,
                projection,
                prune,
                ..
            } => {
                match projection {
                    None => write!(f, "{pad}SeqScan {relation}")?,
                    Some(cols) => write!(f, "{pad}SeqScan {relation} cols={cols:?}")?,
                }
                if let Some(p) = prune {
                    write!(f, " prune {p}")?;
                }
                writeln!(f)?;
            }
            PhysicalPlan::Values { rows, .. } => {
                writeln!(f, "{pad}Values [{} rows]", rows.len())?
            }
            PhysicalPlan::Filter { predicate, .. } => writeln!(f, "{pad}Filter {predicate}")?,
            PhysicalPlan::Project { exprs, schema, .. } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .zip(schema.columns())
                    .map(|(e, c)| format!("{e} AS {}", c.name))
                    .collect();
                writeln!(f, "{pad}Project {}", cols.join(", "))?;
            }
            PhysicalPlan::HashJoin {
                kind, on, residual, ..
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("l#{l}=r#{r}")).collect();
                write!(f, "{pad}Hash{kind} on [{}]", keys.join(", "))?;
                if let Some(p) = residual {
                    write!(f, " filter {p}")?;
                }
                writeln!(f)?;
            }
            PhysicalPlan::NestedLoopJoin { kind, residual, .. } => {
                write!(f, "{pad}NestedLoop{kind}")?;
                if let Some(p) = residual {
                    write!(f, " filter {p}")?;
                }
                writeln!(f)?;
            }
            PhysicalPlan::Union { all, .. } => {
                writeln!(f, "{pad}Union{}", if *all { "All" } else { "" })?
            }
            PhysicalPlan::Difference { .. } => writeln!(f, "{pad}Difference")?,
            PhysicalPlan::Distinct { .. } => writeln!(f, "{pad}Distinct")?,
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => {
                let names: Vec<String> = aggs.iter().map(|a| format!("{}", a.func)).collect();
                writeln!(
                    f,
                    "{pad}HashAggregate group={group_by:?} aggs=[{}]",
                    names.join(", ")
                )?;
            }
            PhysicalPlan::Sort { keys, .. } => writeln!(f, "{pad}Sort {keys:?}")?,
            PhysicalPlan::Limit { n, .. } => writeln!(f, "{pad}Limit {n}")?,
            PhysicalPlan::Closure { seed, .. } => crate::plan::fmt_closure(f, &pad, seed.as_ref())?,
            PhysicalPlan::Fixpoint { name, .. } => writeln!(f, "{pad}Fixpoint {name}")?,
            PhysicalPlan::Exchange { kind, .. } => match kind {
                ExchangeKind::Gather => writeln!(f, "{pad}Gather")?,
                ExchangeKind::Broadcast => writeln!(f, "{pad}Broadcast")?,
                ExchangeKind::Shuffle { keys, placement } => {
                    write!(f, "{pad}Shuffle on {keys:?}")?;
                    if let Some(p) = placement {
                        write!(f, " {}×buckets→{} site(s)", p.parts, p.by_site().len())?;
                    }
                    writeln!(f)?;
                }
            },
        }
        for c in self.children() {
            c.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_storage::expr::CmpOp;
    use prisma_types::{Column, DataType};

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("dept", DataType::Int),
        ])
    }

    #[test]
    fn lowering_picks_algorithms() {
        let plan = LogicalPlan::scan("emp", emp_schema())
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(0),
                ScalarExpr::lit(1),
            ))
            .join(LogicalPlan::scan("dept", emp_schema()), vec![(1, 0)]);
        let phys = lower(&plan).unwrap();
        assert!(matches!(phys, PhysicalPlan::HashJoin { .. }));
        phys.validate().unwrap();
        let txt = phys.to_string();
        assert!(txt.contains("HashJoin on [l#1=r#0]"), "{txt}");
        assert!(!txt.contains("Gather"), "plain lowering places no exchange: {txt}");
        assert!(txt.contains("SeqScan emp"), "{txt}");
    }

    #[test]
    fn theta_join_lowers_to_nested_loop() {
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("a", emp_schema())),
            right: Box::new(LogicalPlan::scan("b", emp_schema())),
            kind: JoinKind::Inner,
            on: vec![],
            residual: Some(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(0),
                ScalarExpr::col(2),
            )),
        };
        let phys = lower(&plan).unwrap();
        assert!(matches!(phys, PhysicalPlan::NestedLoopJoin { .. }));
        assert_eq!(phys.output_schema().unwrap().arity(), 4);
    }

    #[test]
    fn scan_projection_narrows_schema() {
        let scan = PhysicalPlan::SeqScan {
            relation: "emp".into(),
            schema: emp_schema(),
            projection: Some(vec![1]),
            prune: None,
        };
        let s = scan.output_schema().unwrap();
        assert_eq!(s.arity(), 1);
        assert_eq!(s.column(0).unwrap().name, "dept");
        // Out-of-range projection is rejected.
        let bad = PhysicalPlan::SeqScan {
            relation: "emp".into(),
            schema: emp_schema(),
            projection: Some(vec![9]),
            prune: None,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn prune_hints_copy_filters_onto_scans() {
        let pred = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(5));
        let mut plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                relation: "emp".into(),
                schema: emp_schema(),
                projection: None,
                prune: None,
            }),
            predicate: pred.clone(),
        };
        plan.push_prune_hints();
        let PhysicalPlan::Filter { input, .. } = &plan else {
            panic!("filter survives the pass");
        };
        let PhysicalPlan::SeqScan { prune, .. } = input.as_ref() else {
            panic!("scan survives the pass");
        };
        assert_eq!(prune.as_ref(), Some(&pred));
        let txt = plan.to_string();
        assert!(txt.contains("prune "), "{txt}");
    }

    #[test]
    fn prune_hints_remap_through_scan_projection() {
        // Filter col#0 over a scan projecting stored column 1 → the hint
        // must name stored column 1.
        let mut plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                relation: "emp".into(),
                schema: emp_schema(),
                projection: Some(vec![1]),
                prune: None,
            }),
            predicate: ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::lit(7)),
        };
        plan.push_prune_hints();
        let PhysicalPlan::Filter { input, .. } = &plan else {
            panic!("filter survives the pass");
        };
        let PhysicalPlan::SeqScan { prune, .. } = input.as_ref() else {
            panic!("scan survives the pass");
        };
        assert_eq!(
            prune.as_ref().map(|p| p.columns()),
            Some(vec![1]),
            "hint rewritten to stored ordinals"
        );
    }
}
