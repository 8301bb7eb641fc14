//! Sealed column chunks — the immutable columnar tier of fragment storage.
//!
//! A fragment stores its rows in two tiers: a small row-oriented *delta*
//! (the mutable `TupleHeap` side, owned by `prisma-ofm`) and a list of
//! [`SealedChunk`]s of roughly [`seal_every`] rows each. A
//! chunk is sealed exactly once: the rows are pivoted into typed
//! [`ColumnVec`]s (the *only* pivot those rows ever pay for), a [`ZoneMap`]
//! is computed per column, and the original row form is retained so row
//! consumers (checkpoints, undo) can gather refcounted
//! tuples without un-pivoting.
//!
//! Chunks are immutable; a mutation of any covered row *dissolves* the whole
//! chunk back into the delta (handled by the fragment, not here). That makes
//! two cheap caches sound:
//!
//! * the [`ZoneMap`] per column (min/max under [`Value::total_cmp`], NULL
//!   count, duplicate flag), which scan operators use to refute a pushed-down
//!   predicate for the whole chunk without touching payloads, and
//! * a lazily-built wire block ([`SealedChunk::wire_block`]) — the encoded
//!   [`BlockChunk`] frame a ship of this chunk puts on the interconnect.
//!   Re-shipping cold data is an `Arc` clone; the encoder runs at most once
//!   per sealed chunk.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use crate::column::ColumnVec;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::wire::BlockChunk;

/// Default rows per sealed chunk when `SEAL_EVERY` is unset.
pub const DEFAULT_SEAL_EVERY: usize = 1024;

/// Rows per sealed chunk — also the threshold at which a fragment's delta
/// is sealed. Reads the `SEAL_EVERY` environment variable once (CI runs the
/// suite under `SEAL_EVERY=8` so mixed sealed/delta states are exercised
/// everywhere); unset, unparsable or zero values fall back to
/// [`DEFAULT_SEAL_EVERY`].
pub fn seal_every() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("SEAL_EVERY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_SEAL_EVERY)
    })
}

/// Per-column summary of one sealed chunk, used to refute predicates for
/// the whole chunk before touching column payloads.
///
/// `min`/`max` are under [`Value::total_cmp`] and exclude NULLs; both are
/// `None` iff every row of the column is NULL. `has_dups` records whether
/// any non-null value occurs more than once (a distinct-count hint the
/// statistics fold consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value, or `None` when the column is all-NULL.
    pub min: Option<Value>,
    /// Largest non-null value, or `None` when the column is all-NULL.
    pub max: Option<Value>,
    /// Number of NULL rows.
    pub nulls: u64,
    /// Total rows in the chunk (NULLs included).
    pub rows: u64,
    /// True when some non-null value occurs more than once.
    pub has_dups: bool,
}

impl ZoneMap {
    /// Summarize one column. Runs over the typed payload vectors directly,
    /// so sealing a string column does not clone any payload except the
    /// final min/max pair.
    pub fn build(col: &ColumnVec) -> ZoneMap {
        let rows = col.len() as u64;
        match col {
            ColumnVec::Int { data, nulls } => {
                let (mut min, mut max) = (None::<i64>, None::<i64>);
                let (mut n, mut dups, mut seen) = (0u64, false, BTreeSet::new());
                for (i, &x) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m[i]) {
                        n += 1;
                        continue;
                    }
                    min = Some(min.map_or(x, |m: i64| m.min(x)));
                    max = Some(max.map_or(x, |m: i64| m.max(x)));
                    dups |= !seen.insert(x);
                }
                ZoneMap {
                    min: min.map(Value::Int),
                    max: max.map(Value::Int),
                    nulls: n,
                    rows,
                    has_dups: dups,
                }
            }
            ColumnVec::Double { data, nulls } => {
                let (mut min, mut max) = (None::<f64>, None::<f64>);
                let (mut n, mut dups, mut seen) = (0u64, false, BTreeSet::new());
                for (i, &x) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m[i]) {
                        n += 1;
                        continue;
                    }
                    // total_cmp order, matching the vectorized kernels: NaN
                    // sorts above +inf, -0.0 below +0.0.
                    min = Some(match min {
                        Some(m) if m.total_cmp(&x).is_le() => m,
                        _ => x,
                    });
                    max = Some(match max {
                        Some(m) if m.total_cmp(&x).is_ge() => m,
                        _ => x,
                    });
                    dups |= !seen.insert(x.to_bits());
                }
                ZoneMap {
                    min: min.map(Value::Double),
                    max: max.map(Value::Double),
                    nulls: n,
                    rows,
                    has_dups: dups,
                }
            }
            ColumnVec::Bool { data, nulls } => {
                let (mut min, mut max) = (None::<bool>, None::<bool>);
                let (mut n, mut dups, mut seen) = (0u64, false, BTreeSet::new());
                for (i, &x) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m[i]) {
                        n += 1;
                        continue;
                    }
                    min = Some(min.map_or(x, |m: bool| m.min(x)));
                    max = Some(max.map_or(x, |m: bool| m.max(x)));
                    dups |= !seen.insert(x);
                }
                ZoneMap {
                    min: min.map(Value::Bool),
                    max: max.map(Value::Bool),
                    nulls: n,
                    rows,
                    has_dups: dups,
                }
            }
            ColumnVec::Str { data, nulls } => {
                let (mut min, mut max) = (None::<&str>, None::<&str>);
                let (mut n, mut dups, mut seen) = (0u64, false, BTreeSet::new());
                for (i, x) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m[i]) {
                        n += 1;
                        continue;
                    }
                    let x = x.as_str();
                    min = Some(min.map_or(x, |m: &str| m.min(x)));
                    max = Some(max.map_or(x, |m: &str| m.max(x)));
                    dups |= !seen.insert(x);
                }
                ZoneMap {
                    min: min.map(|s| Value::Str(s.to_owned())),
                    max: max.map(|s| Value::Str(s.to_owned())),
                    nulls: n,
                    rows,
                    has_dups: dups,
                }
            }
            ColumnVec::Mixed(vals) => {
                let (mut min, mut max) = (None::<&Value>, None::<&Value>);
                let (mut n, mut dups) = (0u64, false);
                let mut seen: BTreeSet<&Value> = BTreeSet::new();
                for v in vals {
                    if v.is_null() {
                        n += 1;
                        continue;
                    }
                    min = Some(match min {
                        Some(m) if m.total_cmp(v).is_le() => m,
                        _ => v,
                    });
                    max = Some(match max {
                        Some(m) if m.total_cmp(v).is_ge() => m,
                        _ => v,
                    });
                    dups |= !seen.insert(v);
                }
                ZoneMap {
                    min: min.cloned(),
                    max: max.cloned(),
                    nulls: n,
                    rows,
                    has_dups: dups,
                }
            }
        }
    }
}

/// An immutable, fully-pivoted run of fragment rows.
///
/// Sealing pays the rows→columns pivot once; every later scan serves the
/// shared [`ColumnVec`]s directly (zero pivot), and every later ship of the
/// whole chunk reuses the cached [`BlockChunk`] built on first encode. The
/// row form is retained so row-oriented consumers stay cheap too.
#[derive(Debug)]
pub struct SealedChunk {
    rows: Arc<Vec<Tuple>>,
    cols: Vec<Arc<ColumnVec>>,
    zones: Vec<ZoneMap>,
    wire: OnceLock<Arc<BlockChunk>>,
}

impl SealedChunk {
    /// Seal `rows` (all the same arity) into an immutable columnar chunk:
    /// pivot every attribute, compute its zone map, and retain the rows.
    pub fn seal(rows: Vec<Tuple>) -> SealedChunk {
        let rows = Arc::new(rows);
        let arity = rows.first().map_or(0, Tuple::arity);
        let cols: Vec<Arc<ColumnVec>> = (0..arity)
            .map(|c| Arc::new(ColumnVec::pivot_one(&rows, c)))
            .collect();
        let zones = cols.iter().map(|c| ZoneMap::build(c)).collect();
        SealedChunk {
            rows,
            cols,
            zones,
            wire: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The retained row form (shared; never re-pivoted from the columns).
    pub fn rows(&self) -> &Arc<Vec<Tuple>> {
        &self.rows
    }

    /// The pivoted columns, one per attribute.
    pub fn cols(&self) -> &[Arc<ColumnVec>] {
        &self.cols
    }

    /// Per-column zone maps, parallel to [`SealedChunk::cols`].
    pub fn zones(&self) -> &[ZoneMap] {
        &self.zones
    }

    /// The encoded wire frame for the whole chunk, built on first request
    /// and cached for the chunk's lifetime — a re-ship of cold data is an
    /// `Arc` clone, never a second run of the encoder. Invalidation is
    /// structural: mutating a covered row dissolves the chunk (and this
    /// cache with it) back into the fragment's delta.
    pub fn wire_block(&self) -> Arc<BlockChunk> {
        self.wire
            .get_or_init(|| {
                Arc::new(BlockChunk::from_columns(
                    self.rows.len(),
                    self.cols.iter().map(|c| Cow::Borrowed(c.as_ref())),
                ))
            })
            .clone()
    }

    /// Whether the wire frame has been built yet (observability for the
    /// encode-once tests and the e12 bench).
    pub fn wire_cached(&self) -> bool {
        self.wire.get().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn zone_maps_summarize_each_column() {
        let chunk = SealedChunk::seal(vec![
            t(vec![Value::Int(5), Value::Str("b".into()), Value::Null]),
            t(vec![Value::Int(2), Value::Str("a".into()), Value::Null]),
            t(vec![Value::Int(5), Value::Null, Value::Null]),
        ]);
        assert_eq!(chunk.len(), 3);
        assert_eq!(chunk.arity(), 3);
        let z = &chunk.zones()[0];
        assert_eq!(z.min, Some(Value::Int(2)));
        assert_eq!(z.max, Some(Value::Int(5)));
        assert_eq!((z.nulls, z.rows, z.has_dups), (0, 3, true));
        let z = &chunk.zones()[1];
        assert_eq!(z.min, Some(Value::Str("a".into())));
        assert_eq!(z.max, Some(Value::Str("b".into())));
        assert_eq!((z.nulls, z.has_dups), (1, false));
        // All-NULL column: no bounds at all.
        let z = &chunk.zones()[2];
        assert_eq!((z.min.as_ref(), z.max.as_ref()), (None, None));
        assert_eq!(z.nulls, 3);
    }

    #[test]
    fn double_zones_use_total_order() {
        let chunk = SealedChunk::seal(vec![
            t(vec![Value::Double(f64::NAN)]),
            t(vec![Value::Double(-0.0)]),
            t(vec![Value::Double(1.5)]),
        ]);
        let z = &chunk.zones()[0];
        // total_cmp: -0.0 < 1.5 < NaN.
        assert_eq!(z.min, Some(Value::Double(-0.0)));
        assert!(matches!(z.max, Some(Value::Double(x)) if x.is_nan()));
        assert!(!z.has_dups);
    }

    #[test]
    fn wire_block_is_built_once_and_round_trips() {
        let rows: Vec<Tuple> = (0..10)
            .map(|i| t(vec![Value::Int(i), Value::Str(format!("s{i}"))]))
            .collect();
        let chunk = SealedChunk::seal(rows.clone());
        assert!(!chunk.wire_cached());
        let a = chunk.wire_block();
        assert!(chunk.wire_cached());
        let b = chunk.wire_block();
        assert!(Arc::ptr_eq(&a, &b), "second ship must reuse the frame");
        let cols = a.decode().expect("cached frame decodes");
        let back: Vec<Tuple> = (0..a.rows())
            .map(|i| cols.iter().map(|c| c.value_at(i)).collect())
            .collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn seal_every_default() {
        // The env override is exercised by CI's SEAL_EVERY=8 lane; here we
        // only pin that the cached read yields a usable chunk size.
        assert!(seal_every() > 0);
    }
}
