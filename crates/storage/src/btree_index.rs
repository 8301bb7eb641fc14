//! Ordered index supporting range scans.

use std::collections::BTreeMap;
use std::ops::Bound;

use prisma_types::{Tuple, Value};

use crate::heap::Rid;

/// Ordered secondary index over one or more key columns.
///
/// Backed by a B-tree keyed on the total order of [`Value`]; supports the
/// range predicates (`<`, `<=`, `>`, `>=`, `BETWEEN`) that the OFM's local
/// query optimizer routes here instead of scanning the heap.
#[derive(Debug, Clone, Default)]
pub struct BTreeIndex {
    key_cols: Vec<usize>,
    map: BTreeMap<Vec<Value>, Vec<Rid>>,
    entries: usize,
}

impl BTreeIndex {
    /// New ordered index on the given key columns.
    pub fn new(key_cols: Vec<usize>) -> Self {
        BTreeIndex {
            key_cols,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// Columns this index covers.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Index `tuple` at `rid`.
    pub fn insert(&mut self, tuple: &Tuple, rid: Rid) {
        let key = tuple.key(&self.key_cols);
        self.map.entry(key).or_default().push(rid);
        self.entries += 1;
    }

    /// Remove `tuple`/`rid`; returns whether it was present.
    pub fn remove(&mut self, tuple: &Tuple, rid: Rid) -> bool {
        let key = tuple.key(&self.key_cols);
        if let Some(list) = self.map.get_mut(&key) {
            if let Some(pos) = list.iter().position(|&r| r == rid) {
                list.swap_remove(pos);
                if list.is_empty() {
                    self.map.remove(&key);
                }
                self.entries -= 1;
                return true;
            }
        }
        false
    }

    /// Exact-key lookup.
    pub fn lookup(&self, key: &[Value]) -> &[Rid] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Range scan over keys, bounds as in `std::ops::Bound`, yielding Rids
    /// in key order.
    pub fn range(
        &self,
        lower: Bound<Vec<Value>>,
        upper: Bound<Vec<Value>>,
    ) -> impl Iterator<Item = Rid> + '_ {
        self.map
            .range((lower, upper))
            .flat_map(|(_, rids)| rids.iter().copied())
    }

    /// Convenience single-column range with optional inclusive/exclusive
    /// value bounds.
    pub fn range_one(
        &self,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Vec<Rid> {
        let lb = match lower {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(vec![v.clone()]),
            Some((v, false)) => Bound::Excluded(vec![v.clone()]),
        };
        let ub = match upper {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(vec![v.clone()]),
            Some((v, false)) => Bound::Excluded(vec![v.clone()]),
        };
        self.range(lb, ub).collect()
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::tuple;

    fn idx() -> BTreeIndex {
        let mut idx = BTreeIndex::new(vec![0]);
        for (i, v) in [5, 1, 9, 3, 7, 3].iter().enumerate() {
            idx.insert(&tuple![*v], Rid(i as u32));
        }
        idx
    }

    #[test]
    fn ordered_range_scan() {
        let idx = idx();
        let hits = idx.range_one(Some((&Value::Int(3), true)), Some((&Value::Int(7), false)));
        // keys 3 (two rids) and 5.
        assert_eq!(hits.len(), 3);
        assert_eq!(idx.map.keys().next().unwrap(), &[Value::Int(1)]);
        assert_eq!(idx.map.keys().next_back().unwrap(), &[Value::Int(9)]);
    }

    #[test]
    fn unbounded_scans() {
        let idx = idx();
        assert_eq!(idx.range_one(None, None).len(), 6);
        assert_eq!(idx.range_one(Some((&Value::Int(8), true)), None), vec![Rid(2)]);
    }

    #[test]
    fn remove_maintains_order_and_counts() {
        let mut idx = idx();
        assert!(idx.remove(&tuple![3], Rid(3)));
        assert_eq!(idx.lookup(&[Value::Int(3)]), &[Rid(5)]);
        assert!(idx.remove(&tuple![3], Rid(5)));
        assert!(idx.lookup(&[Value::Int(3)]).is_empty());
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.map.len(), 4, "a key's last rid takes the key along");
    }

    #[test]
    fn string_ranges() {
        let mut idx = BTreeIndex::new(vec![0]);
        for (i, s) in ["apple", "banana", "cherry"].iter().enumerate() {
            idx.insert(&tuple![*s], Rid(i as u32));
        }
        let hits = idx.range_one(Some((&Value::from("b"), true)), None);
        assert_eq!(hits, vec![Rid(1), Rid(2)]);
    }
}
