//! Equality index: multi-map from key values to Rids.

use prisma_types::{Tuple, Value};

use crate::heap::Rid;
use crate::FastMap;

/// Hash index over one or more key columns of a fragment.
///
/// The index is a secondary structure: it stores Rids into the fragment's
/// [`crate::TupleHeap`] and must be maintained on every mutation (the OFM
/// does this). Duplicate keys are supported — each key maps to a postings
/// list.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    map: FastMap<Vec<Value>, Vec<Rid>>,
    entries: usize,
}

impl HashIndex {
    /// New index on the given key columns (in key order).
    pub fn new(key_cols: Vec<usize>) -> Self {
        HashIndex {
            key_cols,
            map: FastMap::default(),
            entries: 0,
        }
    }

    /// Columns this index covers.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of indexed (key, rid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Index `tuple` under its key at `rid`.
    pub fn insert(&mut self, tuple: &Tuple, rid: Rid) {
        let key = tuple.key(&self.key_cols);
        self.map.entry(key).or_default().push(rid);
        self.entries += 1;
    }

    /// Remove the entry for `tuple`/`rid`; returns whether it was present.
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

    /// Rids whose tuples have exactly this key.
    pub fn lookup(&self, key: &[Value]) -> &[Rid] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Point lookup by single value (for single-column indexes).
    pub fn lookup_one(&self, v: &Value) -> &[Rid] {
        self.map
            .get(std::slice::from_ref(v))
            .map(Vec::as_slice)
            .unwrap_or(&[])
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

    #[test]
    fn insert_lookup_remove() {
        let mut idx = HashIndex::new(vec![0]);
        let t1 = tuple![7, "a"];
        let t2 = tuple![7, "b"];
        let t3 = tuple![8, "c"];
        idx.insert(&t1, Rid(0));
        idx.insert(&t2, Rid(1));
        idx.insert(&t3, Rid(2));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.map.len(), 2);
        let hits = idx.lookup_one(&Value::Int(7));
        assert_eq!(hits.len(), 2);
        assert!(idx.remove(&t1, Rid(0)));
        assert_eq!(idx.lookup_one(&Value::Int(7)), &[Rid(1)]);
        assert!(!idx.remove(&t1, Rid(0)), "double remove must report false");
        assert!(idx.remove(&t3, Rid(2)));
        assert!(idx.lookup_one(&Value::Int(8)).is_empty());
        assert_eq!(idx.map.len(), 1, "a key's last rid takes the key along");
    }

    #[test]
    fn composite_keys() {
        let mut idx = HashIndex::new(vec![0, 2]);
        let t = tuple![1, "x", 2];
        idx.insert(&t, Rid(5));
        assert_eq!(idx.lookup(&[Value::Int(1), Value::Int(2)]), &[Rid(5)]);
        assert!(idx.lookup(&[Value::Int(1), Value::Int(3)]).is_empty());
    }

    #[test]
    fn mixed_numeric_keys_unify() {
        // Int(2) and Double(2.0) are Value-equal and hash identically, so
        // a probe with either representation finds the row.
        let mut idx = HashIndex::new(vec![0]);
        idx.insert(&tuple![2], Rid(0));
        assert_eq!(idx.lookup_one(&Value::Double(2.0)), &[Rid(0)]);
    }
}
