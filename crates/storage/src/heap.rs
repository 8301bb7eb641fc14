//! The slotted main-memory tuple store backing every fragment.

use prisma_types::Tuple;

/// Record identifier: a stable slot number within one fragment's heap.
///
/// Rids stay valid across deletions of *other* tuples (slots are reused via
/// a free list, so a Rid is only meaningful while its tuple is live —
/// indexes are maintained on mutation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid(pub u32);

impl Rid {
    /// Slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Main-memory tuple heap with slot reuse and byte accounting.
#[derive(Debug, Default, Clone)]
pub struct TupleHeap {
    slots: Vec<Option<Tuple>>,
    free: Vec<u32>,
    live: usize,
    bytes: usize,
}

impl TupleHeap {
    /// Empty heap.
    pub fn new() -> Self {
        TupleHeap::default()
    }

    /// Number of live tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live tuples remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate bytes of tuple payload held (used for the per-PE memory
    /// ledger).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Insert a tuple, returning its Rid. Reuses a free slot when one
    /// exists so long-lived fragments do not grow monotonically.
    pub fn insert(&mut self, tuple: Tuple) -> Rid {
        self.bytes += tuple.byte_size();
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(tuple);
            Rid(slot)
        } else {
            self.slots.push(Some(tuple));
            Rid((self.slots.len() - 1) as u32)
        }
    }

    /// Fetch a live tuple.
    #[inline]
    pub fn get(&self, rid: Rid) -> Option<&Tuple> {
        self.slots.get(rid.index()).and_then(Option::as_ref)
    }

    /// Delete a tuple, returning it if it was live.
    pub fn delete(&mut self, rid: Rid) -> Option<Tuple> {
        let slot = self.slots.get_mut(rid.index())?;
        let t = slot.take()?;
        self.bytes -= t.byte_size();
        self.live -= 1;
        self.free.push(rid.0);
        Some(t)
    }

    /// Replace the tuple at `rid`, returning the old one. The Rid remains
    /// valid (indexes referencing it must be updated by the caller).
    pub fn update(&mut self, rid: Rid, tuple: Tuple) -> Option<Tuple> {
        let slot = self.slots.get_mut(rid.index())?;
        let old = slot.take()?;
        self.bytes = self.bytes - old.byte_size() + tuple.byte_size();
        *slot = Some(tuple);
        Some(old)
    }

    /// Iterate `(Rid, &Tuple)` over live tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Rid, &Tuple)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (Rid(i as u32), t)))
    }

    /// All live Rids in slot order (snapshot).
    pub fn rids(&self) -> Vec<Rid> {
        self.iter().map(|(r, _)| r).collect()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::tuple;

    #[test]
    fn insert_get_delete() {
        let mut h = TupleHeap::new();
        let r1 = h.insert(tuple![1, "a"]);
        let r2 = h.insert(tuple![2, "b"]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(r1).unwrap().get(0).as_int(), Some(1));
        let gone = h.delete(r1).unwrap();
        assert_eq!(gone.get(1).as_str(), Some("a"));
        assert!(h.get(r1).is_none());
        assert_eq!(h.len(), 1);
        assert!(h.get(r2).is_some());
        // Double delete is a no-op.
        assert!(h.delete(r1).is_none());
    }

    #[test]
    fn slots_are_reused() {
        let mut h = TupleHeap::new();
        let r1 = h.insert(tuple![1]);
        h.insert(tuple![2]);
        h.delete(r1);
        let r3 = h.insert(tuple![3]);
        assert_eq!(r1, r3, "freed slot must be reused");
        assert_eq!(h.slots.len(), 2);
    }

    #[test]
    fn byte_accounting_tracks_mutations() {
        let mut h = TupleHeap::new();
        assert_eq!(h.byte_size(), 0);
        let r = h.insert(tuple![1, "hello"]);
        let sz = h.byte_size();
        assert!(sz > 0);
        h.update(r, tuple![1, "a much longer string than before"]).unwrap();
        assert!(h.byte_size() > sz);
        h.delete(r);
        assert_eq!(h.byte_size(), 0);
    }

    #[test]
    fn iteration_skips_holes() {
        let mut h = TupleHeap::new();
        let rids: Vec<_> = (0..10).map(|i| h.insert(tuple![i])).collect();
        for r in rids.iter().step_by(2) {
            h.delete(*r);
        }
        let vals: Vec<i64> = h
            .iter()
            .map(|(_, t)| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 3, 5, 7, 9]);
        assert_eq!(h.rids().len(), 5);
    }

    #[test]
    fn update_keeps_rid_valid() {
        let mut h = TupleHeap::new();
        let r = h.insert(tuple![1]);
        let old = h.update(r, tuple![2]).unwrap();
        assert_eq!(old, tuple![1]);
        assert_eq!(h.get(r).unwrap(), &tuple![2]);
        assert_eq!(h.len(), 1);
    }
}
