//! # prisma-storage
//!
//! Main-memory storage structures for One-Fragment Managers (paper §2.5):
//!
//! * [`heap::TupleHeap`] — the primary slotted tuple store of a fragment;
//! * [`hash_index::HashIndex`] and [`btree_index::BTreeIndex`] — the
//!   "(various) storage structures" an OFM is generated with;
//! * [`cursor`] — the paper's "markings and cursor maintenance";
//! * [`expr`] — the per-OFM **expression compiler**, which "generate\[s\]
//!   routines dynamically … avoid\[ing\] the otherwise excessive
//!   interpretation overhead incurred by a query expression interpreter":
//!   column-at-a-time kernels that every executor path runs, beside the
//!   interpreter the reference evaluator keeps.
//!
//! Everything here is strictly node-local: distribution lives in
//! `prisma-ofm` / `prisma-gdh`.

pub mod btree_index;
pub mod cursor;
pub mod expr;
pub mod hash_index;
pub mod heap;

pub use btree_index::BTreeIndex;
pub use cursor::{Cursor, Marking};
pub use expr::{ArithOp, CmpOp, CompiledVecExpr, CompiledVecPredicate, ScalarExpr, ZoneRefuter};
pub use hash_index::HashIndex;
pub use heap::{Rid, TupleHeap};

/// A fast, non-cryptographic 64-bit hasher (FNV-1a) used for hash indexes
/// and hash joins, where HashDoS resistance is irrelevant and key
/// throughput dominates.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for [`Fnv1a`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = Fnv1a;
    fn build_hasher(&self) -> Fnv1a {
        Fnv1a::default()
    }
}

/// HashMap keyed with the fast FNV hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FnvBuild>;
/// HashSet keyed with the fast FNV hasher.
pub type FastSet<K> = std::collections::HashSet<K, FnvBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of "a" is 0xaf63dc4c8601ec8c.
        let mut h = FnvBuild.build_hasher();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fast_map_works() {
        let mut m: FastMap<String, i32> = FastMap::default();
        m.insert("x".into(), 1);
        assert_eq!(m.get("x"), Some(&1));
    }
}
