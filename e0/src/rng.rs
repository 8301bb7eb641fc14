//! The benchmark's own seeded generator (SplitMix64): every per-iteration
//! key sequence comes from here, so the same `--seed` gives the same
//! statements whatever the engine's `rand` shim does.

/// SplitMix64 — small, fast, and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` so two sequences
    /// of one run (keys, amounts) never move in lockstep.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant for
    /// picking benchmark keys).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(7, 1);
        let mut b = SplitMix64::new(7, 1);
        let mut c = SplitMix64::new(8, 1);
        let xs: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..5).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..5).map(|_| c.next_u64()).collect::<Vec<_>>());
        let mut p = SplitMix64::new(1, 2).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
