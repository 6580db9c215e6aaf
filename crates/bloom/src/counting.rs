//! Counting Bloom filter: 4-bit counters instead of bits, supporting
//! deletions.
//!
//! The paper's Pruned-BloomSampleTree (§5.2) is motivated by namespaces
//! whose occupancy *changes over time* ("either we need to insert this new
//! element into already existing nodes in the tree, or we need to create a
//! new node"). Deletion support — users leaving the namespace — needs
//! counters; this extension substrate backs the dynamic-namespace features
//! and the `dynamic_namespace` example.
//!
//! Counters saturate at 15 and become sticky: once saturated, neither
//! inserts nor removes change them, trading (rare, bounded) residual bits
//! for the guarantee of no false negatives.

use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::filter::{BloomFilter, MAX_K};
use crate::hash::BloomHasher;

const COUNTER_MAX: u8 = 15;

/// A Bloom filter with 4-bit counters per position.
#[derive(Clone, Debug)]
pub struct CountingBloomFilter {
    /// Two 4-bit counters per byte; position `i` lives in nibble `i & 1` of
    /// byte `i >> 1`.
    counters: Vec<u8>,
    m: usize,
    hasher: Arc<BloomHasher>,
}

impl CountingBloomFilter {
    /// Creates an empty counting filter with `hasher`'s parameters.
    pub fn new(hasher: Arc<BloomHasher>) -> Self {
        let m = hasher.m();
        CountingBloomFilter {
            counters: vec![0u8; m.div_ceil(2)],
            m,
            hasher,
        }
    }

    /// Creates a counting filter with `hasher`'s parameters over `keys`.
    pub fn from_keys<I: IntoIterator<Item = u64>>(hasher: Arc<BloomHasher>, keys: I) -> Self {
        let mut f = Self::new(hasher);
        for x in keys {
            f.insert(x);
        }
        f
    }

    /// Reassembles a counting filter from a raw counter array (as exposed
    /// by [`Self::counter_bytes`]) and its hash family — the codec's
    /// constructor.
    ///
    /// # Panics
    /// Panics if `counters` does not hold exactly `ceil(m/2)` bytes.
    pub fn from_parts(counters: Vec<u8>, hasher: Arc<BloomHasher>) -> Self {
        let m = hasher.m();
        assert_eq!(
            counters.len(),
            m.div_ceil(2),
            "counter array length does not match filter width"
        );
        CountingBloomFilter {
            counters,
            m,
            hasher,
        }
    }

    /// The raw nibble-packed counter array (two counters per byte).
    #[inline]
    pub fn counter_bytes(&self) -> &[u8] {
        &self.counters
    }

    /// Disassembles the filter into its counter array and hash family
    /// (the inverse of [`Self::from_parts`], without copying).
    pub fn into_parts(self) -> (Vec<u8>, Arc<BloomHasher>) {
        (self.counters, self.hasher)
    }

    /// The shared hash family.
    #[inline]
    pub fn hasher(&self) -> &Arc<BloomHasher> {
        &self.hasher
    }

    /// Filter width in positions.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    #[inline]
    fn counter(&self, i: usize) -> u8 {
        let byte = self.counters[i >> 1];
        if i & 1 == 0 {
            byte & 0x0f
        } else {
            byte >> 4
        }
    }

    #[inline]
    fn set_counter(&mut self, i: usize, v: u8) {
        debug_assert!(v <= COUNTER_MAX);
        let byte = &mut self.counters[i >> 1];
        if i & 1 == 0 {
            *byte = (*byte & 0xf0) | v;
        } else {
            *byte = (*byte & 0x0f) | (v << 4);
        }
    }

    /// Inserts key `x`, incrementing its `k` counters (saturating).
    pub fn insert(&mut self, x: u64) {
        let mut pos = [0usize; MAX_K];
        let k = self.hasher.k();
        self.hasher.positions(x, &mut pos[..k]);
        for &p in &pos[..k] {
            let c = self.counter(p);
            if c < COUNTER_MAX {
                self.set_counter(p, c + 1);
            }
        }
    }

    /// Removes key `x`, decrementing its counters. Saturated counters stay
    /// saturated (sticky), preserving the no-false-negative guarantee for
    /// the remaining keys at the cost of possible residual positives.
    ///
    /// Removing a key that was never inserted is an unchecked logical error
    /// (as in all counting Bloom filters) and can introduce false negatives.
    pub fn remove(&mut self, x: u64) {
        let mut pos = [0usize; MAX_K];
        let k = self.hasher.k();
        self.hasher.positions(x, &mut pos[..k]);
        for &p in &pos[..k] {
            let c = self.counter(p);
            if c > 0 && c < COUNTER_MAX {
                self.set_counter(p, c - 1);
            }
        }
    }

    /// Membership query.
    pub fn contains(&self, x: u64) -> bool {
        let mut pos = [0usize; MAX_K];
        let k = self.hasher.k();
        self.hasher.positions(x, &mut pos[..k]);
        pos[..k].iter().all(|&p| self.counter(p) > 0)
    }

    /// Number of positions with nonzero counters.
    pub fn count_nonzero(&self) -> usize {
        self.nonzero_bits().count_ones()
    }

    /// Projects to a plain [`BloomFilter`] (bit set ⇔ counter nonzero),
    /// compatible with BloomSampleTree operations.
    pub fn to_bloom(&self) -> BloomFilter {
        BloomFilter::from_parts(self.nonzero_bits(), Arc::clone(&self.hasher))
    }

    /// The "counter ≠ 0" bit vector, built a word at a time: each 32-byte
    /// run of counters (64 positions) yields one output word from four
    /// 16-counter loads. The pad nibble of an odd `m` lands past bit
    /// `m - 1`, where [`BitVec::from_words`] masks it off.
    fn nonzero_bits(&self) -> BitVec {
        let mut words = Vec::with_capacity(self.m.div_ceil(64));
        let mut runs = self.counters.chunks_exact(32);
        words.extend(runs.by_ref().map(nonzero_run));
        let tail = runs.remainder();
        if !tail.is_empty() {
            let mut run = [0u8; 32];
            run[..tail.len()].copy_from_slice(tail);
            words.push(nonzero_run(&run));
        }
        BitVec::from_words(words, self.m)
    }

    /// Heap bytes used by the counter array.
    pub fn heap_bytes(&self) -> usize {
        self.counters.len()
    }
}

/// Maps a 32-byte run of packed counters (64 positions) to one word of
/// "counter ≠ 0" bits, 16 counters per load.
#[inline]
fn nonzero_run(run: &[u8]) -> u64 {
    run.chunks_exact(8)
        .enumerate()
        .fold(0u64, |word, (lane, bytes)| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(bytes);
            word | nonzero_nibbles(u64::from_le_bytes(buf)) << (16 * lane)
        })
}

/// Maps 16 packed counters (nibble `j` of `x`, little-endian) to 16 flag
/// bits: bit `j` of the result is set iff nibble `j` is nonzero.
#[inline]
fn nonzero_nibbles(x: u64) -> u64 {
    // One flag per nibble, at the nibble's low bit (bit 4j):
    // x | x>>1 | x>>2 | x>>3, in two shift-ors.
    let y = x | x >> 2;
    let f = (y | y >> 1) & 0x1111_1111_1111_1111;
    // Compress: 2 flags per byte, 4 per u16, 8 per u32, then all 16.
    let f = (f | f >> 3) & 0x0303_0303_0303_0303;
    let f = (f | f >> 6) & 0x000f_000f_000f_000f;
    let f = (f | f >> 12) & 0x0000_00ff_0000_00ff;
    (f | f >> 24) & 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashKind;

    fn cbf() -> CountingBloomFilter {
        CountingBloomFilter::new(Arc::new(BloomHasher::new(
            HashKind::Murmur3,
            3,
            2048,
            100_000,
            5,
        )))
    }

    #[test]
    fn insert_then_contains() {
        let mut f = cbf();
        for x in 0..100u64 {
            f.insert(x);
        }
        for x in 0..100u64 {
            assert!(f.contains(x));
        }
    }

    #[test]
    fn remove_clears_membership() {
        let mut f = cbf();
        f.insert(7);
        assert!(f.contains(7));
        f.remove(7);
        assert!(!f.contains(7));
    }

    #[test]
    fn remove_keeps_other_keys() {
        let mut f = cbf();
        for x in 0..200u64 {
            f.insert(x);
        }
        for x in 0..100u64 {
            f.remove(x);
        }
        // No false negatives for the survivors.
        for x in 100..200u64 {
            assert!(f.contains(x), "lost key {x}");
        }
    }

    #[test]
    fn duplicate_inserts_need_matching_removes() {
        let mut f = cbf();
        f.insert(42);
        f.insert(42);
        f.remove(42);
        assert!(f.contains(42), "one remove must not clear two inserts");
        f.remove(42);
        assert!(!f.contains(42));
    }

    #[test]
    fn saturation_is_sticky() {
        let mut f = cbf();
        for _ in 0..100 {
            f.insert(1);
        }
        for _ in 0..100 {
            f.remove(1);
        }
        // Counter saturated at 15; removals do not clear it.
        assert!(f.contains(1));
    }

    #[test]
    fn nibble_packing_is_isolated() {
        let mut f = cbf();
        // Directly exercise adjacent nibbles.
        f.set_counter(10, 9);
        f.set_counter(11, 4);
        assert_eq!(f.counter(10), 9);
        assert_eq!(f.counter(11), 4);
        f.set_counter(10, 0);
        assert_eq!(f.counter(11), 4);
    }

    #[test]
    fn to_bloom_matches_membership() {
        let mut f = cbf();
        for x in (0..500u64).step_by(7) {
            f.insert(x);
        }
        let b = f.to_bloom();
        for x in 0..500u64 {
            assert_eq!(f.contains(x), b.contains(x), "mismatch at {x}");
        }
        assert_eq!(b.count_ones(), f.count_nonzero());
    }

    #[test]
    fn odd_width_filter() {
        let h = Arc::new(BloomHasher::new(HashKind::Murmur3, 2, 101, 1000, 1));
        let mut f = CountingBloomFilter::new(h);
        for x in 0..50u64 {
            f.insert(x);
        }
        for x in 0..50u64 {
            assert!(f.contains(x));
        }
    }
}
