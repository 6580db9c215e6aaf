//! The Bloom filter (§3.1): an `m`-bit array with `k` hash functions,
//! supporting membership, union (bitwise OR) and intersection (bitwise AND).

use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::estimate;
use crate::hash::{BloomHasher, HashKind};

/// Maximum supported number of hash functions; lets position scratch live on
/// the stack.
pub const MAX_K: usize = 32;

/// A Bloom filter storing a set of `u64` keys.
///
/// The hasher is shared via [`Arc`]: every filter in a BloomSampleTree — the
/// thousands of node filters and all query filters — must use the same
/// `(m, H)` so that intersections are meaningful (§5.1), and sharing makes
/// that relationship explicit and cheap.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: BitVec,
    hasher: Arc<BloomHasher>,
}

impl BloomFilter {
    /// Creates an empty filter using `hasher`'s parameters.
    pub fn new(hasher: Arc<BloomHasher>) -> Self {
        let m = hasher.m();
        BloomFilter {
            bits: BitVec::new(m),
            hasher,
        }
    }

    /// Convenience constructor building a fresh hasher.
    pub fn with_params(kind: HashKind, k: usize, m: usize, namespace: u64, seed: u64) -> Self {
        Self::new(Arc::new(BloomHasher::new(kind, k, m, namespace, seed)))
    }

    /// Builds a filter containing every key yielded by `keys`.
    pub fn from_keys<I: IntoIterator<Item = u64>>(hasher: Arc<BloomHasher>, keys: I) -> Self {
        let mut f = Self::new(hasher);
        for x in keys {
            f.insert(x);
        }
        f
    }

    /// Assembles a filter from a raw bit vector and a hash family.
    ///
    /// # Panics
    /// Panics if the bit vector length differs from the hasher's `m`.
    pub fn from_parts(bits: BitVec, hasher: Arc<BloomHasher>) -> Self {
        assert_eq!(
            bits.len(),
            hasher.m(),
            "bit vector length must equal the hash family's m"
        );
        BloomFilter { bits, hasher }
    }

    /// The shared hash family.
    #[inline]
    pub fn hasher(&self) -> &Arc<BloomHasher> {
        &self.hasher
    }

    /// Filter size in bits.
    #[inline]
    pub fn m(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.hasher.k()
    }

    /// Raw bit storage.
    #[inline]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Inserts key `x` (sets its `k` bit positions). Blocked layouts OR
    /// at most two whole words; classic layouts set `k` individual bits.
    pub fn insert(&mut self, x: u64) {
        if let Some(p) = self.hasher.block_probe(x) {
            self.bits.or_word(p.word0, p.mask0);
            self.bits.or_word(p.word1, p.mask1);
            return;
        }
        let mut pos = [0usize; MAX_K];
        let k = self.k();
        self.hasher.positions(x, &mut pos[..k]);
        for &p in &pos[..k] {
            self.bits.set(p);
        }
    }

    /// Membership query: true when all `k` positions of `x` are set.
    /// May be a false positive; never a false negative. Blocked layouts
    /// answer with one or two masked word loads from a single cache
    /// line; classic layouts probe `k` scattered bits.
    pub fn contains(&self, x: u64) -> bool {
        if let Some(p) = self.hasher.block_probe(x) {
            return self.bits.word(p.word0) & p.mask0 == p.mask0
                && self.bits.word(p.word1) & p.mask1 == p.mask1;
        }
        let mut pos = [0usize; MAX_K];
        let k = self.k();
        self.hasher.positions(x, &mut pos[..k]);
        pos[..k].iter().all(|&p| self.bits.get(p))
    }

    /// Bulk-membership kernel: probes every candidate in order, calling
    /// `visit(x)` for each member, and returns the number of candidates
    /// probed. Hoists the hasher-layout dispatch out of the loop; for
    /// blocked layouts the inner loop is two masked word loads per key.
    /// For classic layouts this is exactly a [`Self::contains`] loop, so
    /// results (and visit order) are bit-identical to the naive scan.
    pub fn for_each_member<I, F>(&self, candidates: I, mut visit: F) -> u64
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(u64),
    {
        let mut probed = 0u64;
        match self.hasher.as_ref() {
            BloomHasher::Blocked(fam) => {
                for x in candidates {
                    probed += 1;
                    let p = fam.block_probe(x);
                    if self.bits.word(p.word0) & p.mask0 == p.mask0
                        && self.bits.word(p.word1) & p.mask1 == p.mask1
                    {
                        visit(x);
                    }
                }
            }
            _ => {
                for x in candidates {
                    probed += 1;
                    if self.contains(x) {
                        visit(x);
                    }
                }
            }
        }
        probed
    }

    /// The table twin of [`Self::for_each_member`]: `table` holds the
    /// probe positions of `ids` under `hasher`, `k` per id in order
    /// ([`BloomHasher::push_probe_row`]). When `hasher` is this filter's
    /// family (the same `Arc` or an equal one) each membership test is
    /// `k` bit loads with no hashing; otherwise the ids are hashed
    /// through [`Self::for_each_member`]. Either way the matches, their
    /// order and the returned probed count equal
    /// `for_each_member(ids)`'s.
    pub fn for_each_member_in_table<F: FnMut(u64)>(
        &self,
        hasher: &BloomHasher,
        ids: &[u64],
        table: &[u32],
        mut visit: F,
    ) -> u64 {
        let k = self.k();
        let same_family = std::ptr::eq(self.hasher.as_ref(), hasher) || *self.hasher == *hasher;
        if !same_family || table.len() != ids.len() * k {
            return self.for_each_member(ids.iter().copied(), visit);
        }
        for (&x, row) in ids.iter().zip(table.chunks_exact(k)) {
            if row.iter().all(|&p| self.bits.get(p as usize)) {
                visit(x);
            }
        }
        ids.len() as u64
    }

    /// Sets the bits of stored probe rows (see
    /// [`Self::for_each_member_in_table`]): inserting a table computed
    /// under this filter's family equals inserting its ids, without
    /// hashing them again.
    pub fn insert_probes(&mut self, table: &[u32]) {
        for &p in table {
            self.bits.set(p as usize);
        }
    }

    /// True when no bit is set (the empty-set filter).
    pub fn is_empty(&self) -> bool {
        self.bits.all_zero()
    }

    /// Clears every bit, returning the filter to the empty-set state.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Number of set bits `t`.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Number of zero bits `ẑ`.
    pub fn count_zeros(&self) -> usize {
        self.bits.count_zeros()
    }

    /// Fraction of bits set.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Whether two filters share parameters (same `m` and hash family), the
    /// precondition for union/intersection semantics.
    pub fn compatible_with(&self, other: &BloomFilter) -> bool {
        self.m() == other.m()
            && (Arc::ptr_eq(&self.hasher, &other.hasher) || self.hasher == other.hasher)
    }

    fn assert_compatible(&self, other: &BloomFilter) {
        assert!(
            self.compatible_with(other),
            "Bloom filters must share m and hash family for set operations"
        );
    }

    /// Whether `x` probes `k` **distinct** bit positions under this
    /// filter's hash family (see [`BloomHasher::probes_distinct_bits`]).
    pub fn probes_distinct_bits(&self, x: u64) -> bool {
        self.hasher.probes_distinct_bits(x)
    }

    /// Overwrites this filter's bit array with `other`'s, reusing the
    /// existing allocation — the hot-path sibling of `clone` for exact
    /// filter rebuilds (e.g. pruned-tree removals).
    pub fn copy_bits_from(&mut self, other: &BloomFilter) {
        self.assert_compatible(other);
        self.bits.copy_from(&other.bits);
    }

    /// `self ∪= other`: `B(A ∪ B) = B(A) | B(B)` (§3.1).
    pub fn union_with(&mut self, other: &BloomFilter) {
        self.assert_compatible(other);
        self.bits.union_with(&other.bits);
    }

    /// `self ∩= other`: `B(A) & B(B)`, a superset approximation of
    /// `B(A ∩ B)` (§3.1).
    pub fn intersect_with(&mut self, other: &BloomFilter) {
        self.assert_compatible(other);
        self.bits.intersect_with(&other.bits);
    }

    /// New filter holding `a & b`.
    pub fn intersection(a: &BloomFilter, b: &BloomFilter) -> BloomFilter {
        a.assert_compatible(b);
        let mut out = a.clone();
        out.bits.intersect_with(&b.bits);
        out
    }

    /// New filter holding `a | b`.
    pub fn union(a: &BloomFilter, b: &BloomFilter) -> BloomFilter {
        a.assert_compatible(b);
        let mut out = a.clone();
        out.bits.union_with(&b.bits);
        out
    }

    /// Popcount of `self & other` without materialising the intersection —
    /// the `t∧` input of the intersection-size estimator, and the single
    /// hottest operation of BST traversal.
    pub fn and_count(&self, other: &BloomFilter) -> usize {
        self.assert_compatible(other);
        self.bits.and_count(&other.bits)
    }

    /// Whether `self & other` has at least `threshold` set bits — the
    /// `t∧ ≥ k` liveness test without counting past the threshold.
    pub fn and_count_reaches(&self, other: &BloomFilter, threshold: usize) -> bool {
        self.assert_compatible(other);
        self.bits.and_count_reaches(&other.bits, threshold)
    }

    /// True when `self & other` has no set bit.
    pub fn is_disjoint(&self, other: &BloomFilter) -> bool {
        self.assert_compatible(other);
        self.bits.is_disjoint(&other.bits)
    }

    /// Estimated number of stored elements, `n̂ = ln(ẑ/m) / (k·ln(1−1/m))`.
    pub fn estimate_cardinality(&self) -> f64 {
        estimate::cardinality_from_ones(self.m(), self.k(), self.count_ones())
    }

    /// Estimated `|A ∩ B|` from this filter and `other` via the
    /// Papapetrou et al. estimator (§5.3).
    pub fn estimate_intersection(&self, other: &BloomFilter) -> f64 {
        self.assert_compatible(other);
        let t1 = self.count_ones();
        let t2 = other.count_ones();
        let t_and = self.and_count(other);
        estimate::intersection_estimate(self.m(), self.k(), t1, t2, t_and)
    }

    /// Expected false-positive probability if this filter holds `n` keys.
    pub fn expected_fpp(&self, n: usize) -> f64 {
        estimate::false_positive_rate(self.m(), self.k(), n)
    }

    /// Heap bytes used by the bit array (hasher excluded; it is shared).
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher(kind: HashKind) -> Arc<BloomHasher> {
        Arc::new(BloomHasher::new(kind, 3, 4096, 100_000, 42))
    }

    #[test]
    fn no_false_negatives_all_kinds() {
        for kind in HashKind::ALL {
            let mut f = BloomFilter::new(hasher(kind));
            let keys: Vec<u64> = (0..500).map(|i| i * 17 + 3).collect();
            for &x in &keys {
                f.insert(x);
            }
            for &x in &keys {
                assert!(f.contains(x), "false negative for {x} under {kind}");
            }
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(hasher(HashKind::Murmur3));
        assert!(f.is_empty());
        for x in 0..1000 {
            assert!(!f.contains(x));
        }
    }

    #[test]
    fn false_positive_rate_near_theory() {
        // m=4096, k=3, n=300 -> fpp = (1 - e^{-900/4096})^3 ≈ 0.0077
        let mut f = BloomFilter::new(hasher(HashKind::Murmur3));
        for x in 0..300u64 {
            f.insert(x);
        }
        let theory = f.expected_fpp(300);
        let mut fp = 0usize;
        let trials = 50_000usize;
        for x in 0..trials as u64 {
            if f.contains(1_000_000 + x) {
                fp += 1;
            }
        }
        let measured = fp as f64 / trials as f64;
        assert!(
            (measured - theory).abs() < 0.01,
            "measured {measured}, theory {theory}"
        );
    }

    #[test]
    fn union_equals_filter_of_union() {
        let h = hasher(HashKind::Murmur3);
        let a_keys: Vec<u64> = (0..100).collect();
        let b_keys: Vec<u64> = (50..150).collect();
        let a = BloomFilter::from_keys(h.clone(), a_keys.iter().copied());
        let b = BloomFilter::from_keys(h.clone(), b_keys.iter().copied());
        let u = BloomFilter::union(&a, &b);
        let direct = BloomFilter::from_keys(h, a_keys.into_iter().chain(b_keys));
        assert_eq!(u.bits(), direct.bits(), "B(A∪B) == B(A)|B(B)");
    }

    #[test]
    fn intersection_superset_of_true_intersection() {
        let h = hasher(HashKind::Simple);
        let a = BloomFilter::from_keys(h.clone(), 0..100);
        let b = BloomFilter::from_keys(h.clone(), 50..150);
        let i = BloomFilter::intersection(&a, &b);
        // Every true intersection element must pass membership on the
        // intersected filter.
        for x in 50..100u64 {
            assert!(i.contains(x), "intersection lost {x}");
        }
    }

    #[test]
    fn and_count_matches_materialised_intersection() {
        let h = hasher(HashKind::Murmur3);
        let a = BloomFilter::from_keys(h.clone(), (0..200).map(|i| i * 3));
        let b = BloomFilter::from_keys(h, (0..200).map(|i| i * 5));
        let i = BloomFilter::intersection(&a, &b);
        assert_eq!(a.and_count(&b), i.count_ones());
    }

    #[test]
    fn cardinality_estimate_accurate() {
        let mut f = BloomFilter::with_params(HashKind::Murmur3, 3, 60_000, 1_000_000, 7);
        for x in 0..1000u64 {
            f.insert(x * 7 + 1);
        }
        let est = f.estimate_cardinality();
        assert!(
            (est - 1000.0).abs() < 30.0,
            "cardinality estimate {est} too far from 1000"
        );
    }

    #[test]
    fn intersection_estimate_accurate() {
        let h = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 60_000, 1 << 30, 7));
        // |A| = 1000, |B| = 1000, |A ∩ B| = 300.
        let a = BloomFilter::from_keys(h.clone(), 0..1000);
        let b = BloomFilter::from_keys(h, 700..1700);
        let est = a.estimate_intersection(&b);
        assert!(
            (est - 300.0).abs() < 40.0,
            "intersection estimate {est} too far from 300"
        );
    }

    #[test]
    fn disjoint_filters_estimate_near_zero() {
        let h = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 60_000, 1 << 30, 7));
        let a = BloomFilter::from_keys(h.clone(), 0..500);
        let b = BloomFilter::from_keys(h, 10_000..10_500);
        let est = a.estimate_intersection(&b);
        assert!(est < 20.0, "disjoint estimate {est} should be near zero");
    }

    #[test]
    #[should_panic(expected = "share m and hash family")]
    fn incompatible_filters_panic() {
        let a = BloomFilter::with_params(HashKind::Murmur3, 3, 1024, 1000, 1);
        let mut b = BloomFilter::with_params(HashKind::Murmur3, 3, 2048, 1000, 1);
        b.union_with(&a);
    }

    #[test]
    #[should_panic(expected = "share m and hash family")]
    fn different_seeds_are_incompatible() {
        let a = BloomFilter::with_params(HashKind::Murmur3, 3, 1024, 1000, 1);
        let mut b = BloomFilter::with_params(HashKind::Murmur3, 3, 1024, 1000, 2);
        b.union_with(&a);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::with_params(HashKind::Simple, 3, 512, 10_000, 0);
        f.insert(42);
        assert!(!f.is_empty());
        f.clear();
        assert!(f.is_empty());
        assert!(!f.contains(42));
    }

    #[test]
    fn blocked_word_paths_match_positions_reference() {
        // The word-mask insert/contains fast paths must agree exactly
        // with a per-bit implementation driven by `positions()`.
        let h = hasher(HashKind::DeltaBlocked);
        let mut fast = BloomFilter::new(h.clone());
        let mut reference = crate::bitvec::BitVec::new(4096);
        let keys: Vec<u64> = (0..400).map(|i| i * 13 + 1).collect();
        for &x in &keys {
            fast.insert(x);
            let mut pos = [0usize; MAX_K];
            h.positions(x, &mut pos[..h.k()]);
            for &p in &pos[..h.k()] {
                reference.set(p);
            }
        }
        assert_eq!(fast.bits(), &reference, "insert fast path diverged");
        for x in 0..2000u64 {
            let mut pos = [0usize; MAX_K];
            h.positions(x, &mut pos[..h.k()]);
            let naive = pos[..h.k()].iter().all(|&p| reference.get(p));
            assert_eq!(fast.contains(x), naive, "contains diverged for {x}");
        }
    }

    #[test]
    fn for_each_member_matches_contains_loop() {
        for kind in HashKind::ALL {
            let f = BloomFilter::from_keys(hasher(kind), (0..300).map(|i| i * 11));
            let candidates: Vec<u64> = (0..5000).collect();
            let mut kernel = Vec::new();
            let probed = f.for_each_member(candidates.iter().copied(), |x| kernel.push(x));
            assert_eq!(probed, candidates.len() as u64);
            let naive: Vec<u64> = candidates
                .iter()
                .copied()
                .filter(|&x| f.contains(x))
                .collect();
            assert_eq!(kernel, naive, "kernel diverged under {kind}");
        }
    }

    #[test]
    fn table_kernel_and_probe_insert_match_hashing() {
        for kind in HashKind::ALL {
            let h = hasher(kind);
            let ids: Vec<u64> = (0..2000).map(|i| i * 7 + 1).collect();
            let mut table = Vec::new();
            for &x in &ids {
                assert!(h.push_probe_row(x, &mut table));
            }
            let mut from_table = BloomFilter::new(h.clone());
            from_table.insert_probes(&table[..300 * h.k()]);
            let hashed = BloomFilter::from_keys(h.clone(), ids[..300].iter().copied());
            assert_eq!(
                from_table.bits(),
                hashed.bits(),
                "insert_probes under {kind}"
            );
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let pa = hashed.for_each_member_in_table(&h, &ids, &table, |x| a.push(x));
            let pb = hashed.for_each_member(ids.iter().copied(), |x| b.push(x));
            assert_eq!((pa, a), (pb, b), "kernel diverged under {kind}");
        }
    }

    #[test]
    fn codec_roundtrip_preserves_contents() {
        let mut f = BloomFilter::with_params(HashKind::Md5, 2, 256, 5000, 9);
        f.insert(17);
        f.insert(4999);
        let bytes = crate::codec::encode(&f);
        let back = crate::codec::decode(&bytes).unwrap();
        assert!(back.contains(17));
        assert!(back.contains(4999));
        assert!(back.compatible_with(&f));
    }
}
