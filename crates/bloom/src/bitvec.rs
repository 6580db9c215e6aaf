//! Fixed-length bit vector backed by `u64` words.
//!
//! This is the storage substrate for every Bloom filter in the project. The
//! operations the paper's algorithms lean on — bitwise AND/OR, popcounts of
//! intersections without materialising them, iteration and rank/select over
//! set bits — are provided at word granularity.
//!
//! Invariant: bits at positions `>= len` in the last word are always zero, so
//! whole-word popcounts and comparisons are exact.

const WORD_BITS: usize = 64;

/// A fixed-length vector of bits.
#[derive(Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitVec(len={}, ones={}, fill={:.4})",
            self.len,
            self.count_ones(),
            self.fill_ratio()
        )
    }
}

#[inline]
fn word_index(bit: usize) -> (usize, u32) {
    (bit / WORD_BITS, (bit % WORD_BITS) as u32)
}

/// Mask selecting the valid bits of the final word of a `len`-bit vector.
#[inline]
fn tail_mask(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    ///
    /// # Panics
    /// Panics if `len == 0`; a zero-length filter is meaningless and would
    /// make every modulo-`m` hash ill-defined.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "BitVec length must be positive");
        let n_words = len.div_ceil(WORD_BITS);
        BitVec {
            words: vec![0u64; n_words],
            len,
        }
    }

    /// Reconstructs a bit vector from raw words; trailing bits past `len`
    /// are masked off to restore the tail invariant.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert!(len > 0, "BitVec length must be positive");
        let n_words = len.div_ceil(WORD_BITS);
        assert_eq!(words.len(), n_words, "word count does not match length");
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        BitVec { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero length (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw word storage.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes used by the word storage.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Reads word `i` of the backing storage. The word-level probe fast
    /// path for blocked filters: one load answers up to 64 bit tests.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        debug_assert!(i < self.words.len(), "word index {i} out of range");
        self.words[i]
    }

    /// ORs `mask` into word `i`. Callers must not set bits past `len`
    /// (the blocked probe geometry guarantees this by construction);
    /// the tail invariant is checked in debug builds.
    #[inline]
    pub fn or_word(&mut self, i: usize, mask: u64) {
        debug_assert!(i < self.words.len(), "word index {i} out of range");
        debug_assert!(
            i + 1 < self.words.len() || mask & !tail_mask(self.len) == 0,
            "mask would set bits past len {}",
            self.len
        );
        self.words[i] |= mask;
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = word_index(i);
        (self.words[w] >> b) & 1 == 1
    }

    /// Sets bit `i` to one.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = word_index(i);
        self.words[w] |= 1u64 << b;
    }

    /// Sets bit `i` to zero.
    #[inline]
    pub fn reset(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = word_index(i);
        self.words[w] &= !(1u64 << b);
    }

    /// Writes `v` into bit `i`.
    #[inline]
    pub fn assign(&mut self, i: usize, v: bool) {
        if v {
            self.set(i);
        } else {
            self.reset(i);
        }
    }

    /// Zeroes every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// True when no bit is set.
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Fraction of bits set, in `[0, 1]`.
    pub fn fill_ratio(&self) -> f64 {
        self.count_ones() as f64 / self.len as f64
    }

    fn check_same_len(&self, other: &BitVec) {
        assert_eq!(
            self.len, other.len,
            "bit vector length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// `self = other`, reusing this vector's allocation (the allocation-
    /// free sibling of `clone`, for hot rebuild paths).
    pub fn copy_from(&mut self, other: &BitVec) {
        self.check_same_len(other);
        self.words.copy_from_slice(&other.words);
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitVec) {
        self.check_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitVec) {
        self.check_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other`.
    pub fn difference_with(&mut self, other: &BitVec) {
        self.check_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Flips every bit (respecting the tail invariant).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
    }

    /// Popcount of `self & other` without materialising the intersection.
    ///
    /// This is the hot operation of the BloomSampleTree traversal: every node
    /// visit estimates the intersection size from exactly this count.
    pub fn and_count(&self, other: &BitVec) -> usize {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whether `self & other` has at least `threshold` set bits: the
    /// count of [`Self::and_count`], stopped as soon as it reaches the
    /// threshold. Counts a block of words between checks, so the inner
    /// loop stays as tight as `and_count`'s.
    pub fn and_count_reaches(&self, other: &BitVec, threshold: usize) -> bool {
        self.check_same_len(other);
        const BLOCK: usize = 16;
        let mut seen = 0usize;
        for (a, b) in self.words.chunks(BLOCK).zip(other.words.chunks(BLOCK)) {
            if seen >= threshold {
                return true;
            }
            seen += a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum::<usize>();
        }
        seen >= threshold
    }

    /// Popcount of `self | other`.
    pub fn or_count(&self, other: &BitVec) -> usize {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// True when `self & other` has no set bit (early-exits on first overlap).
    pub fn is_disjoint(&self, other: &BitVec) -> bool {
        self.check_same_len(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True when every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        self.check_same_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterator over the positions of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over the positions of zero bits, ascending.
    pub fn iter_zeros(&self) -> Zeros<'_> {
        let first = self.words.first().copied().unwrap_or(u64::MAX);
        Zeros {
            words: &self.words,
            len: self.len,
            word_idx: 0,
            current: !first,
        }
    }

    /// Position of the `rank`-th (0-based) set bit, or `None` if fewer than
    /// `rank + 1` bits are set. Used to draw a uniformly random set bit.
    pub fn select_one(&self, rank: usize) -> Option<usize> {
        let mut remaining = rank;
        for (wi, &w) in self.words.iter().enumerate() {
            let pc = w.count_ones() as usize;
            if remaining < pc {
                return Some(wi * WORD_BITS + select_in_word(w, remaining as u32) as usize);
            }
            remaining -= pc;
        }
        None
    }

    /// Position of the `rank`-th (0-based) zero bit, or `None`.
    pub fn select_zero(&self, rank: usize) -> Option<usize> {
        let mut remaining = rank;
        let last = self.words.len() - 1;
        for (wi, &w) in self.words.iter().enumerate() {
            let mut inv = !w;
            if wi == last {
                inv &= tail_mask(self.len);
            }
            let pc = inv.count_ones() as usize;
            if remaining < pc {
                return Some(wi * WORD_BITS + select_in_word(inv, remaining as u32) as usize);
            }
            remaining -= pc;
        }
        None
    }
}

/// Position of the `rank`-th (0-based) set bit within a single word.
/// Caller guarantees `rank < w.count_ones()`.
#[inline]
fn select_in_word(mut w: u64, rank: u32) -> u32 {
    debug_assert!(rank < w.count_ones());
    // Clear the lowest `rank` set bits, then the answer is the new lowest.
    for _ in 0..rank {
        w &= w - 1;
    }
    w.trailing_zeros()
}

/// Iterator over set-bit positions of a [`BitVec`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

/// Iterator over zero-bit positions of a [`BitVec`].
pub struct Zeros<'a> {
    words: &'a [u64],
    len: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for Zeros<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = !self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        let pos = self.word_idx * WORD_BITS + bit;
        // Tail bits of the final word lie past `len`: exhausted.
        (pos < self.len).then_some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let bv = BitVec::new(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        assert!(bv.all_zero());
        assert_eq!(bv.count_zeros(), 130);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = BitVec::new(0);
    }

    #[test]
    fn set_get_reset_roundtrip() {
        let mut bv = BitVec::new(200);
        for &i in &[0usize, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!bv.get(i));
            bv.set(i);
            assert!(bv.get(i));
        }
        assert_eq!(bv.count_ones(), 8);
        bv.reset(64);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 7);
    }

    #[test]
    fn assign_writes_both_values() {
        let mut bv = BitVec::new(10);
        bv.assign(3, true);
        assert!(bv.get(3));
        bv.assign(3, false);
        assert!(!bv.get(3));
    }

    #[test]
    fn word_boundary_bits() {
        let mut bv = BitVec::new(128);
        bv.set(63);
        bv.set(64);
        assert!(bv.get(63));
        assert!(bv.get(64));
        assert!(!bv.get(62));
        assert!(!bv.get(65));
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![63, 64]);
    }

    #[test]
    fn non_word_aligned_length() {
        let mut bv = BitVec::new(70);
        bv.set(69);
        assert_eq!(bv.count_ones(), 1);
        assert_eq!(bv.count_zeros(), 69);
        bv.negate();
        // Tail invariant: bits 70..128 of word 1 stay zero.
        assert_eq!(bv.count_ones(), 69);
        assert!(!bv.get(69));
        assert!(bv.get(0));
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        a.set(1);
        a.set(70);
        b.set(70);
        b.set(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 70, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![70]);
        assert_eq!(a.and_count(&b), 1);
        assert_eq!(a.or_count(&b), 3);
    }

    #[test]
    fn difference() {
        let mut a = BitVec::new(64);
        let mut b = BitVec::new(64);
        a.set(5);
        a.set(6);
        b.set(6);
        a.difference_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn disjoint_and_subset() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        a.set(10);
        b.set(20);
        assert!(a.is_disjoint(&b));
        b.set(10);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = BitVec::new(10);
        let b = BitVec::new(11);
        let _ = a.and_count(&b);
    }

    #[test]
    fn iter_zeros_respects_len() {
        let mut bv = BitVec::new(67);
        for i in 0..67 {
            bv.set(i);
        }
        bv.reset(0);
        bv.reset(66);
        assert_eq!(bv.iter_zeros().collect::<Vec<_>>(), vec![0, 66]);
    }

    #[test]
    fn select_one_matches_iter() {
        let mut bv = BitVec::new(300);
        let positions = [0usize, 3, 63, 64, 120, 128, 255, 299];
        for &p in &positions {
            bv.set(p);
        }
        for (rank, &p) in positions.iter().enumerate() {
            assert_eq!(bv.select_one(rank), Some(p), "rank {rank}");
        }
        assert_eq!(bv.select_one(positions.len()), None);
    }

    #[test]
    fn select_zero_matches_iter() {
        let mut bv = BitVec::new(70);
        for i in 0..70 {
            bv.set(i);
        }
        bv.reset(13);
        bv.reset(69);
        assert_eq!(bv.select_zero(0), Some(13));
        assert_eq!(bv.select_zero(1), Some(69));
        assert_eq!(bv.select_zero(2), None);
    }

    #[test]
    fn select_in_word_cases() {
        assert_eq!(select_in_word(0b1, 0), 0);
        assert_eq!(select_in_word(0b1010, 0), 1);
        assert_eq!(select_in_word(0b1010, 1), 3);
        assert_eq!(select_in_word(u64::MAX, 63), 63);
        assert_eq!(select_in_word(1u64 << 63, 0), 63);
    }

    #[test]
    fn from_words_masks_tail() {
        let bv = BitVec::from_words(vec![u64::MAX], 10);
        assert_eq!(bv.count_ones(), 10);
    }

    #[test]
    fn negate_is_involution() {
        let mut bv = BitVec::new(130);
        bv.set(0);
        bv.set(129);
        let orig = bv.clone();
        bv.negate();
        assert!(!bv.get(0));
        assert!(bv.get(1));
        bv.negate();
        assert_eq!(bv, orig);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut bv = BitVec::new(99);
        for i in (0..99).step_by(7) {
            bv.set(i);
        }
        bv.clear();
        assert!(bv.all_zero());
    }

    #[test]
    fn fill_ratio_half() {
        let mut bv = BitVec::new(64);
        for i in 0..32 {
            bv.set(i);
        }
        assert!((bv.fill_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn word_and_or_word() {
        let mut bv = BitVec::new(192);
        bv.or_word(1, 0b1010_0001);
        assert_eq!(bv.word(1), 0b1010_0001);
        assert_eq!(bv.word(0), 0);
        assert!(bv.get(64) && bv.get(69) && bv.get(71));
        assert_eq!(bv.count_ones(), 3);
        bv.or_word(1, 0b0100);
        assert_eq!(bv.word(1), 0b1010_0101);
        // Word reads agree with per-bit reads everywhere.
        bv.set(190);
        for w in 0..3 {
            let mut expect = 0u64;
            for b in 0..64 {
                if bv.get(w * 64 + b) {
                    expect |= 1 << b;
                }
            }
            assert_eq!(bv.word(w), expect, "word {w}");
        }
    }

    #[test]
    fn words_roundtrip() {
        let mut bv = BitVec::new(77);
        bv.set(5);
        bv.set(76);
        let back = BitVec::from_words(bv.words().to_vec(), 77);
        assert_eq!(bv, back);
    }
}
