//! Hash families for Bloom filters.
//!
//! The paper evaluates three families (Table 1, Figure 7):
//!
//! * **Simple** — the weakly invertible affine family `((a·x + b) mod p) mod m`
//!   ([`AffineFamily`]). Cheap to evaluate, and the only family supporting
//!   the HashInvert baseline because bit positions can be inverted back to
//!   candidate namespace elements.
//! * **Murmur3** — MurmurHash3 x64-128 ([`murmur3`]) combined with
//!   Kirsch–Mitzenmacher double hashing: `h_i = h1 + i·h2 (mod m)`.
//! * **MD5** — RFC 1321 MD5 ([`md5`]), also via double hashing; deliberately
//!   expensive, used to show how hash cost shifts the BST/DictionaryAttack
//!   trade-off.

pub mod affine;
pub mod blocked;
pub mod md5;
pub mod murmur3;
pub mod prime;

pub use affine::{AffineFamily, Preimages};
pub use blocked::{BlockProbe, BlockedFamily, BLOCK_WORDS, MIN_BLOCKED_BITS};

/// Largest filter size `m` whose bit positions all fit the `u32` entries
/// of a probe table ([`BloomHasher::push_probe_row`]).
pub const MAX_PROBE_TABLE_BITS: u64 = 1 << 32;

/// Which base hash a family uses. Runtime-selectable because the experiments
/// sweep over families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// Weakly invertible affine family (the paper's "Simple").
    Simple,
    /// MurmurHash3 x64-128 with double hashing.
    Murmur3,
    /// MD5 with double hashing.
    Md5,
    /// Cache-line-blocked murmur3 delta double hashing: all `k` probes
    /// of a key land in one 64-byte block ([`BlockedFamily`]). Not in
    /// the paper's family sweep; requires `m >=` [`MIN_BLOCKED_BITS`].
    DeltaBlocked,
}

impl HashKind {
    /// All supported kinds: the paper's three families in the order the
    /// paper lists them, then the blocked layout.
    pub const ALL: [HashKind; 4] = [
        HashKind::Simple,
        HashKind::Murmur3,
        HashKind::Md5,
        HashKind::DeltaBlocked,
    ];

    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            HashKind::Simple => "Simple",
            HashKind::Murmur3 => "Murmur3",
            HashKind::Md5 => "MD5",
            HashKind::DeltaBlocked => "DeltaBlocked",
        }
    }
}

impl std::fmt::Display for HashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for HashKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "simple" | "affine" => Ok(HashKind::Simple),
            "murmur" | "murmur3" => Ok(HashKind::Murmur3),
            "md5" => Ok(HashKind::Md5),
            "blocked" | "delta-blocked" | "deltablocked" => Ok(HashKind::DeltaBlocked),
            other => Err(format!("unknown hash kind: {other}")),
        }
    }
}

/// Kirsch–Mitzenmacher double-hashing family over a 128-bit base hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoubleHashFamily {
    kind: HashKind,
    k: usize,
    m: usize,
    seed: u32,
}

impl DoubleHashFamily {
    /// Creates a `k`-function family onto `[0, m)` from `seed`.
    ///
    /// # Panics
    /// Panics if `k` is outside `1..=32`, `m < 2`, or `kind` is not a
    /// plain double-hash family ([`HashKind::Simple`] carries affine
    /// state, [`HashKind::DeltaBlocked`] carries block geometry;
    /// construct both via [`BloomHasher::new`]).
    pub fn new(kind: HashKind, k: usize, m: usize, seed: u32) -> Self {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        assert!(m >= 2, "filter size must be at least 2 bits, got {m}");
        assert!(
            matches!(kind, HashKind::Murmur3 | HashKind::Md5),
            "use AffineFamily / BlockedFamily for the {kind} kind"
        );
        DoubleHashFamily { kind, k, m, seed }
    }

    #[inline]
    fn base(&self, x: u64) -> (u64, u64) {
        match self.kind {
            HashKind::Murmur3 => murmur3::murmur3_u64(x, self.seed),
            HashKind::Md5 => md5::md5_u64(x, self.seed),
            // bst-lint: allow(L001) — constructor admits only the two plain kinds
            _ => unreachable!("checked at construction"),
        }
    }

    /// Bit position of key `x` under hash `i`.
    #[inline]
    pub fn position(&self, x: u64, i: usize) -> usize {
        let (h1, h2) = self.base(x);
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.m as u64) as usize
    }

    /// The seed the family was derived from.
    #[inline]
    pub fn seed(&self) -> u32 {
        self.seed
    }

    /// All `k` positions of `x`, computed from a single base-hash evaluation.
    #[inline]
    pub fn positions(&self, x: u64, out: &mut [usize]) {
        debug_assert!(out.len() >= self.k);
        let (h1, h2) = self.base(x);
        let m = self.m as u64;
        let mut acc = h1;
        for slot in out.iter_mut().take(self.k) {
            *slot = (acc % m) as usize;
            acc = acc.wrapping_add(h2);
        }
    }
}

/// A runtime-selected Bloom filter hash family.
///
/// Every filter participating in a BloomSampleTree — tree nodes and query
/// filters alike — must share one `BloomHasher` (same `m`, same functions),
/// because the tree constantly intersects them (§5.1).
#[derive(Clone, Debug, PartialEq)]
pub enum BloomHasher {
    /// The paper's "Simple" weakly invertible family.
    Affine(AffineFamily),
    /// Murmur3 or MD5 double hashing.
    Double(DoubleHashFamily),
    /// Cache-line-blocked delta double hashing.
    Blocked(BlockedFamily),
}

impl BloomHasher {
    /// Builds a family of `kind` with `k` functions onto `[0, m)` for keys in
    /// `[0, namespace)`, deterministically seeded.
    pub fn new(kind: HashKind, k: usize, m: usize, namespace: u64, seed: u64) -> Self {
        match kind {
            HashKind::Simple => BloomHasher::Affine(AffineFamily::new(k, m, namespace, seed)),
            HashKind::DeltaBlocked => BloomHasher::Blocked(BlockedFamily::new(k, m, seed as u32)),
            other => BloomHasher::Double(DoubleHashFamily::new(other, k, m, seed as u32)),
        }
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn k(&self) -> usize {
        match self {
            BloomHasher::Affine(f) => f.k(),
            BloomHasher::Double(f) => f.k,
            BloomHasher::Blocked(f) => f.k(),
        }
    }

    /// Filter size `m` in bits.
    #[inline]
    pub fn m(&self) -> usize {
        match self {
            BloomHasher::Affine(f) => f.m(),
            BloomHasher::Double(f) => f.m,
            BloomHasher::Blocked(f) => f.m(),
        }
    }

    /// Which family this is.
    #[inline]
    pub fn kind(&self) -> HashKind {
        match self {
            BloomHasher::Affine(_) => HashKind::Simple,
            BloomHasher::Double(f) => f.kind,
            BloomHasher::Blocked(_) => HashKind::DeltaBlocked,
        }
    }

    /// Bit position of key `x` under hash function `i < k`.
    #[inline]
    pub fn position(&self, x: u64, i: usize) -> usize {
        match self {
            BloomHasher::Affine(f) => f.position(x, i),
            BloomHasher::Double(f) => f.position(x, i),
            BloomHasher::Blocked(f) => f.position(x, i),
        }
    }

    /// All `k` positions of `x` into `out[..k]`.
    #[inline]
    pub fn positions(&self, x: u64, out: &mut [usize]) {
        match self {
            BloomHasher::Affine(f) => f.positions(x, out),
            BloomHasher::Double(f) => f.positions(x, out),
            BloomHasher::Blocked(f) => f.positions(x, out),
        }
    }

    /// The word-level probe footprint of `x`, when the layout supports
    /// it (only the blocked family does). Fast paths branch on this
    /// once and fall back to per-bit probes for classic layouts.
    #[inline]
    pub fn block_probe(&self, x: u64) -> Option<BlockProbe> {
        match self {
            BloomHasher::Blocked(f) => Some(f.block_probe(x)),
            _ => None,
        }
    }

    /// Whether `x` probes `k` **distinct** bit positions. Double hashing
    /// (`h1 + i·h2 mod m`) can collide within one key's probes (e.g.
    /// `h2 ≡ 0 (mod m)`); such a key sets fewer than `k` bits in any
    /// filter holding it, which weakens `t∧ ≥ k` soundness arguments
    /// for that key. Allocation-free for `k ≤ 16` (the practical range;
    /// the paper uses `k = 3`).
    pub fn probes_distinct_bits(&self, x: u64) -> bool {
        // The blocked family's odd offset stride is a permutation mod
        // 128: its probes are distinct by construction, for every key.
        if matches!(self, BloomHasher::Blocked(_)) {
            return true;
        }
        let k = self.k();
        if k <= 16 {
            let mut buf = [0usize; 16];
            let pos = &mut buf[..k];
            self.positions(x, pos);
            // O(k²) pairwise scan over the stack buffer: cheaper than a
            // sort at these sizes and allocation-free.
            for i in 1..k {
                if pos[..i].contains(&pos[i]) {
                    return false;
                }
            }
            true
        } else {
            let mut pos = vec![0usize; k];
            self.positions(x, &mut pos);
            pos.sort_unstable();
            pos.windows(2).all(|w| w[0] != w[1])
        }
    }

    /// Whether every bit position fits a `u32` probe-table entry, i.e.
    /// `m ≤ 2³²` ([`MAX_PROBE_TABLE_BITS`]). Plans that fail this are
    /// refused where they are validated or decoded.
    #[inline]
    pub fn fits_probe_table(&self) -> bool {
        self.m() as u64 <= MAX_PROBE_TABLE_BITS
    }

    /// Appends the `k` positions of `x`, in [`Self::positions`] order, to
    /// `table` as `u32` entries: one row of a probe table (see
    /// [`crate::filter::BloomFilter::for_each_member_in_table`]). Returns
    /// `false` and leaves `table` unchanged when a position does not fit
    /// `u32`, which happens only when [`Self::fits_probe_table`] is false.
    pub fn push_probe_row(&self, x: u64, table: &mut Vec<u32>) -> bool {
        let k = self.k();
        let mut pos = [0usize; crate::filter::MAX_K];
        self.positions(x, &mut pos[..k]);
        let mut row = [0u32; crate::filter::MAX_K];
        for (entry, &p) in row.iter_mut().zip(&pos[..k]) {
            match u32::try_from(p) {
                Ok(p) => *entry = p,
                Err(_) => return false,
            }
        }
        table.extend_from_slice(&row[..k]);
        true
    }

    /// The seed the family was derived from.
    #[inline]
    pub fn seed(&self) -> u64 {
        match self {
            BloomHasher::Affine(f) => f.seed(),
            BloomHasher::Double(f) => f.seed() as u64,
            BloomHasher::Blocked(f) => f.seed() as u64,
        }
    }

    /// The namespace size the family was built for, where it matters
    /// (affine families are namespace-aware; double-hash families are not).
    #[inline]
    pub fn namespace(&self) -> Option<u64> {
        match self {
            BloomHasher::Affine(f) => Some(f.namespace()),
            BloomHasher::Double(_) | BloomHasher::Blocked(_) => None,
        }
    }

    /// Whether the family is weakly invertible (only the affine family is).
    #[inline]
    pub fn is_invertible(&self) -> bool {
        matches!(self, BloomHasher::Affine(_))
    }

    /// Enumerates the namespace preimages of `bit` under hash `i`, if the
    /// family is invertible.
    pub fn invert(&self, i: usize, bit: usize) -> Option<Preimages> {
        match self {
            BloomHasher::Affine(f) => Some(f.invert(i, bit)),
            BloomHasher::Double(_) | BloomHasher::Blocked(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_construct_and_hash() {
        for kind in HashKind::ALL {
            let h = BloomHasher::new(kind, 3, 1000, 100_000, 1);
            assert_eq!(h.k(), 3);
            assert_eq!(h.m(), 1000);
            assert_eq!(h.kind(), kind);
            let mut out = [0usize; 3];
            h.positions(12345, &mut out);
            for (i, &pos) in out.iter().enumerate() {
                assert!(pos < 1000);
                assert_eq!(pos, h.position(12345, i), "kind {kind}, i {i}");
            }
        }
    }

    #[test]
    fn only_affine_inverts() {
        let simple = BloomHasher::new(HashKind::Simple, 2, 100, 10_000, 5);
        assert!(simple.is_invertible());
        assert!(simple.invert(0, 7).is_some());
        for kind in [HashKind::Murmur3, HashKind::Md5] {
            let h = BloomHasher::new(kind, 2, 100, 10_000, 5);
            assert!(!h.is_invertible());
            assert!(h.invert(0, 7).is_none());
        }
        let h = BloomHasher::new(HashKind::DeltaBlocked, 2, 128, 10_000, 5);
        assert!(!h.is_invertible());
        assert!(h.invert(0, 7).is_none());
        assert!(h.namespace().is_none());
    }

    #[test]
    fn blocked_hasher_dispatch_is_consistent() {
        let h = BloomHasher::new(HashKind::DeltaBlocked, 5, 4096, 100_000, 21);
        assert_eq!(h.kind(), HashKind::DeltaBlocked);
        assert_eq!(h.seed(), 21);
        let mut out = [0usize; 5];
        h.positions(777, &mut out);
        for (i, &pos) in out.iter().enumerate() {
            assert_eq!(pos, h.position(777, i));
        }
        // Probes are distinct for every key, and the word footprint
        // matches the enumerated positions.
        let p = h.block_probe(777).expect("blocked exposes word probes");
        assert_eq!(
            p.mask0.count_ones() + p.mask1.count_ones(),
            5,
            "k distinct bits"
        );
        for x in 0u64..200 {
            assert!(h.probes_distinct_bits(x));
        }
        // Classic layouts expose no word probe.
        let classic = BloomHasher::new(HashKind::Murmur3, 5, 4096, 100_000, 21);
        assert!(classic.block_probe(777).is_none());
    }

    #[test]
    fn inverted_preimages_hash_back() {
        let h = BloomHasher::new(HashKind::Simple, 3, 257, 50_000, 9);
        for i in 0..3 {
            for bit in [0usize, 100, 256] {
                for x in h.invert(i, bit).unwrap().take(50) {
                    assert_eq!(h.position(x, i), bit);
                    assert!(x < 50_000);
                }
            }
        }
    }

    #[test]
    fn double_hash_positions_use_single_base_eval() {
        let f = DoubleHashFamily::new(HashKind::Murmur3, 5, 997, 3);
        let mut out = [0usize; 5];
        f.positions(777, &mut out);
        for (i, &pos) in out.iter().enumerate() {
            assert_eq!(pos, f.position(777, i));
        }
    }

    #[test]
    fn kind_parsing() {
        assert_eq!("simple".parse::<HashKind>().unwrap(), HashKind::Simple);
        assert_eq!("Murmur3".parse::<HashKind>().unwrap(), HashKind::Murmur3);
        assert_eq!("MD5".parse::<HashKind>().unwrap(), HashKind::Md5);
        assert_eq!(
            "blocked".parse::<HashKind>().unwrap(),
            HashKind::DeltaBlocked
        );
        assert_eq!(
            "delta-blocked".parse::<HashKind>().unwrap(),
            HashKind::DeltaBlocked
        );
        assert!("sha1".parse::<HashKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "use AffineFamily")]
    fn double_rejects_simple_kind() {
        let _ = DoubleHashFamily::new(HashKind::Simple, 3, 100, 0);
    }

    #[test]
    fn rebuild_from_params_is_identical() {
        let h = BloomHasher::new(HashKind::Murmur3, 4, 2048, 1 << 20, 77);
        let back = BloomHasher::new(HashKind::Murmur3, 4, 2048, 1 << 20, 77);
        assert_eq!(h, back);
        assert_eq!(h.position(555, 2), back.position(555, 2));
    }
}
