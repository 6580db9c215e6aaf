//! The "Simple" weakly invertible hash family from the paper:
//! `h_i(x) = ((a_i · x + b_i) mod p) mod m`.
//!
//! The paper (§4) defines a hash `h` as *weakly invertible* when, given
//! `h(x)`, one can enumerate the set of values that hash to `h(x)`. With
//! `p` prime and `a_i` nonzero, `x ↦ (a_i·x + b_i) mod p` is a bijection on
//! `[0, p)`, so the preimages of a bit position `s` are exactly
//! `{ a_i⁻¹ (v − b_i) mod p : v ≡ s (mod m), v < p }` — about `p/m ≈ M/m`
//! values, matching the paper's `O(M/m)` inversion cost.
//!
//! `p` is chosen as the smallest prime at least `max(M, m+1)` so that every
//! namespace element is in the bijection's domain and the outer `mod m` is
//! non-degenerate.

use super::prime::{inv_mod, mul_mod, next_prime, LARGEST_U64_PRIME};

/// One affine coefficient pair with its precomputed inverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Coeff {
    a: u64,
    b: u64,
    a_inv: u64,
}

/// A family of `k` weakly invertible affine hash functions onto `[0, m)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineFamily {
    m: usize,
    /// Prime modulus `>= max(namespace, m + 1)`.
    p: u64,
    /// Namespace size `M`: valid keys are `0..namespace`.
    namespace: u64,
    coeffs: Vec<Coeff>,
    seed: u64,
}

/// Deterministic splitmix64 step, used to derive coefficients from the seed
/// without tying the on-disk format to any RNG crate's stream stability.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl AffineFamily {
    /// Builds `k` affine hash functions for filters of `m` bits over the
    /// namespace `[0, namespace)`, deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 32`, `m < 2`, `namespace == 0`, or
    /// `max(namespace, m + 1)` is past [`LARGEST_U64_PRIME`] (no prime
    /// modulus fits; `bst_bloom::codec::check_params` refuses these).
    pub fn new(k: usize, m: usize, namespace: u64, seed: u64) -> Self {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        assert!(m >= 2, "filter size must be at least 2 bits, got {m}");
        assert!(namespace > 0, "namespace must be non-empty");
        assert!(
            namespace <= LARGEST_U64_PRIME && (m as u64) < LARGEST_U64_PRIME,
            "no u64 prime reaches max(namespace, m + 1)"
        );
        // The assert leaves a prime at or above the bound.
        let p = next_prime(namespace.max(m as u64 + 1)).unwrap_or(LARGEST_U64_PRIME);
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let coeffs = (0..k)
            .map(|_| {
                // a in [1, p), b in [0, p). Rejection keeps the draw uniform.
                let a = loop {
                    let cand = splitmix64(&mut state) % p;
                    if cand != 0 {
                        break cand;
                    }
                };
                let b = splitmix64(&mut state) % p;
                Coeff {
                    a,
                    b,
                    a_inv: inv_mod(a, p),
                }
            })
            .collect();
        AffineFamily {
            m,
            p,
            namespace,
            coeffs,
            seed,
        }
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// Filter size in bits.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Namespace size `M`.
    #[inline]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The prime modulus.
    #[inline]
    pub fn prime(&self) -> u64 {
        self.p
    }

    /// The seed the coefficients were derived from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Bit position of key `x` under hash `i`.
    #[inline]
    pub fn position(&self, x: u64, i: usize) -> usize {
        let c = &self.coeffs[i];
        let v = (mul_mod(c.a, x, self.p) + c.b) % self.p;
        (v % self.m as u64) as usize
    }

    /// All `k` bit positions of key `x`, written into `out[..k]`.
    #[inline]
    pub fn positions(&self, x: u64, out: &mut [usize]) {
        debug_assert!(out.len() >= self.coeffs.len());
        for (i, slot) in out.iter_mut().take(self.coeffs.len()).enumerate() {
            *slot = self.position(x, i);
        }
    }

    /// Iterator over every namespace element `y` with `h_i(y) == bit`.
    ///
    /// Cost: `O(p/m)` iterations regardless of how many preimages land in
    /// the namespace.
    pub fn invert(&self, i: usize, bit: usize) -> Preimages {
        assert!(i < self.coeffs.len(), "hash index {i} out of range");
        assert!((bit as u64) < self.m as u64, "bit {bit} out of range");
        let c = self.coeffs[i];
        Preimages {
            v: bit as u64,
            step: self.m as u64,
            p: self.p,
            b: c.b,
            a_inv: c.a_inv,
            namespace: self.namespace,
        }
    }
}

/// Iterator over the namespace preimages of one bit position under one
/// affine hash function. Yields values in no particular order of magnitude
/// (they follow the inverse-image sequence).
pub struct Preimages {
    /// Next candidate value in `[0, p)` congruent to the bit mod `m`.
    v: u64,
    step: u64,
    p: u64,
    b: u64,
    a_inv: u64,
    namespace: u64,
}

impl Iterator for Preimages {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.v < self.p {
            let diff = (self.v + self.p - self.b % self.p) % self.p;
            let x = mul_mod(self.a_inv, diff, self.p);
            self.v += self.step;
            if x < self.namespace {
                return Some(x);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_in_range() {
        let fam = AffineFamily::new(3, 1000, 100_000, 42);
        let mut out = [0usize; 3];
        for x in (0..100_000u64).step_by(997) {
            fam.positions(x, &mut out);
            for &pos in &out {
                assert!(pos < 1000);
            }
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let a = AffineFamily::new(3, 500, 10_000, 7);
        let b = AffineFamily::new(3, 500, 10_000, 7);
        assert_eq!(a, b);
        let c = AffineFamily::new(3, 500, 10_000, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn inversion_is_complete_and_sound() {
        // Exhaustively check: for every bit, invert() returns exactly the
        // set of namespace elements hashing there.
        let namespace = 5000u64;
        let m = 97usize;
        let fam = AffineFamily::new(2, m, namespace, 3);
        for i in 0..2 {
            let mut by_bit: Vec<Vec<u64>> = vec![Vec::new(); m];
            for x in 0..namespace {
                by_bit[fam.position(x, i)].push(x);
            }
            for (bit, expected) in by_bit.iter().enumerate() {
                let mut got: Vec<u64> = fam.invert(i, bit).collect();
                got.sort_unstable();
                assert_eq!(&got, expected, "hash {i}, bit {bit}");
            }
        }
    }

    #[test]
    fn inversion_cost_is_p_over_m() {
        let fam = AffineFamily::new(1, 100, 1_000_000, 1);
        // p/m ≈ 10000; every preimage candidate is < p so the iterator
        // yields at most ceil(p/m) values.
        let count = fam.invert(0, 50).count();
        let upper = (fam.prime() / 100 + 1) as usize;
        assert!(count <= upper, "{count} > {upper}");
        assert!(count >= 9_000, "{count} suspiciously small");
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let m = 256usize;
        let fam = AffineFamily::new(1, m, 1_000_000, 99);
        let mut counts = vec![0usize; m];
        for x in 0..100_000u64 {
            counts[fam.position(x, 0)] += 1;
        }
        let expected = 100_000.0 / m as f64;
        for (bit, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!(
                (0.7..1.3).contains(&ratio),
                "bit {bit} count {c} deviates from {expected}"
            );
        }
    }

    #[test]
    fn prime_exceeds_namespace_and_m() {
        let fam = AffineFamily::new(2, 1 << 20, 100, 0);
        assert!(fam.prime() > (1 << 20) as u64);
        let fam2 = AffineFamily::new(2, 100, 1 << 30, 0);
        assert!(fam2.prime() >= 1 << 30);
    }

    #[test]
    fn largest_namespace_takes_the_largest_prime() {
        let fam = AffineFamily::new(2, 100, LARGEST_U64_PRIME, 0);
        assert_eq!(fam.prime(), LARGEST_U64_PRIME);
    }

    #[test]
    #[should_panic(expected = "no u64 prime")]
    fn namespace_past_the_largest_prime_panics() {
        let _ = AffineFamily::new(2, 100, LARGEST_U64_PRIME + 1, 0);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let _ = AffineFamily::new(0, 100, 1000, 0);
    }

    #[test]
    fn rebuild_from_params_is_identical() {
        // Families rebuild deterministically from (k, m, namespace, seed) —
        // the property the binary codec relies on instead of serialising
        // coefficients.
        let fam = AffineFamily::new(3, 512, 65_536, 11);
        let back = AffineFamily::new(3, 512, 65_536, 11);
        assert_eq!(fam, back);
        assert_eq!(fam.position(1234, 2), back.position(1234, 2));
    }
}
