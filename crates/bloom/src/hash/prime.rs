//! Prime-field arithmetic for the weakly invertible affine hash family.
//!
//! The affine family maps `x ↦ ((a·x + b) mod p) mod m` with `p` a prime just
//! above the namespace size, so inversion costs `O(p/m) ≈ O(M/m)` — exactly
//! the bound the paper claims for HashInvert (§4). This module provides
//! deterministic Miller–Rabin primality for `u64`, next-prime search, and
//! modular inverse.

/// `(a * b) mod p` without overflow.
#[inline]
pub fn mul_mod(a: u64, b: u64, p: u64) -> u64 {
    ((a as u128 * b as u128) % p as u128) as u64
}

/// `(base ^ exp) mod p`.
pub fn pow_mod(mut base: u64, mut exp: u64, p: u64) -> u64 {
    if p == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= p;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, p);
        }
        base = mul_mod(base, base, p);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for `u64`.
///
/// The witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is proven
/// sufficient for all `n < 3.317e24`, which covers the full `u64` range.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^r with d odd.
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The largest prime that fits in a `u64`, `2^64 - 59`.
pub const LARGEST_U64_PRIME: u64 = 18_446_744_073_709_551_557;

/// Smallest prime `>= n`, or `None` when `n` is past
/// [`LARGEST_U64_PRIME`] and no prime above it fits in `u64`.
pub fn next_prime(n: u64) -> Option<u64> {
    if n > LARGEST_U64_PRIME {
        return None;
    }
    (n.max(2)..=LARGEST_U64_PRIME).find(|&c| is_prime(c))
}

/// Modular inverse of `a` modulo prime `p` via extended Euclid.
///
/// # Panics
/// Panics when `a % p == 0` (no inverse exists).
pub fn inv_mod(a: u64, p: u64) -> u64 {
    let a = a % p;
    assert!(a != 0, "zero has no modular inverse");
    // Extended Euclid over i128: find x with a*x ≡ 1 (mod p).
    let (mut old_r, mut r) = (a as i128, p as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    debug_assert_eq!(old_r, 1, "inputs must be coprime (p prime, a nonzero)");
    let p = p as i128;
    (((old_s % p) + p) % p) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 101, 7919];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 7917, 7921];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Fermat pseudoprimes that defeat naive tests.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041] {
            assert!(!is_prime(c), "Carmichael number {c} misclassified");
        }
    }

    #[test]
    fn large_primes() {
        assert!(is_prime(4294967311)); // smallest prime > 2^32
        assert!(is_prime(2147483647)); // Mersenne 2^31 - 1
        assert!(is_prime(2305843009213693951)); // Mersenne 2^61 - 1
        assert!(is_prime(18446744073709551557)); // largest u64 prime
        assert!(!is_prime(4294967297)); // F5 = 641 * 6700417
        assert!(!is_prime(2305843009213693953));
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime(0), Some(2));
        assert_eq!(next_prime(2), Some(2));
        assert_eq!(next_prime(8), Some(11));
        assert_eq!(next_prime(1_000_000), Some(1_000_003));
        assert_eq!(next_prime(10_000_000), Some(10_000_019));
        assert_eq!(next_prime(2_200_000_000), Some(2_200_000_009));
        assert_eq!(next_prime(LARGEST_U64_PRIME - 1), Some(LARGEST_U64_PRIME));
        assert_eq!(next_prime(LARGEST_U64_PRIME), Some(LARGEST_U64_PRIME));
        assert_eq!(next_prime(LARGEST_U64_PRIME + 1), None);
        assert_eq!(next_prime(u64::MAX), None);
    }

    #[test]
    fn pow_mod_matches_naive() {
        for base in 1u64..20 {
            let mut acc = 1u64;
            for e in 0u64..16 {
                assert_eq!(pow_mod(base, e, 1_000_003), acc);
                acc = acc * base % 1_000_003;
            }
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let p = 1_000_003u64;
        for a in [1u64, 2, 3, 12345, 999_999, p - 1] {
            let inv = inv_mod(a, p);
            assert_eq!(mul_mod(a, inv, p), 1, "a={a}");
        }
    }

    #[test]
    fn inverse_large_prime() {
        let p = 2_200_000_027u64;
        for a in [7u64, 1_234_567_891, p - 2] {
            assert_eq!(mul_mod(a, inv_mod(a, p), p), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no modular inverse")]
    fn inverse_of_zero_panics() {
        let _ = inv_mod(0, 97);
    }

    #[test]
    fn mul_mod_no_overflow() {
        let p = 18446744073709551557u64;
        assert_eq!(mul_mod(p - 1, p - 1, p), 1); // (-1)^2 = 1
    }
}
