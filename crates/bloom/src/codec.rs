//! Compact binary serialization for Bloom filters.
//!
//! The framework (§3.2) assumes a database `D̄` of *millions* of sets, each
//! stored only as a Bloom filter, so a dense storage format matters. The
//! hash family is reconstructed deterministically from
//! `(kind, k, m, namespace, seed)` rather than serialised coefficient by
//! coefficient.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "BSBF" | version u8 | kind u8 | k u16 | m u64
//! | namespace u64 | seed u64 | word count u64 | words [u64]
//! ```

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bitvec::BitVec;
use crate::filter::{BloomFilter, MAX_K};
use crate::hash::prime::LARGEST_U64_PRIME;
use crate::hash::{BloomHasher, HashKind};

const MAGIC: &[u8; 4] = b"BSBF";
const VERSION: u8 = 1;

/// Errors arising when decoding a serialized filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown hash-kind tag.
    BadKind(u8),
    /// Word payload shorter than the declared count.
    BadLength,
    /// Header parameters outside the representable range (`k` not in
    /// `1..=MAX_K`, or `m` too small to hash into).
    BadParams(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown hash kind tag {k}"),
            CodecError::BadLength => write!(f, "word payload length mismatch"),
            CodecError::BadParams(what) => write!(f, "header parameters invalid: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn kind_tag(kind: HashKind) -> u8 {
    match kind {
        HashKind::Simple => 0,
        HashKind::Murmur3 => 1,
        HashKind::Md5 => 2,
        HashKind::DeltaBlocked => 3,
    }
}

fn kind_from_tag(tag: u8) -> Result<HashKind, CodecError> {
    match tag {
        0 => Ok(HashKind::Simple),
        1 => Ok(HashKind::Murmur3),
        2 => Ok(HashKind::Md5),
        3 => Ok(HashKind::DeltaBlocked),
        other => Err(CodecError::BadKind(other)),
    }
}

/// Rejects `(kind, k, m, namespace)` values the hash families cannot
/// represent, so corrupt headers fail with a typed error instead of
/// panicking (or dividing by zero) while the family is built or first
/// used. Public so every decoder that rebuilds a hash family from
/// untrusted bytes (the tree snapshots too) and every builder check the
/// same rule; the error names the bad field.
pub fn check_params(
    kind: HashKind,
    k: usize,
    m: usize,
    namespace: u64,
) -> Result<(), &'static str> {
    if k == 0 || k > MAX_K {
        return Err("k outside 1..=MAX_K");
    }
    if m < 2 {
        return Err("m below 2");
    }
    if kind == HashKind::DeltaBlocked && m < crate::hash::MIN_BLOCKED_BITS {
        return Err("m below one block for DeltaBlocked");
    }
    // The affine family's prime must reach max(M, m + 1) inside u64.
    if kind == HashKind::Simple && (namespace > LARGEST_U64_PRIME || m as u64 >= LARGEST_U64_PRIME)
    {
        return Err("Simple namespace or m above the largest u64 prime");
    }
    Ok(())
}

/// Serializes `filter` into a compact byte buffer.
pub fn encode(filter: &BloomFilter) -> Bytes {
    let h = filter.hasher();
    let namespace = h.namespace().unwrap_or(1);
    let seed = h.seed();
    let words = filter.bits().words();
    let mut buf = BytesMut::with_capacity(4 + 1 + 1 + 2 + 8 * 4 + words.len() * 8);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind_tag(h.kind()));
    buf.put_u16_le(h.k() as u16);
    buf.put_u64_le(h.m() as u64);
    buf.put_u64_le(namespace);
    buf.put_u64_le(seed);
    buf.put_u64_le(words.len() as u64);
    for &w in words {
        buf.put_u64_le(w);
    }
    buf.freeze()
}

/// Decodes a filter previously produced by [`encode`], rebuilding the hash
/// family deterministically from the header.
pub fn decode(mut input: &[u8]) -> Result<BloomFilter, CodecError> {
    if input.len() < 4 + 1 + 1 + 2 + 8 * 4 {
        return Err(CodecError::Truncated);
    }
    let mut magic = [0u8; 4];
    input.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = input.get_u8();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = kind_from_tag(input.get_u8())?;
    let k = input.get_u16_le() as usize;
    let m = input.get_u64_le() as usize;
    let namespace = input.get_u64_le();
    check_params(kind, k, m, namespace).map_err(CodecError::BadParams)?;
    let seed = input.get_u64_le();
    let n_words = input.get_u64_le() as usize;
    // Validate the claimed word count against `m` *before* sizing any
    // allocation from it: `m.div_ceil(64)` fits in usize/8, so the
    // byte-length product below cannot overflow either.
    if n_words != m.div_ceil(64) {
        return Err(CodecError::BadLength);
    }
    if input.remaining() < n_words * 8 {
        return Err(CodecError::BadLength);
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        words.push(input.get_u64_le());
    }
    let bits = BitVec::from_words(words, m);
    let hasher = Arc::new(BloomHasher::new(kind, k, m, namespace.max(1), seed));
    Ok(BloomFilter::from_parts(bits, hasher))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        for kind in HashKind::ALL {
            let mut f = BloomFilter::with_params(kind, 3, 1234, 50_000, 77);
            for x in (0..500u64).step_by(3) {
                f.insert(x);
            }
            let bytes = encode(&f);
            let back = decode(&bytes).unwrap();
            assert_eq!(back.bits(), f.bits(), "{kind}: bits differ");
            assert!(back.compatible_with(&f), "{kind}: hasher differs");
            for x in 0..500u64 {
                assert_eq!(back.contains(x), f.contains(x), "{kind}: key {x}");
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(b"nope").unwrap_err(), CodecError::Truncated);
        let mut junk = vec![0u8; 64];
        junk[..4].copy_from_slice(b"XXXX");
        assert_eq!(decode(&junk).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn rejects_bad_version_and_kind() {
        let f = BloomFilter::with_params(HashKind::Murmur3, 3, 128, 1000, 1);
        let bytes = encode(&f);
        let mut v = bytes.to_vec();
        v[4] = 99;
        assert_eq!(decode(&v).unwrap_err(), CodecError::BadVersion(99));
        let mut v2 = bytes.to_vec();
        v2[5] = 9;
        assert_eq!(decode(&v2).unwrap_err(), CodecError::BadKind(9));
    }

    #[test]
    fn rejects_truncated_payload() {
        let f = BloomFilter::with_params(HashKind::Murmur3, 3, 4096, 1000, 1);
        let bytes = encode(&f);
        let v = &bytes[..bytes.len() - 8];
        assert_eq!(decode(v).unwrap_err(), CodecError::BadLength);
    }

    #[test]
    fn rejects_unrepresentable_header_params() {
        // Corrupt k/m must fail with a typed error at decode time, not
        // panic (or divide by zero) on the decoded filter's first use.
        let f = BloomFilter::with_params(HashKind::Murmur3, 3, 512, 1000, 1);
        let plain = encode(&f).to_vec();
        // k u16 lives at offset 6..8; m u64 at offset 8..16 (LE).
        let mut big_k = plain.clone();
        big_k[6..8].copy_from_slice(&1000u16.to_le_bytes());
        assert!(matches!(decode(&big_k), Err(CodecError::BadParams(_))));
        let mut zero_k = plain.clone();
        zero_k[6..8].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(decode(&zero_k), Err(CodecError::BadParams(_))));
        let mut zero_m = plain;
        zero_m[8..16].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(decode(&zero_m), Err(CodecError::BadParams(_))));
    }

    #[test]
    fn rejects_sub_block_m_for_blocked_kind() {
        // A header claiming the blocked layout with fewer bits than one
        // two-word block is unrepresentable: typed error, no panic.
        let f = BloomFilter::with_params(HashKind::Murmur3, 3, 64, 1000, 1);
        let mut v = encode(&f).to_vec();
        v[5] = 3; // kind tag: DeltaBlocked
        assert!(matches!(decode(&v), Err(CodecError::BadParams(_))));
    }

    #[test]
    fn rejects_simple_namespaces_past_the_largest_prime() {
        // The affine family needs a prime at or above the namespace; none
        // fits in u64 past 2^64 - 59, so such a header is refused typed.
        let f = BloomFilter::with_params(HashKind::Simple, 3, 512, 1000, 1);
        let at = |namespace: u64| {
            let mut v = encode(&f).to_vec();
            // namespace u64 lives at offset 16..24 (LE).
            v[16..24].copy_from_slice(&namespace.to_le_bytes());
            decode(&v).map(|_| ())
        };
        assert_eq!(at(LARGEST_U64_PRIME), Ok(()));
        for namespace in [LARGEST_U64_PRIME + 1, u64::MAX] {
            assert!(matches!(at(namespace), Err(CodecError::BadParams(_))));
        }
    }

    #[test]
    fn encoding_is_compact() {
        let f = BloomFilter::with_params(HashKind::Simple, 3, 64_000, 1_000_000, 5);
        let bytes = encode(&f);
        // Header is 40 bytes; payload exactly ceil(m/64)*8.
        assert_eq!(bytes.len(), 40 + 64_000usize.div_ceil(64) * 8);
    }
}
