#![forbid(unsafe_code)]
//! # bst-bloom — Bloom filter substrate
//!
//! The Bloom filter layer of the reproduction of *Sampling and
//! Reconstruction Using Bloom Filters* (Sengupta, Bagchi, Bedathur,
//! Ramanath; ICDE 2017). Everything the BloomSampleTree needs from filters
//! lives here:
//!
//! * [`bitvec::BitVec`] — word-packed bit storage with intersection
//!   popcounts and rank/select;
//! * [`hash`] — the three hash families the paper evaluates (Simple affine,
//!   Murmur3, MD5), including weak inversion for the affine family;
//! * [`filter::BloomFilter`] — the filter with union/intersection (§3.1);
//! * [`estimate`] — cardinality / intersection-size / FSO estimators;
//! * [`params`] — accuracy-driven sizing reproducing Tables 2–4;
//! * [`counting::CountingBloomFilter`] — deletion support for dynamic
//!   namespaces;
//! * [`codec`] — compact binary serialization.
//!
//! ## Example
//!
//! ```
//! use bst_bloom::filter::BloomFilter;
//! use bst_bloom::hash::HashKind;
//!
//! let mut filter = BloomFilter::with_params(HashKind::Murmur3, 3, 4096, 100_000, 42);
//! filter.insert(17);
//! assert!(filter.contains(17));
//! assert!(!filter.contains(18)); // whp
//! ```

#![warn(missing_docs)]

pub mod bitvec;
pub mod codec;
pub mod counting;
pub mod estimate;
pub mod filter;
pub mod hash;
pub mod params;

pub use bitvec::BitVec;
pub use counting::CountingBloomFilter;
pub use filter::BloomFilter;
pub use hash::{
    BlockProbe, BlockedFamily, BloomHasher, HashKind, MAX_PROBE_TABLE_BITS, MIN_BLOCKED_BITS,
};
pub use params::TreePlan;
