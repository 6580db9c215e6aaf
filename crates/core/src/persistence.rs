//! Tree persistence: compact binary save/load for
//! [`crate::tree::BloomSampleTree`], [`crate::pruned::PrunedBloomSampleTree`]
//! and whole-system snapshots.
//!
//! The framework builds the tree once and reuses it "repeatedly for
//! different query Bloom filters" (§5); persisting it turns the multi-
//! second construction at large `M` into a single mmap-friendly read.
//! Hash families are *not* serialised bit by bit — they rebuild
//! deterministically from the plan, exactly like the filter codec.
//!
//! Layouts (little-endian):
//!
//! ```text
//! complete: "BSTC" v6 | plan | node words × node_count
//! pruned:   "BSTP" v6 | plan | version u64 (mutation counter, resumed
//!           on decode) | id count u64 | occupied ids u64…, ascending
//! system:   "BSTS" v6 | config | backend | store (one slice)
//! backend:  tag u8 (0 dense, 1 pruned) | len u64 | "BSTC" or "BSTP" bytes
//! store:    next_id u64 | set count u32
//!           | per set: id u64, generation u64 per slice, key count u64,
//!             keys u64…, non-decreasing
//! config:   liveness | ratio u8 | correction
//! plan:     namespace u64 | m u64 | k u16 | kind u8 | seed u64
//!           | depth u32 | leaf_capacity u64 | target_accuracy f64
//! cfg tags: liveness 0=BitOverlap 1=EstimateThreshold(+f64)
//!           | ratio 0=MeanCorrectedBits 1=AndCardinality 2=Papapetrou
//!           | correction 0=None 1=Rejection(+f64) 2=RejectionAuto
//! ```
//!
//! A pruned snapshot holds no filter: every node filter is the union of
//! its ids' probe rows, so decode rebuilds the tree from the ids and no
//! byte sequence can describe a filter that disagrees with them.
//!
//! `bst-shard`'s sharded snapshot, `"BSTH" v6 | boundaries | config |
//! store | S × backend`, frames the same pieces around its partition
//! ([`put_boundaries`]); its store carries one generation per shard.
//!
//! Version 2 dropped three config bytes and the system's journal cap;
//! version 3 cut the pruned body to its plan, version and ids; version 4
//! stores each set as its keys instead of a counting filter; version 5
//! writes a sharded engine's config and store once, not once per shard;
//! version 6 writes the config's liveness rule once, not once per
//! algorithm. Older inputs are refused as [`PersistError::BadVersion`].

use bst_bloom::hash::HashKind;
use bst_bloom::params::{depth_for, TreePlan};
use bytes::{Buf, BufMut, BytesMut};

use crate::sampler::{BstConfig, Correction, Liveness, RatioEstimator};

/// Errors from decoding a persisted tree, store, or system snapshot.
///
/// Folded into the facade's single error type as
/// [`crate::error::BstError::Persist`], so `system.from_bytes(..)?` composes with
/// every other fallible facade call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// Input ended before the declared structure.
    Truncated,
    /// Magic bytes did not match the expected tree type.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown hash-kind tag.
    BadKind(u8),
    /// Structure is internally inconsistent (counts, ranges, links).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "input truncated"),
            PersistError::BadMagic => write!(f, "bad magic bytes"),
            PersistError::BadVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::BadKind(k) => write!(f, "unknown hash kind {k}"),
            PersistError::Corrupt(what) => write!(f, "corrupt structure: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Snapshot format version shared by every structure in this module (and
/// by the `bst-shard` sharded-system snapshot, which embeds its pieces).
pub const VERSION: u8 = 6;

pub(crate) fn put_plan(buf: &mut BytesMut, plan: &TreePlan) {
    buf.put_u64_le(plan.namespace);
    buf.put_u64_le(plan.m as u64);
    buf.put_u16_le(plan.k as u16);
    buf.put_u8(match plan.kind {
        HashKind::Simple => 0,
        HashKind::Murmur3 => 1,
        HashKind::Md5 => 2,
        HashKind::DeltaBlocked => 3,
    });
    buf.put_u64_le(plan.seed);
    buf.put_u32_le(plan.depth);
    buf.put_u64_le(plan.leaf_capacity);
    buf.put_f64_le(plan.target_accuracy);
}

/// Decodes a plan written by [`put_plan`], refusing one no builder makes
/// and no hash family accepts: bad `(kind, k, m, namespace)`, an empty namespace,
/// or a depth past `⌈log₂ M⌉`. Every tree decoder builds its hasher and
/// sizes its arena from the plan, so these fail typed here.
pub(crate) fn get_plan(input: &mut &[u8]) -> Result<TreePlan, PersistError> {
    if input.remaining() < 8 + 8 + 2 + 1 + 8 + 4 + 8 + 8 {
        return Err(PersistError::Truncated);
    }
    let namespace = input.get_u64_le();
    let m = input.get_u64_le() as usize;
    let k = input.get_u16_le() as usize;
    let kind = match input.get_u8() {
        0 => HashKind::Simple,
        1 => HashKind::Murmur3,
        2 => HashKind::Md5,
        3 => HashKind::DeltaBlocked,
        other => return Err(PersistError::BadKind(other)),
    };
    let seed = input.get_u64_le();
    let depth = input.get_u32_le();
    let leaf_capacity = input.get_u64_le();
    let target_accuracy = input.get_f64_le();
    bst_bloom::codec::check_params(kind, k, m, namespace).map_err(PersistError::Corrupt)?;
    if namespace == 0 {
        return Err(PersistError::Corrupt("empty namespace"));
    }
    // Below one id per leaf the ranges are empty and the levels only
    // multiply nodes: no builder makes such a plan.
    if depth > depth_for(namespace, 1) {
        return Err(PersistError::Corrupt("depth beyond ceil(log2 M)"));
    }
    Ok(TreePlan {
        namespace,
        m,
        k,
        kind,
        seed,
        depth,
        leaf_capacity,
        target_accuracy,
    })
}

fn put_liveness(buf: &mut BytesMut, liveness: Liveness) {
    match liveness {
        Liveness::BitOverlap => buf.put_u8(0),
        Liveness::EstimateThreshold(tau) => {
            buf.put_u8(1);
            buf.put_f64_le(tau);
        }
    }
}

fn get_liveness(input: &mut &[u8]) -> Result<Liveness, PersistError> {
    if input.remaining() < 1 {
        return Err(PersistError::Truncated);
    }
    match input.get_u8() {
        0 => Ok(Liveness::BitOverlap),
        1 => {
            if input.remaining() < 8 {
                return Err(PersistError::Truncated);
            }
            Ok(Liveness::EstimateThreshold(input.get_f64_le()))
        }
        _ => Err(PersistError::Corrupt("unknown liveness tag")),
    }
}

/// Appends a behaviour configuration: `liveness | ratio u8 | correction`.
pub fn put_config(buf: &mut BytesMut, cfg: &BstConfig) {
    put_liveness(buf, cfg.liveness);
    buf.put_u8(match cfg.ratio {
        RatioEstimator::MeanCorrectedBits => 0,
        RatioEstimator::AndCardinality => 1,
        RatioEstimator::Papapetrou => 2,
    });
    match cfg.correction {
        Correction::None => buf.put_u8(0),
        Correction::Rejection { gamma } => {
            buf.put_u8(1);
            buf.put_f64_le(gamma);
        }
        Correction::RejectionAuto => buf.put_u8(2),
    }
}

/// Decodes a configuration written by [`put_config`], refusing one that
/// [`BstConfig::validate`] refuses.
pub fn get_config(input: &mut &[u8]) -> Result<BstConfig, PersistError> {
    let liveness = get_liveness(input)?;
    if input.remaining() < 2 {
        return Err(PersistError::Truncated);
    }
    let ratio = match input.get_u8() {
        0 => RatioEstimator::MeanCorrectedBits,
        1 => RatioEstimator::AndCardinality,
        2 => RatioEstimator::Papapetrou,
        _ => return Err(PersistError::Corrupt("unknown ratio estimator tag")),
    };
    let correction = match input.get_u8() {
        0 => Correction::None,
        1 => {
            if input.remaining() < 8 {
                return Err(PersistError::Truncated);
            }
            Correction::Rejection {
                gamma: input.get_f64_le(),
            }
        }
        2 => Correction::RejectionAuto,
        _ => return Err(PersistError::Corrupt("unknown correction tag")),
    };
    let cfg = BstConfig {
        liveness,
        ratio,
        correction,
    };
    cfg.validate()
        .map_err(|_| PersistError::Corrupt("snapshot configuration invalid"))?;
    Ok(cfg)
}

pub(crate) fn put_words(buf: &mut BytesMut, words: &[u64]) {
    for &w in words {
        buf.put_u64_le(w);
    }
}

/// Appends a `len u64` prefix followed by whatever `put` writes, then
/// patches the length in place: a nested payload is encoded straight
/// into the enclosing buffer, never into a buffer of its own.
pub(crate) fn put_len_prefixed(buf: &mut BytesMut, put: impl FnOnce(&mut BytesMut)) {
    let at = buf.len();
    buf.put_u64_le(0);
    put(buf);
    let len = (buf.len() - at - 8) as u64;
    buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
}

pub(crate) fn get_words(input: &mut &[u8], count: usize) -> Result<Vec<u64>, PersistError> {
    if input.remaining() < count * 8 {
        return Err(PersistError::Truncated);
    }
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        words.push(input.get_u64_le());
    }
    Ok(words)
}

/// Consumes and validates a 4-byte magic plus the [`VERSION`] byte,
/// advancing `input` past them. Public so layered codecs (the sharded
/// system snapshot) frame their own payloads consistently.
pub fn check_header(input: &mut &[u8], magic: &[u8; 4]) -> Result<(), PersistError> {
    if input.remaining() < 5 {
        return Err(PersistError::Truncated);
    }
    let mut got = [0u8; 4];
    input.copy_to_slice(&mut got);
    if &got != magic {
        return Err(PersistError::BadMagic);
    }
    let version = input.get_u8();
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    Ok(())
}

/// Appends a sharded snapshot's partition: `shard_count u32 | boundaries
/// (shard_count + 1) × u64`.
pub fn put_boundaries(buf: &mut BytesMut, boundaries: &[u64]) {
    buf.put_u32_le(boundaries.len().saturating_sub(1) as u32);
    put_words(buf, boundaries);
}

/// Decodes a partition written by [`put_boundaries`], advancing `input`:
/// at least one shard, boundaries starting at 0 and strictly increasing.
/// The last boundary is the namespace bound `M`.
pub fn get_boundaries(input: &mut &[u8]) -> Result<Vec<u64>, PersistError> {
    if input.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let shards = input.get_u32_le() as usize;
    if shards == 0 {
        return Err(PersistError::Corrupt("partition has zero shards"));
    }
    let boundaries = get_words(input, shards + 1)?;
    if boundaries[0] != 0 || boundaries.windows(2).any(|w| w[0] >= w[1]) {
        return Err(PersistError::Corrupt(
            "shard boundaries not ascending from 0",
        ));
    }
    Ok(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_roundtrip() {
        let plan = TreePlan {
            namespace: 1 << 30,
            m: 123_456,
            k: 5,
            kind: HashKind::Md5,
            seed: 0xDEAD_BEEF,
            depth: 12,
            leaf_capacity: 262_144,
            target_accuracy: 0.87,
        };
        let mut buf = BytesMut::new();
        put_plan(&mut buf, &plan);
        let mut slice: &[u8] = &buf;
        let back = get_plan(&mut slice).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn truncated_plan_fails() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(7);
        let mut slice: &[u8] = &buf;
        assert_eq!(get_plan(&mut slice).unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn config_roundtrips_every_variant() {
        for liveness in [Liveness::BitOverlap, Liveness::EstimateThreshold(2.5)] {
            for ratio in [
                RatioEstimator::MeanCorrectedBits,
                RatioEstimator::AndCardinality,
                RatioEstimator::Papapetrou,
            ] {
                for correction in [
                    Correction::None,
                    Correction::Rejection { gamma: 7.0 },
                    Correction::RejectionAuto,
                ] {
                    let cfg = BstConfig {
                        liveness,
                        ratio,
                        correction,
                    };
                    let mut buf = BytesMut::new();
                    put_config(&mut buf, &cfg);
                    let mut s: &[u8] = &buf;
                    assert_eq!(get_config(&mut s).unwrap(), cfg);
                    assert!(s.is_empty());
                }
            }
        }
    }

    #[test]
    fn truncated_config_fails() {
        let mut s: &[u8] = &[1u8]; // EstimateThreshold tag with no f64
        assert_eq!(get_liveness(&mut s).unwrap_err(), PersistError::Truncated);
        let mut s2: &[u8] = &[9u8];
        assert_eq!(
            get_liveness(&mut s2).unwrap_err(),
            PersistError::Corrupt("unknown liveness tag")
        );
    }

    #[test]
    fn shard_manifest_roundtrip_and_validation() {
        let boundaries = vec![0, 250, 500, 1000];
        let mut buf = BytesMut::new();
        put_boundaries(&mut buf, &boundaries);
        let mut s: &[u8] = &buf;
        assert_eq!(get_boundaries(&mut s).unwrap(), boundaries);
        assert!(s.is_empty());

        // Truncation anywhere fails typed.
        for cut in [1, 8, 20, buf.len() - 4] {
            let mut short: &[u8] = &buf[..cut];
            assert_eq!(
                get_boundaries(&mut short).unwrap_err(),
                PersistError::Truncated,
                "cut at {cut}"
            );
        }

        // Non-ascending boundaries, a nonzero start and zero shards are
        // corrupt.
        for bad in [vec![0, 500, 500], vec![1, 500], vec![0]] {
            let mut buf = BytesMut::new();
            put_boundaries(&mut buf, &bad);
            let mut s: &[u8] = &buf;
            assert!(
                matches!(
                    get_boundaries(&mut s).unwrap_err(),
                    PersistError::Corrupt(_)
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn header_checks() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"BSTC");
        buf.put_u8(VERSION);
        let mut s: &[u8] = &buf;
        assert!(check_header(&mut s, b"BSTC").is_ok());
        let mut s2: &[u8] = &buf;
        assert_eq!(
            check_header(&mut s2, b"BSTP").unwrap_err(),
            PersistError::BadMagic
        );
    }
}
