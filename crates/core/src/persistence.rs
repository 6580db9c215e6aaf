//! Tree persistence: compact binary save/load for
//! [`crate::tree::BloomSampleTree`], [`crate::pruned::PrunedBloomSampleTree`]
//! and whole-system snapshots.
//!
//! The framework builds the tree once and reuses it "repeatedly for
//! different query Bloom filters" (§5). A snapshot holds only what the
//! tree cannot derive, and decode builds the tree again: a complete tree
//! is a function of its plan, and a pruned tree of its plan and its ids.
//! Hash families are *not* serialised bit by bit either — they rebuild
//! deterministically from the plan, exactly like the filter codec.
//!
//! Layouts (little-endian):
//!
//! ```text
//! complete: "BSTC" v7 | plan                         (52 bytes)
//! pruned:   "BSTP" v7 | plan | version u64 (mutation counter, resumed
//!           on decode) | id count u64 | occupied ids u64…, ascending
//! system:   "BSTS" v7 | config | backend | store (one slice)
//! backend:  tag u8 (0 dense, 1 pruned) | len u64 | "BSTC" or "BSTP" bytes
//! store:    next_id u64 | set count u32
//!           | per set, ids ascending: id u64, generation u64 per slice,
//!             key count u64, keys u64…, non-decreasing
//! config:   liveness | ratio u8 | correction
//! plan:     namespace u64 | m u64 | k u16 | kind u8 | seed u64
//!           | depth u32 | leaf_capacity u64 | target_accuracy f64
//! cfg tags: liveness 0=BitOverlap 1=EstimateThreshold(+f64)
//!           | ratio 0=MeanCorrectedBits 1=AndCardinality 2=Papapetrou
//!           | correction 0=None 1=Rejection(+f64) 2=RejectionAuto
//! ```
//!
//! No snapshot holds a filter, so no byte sequence can describe a node
//! that disagrees with its range or its ids. A few plan bytes can name a
//! tree of any size, so both tree decoders and the system builder pass
//! the plan through `check_plan` before anything is sized from it.
//! Every decoder accepts only what its encoder writes.
//!
//! `bst-shard`'s sharded snapshot, `"BSTH" v7 | boundaries | config |
//! store | S × backend`, frames the same pieces around its partition
//! ([`put_boundaries`]); its store carries one generation per shard.
//!
//! Version 2 dropped three config bytes and the system's journal cap;
//! version 3 cut the pruned body to its plan, version and ids; version 4
//! stores each set as its keys instead of a counting filter; version 5
//! writes a sharded engine's config and store once, not once per shard;
//! version 6 writes the config's liveness rule once, not once per
//! algorithm; version 7 cuts the complete tree's body to its plan. Older
//! inputs are refused as [`PersistError::BadVersion`].

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
pub const VERSION: u8 = 7;

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

/// The most bytes of node filters a tree may hold: `2^(depth+1) − 1`
/// filters for a complete tree, and at most `min(2^(depth+1) − 1,
/// ids · (depth + 1))` for a pruned one. The largest tree in the
/// paper's tables (Table 3: `M = 10⁷`, depth 13, `m = 101,090`) holds
/// 0.21 GB.
pub(crate) const MAX_TREE_BYTES: u64 = 1 << 30;

/// The largest namespace a complete tree may cover: its build hashes
/// every id `k` times, so the plan alone must not name more.
pub(crate) const MAX_DENSE_NAMESPACE: u64 = 1 << 24;

/// Decodes a plan written by [`put_plan`]. It checks only the hash-kind
/// tag; the tree decoders pass the plan through [`check_plan`].
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
    Ok(TreePlan {
        namespace,
        m,
        k,
        kind,
        seed: input.get_u64_le(),
        depth: input.get_u32_le(),
        leaf_capacity: input.get_u64_le(),
        target_accuracy: input.get_f64_le(),
    })
}

/// The one rule for which plans make a tree: a complete tree when `ids`
/// is `None`, a pruned tree over `ids` occupied ids otherwise. The
/// system builder and both tree decoders call it before building a hash
/// family or sizing anything, so every tree the builder makes reloads.
/// It refuses bad `(kind, k, m, namespace)`, an empty namespace, a depth
/// past `⌈log₂ M⌉` (leaves would hold no ids), a pruned `m` past 2³²
/// (probe positions are `u32`), a complete namespace past
/// [`MAX_DENSE_NAMESPACE`], and node filters past [`MAX_TREE_BYTES`].
pub(crate) fn check_plan(plan: &TreePlan, ids: Option<u64>) -> Result<(), &'static str> {
    bst_bloom::codec::check_params(plan.kind, plan.k, plan.m, plan.namespace)?;
    if plan.namespace == 0 {
        return Err("empty namespace");
    }
    if plan.depth > depth_for(plan.namespace, 1) {
        return Err("depth beyond ceil(log2 M)");
    }
    // The depth is at most 64 here, so the counts fit u128.
    let complete = (2u128 << plan.depth) - 1;
    let nodes = match ids {
        None if plan.namespace > MAX_DENSE_NAMESPACE => {
            return Err("complete tree namespace above 2^24");
        }
        None => complete,
        Some(_) if plan.m as u64 > bst_bloom::MAX_PROBE_TABLE_BITS => {
            return Err("m exceeds the 2^32-bit probe-table limit");
        }
        Some(ids) => complete.min(u128::from(ids) * u128::from(plan.depth + 1)),
    };
    if nodes * plan.m.div_ceil(64) as u128 * 8 > u128::from(MAX_TREE_BYTES) {
        return Err("node filters exceed the 1 GiB tree budget");
    }
    Ok(())
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

/// Decodes `count` little-endian words, advancing `input`.
pub(crate) fn get_words(input: &mut &[u8], count: usize) -> Result<Vec<u64>, PersistError> {
    let len = count.checked_mul(8).filter(|&len| len <= input.len());
    let len = len.ok_or(PersistError::Truncated)?;
    let words = bst_bloom::codec::le_u64s(&input[..len]);
    input.advance(len);
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
    bst_bloom::codec::put_u64s(buf, boundaries);
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
    fn every_paper_table_plan_passes_the_plan_check() {
        use bst_bloom::params::{paper_plan, PAPER_TABLE2, PAPER_TABLE3};
        for (namespace, table) in [(1_000_000, PAPER_TABLE2), (10_000_000, PAPER_TABLE3)] {
            for row in table {
                for kind in [
                    HashKind::Simple,
                    HashKind::Murmur3,
                    HashKind::Md5,
                    HashKind::DeltaBlocked,
                ] {
                    let plan = paper_plan(namespace, row.accuracy, kind, 0).unwrap();
                    assert_eq!(check_plan(&plan, None), Ok(()), "{plan:?}");
                    assert_eq!(check_plan(&plan, Some(namespace)), Ok(()), "{plan:?}");
                }
            }
        }
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
