//! The §5.4 cost model: how deep a tree should be.
//!
//! The leaf-capacity rule `N⊥/log₂N⊥ ≤ icost/mcost` weighs one child test
//! of the descent (`icost`, a full-width `and_count` over `⌈m/64⌉` words)
//! against one id of a leaf scan (`mcost`). What a leaf scan pays per id
//! depends on the backend:
//!
//! * a complete [`crate::tree::BloomSampleTree`] hashes every namespace id
//!   of its leaf range (`k` hash evaluations and probes), so its leaves
//!   hold at most `N⊥` namespace ids
//!   ([`bst_bloom::params::depth_for`]);
//! * a [`crate::pruned::PrunedBloomSampleTree`] reads one probe-table row
//!   per *occupied* id of its leaf and never looks at the others, so its
//!   depth is the shallowest whose mean occupied ids per materialised
//!   leaf is at most `N⊥` ([`depth_for_occupancy`]).
//!
//! A pruned tree's cold full-range walks no longer scan leaf tables: its
//! first-probe index fills every leaf from one pass over the query's set
//! bits ([`crate::tree::SampleTree::index_pass`]). The rule above
//! therefore prices only the table scans that remain — window-clipped
//! leaves of a range reconstruction and the single leaf a mutation
//! repair refills — and is kept as it was, so the trees it plans do not
//! change. A rule for index-backed leaves is open.
//!
//! Builds take the ratio from constants, so the tree a build makes does
//! not depend on the host: complete trees use the paper's
//! [`PAPER_COST_RATIO`], pruned trees [`table_scan_cost_ratio`] of their
//! filter size. [`CostModel::measure`] times hashed membership and
//! intersection on the spot, for the paper-table experiments that plan
//! from the measured ratio.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
#[cfg(doc)]
use bst_bloom::params::PAPER_COST_RATIO;
use bst_bloom::params::{depth_for, leaf_capacity_for_cost_ratio};

use crate::tree::split;

/// AND-words of a full-width `and_count` that cost as much as one
/// probe-table row check of a pruned leaf scan. Measured at the service
/// engine's plan (m = 61,865 bits = 967 words, k = 3) on a 2-vCPU Intel
/// Xeon: `and_count` 1.02–1.05 µs, a table row 1.7–2.1 ns. Any
/// value in 0.4–0.6 gives that engine the same depth.
pub const AND_WORDS_PER_TABLE_ID: f64 = 0.5;

/// The default pruned-tree `icost/mcost` for a filter of `m` bits:
/// `⌈m/64⌉ · AND_WORDS_PER_TABLE_ID`.
pub fn table_scan_cost_ratio(m: usize) -> f64 {
    m.div_ceil(64) as f64 * AND_WORDS_PER_TABLE_ID
}

/// Leaves at `depth` holding at least one of `occupied` (sorted,
/// distinct): the leaves a pruned tree over `occupied` materialises.
fn materialized_leaves(namespace: u64, depth: u32, occupied: &[u64]) -> u64 {
    fn count(range: Range<u64>, occ: &[u64], levels: u32) -> u64 {
        if occ.is_empty() {
            return 0;
        }
        if levels == 0 {
            return 1;
        }
        let (lr, rr) = split(&range);
        let cut = occ.partition_point(|&x| x < lr.end);
        count(lr, &occ[..cut], levels - 1) + count(rr, &occ[cut..], levels - 1)
    }
    count(0..namespace, occupied, depth)
}

/// The shallowest depth at which pruned trees over `trees` (one sorted,
/// distinct occupancy per tree) hold at most `leaf_capacity` occupied ids
/// per materialised leaf on average. A sharded engine passes one slice
/// per shard, since every shard is its own tree over the whole namespace.
///
/// Never deeper than the namespace rule [`depth_for`], where no leaf
/// holds more than `leaf_capacity` ids at all. With no occupied id there
/// is no mean to read, so the namespace rule decides: a tree that fills
/// later is not stuck as one leaf.
pub fn depth_for_occupancy(namespace: u64, trees: &[&[u64]], leaf_capacity: u64) -> u32 {
    let deepest = depth_for(namespace, leaf_capacity);
    let occupied: u64 = trees.iter().map(|t| t.len() as u64).sum();
    if occupied == 0 {
        return deepest;
    }
    (0..deepest)
        .find(|&depth| {
            let leaves: u64 = trees
                .iter()
                .map(|t| materialized_leaves(namespace, depth, t))
                .sum();
            occupied <= leaf_capacity.saturating_mul(leaves)
        })
        .unwrap_or(deepest)
}

/// The depth a default pruned build derives: [`depth_for_occupancy`] at
/// the leaf capacity of [`table_scan_cost_ratio`]`(m)`. Reads only the
/// filter size and the occupancy, so it is the same on every host.
pub fn default_pruned_depth(namespace: u64, m: usize, trees: &[&[u64]]) -> u32 {
    let cap = leaf_capacity_for_cost_ratio(table_scan_cost_ratio(m));
    depth_for_occupancy(namespace, trees, cap)
}

/// Measured per-operation costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Nanoseconds per hashed membership query: what a complete tree's
    /// leaf scan pays per namespace id.
    pub membership_ns: f64,
    /// Nanoseconds per filter intersection (AND + popcount over `m`
    /// bits): one child test of the descent.
    pub intersection_ns: f64,
}

impl CostModel {
    /// The `icost/mcost` ratio of a complete tree (hashed leaf scans).
    pub fn ratio(&self) -> f64 {
        (self.intersection_ns / self.membership_ns).max(f64::MIN_POSITIVE)
    }

    /// Measures both costs for filters built on `hasher`.
    ///
    /// Builds two half-full filters of the hasher's `m` and times
    /// `contains` over pseudo-random keys and `and_count` between the
    /// filters. Short and repeatable rather
    /// than statistically rigorous — the rule only needs the right order
    /// of magnitude.
    pub fn measure(hasher: &Arc<BloomHasher>) -> CostModel {
        let m = hasher.m();
        let mut a = BloomFilter::new(Arc::clone(hasher));
        let mut b = BloomFilter::new(Arc::clone(hasher));
        // Fill to a realistic density.
        let inserts = (m / (3 * hasher.k())).max(16) as u64;
        for x in 0..inserts {
            a.insert(x.wrapping_mul(0x9E3779B97F4A7C15) >> 8);
            b.insert(x.wrapping_mul(0xBF58476D1CE4E5B9) >> 8);
        }
        let key = |x: u64| x.wrapping_mul(0x94D049BB133111EB) >> 9;

        // Hashed membership cost.
        let mem_reps: u64 = 20_000;
        let start = Instant::now();
        let mut acc = 0u64;
        for x in 0..mem_reps {
            acc += a.contains(key(x)) as u64;
        }
        let membership_ns = start.elapsed().as_nanos() as f64 / mem_reps as f64;
        std::hint::black_box(acc);

        // Intersection cost.
        let int_reps: u64 = (2_000_000_000 / m as u64).clamp(64, 20_000);
        let start = Instant::now();
        let mut acc2 = 0usize;
        for _ in 0..int_reps {
            acc2 = acc2.wrapping_add(a.and_count(&b));
        }
        let intersection_ns = start.elapsed().as_nanos() as f64 / int_reps as f64;
        std::hint::black_box(acc2);

        CostModel {
            membership_ns: membership_ns.max(0.1),
            intersection_ns: intersection_ns.max(0.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::hash::HashKind;
    use bst_bloom::params::m_for_accuracy;

    #[test]
    fn measurement_is_sane() {
        let hasher = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 60_000, 1 << 20, 1));
        let cm = CostModel::measure(&hasher);
        assert!(cm.membership_ns > 0.0);
        assert!(cm.intersection_ns > 0.0);
        // A 60k-bit intersection walks ~940 words; it must cost more than
        // a 3-hash membership probe.
        assert!(
            cm.ratio() > 1.0,
            "intersection should out-cost membership: {cm:?}"
        );
    }

    #[test]
    fn md5_membership_is_slower_than_murmur() {
        // One timing of each can invert while the host is busy: take
        // interleaved rounds and compare each hasher's fastest.
        let hasher = |kind| Arc::new(BloomHasher::new(kind, 3, 60_000, 1 << 20, 1));
        let (mm, md5) = (hasher(HashKind::Murmur3), hasher(HashKind::Md5));
        let (mut mm_ns, mut md5_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            mm_ns = mm_ns.min(CostModel::measure(&mm).membership_ns);
            md5_ns = md5_ns.min(CostModel::measure(&md5).membership_ns);
        }
        assert!(
            md5_ns > mm_ns,
            "MD5 {md5_ns} ns vs Murmur3 {mm_ns} ns (fastest of 5 rounds)"
        );
    }

    #[test]
    fn pruned_depth_counts_occupied_ids_per_leaf() {
        let namespace = 1_000_000u64;
        // Every fourth id occupied: 250,000 ids.
        let occ: Vec<u64> = (0..namespace).step_by(4).collect();
        // Ratio 100, capacity 996: a complete tree's leaves of M/2^d
        // namespace ids fit from depth 10 on. A pruned tree's hold
        // 250,000/2^d occupied ids, at most 996 from depth 8 on — two
        // levels above the namespace rule.
        let cap = leaf_capacity_for_cost_ratio(100.0);
        assert_eq!(depth_for(namespace, cap), 10);
        assert_eq!(depth_for_occupancy(namespace, &[&occ], cap), 8);
        // Ratio 500, capacity 6,311 -> 250,000/2^6 = 3,906 per leaf at
        // depth 6, 7,812 at depth 5.
        let cap = leaf_capacity_for_cost_ratio(500.0);
        assert_eq!(depth_for_occupancy(namespace, &[&occ], cap), 6);
        // The default rule is the occupancy rule at the table-scan ratio.
        let m = 60_870;
        let cap = leaf_capacity_for_cost_ratio(table_scan_cost_ratio(m));
        assert_eq!(
            depth_for_occupancy(namespace, &[&occ], cap),
            default_pruned_depth(namespace, m, &[&occ])
        );
    }

    #[test]
    fn materialized_leaves_follow_the_tree_split() {
        // 10 ids: the left child takes the ceiling half, [0, 5).
        assert_eq!(materialized_leaves(10, 1, &[0, 4]), 1);
        assert_eq!(materialized_leaves(10, 1, &[4, 5]), 2);
        assert_eq!(materialized_leaves(10, 0, &[3]), 1);
        assert_eq!(materialized_leaves(10, 3, &[]), 0);
        let all: Vec<u64> = (0..1024).collect();
        assert_eq!(materialized_leaves(1024, 6, &all), 64);
        assert_eq!(materialized_leaves(1024, 6, &all[..16]), 1);
    }

    #[test]
    fn occupancy_rule_counts_occupied_ids_per_materialized_leaf() {
        let namespace = 1u64 << 16;
        // 1,024 ids packed into one corner: every depth materialises a
        // single leaf until the leaves get narrower than the cluster.
        let corner: Vec<u64> = (0..1024).collect();
        assert_eq!(depth_for_occupancy(namespace, &[&corner], 300), 8);
        // The same count spread evenly: 1024 / 2^d per leaf.
        let spread: Vec<u64> = (0..namespace).step_by(64).collect();
        assert_eq!(depth_for_occupancy(namespace, &[&spread], 300), 2);
        // Never deeper than the namespace rule, which an empty occupancy
        // falls back to.
        let all: Vec<u64> = (0..namespace).collect();
        assert_eq!(
            depth_for_occupancy(namespace, &[&all], 300),
            depth_for(namespace, 300)
        );
        assert_eq!(
            depth_for_occupancy(namespace, &[&[]], 300),
            depth_for(namespace, 300)
        );
        assert_eq!(
            depth_for_occupancy(namespace, &[], 300),
            depth_for(namespace, 300)
        );
    }

    /// The service benchmark's engine: M = 2^20, S = 4 shards, a quarter
    /// of the ids occupied, accuracy 0.9 at n = 1000.
    #[test]
    fn benchmark_engine_derives_depth_6() {
        let namespace = 1u64 << 20;
        let m = m_for_accuracy(0.9, 1000, namespace, 3);
        assert_eq!(m.div_ceil(64), 967);
        // Every fourth id: 65,536 occupied ids in each 2^18 shard slice.
        let occ: Vec<u64> = (0..namespace).step_by(4).collect();
        let shards: Vec<&[u64]> = occ.chunks(occ.len() / 4).collect();
        assert_eq!(default_pruned_depth(namespace, m, &shards), 6);
        // One tree over the same ids plans the same depth.
        assert_eq!(default_pruned_depth(namespace, m, &[&occ]), 6);
        // Any AND-words-per-row constant in 0.4–0.6 agrees.
        for c in [0.4, 0.6] {
            let cap = leaf_capacity_for_cost_ratio(m.div_ceil(64) as f64 * c);
            assert_eq!(depth_for_occupancy(namespace, &shards, cap), 6, "C = {c}");
        }
        // Counting namespace ids instead would stop two levels deeper.
        let cap = leaf_capacity_for_cost_ratio(table_scan_cost_ratio(m));
        assert_eq!(depth_for(namespace, cap), 8);
    }
}
