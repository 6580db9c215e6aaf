//! Parameter planning (§5.4): sizing filters for a desired sampling
//! accuracy, and choosing the BloomSampleTree depth / leaf capacity `M⊥`
//! from the relative cost of intersections vs membership queries.
//!
//! The sizing chain, verified against the paper's Tables 2–4:
//!
//! 1. target accuracy `a` → tolerable false-positive rate
//!    `FP* = n(1−a) / (a(M−n))` (inverting `acc = n/(n+(M−n)FP)`);
//! 2. `FP*` → filter size `m = ⌈−kn / ln(1 − FP*^{1/k})⌉`
//!    (inverting `FP = (1−e^{−kn/m})^k`).
//!
//! The paper's `a = 1.0` rows are reproduced at `a = 0.99` (`m = 137230`
//! for `M=10⁶`, `m = 297485` for `M=10⁷`, matching the published tables);
//! exact accuracy 1.0 would need an infinite filter.

use crate::estimate;
use crate::hash::{BloomHasher, HashKind};

/// The paper's default hash-function count (§7.1: "we kept the number of
/// hash functions to 3").
pub const DEFAULT_K: usize = 3;

/// Accuracy used for rows labelled `1.0` in the paper's tables.
pub const MAX_PLANNABLE_ACCURACY: f64 = 0.99;

/// The `icost/mcost` ratio implied by the paper's published `M⊥` values.
/// Complete trees, whose leaf scans hash every namespace id, and the
/// paper-table experiments plan with it. Pruned trees derive their own
/// ratio from the filter size (`bst-core::costmodel`).
pub const PAPER_COST_RATIO: f64 = 128.0;

/// Tolerable false-positive rate for sampling accuracy `a` over a query set
/// of size `n` in a namespace of `M` elements.
///
/// # Panics
/// Panics unless `0 < a <= 1`, `0 < n < M`.
pub fn fp_for_accuracy(accuracy: f64, n: u64, namespace: u64) -> f64 {
    assert!(
        accuracy > 0.0 && accuracy <= 1.0,
        "accuracy must be in (0, 1], got {accuracy}"
    );
    assert!(n > 0, "query set size must be positive");
    assert!(n < namespace, "query set cannot exceed the namespace");
    let a = accuracy.min(MAX_PLANNABLE_ACCURACY);
    let n = n as f64;
    n * (1.0 - a) / (a * (namespace as f64 - n))
}

/// Minimum filter size `m` (bits) for a false-positive rate `fp` with `k`
/// hashes and `n` stored keys: `m = ⌈−kn / ln(1 − fp^{1/k})⌉`.
pub fn m_for_fp(fp: f64, n: u64, k: usize) -> usize {
    assert!(fp > 0.0 && fp < 1.0, "fp must be in (0,1), got {fp}");
    assert!(n > 0 && k > 0);
    let root = fp.powf(1.0 / k as f64);
    let m = -((k as u64 * n) as f64) / (1.0 - root).ln();
    m.ceil() as usize
}

/// Filter size for a target sampling accuracy (composition of
/// [`fp_for_accuracy`] and [`m_for_fp`]).
pub fn m_for_accuracy(accuracy: f64, n: u64, namespace: u64, k: usize) -> usize {
    m_for_fp(fp_for_accuracy(accuracy, n, namespace), n, k)
}

/// Largest leaf capacity `N⊥` satisfying the §5.4 rule
/// `N⊥ / log₂(N⊥) ≤ icost/mcost`, for a measured cost ratio.
///
/// Below `N = 2` the rule is vacuous; the returned value is at least 2.
pub fn leaf_capacity_for_cost_ratio(cost_ratio: f64) -> u64 {
    assert!(cost_ratio.is_finite() && cost_ratio > 0.0);
    // N / log2(N) is increasing for N >= 3; binary search the crossover.
    let f = |n: u64| n as f64 / (n as f64).log2();
    if f(3) > cost_ratio {
        return 2;
    }
    let (mut lo, mut hi) = (3u64, 3u64);
    while f(hi) <= cost_ratio {
        lo = hi;
        match hi.checked_mul(2) {
            Some(next) => hi = next,
            None => return lo,
        }
    }
    // Invariant: f(lo) <= ratio < f(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if f(mid) <= cost_ratio {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Tree depth (number of edge levels) so that leaves hold at most
/// `leaf_capacity` namespace elements: `⌈log₂(M / leaf_capacity)⌉`.
pub fn depth_for(namespace: u64, leaf_capacity: u64) -> u32 {
    assert!(namespace > 0 && leaf_capacity > 0);
    if leaf_capacity >= namespace {
        return 0;
    }
    let ratio = namespace.div_ceil(leaf_capacity);
    // ceil(log2(ratio))
    64 - (ratio - 1).leading_zeros()
}

/// Elements per leaf for a namespace split into `2^depth` leaves.
pub fn leaf_size(namespace: u64, depth: u32) -> u64 {
    namespace.div_ceil(1u64 << depth)
}

/// A fully resolved plan for one BloomSampleTree deployment: filter
/// parameters plus tree shape.
#[derive(Clone, Debug, PartialEq)]
pub struct TreePlan {
    /// Namespace size `M`.
    pub namespace: u64,
    /// Filter size in bits (shared by tree nodes and query filters).
    pub m: usize,
    /// Number of hash functions.
    pub k: usize,
    /// Hash family.
    pub kind: HashKind,
    /// Seed for the shared hash family.
    pub seed: u64,
    /// Tree depth: leaves sit at this level; level 0 is the root.
    pub depth: u32,
    /// Elements covered by each leaf (`M⊥`).
    pub leaf_capacity: u64,
    /// Target accuracy this plan was derived for (informational).
    pub target_accuracy: f64,
}

impl TreePlan {
    /// Plans a tree for `namespace`, expecting query sets around `n`
    /// elements, at the given target accuracy, with an
    /// intersection/membership cost ratio: leaves hold at most
    /// [`leaf_capacity_for_cost_ratio`] namespace ids. That is the rule
    /// for complete trees, which plan with [`PAPER_COST_RATIO`];
    /// `bst-core::costmodel` measures the ratio and plans pruned trees by
    /// occupancy instead.
    pub fn for_accuracy(
        namespace: u64,
        n: u64,
        accuracy: f64,
        k: usize,
        kind: HashKind,
        seed: u64,
        cost_ratio: f64,
    ) -> Self {
        let m = m_for_accuracy(accuracy, n, namespace, k);
        let cap = leaf_capacity_for_cost_ratio(cost_ratio);
        let depth = depth_for(namespace, cap);
        TreePlan {
            namespace,
            m,
            k,
            kind,
            seed,
            depth,
            leaf_capacity: leaf_size(namespace, depth),
            target_accuracy: accuracy,
        }
    }

    /// This plan with its tree cut at `depth` (`m` and the hash family
    /// unchanged).
    pub fn with_depth(self, depth: u32) -> Self {
        TreePlan {
            depth,
            leaf_capacity: leaf_size(self.namespace, depth),
            ..self
        }
    }

    /// Builds the shared hash family for this plan.
    pub fn build_hasher(&self) -> BloomHasher {
        BloomHasher::new(self.kind, self.k, self.m, self.namespace, self.seed)
    }

    /// Number of nodes in the complete tree (all levels, root included).
    pub fn node_count(&self) -> u64 {
        (1u64 << (self.depth + 1)) - 1
    }

    /// Analytic memory of the complete tree's bit arrays, in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.node_count() * (self.m as u64).div_ceil(8)
    }

    /// Memory under the paper's Tables 2/3 node-count convention
    /// (`m · (2^depth − 1)` bits), for verbatim table reproduction.
    pub fn memory_bytes_paper_convention(&self) -> u64 {
        ((1u64 << self.depth) - 1) * (self.m as u64).div_ceil(8)
    }

    /// Expected sampling accuracy of this plan for query sets of size `n`.
    pub fn expected_accuracy(&self, n: usize) -> f64 {
        estimate::accuracy(self.m, self.k, n, self.namespace)
    }
}

/// One row of the paper's Tables 2/3, pinned so experiments can regenerate
/// those tables verbatim even where the cost-ratio inputs behind the
/// published `M⊥` values are unknown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// Target sampling accuracy of the row.
    pub accuracy: f64,
    /// Published filter size in bits.
    pub m: usize,
    /// Published tree depth.
    pub depth: u32,
    /// Published leaf capacity `M⊥`.
    pub leaf_capacity: u64,
}

/// Table 2: `M = 10⁶`, `n = 10³`, `k = 3`.
pub const PAPER_TABLE2: [PaperRow; 6] = [
    PaperRow {
        accuracy: 0.5,
        m: 28_465,
        depth: 10,
        leaf_capacity: 976,
    },
    PaperRow {
        accuracy: 0.6,
        m: 32_808,
        depth: 10,
        leaf_capacity: 976,
    },
    PaperRow {
        accuracy: 0.7,
        m: 38_259,
        depth: 10,
        leaf_capacity: 976,
    },
    PaperRow {
        accuracy: 0.8,
        m: 46_000,
        depth: 9,
        leaf_capacity: 1953,
    },
    PaperRow {
        accuracy: 0.9,
        m: 60_870,
        depth: 9,
        leaf_capacity: 1953,
    },
    PaperRow {
        accuracy: 1.0,
        m: 137_230,
        depth: 6,
        leaf_capacity: 15_625,
    },
];

/// Table 3: `M = 10⁷`, `n = 10³`, `k = 3`.
pub const PAPER_TABLE3: [PaperRow; 6] = [
    PaperRow {
        accuracy: 0.5,
        m: 63_120,
        depth: 13,
        leaf_capacity: 1220,
    },
    PaperRow {
        accuracy: 0.6,
        m: 72_475,
        depth: 13,
        leaf_capacity: 1220,
    },
    PaperRow {
        accuracy: 0.7,
        m: 84_215,
        depth: 13,
        leaf_capacity: 1220,
    },
    PaperRow {
        accuracy: 0.8,
        m: 101_090,
        depth: 13,
        leaf_capacity: 1220,
    },
    PaperRow {
        accuracy: 0.9,
        m: 132_933,
        depth: 12,
        leaf_capacity: 2441,
    },
    PaperRow {
        accuracy: 1.0,
        m: 297_485,
        depth: 10,
        leaf_capacity: 9765,
    },
];

/// A plan pinned to a published table row, when one exists for
/// `(namespace, accuracy)`.
pub fn paper_plan(namespace: u64, accuracy: f64, kind: HashKind, seed: u64) -> Option<TreePlan> {
    let table: &[PaperRow] = match namespace {
        1_000_000 => &PAPER_TABLE2,
        10_000_000 => &PAPER_TABLE3,
        _ => return None,
    };
    table
        .iter()
        .find(|row| (row.accuracy - accuracy).abs() < 1e-9)
        .map(|row| TreePlan {
            namespace,
            m: row.m,
            k: DEFAULT_K,
            kind,
            seed,
            depth: row.depth,
            leaf_capacity: leaf_size(namespace, row.depth),
            target_accuracy: accuracy,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sizing chain must reproduce every `m` in Tables 2 and 3 to
    /// within rounding (±2 bits).
    #[test]
    fn m_reproduces_paper_tables() {
        for row in PAPER_TABLE2 {
            let m = m_for_accuracy(row.accuracy, 1000, 1_000_000, 3);
            // The paper's Table 2 lists m = 46000 for accuracy 0.8 but its
            // own Table 4 lists 46090 for the identical configuration; the
            // sizing formula yields 46090, so Table 2's value is treated as
            // a typo.
            let paper_m = if (row.accuracy - 0.8).abs() < 1e-9 {
                46_090
            } else {
                row.m as i64
            };
            assert!(
                (m as i64 - paper_m).abs() <= 2,
                "Table2 acc {}: got {m}, paper {}",
                row.accuracy,
                paper_m
            );
        }
        for row in PAPER_TABLE3 {
            let m = m_for_accuracy(row.accuracy, 1000, 10_000_000, 3);
            assert!(
                (m as i64 - row.m as i64).abs() <= 2,
                "Table3 acc {}: got {m}, paper {}",
                row.accuracy,
                row.m
            );
        }
    }

    #[test]
    fn fp_for_accuracy_inverts_accuracy() {
        let fp = fp_for_accuracy(0.8, 1000, 1_000_000);
        // acc = n/(n+(M-n)fp) must give back 0.8.
        let acc = 1000.0 / (1000.0 + 999_000.0 * fp);
        assert!((acc - 0.8).abs() < 1e-12);
    }

    #[test]
    fn accuracy_one_is_clamped() {
        let fp1 = fp_for_accuracy(1.0, 1000, 1_000_000);
        let fp99 = fp_for_accuracy(0.99, 1000, 1_000_000);
        assert_eq!(fp1, fp99);
    }

    #[test]
    fn m_for_fp_monotone() {
        let m_loose = m_for_fp(0.1, 1000, 3);
        let m_tight = m_for_fp(0.001, 1000, 3);
        assert!(m_tight > m_loose);
    }

    #[test]
    fn leaf_capacity_rule() {
        // N/log2(N): 976 -> ~99.2, 1953 -> ~178.3.
        let cap = leaf_capacity_for_cost_ratio(100.0);
        assert!(cap as f64 / (cap as f64).log2() <= 100.0);
        assert!((cap + 1) as f64 / ((cap + 1) as f64).log2() > 100.0);
        assert!((976..1953).contains(&cap), "cap {cap}");
        assert_eq!(leaf_capacity_for_cost_ratio(0.5), 2);
    }

    #[test]
    fn depth_examples() {
        // 10^6 / 976 = 1024.6 -> depth 11? ceil(log2(1025)) = 11.
        // The paper's Table 2 pairs depth 10 with M_bot 976 = floor(1e6/2^10);
        // our depth_for computes from capacity: 1e6/977 -> 1024 leaves.
        assert_eq!(depth_for(1_000_000, 977), 10);
        assert_eq!(depth_for(1_000_000, 15_625), 6);
        assert_eq!(depth_for(1024, 1), 10);
        assert_eq!(depth_for(1024, 1024), 0);
        assert_eq!(depth_for(1025, 1024), 1);
    }

    #[test]
    fn leaf_size_roundtrip() {
        assert_eq!(leaf_size(1_000_000, 10), 977);
        assert_eq!(leaf_size(1_000_000, 6), 15_625);
        assert_eq!(leaf_size(10_000_000, 13), 1221);
        // depth 0: one leaf holds everything
        assert_eq!(leaf_size(42, 0), 42);
    }

    #[test]
    fn tree_plan_construction() {
        let plan = TreePlan::for_accuracy(
            1_000_000,
            1000,
            0.9,
            3,
            HashKind::Murmur3,
            1,
            PAPER_COST_RATIO,
        );
        assert_eq!(plan.k, 3);
        assert!((plan.m as i64 - 60_870).abs() <= 2);
        assert!(plan.depth >= 8 && plan.depth <= 11, "depth {}", plan.depth);
        assert_eq!(plan.leaf_capacity, leaf_size(1_000_000, plan.depth));
        let h = plan.build_hasher();
        assert_eq!(h.m(), plan.m);
        let acc = plan.expected_accuracy(1000);
        assert!((acc - 0.9).abs() < 0.01, "acc {acc}");
    }

    #[test]
    fn paper_plan_lookup() {
        let plan = paper_plan(1_000_000, 0.9, HashKind::Murmur3, 0).unwrap();
        assert_eq!(plan.m, 60_870);
        assert_eq!(plan.depth, 9);
        assert!(paper_plan(1_000_000, 0.85, HashKind::Murmur3, 0).is_none());
        assert!(paper_plan(12345, 0.9, HashKind::Murmur3, 0).is_none());
        let plan3 = paper_plan(10_000_000, 1.0, HashKind::Simple, 0).unwrap();
        assert_eq!(plan3.m, 297_485);
    }

    #[test]
    fn memory_accounting() {
        let plan = paper_plan(1_000_000, 0.5, HashKind::Murmur3, 0).unwrap();
        // Paper convention: 28465 bits * (2^10 - 1) nodes ≈ 3.64 MB
        // (published: 3.467 MB).
        let mb = plan.memory_bytes_paper_convention() as f64 / 1e6;
        assert!((mb - 3.64).abs() < 0.1, "paper-convention memory {mb} MB");
        assert!(plan.memory_bytes() > plan.memory_bytes_paper_convention());
    }

    #[test]
    #[should_panic(expected = "accuracy must be")]
    fn bad_accuracy_panics() {
        let _ = fp_for_accuracy(0.0, 10, 100);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn n_exceeding_namespace_panics() {
        let _ = fp_for_accuracy(0.9, 100, 100);
    }
}
