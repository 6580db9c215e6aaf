//! Shared experiment plumbing: plan construction, query-set generation and
//! filter building.

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::HashKind;
use bst_bloom::params::{paper_plan, TreePlan, PAPER_COST_RATIO};
use bst_core::costmodel::CostModel;
use bst_core::tree::{BloomSampleTree, SampleTree};
use bst_workloads::querysets::{clustered_set, uniform_set, PAPER_CLUSTERING_PCT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Deterministic base seed for all experiments.
pub const SEED: u64 = 0xB100;

/// Query-set flavour (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetKind {
    /// Uniformly random without replacement.
    Uniform,
    /// The pdf-splitting clustered process, p = 10.
    Clustered,
}

impl SetKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SetKind::Uniform => "uniform",
            SetKind::Clustered => "clustered",
        }
    }
}

/// Generates a query set of the given kind.
pub fn gen_set(rng: &mut StdRng, kind: SetKind, namespace: u64, n: usize) -> Vec<u64> {
    match kind {
        SetKind::Uniform => uniform_set(rng, namespace, n),
        SetKind::Clustered => clustered_set(rng, namespace, n, PAPER_CLUSTERING_PCT),
    }
}

/// The machine's measured intersection/hashed-membership cost ratio, the
/// one a complete tree's leaf scan pays (Murmur3 at a representative
/// filter size), measured once per process.
pub fn measured_cost_ratio() -> f64 {
    static RATIO: OnceLock<f64> = OnceLock::new();
    *RATIO.get_or_init(|| {
        let hasher = Arc::new(bst_bloom::hash::BloomHasher::new(
            HashKind::Murmur3,
            3,
            60_000,
            1 << 20,
            1,
        ));
        CostModel::measure(&hasher).ratio()
    })
}

/// Plan for `(namespace, accuracy)` pinned to the paper's Tables 2/3 where
/// published, otherwise derived with the paper's cost ratio
/// ([`PAPER_COST_RATIO`], the ratio implied by its published `M⊥` values)
/// so tree depths stay comparable to the publication's across all
/// experiments. These are complete trees, whose leaf scans hash every id:
/// the ratio [`measured_cost_ratio`] finds for that kernel on current
/// hardware is lower and would make them deeper. Tables 2/3 report both,
/// and `ablate-depth` sweeps the trade-off. Query sets of `n = 1000` are
/// the sizing reference, as in the paper.
pub fn plan_for(namespace: u64, accuracy: f64, kind: HashKind, seed: u64) -> TreePlan {
    if let Some(mut plan) = paper_plan(namespace, accuracy, kind, seed) {
        plan.seed = seed;
        return plan;
    }
    TreePlan::for_accuracy(namespace, 1000, accuracy, 3, kind, seed, PAPER_COST_RATIO)
}

/// Builds the tree for a plan with all cores.
pub fn build_tree(plan: &TreePlan) -> BloomSampleTree {
    BloomSampleTree::build(plan)
}

/// Builds a query filter over `keys` compatible with `tree`.
pub fn build_query(tree: &BloomSampleTree, keys: &[u64]) -> BloomFilter {
    tree.query_filter(keys.iter().copied())
}

/// A seeded RNG for experiment `tag`.
pub fn rng_for(tag: u64) -> StdRng {
    StdRng::seed_from_u64(SEED ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_for_pins_paper_rows() {
        let plan = plan_for(1_000_000, 0.9, HashKind::Murmur3, 1);
        assert_eq!(plan.m, 60_870);
        assert_eq!(plan.depth, 9);
        let plan2 = plan_for(1_000_000, 0.9, HashKind::Murmur3, 7);
        assert_eq!(plan2.seed, 7, "seed must override the pinned row");
    }

    #[test]
    fn plan_for_derives_unpublished_points() {
        let plan = plan_for(100_000, 0.9, HashKind::Murmur3, 1);
        assert!(plan.m > 10_000 && plan.m < 60_000, "m = {}", plan.m);
        assert!(plan.depth >= 4, "depth = {}", plan.depth);
    }

    #[test]
    fn set_kinds_generate() {
        let mut rng = rng_for(1);
        let u = gen_set(&mut rng, SetKind::Uniform, 10_000, 100);
        let c = gen_set(&mut rng, SetKind::Clustered, 10_000, 100);
        assert_eq!(u.len(), 100);
        assert_eq!(c.len(), 100);
    }
}
