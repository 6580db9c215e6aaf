//! Set reconstruction with the BloomSampleTree (§6).
//!
//! A recursive traversal: subtrees whose filters have an empty intersection
//! with the query filter are pruned; surviving leaves are brute-force
//! scanned and their matches unioned. Left-to-right traversal yields the
//! reconstruction already sorted.
//!
//! Two pruning disciplines are offered (see `sampler` module docs for the
//! full rationale):
//!
//! * **Sound** (default): a branch is pruned only when the carried
//!   intersection has fewer than `k` set bits — provably no element of
//!   `S ∪ S(B)` can be lost, so the result is exactly the filter's positive
//!   set (what a DictionaryAttack scan returns), at the cost of weaker
//!   pruning when `m` is tight.
//! * **Paper (§5.6)**: estimate-threshold pruning — the operation counts of
//!   Figures 8–12, but with a small per-element probability of dropping
//!   true elements when estimates are noisy.

use bst_bloom::estimate::intersection_estimate;
use bst_bloom::filter::BloomFilter;

use crate::error::BstError;
use crate::metrics::OpStats;
use crate::sampler::{Liveness, QueryMemo, DEFAULT_THRESHOLD};
use crate::tree::{NodeId, SampleTree};

/// Reconstruction configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReconstructConfig {
    /// Branch-emptiness rule.
    pub liveness: Liveness,
    /// Intersect the query with node filters on the way down.
    pub carry_intersection: bool,
}

impl Default for ReconstructConfig {
    fn default() -> Self {
        ReconstructConfig {
            liveness: Liveness::BitOverlap,
            carry_intersection: true,
        }
    }
}

impl ReconstructConfig {
    /// The paper's §5.6 pruning: estimate threshold, no carried filter.
    pub fn paper() -> Self {
        ReconstructConfig {
            liveness: Liveness::EstimateThreshold(DEFAULT_THRESHOLD),
            carry_intersection: false,
        }
    }

    /// Checks the configuration's numeric invariants, naming the broken
    /// one. [`BstReconstructor::with_config`] asserts the same invariants.
    pub fn validate(&self) -> Result<(), BstError> {
        if let Liveness::EstimateThreshold(tau) = self.liveness {
            if !(tau.is_finite() && tau >= 0.0) {
                return Err(BstError::InvalidConfig(
                    "liveness threshold must be finite and non-negative",
                ));
            }
        }
        Ok(())
    }
}

/// Reconstructor bound to a tree.
pub struct BstReconstructor<'t, T: SampleTree> {
    tree: &'t T,
    cfg: ReconstructConfig,
}

impl<'t, T: SampleTree> BstReconstructor<'t, T> {
    /// Creates a reconstructor with the sound default configuration.
    pub fn new(tree: &'t T) -> Self {
        BstReconstructor {
            tree,
            cfg: ReconstructConfig::default(),
        }
    }

    /// Creates a reconstructor with explicit configuration.
    pub fn with_config(tree: &'t T, cfg: ReconstructConfig) -> Self {
        if let Liveness::EstimateThreshold(tau) = cfg.liveness {
            assert!(tau >= 0.0, "threshold must be non-negative");
        }
        BstReconstructor { tree, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReconstructConfig {
        &self.cfg
    }

    /// Reconstructs the set stored in `query` — every namespace element all
    /// of whose bits are set, i.e. `S ∪ S(B)`. Sorted ascending.
    pub fn reconstruct(&self, query: &BloomFilter, stats: &mut OpStats) -> Vec<u64> {
        let mut out = Vec::new();
        self.reconstruct_with(query, stats, |x| out.push(x));
        out
    }

    /// [`Self::reconstruct`] with typed errors and a persistent
    /// [`QueryMemo`]: repeated reconstructions of the same filter skip the
    /// liveness intersections and leaf scans of earlier walks.
    pub fn try_reconstruct_memo(
        &self,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> Result<Vec<u64>, BstError> {
        let root = self.tree.root().ok_or(BstError::EmptyTree)?;
        if query.is_empty() {
            return Err(BstError::EmptyFilter);
        }
        let full = self.tree.range(root);
        let mut out = Vec::new();
        self.range_walk(query, full, memo, stats, &mut |x| out.push(x));
        // A full-range walk determines the live-leaf weight for free.
        memo.cached_count = Some(out.len() as u64);
        Ok(out)
    }

    /// The number of elements [`Self::try_reconstruct_memo`] would return,
    /// without materialising the set: the query's **live-leaf weight** —
    /// matching candidates summed over every live leaf. The weight is
    /// maintained in the memo: the first call runs the memoized
    /// reconstruction walk and caches the count, and later calls answer
    /// in O(1) until a mutation invalidates the cache (the
    /// [`crate::query::Query`] handle repairs the memo along mutated
    /// paths, so even the refresh after occupancy churn re-evaluates only
    /// O(depth) nodes).
    pub fn try_count_memo(
        &self,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> Result<u64, BstError> {
        let root = self.tree.root().ok_or(BstError::EmptyTree)?;
        if query.is_empty() {
            return Err(BstError::EmptyFilter);
        }
        if let Some(count) = memo.cached_count {
            return Ok(count);
        }
        let full = self.tree.range(root);
        let count = self.range_walk(query, full, memo, stats, &mut |_| {}) as u64;
        memo.cached_count = Some(count);
        Ok(count)
    }

    /// Visitor variant: calls `visit` for each reconstructed element in
    /// ascending order without materialising the set. Returns the count.
    pub fn reconstruct_with<F: FnMut(u64)>(
        &self,
        query: &BloomFilter,
        stats: &mut OpStats,
        visit: F,
    ) -> usize {
        let Some(root) = self.tree.root() else {
            return 0;
        };
        let full = self.tree.range(root);
        self.reconstruct_range_with(query, full, stats, visit)
    }

    /// Range-restricted reconstruction: only elements of `S ∪ S(B)` inside
    /// `window` are returned, and subtrees disjoint from the window are
    /// never visited — the tree's range structure makes this free, unlike
    /// a flat namespace scan.
    pub fn reconstruct_range(
        &self,
        query: &BloomFilter,
        window: std::ops::Range<u64>,
        stats: &mut OpStats,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        self.reconstruct_range_with(query, window, stats, |x| out.push(x));
        out
    }

    /// [`Self::reconstruct_range`] with typed errors and a persistent
    /// [`QueryMemo`]. An empty window yields `Ok(vec![])`.
    pub fn try_reconstruct_range_memo(
        &self,
        query: &BloomFilter,
        window: std::ops::Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> Result<Vec<u64>, BstError> {
        self.tree.root().ok_or(BstError::EmptyTree)?;
        if query.is_empty() {
            return Err(BstError::EmptyFilter);
        }
        let mut out = Vec::new();
        self.range_walk(query, window, memo, stats, &mut |x| out.push(x));
        Ok(out)
    }

    /// Visitor variant of [`Self::reconstruct_range`]. Returns the count.
    pub fn reconstruct_range_with<F: FnMut(u64)>(
        &self,
        query: &BloomFilter,
        window: std::ops::Range<u64>,
        stats: &mut OpStats,
        mut visit: F,
    ) -> usize {
        if self.tree.root().is_none() || query.is_empty() {
            return 0;
        }
        let mut memo = QueryMemo::new();
        self.range_walk(query, window, &mut memo, stats, &mut visit)
    }

    /// Shared entry for all reconstruction walks.
    fn range_walk<F: FnMut(u64)>(
        &self,
        query: &BloomFilter,
        window: std::ops::Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
        visit: &mut F,
    ) -> usize {
        let Some(root) = self.tree.root() else {
            return 0;
        };
        if window.start >= window.end {
            return 0;
        }
        self.walk(root, query, &window, memo, stats, visit)
    }

    /// Liveness of one child under the reconstruction pruning rule:
    /// one intersection op on a memo miss, a hash lookup on a hit (sound
    /// because each node is reached by exactly one root path, so the
    /// carried filter at a node is determined by its id).
    fn child_live(
        &self,
        child: NodeId,
        carried: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> bool {
        if let Some(&live) = memo.recon_live.get(&child) {
            return live;
        }
        stats.intersections += 1;
        let f = self.tree.filter(child);
        let live = match self.cfg.liveness {
            // Only the threshold matters, so the count stops at `k`.
            Liveness::BitOverlap => f.and_count_reaches(carried, f.k()),
            Liveness::EstimateThreshold(tau) => {
                let t_and = f.and_count(carried);
                intersection_estimate(f.m(), f.k(), f.count_ones(), carried.count_ones(), t_and)
                    > tau
            }
        };
        memo.recon_live.insert(child, live);
        live
    }

    /// Scans a leaf. Leaves fully inside the window go through the shared
    /// match memo; partially-covered leaves are scanned directly (caching
    /// a window-restricted scan would poison full-range lookups).
    fn scan_leaf<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &std::ops::Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
        visit: &mut F,
    ) -> usize {
        let leaf_range = self.tree.range(node);
        if window.start <= leaf_range.start && leaf_range.end <= window.end {
            if let Some(cached) = memo.leaves.get(&node) {
                for &x in cached.iter() {
                    visit(x);
                }
                return cached.len();
            }
            let mut matches = Vec::new();
            stats.memberships += self.tree.scan_leaf(node, query, &leaf_range, |x| {
                visit(x);
                matches.push(x);
            });
            let found = matches.len();
            memo.leaves.insert(node, std::sync::Arc::new(matches));
            return found;
        }
        let mut found = 0usize;
        stats.memberships += self.tree.scan_leaf(node, query, window, |x| {
            visit(x);
            found += 1;
        });
        found
    }

    /// Recursive traversal. The carried filter a node would receive on the
    /// old eager descent equals `query ∧ filter(node)` bit-for-bit,
    /// because tree node filters are laminar (each child is a subset of
    /// its parent, so ancestor ANDs are absorbed); it is therefore
    /// materialised *lazily*, only when some child's liveness is not yet
    /// memoized — a fully-warm walk performs no filter operations at all.
    fn walk<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &std::ops::Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
        visit: &mut F,
    ) -> usize {
        stats.nodes_visited += 1;
        if self.tree.is_leaf(node) {
            return self.scan_leaf(node, query, window, memo, stats, visit);
        }
        let (lc, rc) = self.tree.children(node);
        let mut carried_here: Option<BloomFilter> = None;
        let mut found = 0usize;
        for child in [lc, rc].into_iter().flatten() {
            let r = self.tree.range(child);
            if r.end <= window.start || r.start >= window.end {
                continue; // disjoint from the window: free pruning
            }
            let live = match memo.recon_live.get(&child) {
                Some(&l) => l,
                None => {
                    let carried = carried_here.get_or_insert_with(|| {
                        if self.cfg.carry_intersection {
                            stats.intersections += 1;
                            BloomFilter::intersection(query, self.tree.filter(node))
                        } else {
                            query.clone()
                        }
                    });
                    self.child_live(child, carried, memo, stats)
                }
            };
            if live {
                found += self.walk(child, query, window, memo, stats, visit);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BloomSampleTree;
    use bst_bloom::hash::HashKind;
    use bst_bloom::params::TreePlan;

    fn tree(m: usize, namespace: u64, depth: u32) -> BloomSampleTree {
        BloomSampleTree::build(&TreePlan {
            namespace,
            m,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 5,
            depth,
            leaf_capacity: namespace.div_ceil(1 << depth),
            target_accuracy: 0.9,
        })
    }

    #[test]
    fn sound_mode_equals_dictionary_attack_exactly() {
        // The defining property of BitOverlap liveness: the reconstruction
        // is exactly the filter's positive set.
        let t = tree(1 << 15, 2048, 4);
        let keys: Vec<u64> = (0..120u64).map(|i| i * 17).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut stats = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut stats);
        let scan: Vec<u64> = (0..2048u64).filter(|&x| q.contains(x)).collect();
        assert_eq!(rec, scan);
    }

    #[test]
    fn sound_mode_never_loses_elements_even_with_tiny_m() {
        // Deliberately noisy filter: estimates are garbage, but bit-overlap
        // liveness cannot prune a subtree containing a true element.
        let t = tree(512, 2048, 4);
        let keys: Vec<u64> = (0..60u64).map(|i| i * 31 + 4).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut stats = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut stats);
        for k in &keys {
            assert!(rec.binary_search(k).is_ok(), "lost element {k}");
        }
    }

    #[test]
    fn high_accuracy_reconstruction_is_exact() {
        let t = tree(1 << 18, 4096, 5);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 40 + 1).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut stats = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut stats);
        assert_eq!(rec, keys);
    }

    #[test]
    fn result_is_sorted_and_distinct() {
        let t = tree(1 << 14, 4096, 5);
        let keys: Vec<u64> = (0..300u64).map(|i| (i * 13) % 4096).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut stats = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut stats);
        assert!(rec.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_mode_is_cheaper_than_sound_mode() {
        let t = tree(1 << 14, 1 << 14, 7);
        let keys: Vec<u64> = (1000..1100u64).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut sound_stats = OpStats::new();
        let sound = BstReconstructor::new(&t).reconstruct(&q, &mut sound_stats);
        let mut paper_stats = OpStats::new();
        let paper = BstReconstructor::with_config(&t, ReconstructConfig::paper())
            .reconstruct(&q, &mut paper_stats);
        // Paper mode prunes at least as aggressively.
        assert!(paper_stats.memberships <= sound_stats.memberships);
        // Sound result contains everything paper mode found.
        for x in &paper {
            assert!(sound.binary_search(x).is_ok());
        }
        for k in &keys {
            assert!(sound.binary_search(k).is_ok());
        }
    }

    #[test]
    fn empty_filter_reconstructs_empty() {
        let t = tree(1 << 14, 2048, 4);
        let q = t.query_filter(std::iter::empty());
        let mut stats = OpStats::new();
        assert!(BstReconstructor::new(&t)
            .reconstruct(&q, &mut stats)
            .is_empty());
        assert_eq!(stats.nodes_visited, 0);
    }

    #[test]
    fn pruning_reduces_memberships() {
        // A tightly clustered set touches few leaves.
        let t = tree(1 << 17, 1 << 14, 7);
        let keys: Vec<u64> = (1000..1100u64).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut stats = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut stats);
        assert!(rec.len() >= 100);
        assert!(
            stats.memberships < (1 << 14) / 4,
            "pruning ineffective: {} memberships",
            stats.memberships
        );
    }

    #[test]
    fn visitor_matches_materialised() {
        let t = tree(1 << 14, 2048, 4);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 19).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut s1 = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let mut visited = Vec::new();
        let n = BstReconstructor::new(&t).reconstruct_with(&q, &mut s2, |x| visited.push(x));
        assert_eq!(rec, visited);
        assert_eq!(n, rec.len());
        assert_eq!(s1, s2);
    }

    #[test]
    fn extreme_threshold_prunes_all() {
        let t = tree(1 << 14, 2048, 4);
        let q = t.query_filter([7u64]);
        let mut stats = OpStats::new();
        let rec = BstReconstructor::with_config(
            &t,
            ReconstructConfig {
                liveness: Liveness::EstimateThreshold(1e12),
                carry_intersection: false,
            },
        )
        .reconstruct(&q, &mut stats);
        assert!(rec.is_empty());
    }
}
