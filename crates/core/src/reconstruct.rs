//! Set reconstruction with the BloomSampleTree (§6).
//!
//! A recursive traversal: subtrees whose filters have an empty intersection
//! with the query filter are pruned; surviving leaves are brute-force
//! scanned (or read from the memo's leaf lists) and their matches
//! unioned. Left-to-right traversal yields the reconstruction already
//! sorted. Under the sound rule on a tree that keeps a first-probe index
//! the traversal is not entered at all (see below).
//!
//! Two pruning disciplines are offered, chosen by [`BstConfig`]'s
//! liveness rule, the one the sampler prunes by too (see `sampler` module
//! docs for the full rationale):
//!
//! * **Sound** (default): a branch is pruned only when its filter's
//!   intersection with the query has fewer than `k` set bits — provably
//!   no element of `S ∪ S(B)` can be lost, so the result is exactly the
//!   filter's positive set (what a DictionaryAttack scan returns), at the
//!   cost of weaker pruning when `m` is tight.
//! * **Paper (§5.6)**: estimate-threshold pruning — the operation counts of
//!   Figures 8–12, but with a small per-element probability of dropping
//!   true elements when estimates are noisy.
//!
//! Every test ANDs a child's filter with the query itself, never with a
//! filter carried down the path: node filters are laminar, so the two
//! give the same count (see [`BstReconstructor`]'s walk). The threshold
//! estimate's `t₂` input is the query's popcount, as in the sampler.
//!
//! ## Walk-free sound answers
//!
//! Under the sound rule a leaf's root path is live whenever the leaf
//! holds a filter positive with `k` distinct probe bits: all `k` bits
//! are set in the query and in every filter on the path, so every test
//! on it sees `t∧ ≥ k`. Only a positive whose probes collide — a member
//! of the tree's collision census ([`SampleTree::census`]) — can sit
//! under a node with `t∧ < k`. So on a pruned tree, which keeps a
//! first-probe index and a census, the sound answer is read off the
//! leaves' match lists, left to right, with no child test:
//!
//! * a memo that holds no leaf list, asked about the whole tree, stores
//!   every leaf's list from one index pass
//!   (`QueryMemo::fill_from_index`);
//! * a memo that holds lists (a repaired handle, or one that ran a
//!   windowed reconstruction first) reads them and scans only the
//!   leaves it misses;
//! * a window cuts the sorted lists instead of scanning clipped leaves;
//! * a leaf whose hits are all census members counts only when every
//!   node on its root path passes the liveness test, memoized as in the
//!   walk.
//!
//! The answer and its order equal the walk's. The paper's rule (its
//! count depends on the walk), complete trees (no index), and a
//! windowed call on a memo that holds no list still walk.

use std::ops::Range;
use std::sync::Arc;

use bst_bloom::estimate::intersection_estimate;
use bst_bloom::filter::BloomFilter;

use crate::error::BstError;
use crate::metrics::OpStats;
use crate::sampler::{BstConfig, DrawTable, Liveness, QueryMemo};
use crate::tree::{NodeId, SampleTree};

/// Reconstructor bound to a tree.
pub struct BstReconstructor<'t, T: SampleTree> {
    tree: &'t T,
    /// The configuration's pruning rule, the only part reconstruction
    /// reads.
    liveness: Liveness,
}

impl<'t, T: SampleTree> BstReconstructor<'t, T> {
    /// Creates a reconstructor with the sound default configuration.
    pub fn new(tree: &'t T) -> Self {
        Self::with_config(tree, BstConfig::default())
    }

    /// Creates a reconstructor that prunes by `cfg`'s liveness rule.
    ///
    /// # Panics
    /// Panics when [`BstConfig::validate`] rejects `cfg`.
    pub fn with_config(tree: &'t T, cfg: BstConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "reconstruct config");
        BstReconstructor {
            tree,
            liveness: cfg.liveness,
        }
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
    /// matching candidates summed over every live leaf. The memo caches
    /// it: the first call counts, and later calls answer in O(1) until a
    /// replayed mutation drops the cache. Under the sound rule on a
    /// pruned tree the count sums the leaves' match lists, filled by one
    /// index pass on a cold memo (see the module docs); otherwise it runs
    /// the memoized reconstruction walk. Either way a recount after
    /// occupancy churn is cheap: the [`crate::query::Query`] handle
    /// patches the mutated leaves' lists and drops only the mutated
    /// paths' node state, so the sum scans no table (and a walk
    /// re-evaluates only O(depth) nodes).
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

    /// Shared entry for every reconstruction and count: the leaves'
    /// lists answer when they can, the walk otherwise.
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
        if self.lists_answer(root, query, &window, memo, stats) {
            let mut emit = |list: &Arc<Vec<u64>>, run: Range<usize>| {
                list[run].iter().for_each(|&x| visit(x));
            };
            return self.read_lists(root, query, &window, memo, stats, &mut emit);
        }
        self.walk(root, query, &window, memo, stats, visit)
    }

    /// Whether the leaves' match lists answer without a walk (see the
    /// module docs): the sound rule, a tree with a census, and a memo
    /// that holds lists, or is filled here from the index pass when the
    /// window covers the whole tree.
    fn lists_answer(
        &self,
        root: NodeId,
        query: &BloomFilter,
        window: &std::ops::Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> bool {
        if !matches!(self.liveness, Liveness::BitOverlap) || self.tree.census().is_none() {
            return false;
        }
        if memo.holds_leaves() {
            return true;
        }
        let whole = self.tree.range(root);
        window.start <= whole.start
            && whole.end <= window.end
            && memo.fill_from_index(self.tree, query, stats)
    }

    /// The exact draw table of the full-range sound answer (see the
    /// sampler's module docs): every leaf's list as [`Self::read_lists`]
    /// emits it for a count or a reconstruction. `None` when the lists do
    /// not answer ([`Self::lists_answer`]).
    pub(crate) fn draw_table(
        &self,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> Option<DrawTable> {
        let root = self.tree.root()?;
        let whole = self.tree.range(root);
        if !self.lists_answer(root, query, &whole, memo, stats) {
            return None;
        }
        let mut table = DrawTable::default();
        let mut emit = |list: &Arc<Vec<u64>>, run: Range<usize>| {
            debug_assert_eq!(run, 0..list.len(), "a full window takes whole lists");
            table.push(list);
        };
        self.read_lists(root, query, &whole, memo, stats, &mut emit);
        Some(table)
    }

    /// The walk-free traversal: visits every leaf meeting the window,
    /// left to right, by the tree's links alone, and hands `emit` its
    /// list and the run of it inside the window. Returns the number of
    /// elements emitted.
    fn read_lists<F: FnMut(&Arc<Vec<u64>>, Range<usize>)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
        emit: &mut F,
    ) -> usize {
        if self.tree.is_leaf(node) {
            let matches = memo.leaf_matches(self.tree, node, query, false, stats);
            let census = self.tree.census().unwrap_or_default();
            let hidden =
                !matches.is_empty() && matches.iter().all(|x| census.binary_search(x).is_ok());
            if hidden && !self.path_live(node, query, memo, stats) {
                return 0;
            }
            let lo = matches.partition_point(|&x| x < window.start);
            let hi = matches.partition_point(|&x| x < window.end);
            emit(&matches, lo..hi);
            return hi - lo;
        }
        let (lc, rc) = self.tree.children(node);
        let mut found = 0usize;
        for child in [lc, rc].into_iter().flatten() {
            let r = self.tree.range(child);
            if r.end <= window.start || r.start >= window.end {
                continue;
            }
            found += self.read_lists(child, query, window, memo, stats, emit);
        }
        found
    }

    /// Whether every node below the root on `leaf`'s path passes the
    /// liveness test, top down, stopping at the first that fails (as the
    /// walk would).
    fn path_live(
        &self,
        leaf: NodeId,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> bool {
        let at = self.tree.range(leaf).start;
        let mut node = self.tree.root();
        while let Some(n) = node.filter(|&n| n != leaf) {
            let (l, r) = self.tree.children(n);
            node = [l, r]
                .into_iter()
                .flatten()
                .find(|&c| self.tree.range(c).contains(&at));
            if !node.is_some_and(|c| self.child_live(c, query, memo, stats)) {
                return false;
            }
        }
        true
    }

    /// Liveness of one child under the reconstruction pruning rule,
    /// memoized in the memo; a miss costs one intersection op, tested
    /// against the query itself.
    fn child_live(
        &self,
        child: NodeId,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> bool {
        if let Some(&live) = memo.recon_live.get(&child) {
            return live;
        }
        stats.intersections += 1;
        let f = self.tree.filter(child);
        let live = match self.liveness {
            // Only the threshold matters, so the count stops at `k`.
            Liveness::BitOverlap => f.and_count_reaches(query, f.k()),
            Liveness::EstimateThreshold(tau) => {
                let t2 = memo.query_ones(query);
                let est =
                    intersection_estimate(f.m(), f.k(), f.count_ones(), t2, f.and_count(query));
                est > tau
            }
        };
        memo.recon_live.insert(child, live);
        live
    }

    /// Scans a leaf. Leaves fully inside the window go through the shared
    /// match memo, which a walk over the full range may fill from the
    /// tree's index pass ([`QueryMemo::leaf_matches`]); partially-covered
    /// leaves are scanned directly (caching a window-restricted scan
    /// would poison full-range lookups).
    fn scan_leaf<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &std::ops::Range<u64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
        visit: &mut F,
    ) -> usize {
        let covers = |r: &std::ops::Range<u64>| window.start <= r.start && r.end <= window.end;
        if covers(&self.tree.range(node)) {
            let full_walk = self
                .tree
                .root()
                .is_some_and(|r| covers(&self.tree.range(r)));
            let matches = memo.leaf_matches(self.tree, node, query, full_walk, stats);
            for &x in matches.iter() {
                visit(x);
            }
            return matches.len();
        }
        let mut found = 0usize;
        stats.memberships += self.tree.scan_leaf(node, query, window, |x| {
            visit(x);
            found += 1;
        });
        found
    }

    /// Recursive traversal. Every liveness test ANDs a child's filter
    /// with the query itself: node filters are laminar (each child ⊆ its
    /// parent), so the paper's carried `query ∧ n₁ ∧ … ∧ n_d` equals
    /// `query ∧ n_d` bit-for-bit and carrying it cannot change an AND
    /// count. A fully-warm walk performs no filter operations at all.
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
        let mut found = 0usize;
        for child in [lc, rc].into_iter().flatten() {
            let r = self.tree.range(child);
            if r.end <= window.start || r.start >= window.end {
                continue; // disjoint from the window: free pruning
            }
            if self.child_live(child, query, memo, stats) {
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
        let paper =
            BstReconstructor::with_config(&t, BstConfig::paper()).reconstruct(&q, &mut paper_stats);
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
            BstConfig {
                liveness: Liveness::EstimateThreshold(1e12),
                ..BstConfig::paper()
            },
        )
        .reconstruct(&q, &mut stats);
        assert!(rec.is_empty());
    }

    /// The tree, query and cold-walk counts of the op-count tests: a
    /// cluster plus two strays, so some subtrees are pruned.
    fn op_count_fixture() -> (BloomSampleTree, BloomFilter) {
        let t = tree(1 << 15, 2048, 4);
        let keys: Vec<u64> = (0..40u64)
            .map(|i| 300 + i * 11)
            .chain([1500, 1777])
            .collect();
        let q = t.query_filter(keys.iter().copied());
        (t, q)
    }

    #[test]
    fn cold_walk_counts_only_child_tests() {
        // One intersection per child test of an expanded internal node,
        // none for the filter the paper's descent would carry.
        let (t, q) = op_count_fixture();
        // (config, len, memberships, nodes, leaves, intersections)
        for (cfg, len, memberships, nodes, leaves, intersections) in [
            (BstConfig::default(), 42, 1280, 24, 10, 28),
            (BstConfig::paper(), 41, 1024, 20, 8, 24),
        ] {
            let mut memo = QueryMemo::new();
            let mut stats = OpStats::new();
            let rec = BstReconstructor::with_config(&t, cfg)
                .try_reconstruct_memo(&q, &mut memo, &mut stats)
                .unwrap();
            assert_eq!(rec.len(), len, "{cfg:?}");
            assert_eq!(stats.memberships, memberships, "{cfg:?}");
            assert_eq!(stats.nodes_visited, nodes, "{cfg:?}");
            assert_eq!(memo.cached_leaves() as u64, leaves, "{cfg:?}");
            assert_eq!(stats.intersections, intersections, "{cfg:?}");
            assert_eq!(intersections, 2 * (nodes - leaves), "{cfg:?}");
            // A fully-warm walk does no filter work at all.
            let mut warm = OpStats::new();
            let again = BstReconstructor::with_config(&t, cfg)
                .try_reconstruct_memo(&q, &mut memo, &mut warm)
                .unwrap();
            assert_eq!(again, rec);
            assert_eq!(warm.intersections + warm.memberships, 0, "{cfg:?}");
        }
    }

    #[test]
    fn windowed_walk_then_full_walk_matches_a_cold_walk() {
        // A windowed walk memoizes liveness above the window without
        // evaluating the siblings' subtrees; the full walk that follows
        // must reproduce a cold walk exactly.
        // Small filters keep the estimates near the threshold, where a
        // stale or misplaced liveness entry changes the answer.
        for (m, n) in [(1 << 11, 20u64), (1 << 9, 150)] {
            let t = tree(m, 2048, 4);
            let keys: Vec<u64> = (0..n).map(|i| 300 + i * 11).chain([1500, 1777]).collect();
            let q = t.query_filter(keys.iter().copied());
            let r = BstReconstructor::with_config(&t, BstConfig::paper());
            let cold = r
                .try_reconstruct_memo(&q, &mut QueryMemo::new(), &mut OpStats::new())
                .unwrap();
            for window in [0..400, 350..1600, 1700..2048] {
                let mut memo = QueryMemo::new();
                let mut stats = OpStats::new();
                r.try_reconstruct_range_memo(&q, window, &mut memo, &mut stats)
                    .unwrap();
                let warm = r.try_reconstruct_memo(&q, &mut memo, &mut stats).unwrap();
                assert_eq!(warm, cold, "m = {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "liveness threshold must be finite")]
    fn with_config_rejects_infinite_threshold() {
        let t = tree(1 << 12, 2048, 4);
        let _ = BstReconstructor::with_config(
            &t,
            BstConfig {
                liveness: Liveness::EstimateThreshold(f64::INFINITY),
                ..BstConfig::paper()
            },
        );
    }
}
