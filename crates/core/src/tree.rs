//! The BloomSampleTree (Definition 5.1): a complete binary tree over the
//! namespace with one Bloom filter per node, level `i` partitioning the
//! namespace into `2^i` equal ranges, every filter sharing the query
//! filters' `(m, H)`.
//!
//! Construction inserts each namespace element into its leaf and builds
//! internal nodes as unions of their children — bit-identical to inserting
//! every covered element directly (because `B(A ∪ B) = B(A) | B(B)`, §3.1)
//! but `O(M·k + #nodes·m/64)` instead of `O(M·k·depth)`. Leaf construction
//! is parallelised with crossbeam scoped threads.

use std::ops::Range;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
use bst_bloom::params::TreePlan;

/// Node handle within a tree (index into the tree's arena).
pub type NodeId = u32;

/// The navigation interface shared by the complete [`BloomSampleTree`] and
/// the occupancy-aware [`crate::pruned::PrunedBloomSampleTree`]; the
/// sampling and reconstruction algorithms are generic over it.
pub trait SampleTree {
    /// Root node, or `None` for a tree over an empty occupied set.
    fn root(&self) -> Option<NodeId>;
    /// Whether `node` is a leaf.
    fn is_leaf(&self, node: NodeId) -> bool;
    /// Children of an internal node (either may be absent in pruned trees).
    fn children(&self, node: NodeId) -> (Option<NodeId>, Option<NodeId>);
    /// The Bloom filter stored at `node`.
    fn filter(&self, node: NodeId) -> &BloomFilter;
    /// The namespace range `node` covers.
    fn range(&self, node: NodeId) -> Range<u64>;
    /// The brute-force membership phase at a leaf: tests the leaf's
    /// candidates inside `window` against `query` in ascending order,
    /// calls `visit` for each member, and returns the number of
    /// candidates probed (what `OpStats::memberships` counts). A complete
    /// tree's candidates are its whole range; a pruned tree's are its
    /// occupied ids.
    fn scan_leaf<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &Range<u64>,
        visit: F,
    ) -> u64;
    /// The shared hash family.
    fn hasher(&self) -> &Arc<BloomHasher>;

    /// Builds a query filter compatible with this tree from a key set.
    fn query_filter<I: IntoIterator<Item = u64>>(&self, keys: I) -> BloomFilter {
        BloomFilter::from_keys(Arc::clone(self.hasher()), keys)
    }
}

/// The complete BloomSampleTree of Definition 5.1.
///
/// `Debug` prints a structural summary, not the node contents.
pub struct BloomSampleTree {
    plan: TreePlan,
    hasher: Arc<BloomHasher>,
    /// Heap layout: node `i` has children `2i+1`, `2i+2`; `2^(depth+1) - 1`
    /// nodes in total.
    nodes: Vec<BloomFilter>,
    /// Range covered by each node, aligned with `nodes`.
    ranges: Vec<Range<u64>>,
    depth: u32,
}

impl std::fmt::Debug for BloomSampleTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BloomSampleTree(M={}, m={}, k={}, depth={}, nodes={})",
            self.plan.namespace,
            self.plan.m,
            self.plan.k,
            self.depth,
            self.node_count()
        )
    }
}

/// Splits a parent range into its two child ranges (left gets the ceiling
/// half, keeping every leaf within one element of `M / 2^depth`).
fn split(r: &Range<u64>) -> (Range<u64>, Range<u64>) {
    let mid = r.start + (r.end - r.start).div_ceil(2);
    (r.start..mid, mid..r.end)
}

impl BloomSampleTree {
    /// Builds the tree sequentially.
    pub fn build(plan: &TreePlan) -> Self {
        Self::build_with_threads(plan, 1)
    }

    /// Builds the tree using `threads` worker threads for leaf insertion
    /// (0 means one thread per available CPU).
    pub fn build_with_threads(plan: &TreePlan, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let depth = plan.depth;
        let hasher = Arc::new(plan.build_hasher());
        let node_count = (1usize << (depth + 1)) - 1;

        // Ranges for every node, top-down.
        let mut ranges: Vec<Range<u64>> = Vec::with_capacity(node_count);
        ranges.push(0..plan.namespace);
        for i in 0..node_count {
            if Self::is_internal_index(i, depth) {
                let (l, r) = split(&ranges[i]);
                debug_assert_eq!(ranges.len(), 2 * i + 1);
                ranges.push(l);
                ranges.push(r);
            }
        }

        // Leaf filters, in parallel chunks.
        let first_leaf = (1usize << depth) - 1;
        let leaf_count = 1usize << depth;
        let mut leaves: Vec<BloomFilter> = Vec::with_capacity(leaf_count);
        if threads <= 1 || leaf_count < 2 * threads {
            for li in 0..leaf_count {
                leaves.push(Self::build_leaf(&hasher, &ranges[first_leaf + li]));
            }
        } else {
            let chunk = leaf_count.div_ceil(threads);
            let mut parts: Vec<Vec<BloomFilter>> = Vec::with_capacity(threads);
            crossbeam::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(leaf_count);
                    if lo >= hi {
                        break;
                    }
                    let hasher = &hasher;
                    let ranges = &ranges;
                    handles.push(scope.spawn(move |_| {
                        (lo..hi)
                            .map(|li| Self::build_leaf(hasher, &ranges[first_leaf + li]))
                            .collect::<Vec<_>>()
                    }));
                }
                for h in handles {
                    // bst-lint: allow(L001) — a worker panic must propagate, not be swallowed
                    parts.push(h.join().expect("leaf builder panicked"));
                }
            })
            // bst-lint: allow(L001) — scope fails only if a child panicked; propagate
            .expect("crossbeam scope failed");
            for p in parts {
                leaves.extend(p);
            }
        }

        // Assemble: internal nodes as unions, bottom-up.
        let mut nodes: Vec<Option<BloomFilter>> = vec![None; node_count];
        for (li, leaf) in leaves.into_iter().enumerate() {
            nodes[first_leaf + li] = Some(leaf);
        }
        for i in (0..first_leaf).rev() {
            // bst-lint: allow(L001) — heap-array complete tree: every internal i has children
            let mut merged = nodes[2 * i + 1].clone().expect("child built");
            // bst-lint: allow(L001) — heap-array complete tree: every internal i has children
            merged.union_with(nodes[2 * i + 2].as_ref().expect("child built"));
            nodes[i] = Some(merged);
        }

        BloomSampleTree {
            plan: plan.clone(),
            hasher,
            // bst-lint: allow(L001) — the bottom-up pass above fills every slot
            nodes: nodes.into_iter().map(|n| n.expect("all built")).collect(),
            ranges,
            depth,
        }
    }

    fn build_leaf(hasher: &Arc<BloomHasher>, range: &Range<u64>) -> BloomFilter {
        let mut f = BloomFilter::new(Arc::clone(hasher));
        for x in range.clone() {
            f.insert(x);
        }
        f
    }

    #[inline]
    fn is_internal_index(i: usize, depth: u32) -> bool {
        i < (1usize << depth) - 1
    }

    /// The plan the tree was built from.
    pub fn plan(&self) -> &TreePlan {
        &self.plan
    }

    /// Tree depth (leaves at this level; 0 = root-only).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Namespace size `M`.
    pub fn namespace(&self) -> u64 {
        self.plan.namespace
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Actual heap bytes held by all node bit arrays.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.iter().map(|f| f.heap_bytes()).sum()
    }

    /// Serializes the tree (plan + all node bit arrays) into a compact
    /// binary buffer; see `persistence` module docs for the layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        use bytes::BufMut;
        let words_per_node = self.plan.m.div_ceil(64);
        let mut buf = bytes::BytesMut::with_capacity(64 + self.nodes.len() * words_per_node * 8);
        buf.put_slice(b"BSTC");
        buf.put_u8(crate::persistence::VERSION);
        crate::persistence::put_plan(&mut buf, &self.plan);
        for node in &self.nodes {
            crate::persistence::put_words(&mut buf, node.bits().words());
        }
        buf.to_vec()
    }

    /// Reconstructs a tree serialized with [`Self::to_bytes`]. The hash
    /// family rebuilds deterministically from the stored plan.
    pub fn from_bytes(input: &[u8]) -> Result<Self, crate::persistence::PersistError> {
        use crate::persistence::{check_header, get_plan, get_words, PersistError};
        let mut input = input;
        check_header(&mut input, b"BSTC")?;
        let plan = get_plan(&mut input)?;
        if plan.depth > 40 {
            return Err(PersistError::Corrupt("implausible depth"));
        }
        let node_count = (1usize << (plan.depth + 1)) - 1;
        let hasher = Arc::new(plan.build_hasher());
        let words_per_node = plan.m.div_ceil(64);
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let words = get_words(&mut input, words_per_node)?;
            let bits = bst_bloom::bitvec::BitVec::from_words(words, plan.m);
            nodes.push(BloomFilter::from_parts(bits, Arc::clone(&hasher)));
        }
        // Recompute ranges exactly as build() does.
        let mut ranges: Vec<Range<u64>> = Vec::with_capacity(node_count);
        ranges.push(0..plan.namespace);
        for i in 0..node_count {
            if Self::is_internal_index(i, plan.depth) {
                let (l, r) = split(&ranges[i]);
                ranges.push(l);
                ranges.push(r);
            }
        }
        let depth = plan.depth;
        Ok(BloomSampleTree {
            plan,
            hasher,
            nodes,
            ranges,
            depth,
        })
    }
}

impl SampleTree for BloomSampleTree {
    fn root(&self) -> Option<NodeId> {
        Some(0)
    }

    fn is_leaf(&self, node: NodeId) -> bool {
        !Self::is_internal_index(node as usize, self.depth)
    }

    fn children(&self, node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        if self.is_leaf(node) {
            (None, None)
        } else {
            (Some(2 * node + 1), Some(2 * node + 2))
        }
    }

    fn filter(&self, node: NodeId) -> &BloomFilter {
        &self.nodes[node as usize]
    }

    fn range(&self, node: NodeId) -> Range<u64> {
        self.ranges[node as usize].clone()
    }

    fn scan_leaf<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &Range<u64>,
        visit: F,
    ) -> u64 {
        debug_assert!(self.is_leaf(node));
        let range = &self.ranges[node as usize];
        let lo = range.start.max(window.start);
        let hi = range.end.min(window.end);
        query.for_each_member(lo..hi, visit)
    }

    fn hasher(&self) -> &Arc<BloomHasher> {
        &self.hasher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::hash::HashKind;

    fn small_plan() -> TreePlan {
        TreePlan {
            namespace: 1000,
            m: 2048,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 7,
            depth: 4,
            leaf_capacity: 63,
            target_accuracy: 0.9,
        }
    }

    #[test]
    fn structure_is_complete() {
        let t = BloomSampleTree::build(&small_plan());
        assert_eq!(t.node_count(), (1 << 5) - 1);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.root(), Some(0));
        let (l, r) = t.children(0);
        assert_eq!((l, r), (Some(1), Some(2)));
        // Leaves have no children.
        let first_leaf = (1u32 << 4) - 1;
        assert!(t.is_leaf(first_leaf));
        assert_eq!(t.children(first_leaf), (None, None));
    }

    #[test]
    fn ranges_partition_each_level() {
        let t = BloomSampleTree::build(&small_plan());
        // Level by level, ranges tile [0, M).
        for level in 0..=4u32 {
            let start = (1usize << level) - 1;
            let count = 1usize << level;
            let mut expect = 0u64;
            for i in start..start + count {
                let r = t.range(i as NodeId);
                assert_eq!(r.start, expect, "level {level} node {i}");
                expect = r.end;
            }
            assert_eq!(expect, 1000, "level {level} must end at M");
        }
    }

    #[test]
    fn laminarity_parent_is_union_of_children() {
        let t = BloomSampleTree::build(&small_plan());
        for i in 0..t.node_count() / 2 {
            let (l, r) = t.children(i as NodeId);
            let mut u = t.filter(l.unwrap()).clone();
            u.union_with(t.filter(r.unwrap()));
            assert_eq!(
                u.bits(),
                t.filter(i as NodeId).bits(),
                "node {i} is not the union of its children"
            );
        }
    }

    #[test]
    fn every_node_contains_its_range() {
        let t = BloomSampleTree::build(&small_plan());
        for i in [0u32, 1, 2, 7, 15, 30] {
            let f = t.filter(i);
            for x in t.range(i) {
                assert!(f.contains(x), "node {i} missing element {x}");
            }
        }
    }

    #[test]
    fn parallel_build_is_identical() {
        let plan = small_plan();
        let seq = BloomSampleTree::build(&plan);
        let par = BloomSampleTree::build_with_threads(&plan, 4);
        for i in 0..seq.node_count() {
            assert_eq!(
                seq.filter(i as NodeId).bits(),
                par.filter(i as NodeId).bits(),
                "node {i} differs between sequential and parallel builds"
            );
        }
    }

    #[test]
    fn depth_zero_tree() {
        let mut plan = small_plan();
        plan.depth = 0;
        plan.leaf_capacity = 1000;
        let t = BloomSampleTree::build(&plan);
        assert_eq!(t.node_count(), 1);
        assert!(t.is_leaf(0));
        let q = t.query_filter([3u64, 500]);
        let mut members = Vec::new();
        assert_eq!(
            t.scan_leaf(0, &q, &(0..u64::MAX), |x| members.push(x)),
            1000
        );
        assert!(members.contains(&3) && members.contains(&500));
        assert_eq!(t.scan_leaf(0, &q, &(400..600), |_| {}), 200);
    }

    #[test]
    fn non_power_of_two_namespace() {
        let mut plan = small_plan();
        plan.namespace = 1001;
        let t = BloomSampleTree::build(&plan);
        // Leaf widths differ by at most 1... actually by at most
        // leaf_capacity bounds; the key invariant: they tile exactly.
        let first_leaf = (1usize << 4) - 1;
        let total: u64 = (first_leaf..t.node_count())
            .map(|i| {
                let r = t.range(i as NodeId);
                r.end - r.start
            })
            .sum();
        assert_eq!(total, 1001);
    }

    #[test]
    fn query_filter_is_compatible() {
        let t = BloomSampleTree::build(&small_plan());
        let q = t.query_filter([1u64, 2, 3]);
        assert!(q.compatible_with(t.filter(0)));
        assert!(q.contains(2));
    }

    #[test]
    fn memory_accounting_positive() {
        let t = BloomSampleTree::build(&small_plan());
        let expected = t.node_count() * 2048usize.div_ceil(64) * 8;
        assert_eq!(t.memory_bytes(), expected);
    }
}
