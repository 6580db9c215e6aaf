//! The BloomSampleTree (Definition 5.1): a complete binary tree over the
//! namespace with one Bloom filter per node, level `i` partitioning the
//! namespace into `2^i` equal ranges, every filter sharing the query
//! filters' `(m, H)`.
//!
//! Construction inserts each namespace element into its leaf and builds
//! internal nodes as unions of their children — bit-identical to inserting
//! every covered element directly (because `B(A ∪ B) = B(A) | B(B)`, §3.1)
//! but `O(M·k + #nodes·m/64)` instead of `O(M·k·depth)`. Leaf construction
//! runs on one crossbeam scoped thread per available CPU.
//!
//! Each node is therefore a pure function of the plan: the filter of its
//! fixed namespace range. A snapshot is the plan alone (52 bytes), and
//! decode is the build, so no snapshot can describe a node that
//! disagrees with its range. The plan check (`persistence::check_plan`)
//! bounds that build: at most 2²⁴ ids and 1 GiB of node filters.

use std::ops::Range;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
use bst_bloom::params::TreePlan;

pub use crate::probe_index::QueryChunk;

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
    /// The index pass of a pruned tree: every materialised leaf's
    /// matches of `query` at once, from one pass over the query's set
    /// bits, each list equal to that leaf's [`Self::scan_leaf`] over its
    /// whole range. `None` when the tree keeps no first-probe index (a
    /// complete tree) or `query` is not of the tree's hash family; the
    /// caller then scans leaf by leaf. The one-filter case of
    /// [`Self::index_passes`].
    fn index_pass(&self, query: &BloomFilter) -> Option<IndexPass> {
        self.index_passes(&QueryChunk::new(&[query]))?.pop()
    }
    /// [`Self::index_pass`] for every filter of `chunk` from one pass
    /// over the chunk's bit-sliced table: one [`IndexPass`] per filter,
    /// in chunk order, each equal to that filter's own pass. `None` under
    /// the same conditions.
    fn index_passes(&self, _chunk: &QueryChunk<'_>) -> Option<Vec<IndexPass>> {
        None
    }
    /// The collision census of a tree that keeps a first-probe index:
    /// its occupied ids probing fewer than `k` distinct bits, ascending.
    /// Only these ids can be filter positives under a node whose
    /// `t∧ < k`, so a sound count read off the index pass tests the root
    /// path of a leaf whose hits are all census members. `None` when
    /// the tree keeps no index (a complete tree).
    fn census(&self) -> Option<&[u64]> {
        None
    }
    /// The shared hash family.
    fn hasher(&self) -> &Arc<BloomHasher>;

    /// Builds a query filter compatible with this tree from a key set.
    fn query_filter<I: IntoIterator<Item = u64>>(&self, keys: I) -> BloomFilter {
        BloomFilter::from_keys(Arc::clone(self.hasher()), keys)
    }
}

/// What one [`SampleTree::index_pass`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexPass {
    /// Every materialised leaf, left to right, with its matches
    /// ascending (empty lists included).
    pub leaves: Vec<(NodeId, Vec<u64>)>,
    /// Candidates tested (what `OpStats::memberships` counts).
    pub tested: u64,
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
/// half, keeping every leaf within one element of `M / 2^depth`). Both
/// backends cut their ranges with it.
pub(crate) fn split(r: &Range<u64>) -> (Range<u64>, Range<u64>) {
    let mid = r.start + (r.end - r.start).div_ceil(2);
    (r.start..mid, mid..r.end)
}

impl BloomSampleTree {
    /// Builds the tree, inserting the leaves' ranges on one worker per
    /// available CPU.
    pub fn build(plan: &TreePlan) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
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

        // Leaf filters, one contiguous chunk of leaves per worker.
        let first_leaf = (1usize << depth) - 1;
        let leaf_ranges = &ranges[first_leaf..];
        let chunk = leaf_ranges.len().div_ceil(threads);
        let leaves: Vec<BloomFilter> = crossbeam::scope(|scope| {
            let workers: Vec<_> = leaf_ranges
                .chunks(chunk)
                .map(|part| {
                    let hasher = &hasher;
                    scope.spawn(move |_| {
                        part.iter()
                            .map(|r| Self::build_leaf(hasher, r))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                // bst-lint: allow(L001) — a worker panic must propagate, not be swallowed
                .flat_map(|w| w.join().expect("leaf builder panicked"))
                .collect()
        })
        // bst-lint: allow(L001) — scope fails only if a child panicked; propagate
        .expect("crossbeam scope failed");

        // Internal nodes as unions of their children, level by level up
        // to the root; the heap layout is the levels top-down.
        let mut levels = vec![leaves];
        while let Some(level) = levels.last().filter(|level| level.len() > 1) {
            let parents = level
                .chunks_exact(2)
                .map(|pair| BloomFilter::union(&pair[0], &pair[1]))
                .collect();
            levels.push(parents);
        }

        BloomSampleTree {
            plan: plan.clone(),
            hasher,
            nodes: levels.into_iter().rev().flatten().collect(),
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

    /// Serializes the tree as its plan, `"BSTC" v | plan`: every node is
    /// a function of the plan (see module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = bytes::BytesMut::new();
        self.put_bytes(&mut buf);
        buf.into()
    }

    /// Appends [`Self::to_bytes`]'s bytes to `buf`.
    pub(crate) fn put_bytes(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_slice(b"BSTC");
        buf.put_u8(crate::persistence::VERSION);
        crate::persistence::put_plan(buf, &self.plan);
    }

    /// Rebuilds a tree serialized with [`Self::to_bytes`]: checks the
    /// plan (`persistence::check_plan`, which bounds the build's work)
    /// and [`Self::build`]s it.
    pub fn from_bytes(input: &[u8]) -> Result<Self, crate::persistence::PersistError> {
        use crate::persistence::{check_header, check_plan, get_plan, PersistError};
        let mut input = input;
        check_header(&mut input, b"BSTC")?;
        let plan = get_plan(&mut input)?;
        check_plan(&plan, None).map_err(PersistError::Corrupt)?;
        if !input.is_empty() {
            return Err(PersistError::Corrupt("trailing bytes after the tree"));
        }
        Ok(Self::build(&plan))
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
    fn every_node_is_its_range_inserted() {
        let plan = small_plan();
        let t = BloomSampleTree::build(&plan);
        let hasher = Arc::new(plan.build_hasher());
        for i in 0..t.node_count() as NodeId {
            let mut direct = BloomFilter::new(Arc::clone(&hasher));
            for x in t.range(i) {
                direct.insert(x);
            }
            assert_eq!(t.filter(i).bits(), direct.bits(), "node {i}");
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

    #[test]
    fn deep_snapshot_is_refused_before_sizing_its_arena() {
        // Plan offsets: namespace [5..13], depth [32..36]. The plan check
        // refuses each patched plan before the build hashes anything.
        use crate::persistence::PersistError;
        let good = BloomSampleTree::build(&small_plan()).to_bytes();
        assert_eq!(good.len(), 52);
        let patched = |namespace: u64, depth: u32| {
            let mut bytes = good.clone();
            bytes[5..13].copy_from_slice(&namespace.to_le_bytes());
            bytes[32..36].copy_from_slice(&depth.to_le_bytes());
            BloomSampleTree::from_bytes(&bytes).err()
        };
        let corrupt = |what| Some(PersistError::Corrupt(what));
        let too_wide = corrupt("complete tree namespace above 2^24");
        assert_eq!(patched(1 << 41, 40), too_wide);
        assert_eq!(patched(u64::MAX, 64), too_wide);
        assert_eq!(patched(1000, 40), corrupt("depth beyond ceil(log2 M)"));
        // 2^25 - 1 nodes of 256 bytes: past the byte budget.
        assert_eq!(
            patched(1 << 24, 24),
            corrupt("node filters exceed the 1 GiB tree budget")
        );
        let mut longer = good.clone();
        longer.push(0);
        assert_eq!(
            BloomSampleTree::from_bytes(&longer).err(),
            corrupt("trailing bytes after the tree")
        );
    }
}
