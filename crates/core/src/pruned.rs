//! The Pruned-BloomSampleTree (§5.2): a BloomSampleTree materialised only
//! over the occupied portion of the namespace.
//!
//! Node geometry matches the hypothetical complete tree exactly (same
//! ranges, same depth), but subtrees whose range holds no occupied id are
//! simply never created, and node filters store only occupied elements.
//! Leaves keep their occupied ids so the brute-force phase tests just
//! those — which is why measured accuracy *improves* as occupancy falls
//! (Figure 15): the effective namespace shrinks while `m` stays sized for
//! the full one.
//!
//! The tree grows dynamically: inserting a new id extends filters along
//! its root-to-leaf path and materialises missing nodes ("either we need
//! to insert this new element into already existing nodes in the tree, or
//! we need to create a new node (and potentially its subtree)").
//!
//! ## Incremental weight accounting
//!
//! Every node carries the **maintained weight** of its subtree — the
//! exact number of occupied ids below it. `insert`/`remove` apply an
//! `O(depth)` ±1 delta along the mutated root-to-leaf path, so the count
//! never needs a reconstruction walk;
//! [`PrunedBloomSampleTree::verify_weights`] recounts from scratch for
//! the test suites. Underflow is impossible by
//! construction: `remove` decrements only after the id was found at its
//! leaf, and every ancestor of that leaf counted the id when it was
//! inserted. Overflow is impossible because a weight never exceeds the
//! namespace size.
//!
//! ## The mutation journal
//!
//! Each successful mutation bumps [`PrunedBloomSampleTree::version`] and
//! records the mutated id in a bounded journal. A reader that last
//! synchronised at version `v` can ask for
//! [`PrunedBloomSampleTree::mutations_since`]`(v)` and repair its
//! cached per-node state along just the mutated paths (`O(depth)` per
//! mutation) instead of discarding it wholesale; when the journal no
//! longer reaches back to `v` the caller falls back to a full reset.
//!
//! ## Leaf probe tables
//!
//! Every filter in the tree shares one `(m, H)`, so an id's `k` bit
//! positions are the same for every query. Each leaf therefore keeps a
//! **probe table** beside its sorted ids: the `k` positions of every
//! id, as `u32`s, in id order. Leaf scans test a query against the table
//! (`k` bit loads per id, no hashing), mutations hash the mutated id
//! once for its whole root-to-leaf path, a removal rebuilds the leaf
//! filter from the survivors' rows, and the collision census is read off
//! the rows. Like the maintained weights, the table is derived state:
//! `build` and `from_bytes` fill it, mutations keep it in step, and
//! snapshots never carry it. Positions must fit `u32`, so every
//! constructor refuses plans with `m > 2³²`.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
use bst_bloom::params::TreePlan;

use crate::tree::{NodeId, SampleTree};

struct PrunedNode {
    range: Range<u64>,
    filter: BloomFilter,
    left: Option<NodeId>,
    right: Option<NodeId>,
    /// Sorted occupied ids — populated for leaves only.
    occupied: Vec<u64>,
    /// The probe table: `k` bit positions per occupied id, parallel to
    /// `occupied` (see module docs).
    probes: Vec<u32>,
    level: u32,
    /// Maintained weight: occupied ids in this subtree (see module docs).
    weight: u64,
}

/// Default bound on mutations remembered by the journal; older history
/// forces readers through a full cache reset, so this bounds repair
/// work per sync. Tunable per system via
/// [`crate::system::BstConfig::journal_cap`].
pub const DEFAULT_JOURNAL_CAP: usize = 256;

/// An occupancy-aware BloomSampleTree.
pub struct PrunedBloomSampleTree {
    plan: TreePlan,
    hasher: Arc<BloomHasher>,
    nodes: Vec<PrunedNode>,
    root: Option<NodeId>,
    /// Count of successful mutations over this tree's lifetime. The
    /// snapshot codec persists it, so a decoded tree continues the
    /// counter monotonically instead of restarting at 0 (which would
    /// alias stamps held by warm handles across a reload).
    version: u64,
    /// The last `journal_cap` mutations as `(id, inserted)`, oldest
    /// first (`inserted` false = removal).
    journal: VecDeque<(u64, bool)>,
    /// Journal retention bound; always ≥ 1.
    journal_cap: usize,
    /// The collision census: occupied ids probing fewer than `k`
    /// distinct bit positions, sorted ascending. Such ids weaken the
    /// `t∧ ≥ k` soundness argument, so exact-count fast paths consult
    /// this list before trusting a delta (expected size ≈ `n·k²/2m` — a
    /// handful).
    colliding: Vec<u64>,
}

impl std::fmt::Debug for PrunedBloomSampleTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PrunedBloomSampleTree(M={}, m={}, depth={}, nodes={}, occupied={})",
            self.plan.namespace,
            self.plan.m,
            self.plan.depth,
            self.node_count(),
            self.occupied_count()
        )
    }
}

fn split(r: &Range<u64>) -> (Range<u64>, Range<u64>) {
    let mid = r.start + (r.end - r.start).div_ceil(2);
    (r.start..mid, mid..r.end)
}

/// The probe table of `ids`: their `k` positions each, in id order.
/// Every constructor refuses `m > 2³²`, so each row fits; a row that did
/// not would be left out (the debug assertion flags it), never truncated.
fn probe_table(hasher: &BloomHasher, ids: &[u64]) -> Vec<u32> {
    let mut table = Vec::with_capacity(ids.len() * hasher.k());
    for &x in ids {
        let fits = hasher.push_probe_row(x, &mut table);
        debug_assert!(fits, "probe position beyond u32");
    }
    table
}

/// Whether a probe row names `k` distinct bits; an id whose row does not
/// belongs to the collision census (see
/// [`BloomHasher::probes_distinct_bits`]).
fn probes_distinct(row: &[u32]) -> bool {
    (1..row.len()).all(|i| !row[..i].contains(&row[i]))
}

impl PrunedBloomSampleTree {
    /// Builds the pruned tree over `occupied` (sorted, distinct ids within
    /// `[0, plan.namespace)`).
    ///
    /// # Panics
    /// Panics if `occupied` is unsorted, holds duplicates, or contains ids
    /// outside the namespace, or if `plan.m` exceeds 2³² (probe positions
    /// would not fit the leaf tables).
    pub fn build(plan: &TreePlan, occupied: &[u64]) -> Self {
        for w in occupied.windows(2) {
            assert!(w[0] < w[1], "occupied ids must be sorted and distinct");
        }
        if let Some(&last) = occupied.last() {
            assert!(last < plan.namespace, "occupied id outside namespace");
        }
        let hasher = Arc::new(plan.build_hasher());
        assert!(
            hasher.fits_probe_table(),
            "m = {} exceeds the 2^32-bit probe-table limit",
            plan.m
        );
        let mut tree = PrunedBloomSampleTree {
            plan: plan.clone(),
            hasher,
            nodes: Vec::new(),
            root: None,
            version: 0,
            journal: VecDeque::new(),
            journal_cap: DEFAULT_JOURNAL_CAP,
            colliding: Vec::new(),
        };
        tree.root = tree.build_node(0..plan.namespace, occupied, 0);
        tree.colliding = tree.census_from_tables();
        tree
    }

    /// An empty tree ready for dynamic insertion.
    pub fn empty(plan: &TreePlan) -> Self {
        Self::build(plan, &[])
    }

    fn build_node(&mut self, range: Range<u64>, occ: &[u64], level: u32) -> Option<NodeId> {
        if occ.is_empty() {
            return None;
        }
        if level == self.plan.depth {
            // Leaf: filter over exactly the occupied ids in range, set
            // from their probe rows (each id hashed once).
            let probes = probe_table(&self.hasher, occ);
            let mut filter = BloomFilter::new(Arc::clone(&self.hasher));
            filter.insert_probes(&probes);
            let id = self.nodes.len() as NodeId;
            self.nodes.push(PrunedNode {
                range,
                filter,
                left: None,
                right: None,
                occupied: occ.to_vec(),
                probes,
                level,
                weight: occ.len() as u64,
            });
            return Some(id);
        }
        let (lr, rr) = split(&range);
        let cut = occ.partition_point(|&x| x < lr.end);
        let left = self.build_node(lr, &occ[..cut], level + 1);
        let right = self.build_node(rr, &occ[cut..], level + 1);
        // Internal filter = union of children (≥ 1 child exists since occ
        // is non-empty).
        let mut filter: Option<BloomFilter> = None;
        for child in [left, right].into_iter().flatten() {
            match &mut filter {
                None => filter = Some(self.nodes[child as usize].filter.clone()),
                Some(f) => f.union_with(&self.nodes[child as usize].filter),
            }
        }
        // Non-empty occ implies at least one child exists; a missing
        // filter therefore means the whole region is pruned.
        let filter = filter?;
        let id = self.nodes.len() as NodeId;
        self.nodes.push(PrunedNode {
            range,
            filter,
            left,
            right,
            occupied: Vec::new(),
            probes: Vec::new(),
            level,
            weight: occ.len() as u64,
        });
        Some(id)
    }

    /// Inserts a newly occupied id, updating filters along the path and
    /// materialising missing nodes. Returns `false` when the id was
    /// already present at its leaf.
    ///
    /// # Panics
    /// Panics if `id` is outside the namespace.
    pub fn insert(&mut self, id: u64) -> bool {
        assert!(id < self.plan.namespace, "id {id} outside namespace");
        // Check presence first so failure leaves filters untouched.
        if self.contains_occupied(id) {
            return false;
        }
        // One hash for the whole path: every filter on it gets this row.
        let row = probe_table(&self.hasher, &[id]);
        let root = match self.root {
            Some(r) => r,
            None => {
                let r = self.new_node(0..self.plan.namespace, 0);
                self.root = Some(r);
                r
            }
        };
        let mut cur = root;
        loop {
            // Presence was ruled out above, so the insertion definitely
            // lands: the O(depth) weight delta applies along the path.
            let node = &mut self.nodes[cur as usize];
            node.filter.insert_probes(&row);
            node.weight += 1;
            let level = node.level;
            if level == self.plan.depth {
                let pos = node.occupied.partition_point(|&x| x < id);
                node.occupied.insert(pos, id);
                let at = pos * row.len();
                node.probes.splice(at..at, row.iter().copied());
                if !probes_distinct(&row) {
                    let pos = self.colliding.partition_point(|&x| x < id);
                    self.colliding.insert(pos, id);
                }
                self.log_mutation(id, true);
                return true;
            }
            let (lr, rr) = split(&self.nodes[cur as usize].range);
            let go_left = id < lr.end;
            let child_range = if go_left { lr } else { rr };
            let existing = if go_left {
                self.nodes[cur as usize].left
            } else {
                self.nodes[cur as usize].right
            };
            cur = match existing {
                Some(c) => c,
                None => {
                    let c = self.new_node(child_range, level + 1);
                    if go_left {
                        self.nodes[cur as usize].left = Some(c);
                    } else {
                        self.nodes[cur as usize].right = Some(c);
                    }
                    c
                }
            };
        }
    }

    /// Removes an occupied id, shrinking the tree: the id leaves its
    /// leaf's list, every filter on the path is rebuilt exactly (leaf from
    /// its remaining ids, ancestors as unions of their children), and
    /// subtrees whose occupancy drops to zero are unlinked. Returns `false`
    /// when the id was not present.
    ///
    /// Cost: `O(depth · m/64)` word operations plus the leaf rebuild —
    /// the §5.2 evolution story run in reverse. Unlinked nodes remain in
    /// the arena as unreachable tombstones until the tree is rebuilt.
    pub fn remove(&mut self, id: u64) -> bool {
        assert!(id < self.plan.namespace, "id {id} outside namespace");
        let Some(root) = self.root else {
            return false;
        };
        let (removed, now_empty) = self.remove_rec(root, id);
        if removed {
            if let Ok(pos) = self.colliding.binary_search(&id) {
                self.colliding.remove(pos);
            }
            self.log_mutation(id, false);
            if now_empty {
                self.root = None;
            }
        }
        removed
    }

    /// Recursive removal; returns (removed, subtree now empty).
    fn remove_rec(&mut self, node: NodeId, id: u64) -> (bool, bool) {
        let level = self.nodes[node as usize].level;
        if level == self.plan.depth {
            let n = &mut self.nodes[node as usize];
            let Ok(pos) = n.occupied.binary_search(&id) else {
                return (false, false);
            };
            n.occupied.remove(pos);
            let k = self.plan.k;
            n.probes.drain(pos * k..(pos + 1) * k);
            n.weight -= 1;
            // Rebuild the leaf filter exactly from the survivors' rows,
            // in place (clearing beats reallocating `m` bits per removal).
            n.filter.clear();
            n.filter.insert_probes(&n.probes);
            let empty = n.occupied.is_empty();
            return (true, empty);
        }
        let (lr, _) = split(&self.nodes[node as usize].range);
        let go_left = id < lr.end;
        let child = if go_left {
            self.nodes[node as usize].left
        } else {
            self.nodes[node as usize].right
        };
        let Some(child) = child else {
            return (false, false);
        };
        let (removed, child_empty) = self.remove_rec(child, id);
        if !removed {
            return (false, false);
        }
        // The id was below this node, so it was counted here: the weight
        // delta walks back up the same path the insertion walked down.
        self.nodes[node as usize].weight -= 1;
        if child_empty {
            let n = &mut self.nodes[node as usize];
            if go_left {
                n.left = None;
            } else {
                n.right = None;
            }
        }
        // Rebuild this node's filter as the union of surviving children,
        // reusing its allocation (copy + OR instead of clone + OR).
        let (l, r) = {
            let n = &self.nodes[node as usize];
            (n.left, n.right)
        };
        match (l, r) {
            (None, None) => {
                self.nodes[node as usize].filter.clear();
                (true, true)
            }
            (Some(c), None) | (None, Some(c)) => {
                self.with_filter_pair(node, c, |dst, src| dst.copy_bits_from(src));
                (true, false)
            }
            (Some(a), Some(b)) => {
                self.with_filter_pair(node, a, |dst, src| dst.copy_bits_from(src));
                self.with_filter_pair(node, b, |dst, src| dst.union_with(src));
                (true, false)
            }
        }
    }

    /// Runs `f(&mut filter(dst), &filter(src))` via a disjoint arena
    /// split (parent/child indices are never equal).
    fn with_filter_pair(
        &mut self,
        dst: NodeId,
        src: NodeId,
        f: impl FnOnce(&mut BloomFilter, &BloomFilter),
    ) {
        let (d, s) = (dst as usize, src as usize);
        debug_assert_ne!(d, s, "a node cannot be its own child");
        if d < s {
            let (lo, hi) = self.nodes.split_at_mut(s);
            f(&mut lo[d].filter, &hi[0].filter);
        } else {
            let (lo, hi) = self.nodes.split_at_mut(d);
            f(&mut hi[0].filter, &lo[s].filter);
        }
    }

    fn new_node(&mut self, range: Range<u64>, level: u32) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(PrunedNode {
            range,
            filter: BloomFilter::new(Arc::clone(&self.hasher)),
            left: None,
            right: None,
            occupied: Vec::new(),
            probes: Vec::new(),
            level,
            // Materialised mid-insert: the insert loop applies the +1
            // delta when it steps onto this node.
            weight: 0,
        });
        id
    }

    /// Records a successful mutation: bumps the version and remembers
    /// the mutated id and direction for bounded-history cache repair.
    fn log_mutation(&mut self, id: u64, inserted: bool) {
        self.version += 1;
        while self.journal.len() >= self.journal_cap {
            self.journal.pop_front();
        }
        self.journal.push_back((id, inserted));
    }

    /// Calls `f` on every reachable leaf, left to right (so ids come
    /// out ascending).
    fn for_each_leaf(&self, mut f: impl FnMut(&PrunedNode)) {
        let mut stack: Vec<NodeId> = self.root.into_iter().collect();
        while let Some(node) = stack.pop() {
            let n = &self.nodes[node as usize];
            if n.level == self.plan.depth {
                f(n);
                continue;
            }
            // Right first, so the left subtree pops first.
            stack.extend([n.right, n.left].into_iter().flatten());
        }
    }

    /// The collision census read off the leaves' probe rows, ascending.
    fn census_from_tables(&self) -> Vec<u64> {
        let k = self.plan.k;
        let mut out = Vec::new();
        self.for_each_leaf(|n| {
            let rows = n.occupied.iter().zip(n.probes.chunks_exact(k));
            out.extend(
                rows.filter(|(_, row)| !probes_distinct(row))
                    .map(|(&x, _)| x),
            );
        });
        out
    }

    /// The collision census: occupied ids probing fewer than `k`
    /// distinct bit positions, ascending. The `t∧ ≥ k` pruning rule can
    /// hide exactly these ids (and only these) from a sound walk, so
    /// exact-count maintenance trusts an O(k) weight delta only when no
    /// census member is a positive of the filter in question.
    pub fn colliding_ids(&self) -> &[u64] {
        &self.colliding
    }

    /// Count of successful mutations over this tree's lifetime,
    /// including the history encoded in a snapshot it was decoded from.
    /// The facade's tree generation mirrors this exactly.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The journal retention bound (mutations kept for cache repair).
    pub fn journal_cap(&self) -> usize {
        self.journal_cap
    }

    /// Sets the journal retention bound (clamped to ≥ 1), trimming the
    /// oldest remembered mutations if the new bound is smaller.
    pub fn set_journal_cap(&mut self, cap: usize) {
        self.journal_cap = cap.max(1);
        while self.journal.len() > self.journal_cap {
            self.journal.pop_front();
        }
    }

    /// The `(id, inserted)` mutations in `(since, version]`, oldest
    /// first, when the journal still reaches back that far — `None` once
    /// the history has been truncated (or `since` is from the future),
    /// in which case the caller must fall back to a full cache reset.
    pub fn mutations_since(&self, since: u64) -> Option<impl Iterator<Item = (u64, bool)> + '_> {
        let delta = self.version.checked_sub(since)?;
        let len = self.journal.len();
        // Compare in u64: `delta as usize` could wrap a huge gap into a
        // tiny one on 32-bit targets and skip billions of mutations.
        if delta > len as u64 {
            return None;
        }
        Some(self.journal.iter().skip(len - delta as usize).copied())
    }

    /// Whether `id` is an occupied namespace element (exact, via the leaf's
    /// id list — not a Bloom query).
    pub fn contains_occupied(&self, id: u64) -> bool {
        let mut cur = match self.root {
            Some(r) => r,
            None => return false,
        };
        loop {
            let node = &self.nodes[cur as usize];
            if node.level == self.plan.depth {
                return node.occupied.binary_search(&id).is_ok();
            }
            let (lr, _) = split(&node.range);
            let next = if id < lr.end { node.left } else { node.right };
            match next {
                Some(c) => cur = c,
                None => return false,
            }
        }
    }

    /// The plan the tree was built from.
    pub fn plan(&self) -> &TreePlan {
        &self.plan
    }

    /// Number of materialised nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of occupied ids — the root's maintained weight, kept exact
    /// by O(depth) deltas on every mutation.
    pub fn occupied_count(&self) -> u64 {
        match self.root {
            Some(root) => self.nodes[root as usize].weight,
            None => 0,
        }
    }

    /// The maintained weight of `node`'s subtree: the exact number of
    /// occupied ids in its range.
    pub fn subtree_weight(&self, node: NodeId) -> u64 {
        self.nodes[node as usize].weight
    }

    /// Recounts every reachable subtree from scratch and compares against
    /// the maintained weights (the test suites' ground truth; `O(nodes)`).
    pub fn verify_weights(&self) -> bool {
        fn recount(tree: &PrunedBloomSampleTree, node: NodeId, ok: &mut bool) -> u64 {
            let n = &tree.nodes[node as usize];
            let actual = if n.level == tree.plan.depth {
                n.occupied.len() as u64
            } else {
                [n.left, n.right]
                    .into_iter()
                    .flatten()
                    .map(|c| recount(tree, c, ok))
                    .sum()
            };
            *ok &= actual == n.weight;
            actual
        }
        let mut ok = true;
        if let Some(root) = self.root {
            recount(self, root, &mut ok);
        }
        ok
    }

    /// Heap bytes of all node bit arrays (the Figure 14 metric).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.filter.heap_bytes()).sum()
    }

    /// Heap bytes including the leaves' occupied-id lists and probe
    /// tables: `ids × (8 + 4k)` bytes on top of the filters.
    pub fn memory_bytes_with_ids(&self) -> usize {
        self.memory_bytes()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.occupied.len() * std::mem::size_of::<u64>()
                        + n.probes.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }

    /// Recomputes every reachable leaf's probe table by hashing its ids
    /// and compares it with the maintained one (the test suites' ground
    /// truth, like [`Self::verify_weights`]).
    pub fn verify_probe_tables(&self) -> bool {
        let mut ok = true;
        self.for_each_leaf(|n| ok &= n.probes == probe_table(&self.hasher, &n.occupied));
        ok
    }

    /// Serializes the pruned tree (plan, structure, occupied ids, node bit
    /// arrays) into a compact binary buffer.
    ///
    /// Removals unlink emptied subtrees but leave their nodes in the
    /// arena as unreachable tombstones; the snapshot **compacts** them
    /// away, writing only reachable nodes (in arena order, links
    /// remapped), so a long-mutated tree persists no dead weight and a
    /// freshly built tree round-trips byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        use bytes::BufMut;
        // Remap arena indices to reachable-only indices, arena order kept.
        let mut remap = vec![u32::MAX; self.nodes.len()];
        if let Some(root) = self.root {
            self.mark_reachable(root, &mut remap);
        }
        let mut live = 0u32;
        for slot in remap.iter_mut() {
            if *slot != u32::MAX {
                *slot = live;
                live += 1;
            }
        }
        let link = |child: Option<NodeId>| match child {
            Some(c) => remap[c as usize],
            None => u32::MAX,
        };
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(b"BSTP");
        buf.put_u8(crate::persistence::VERSION);
        crate::persistence::put_plan(&mut buf, &self.plan);
        buf.put_u32_le(live);
        buf.put_u32_le(link(self.root));
        // Generation continuity: the mutation counter rides along so a
        // restored tree keeps stamping monotonically (warm handles and
        // weight-cache cells never see a reused generation).
        buf.put_u64_le(self.version);
        for (node, _) in self
            .nodes
            .iter()
            .zip(&remap)
            .filter(|(_, &slot)| slot != u32::MAX)
        {
            buf.put_u64_le(node.range.start);
            buf.put_u64_le(node.range.end);
            buf.put_u32_le(node.level);
            buf.put_u32_le(link(node.left));
            buf.put_u32_le(link(node.right));
            buf.put_u32_le(node.occupied.len() as u32);
            for &id in &node.occupied {
                buf.put_u64_le(id);
            }
            crate::persistence::put_words(&mut buf, node.filter.bits().words());
        }
        buf.to_vec()
    }

    /// Marks every node reachable from `node` with a non-MAX sentinel in
    /// `remap` (resolved to compact indices by the caller).
    fn mark_reachable(&self, node: NodeId, remap: &mut [u32]) {
        remap[node as usize] = 0;
        let n = &self.nodes[node as usize];
        for child in [n.left, n.right].into_iter().flatten() {
            self.mark_reachable(child, remap);
        }
    }

    /// Reconstructs a pruned tree serialized with [`Self::to_bytes`].
    pub fn from_bytes(input: &[u8]) -> Result<Self, crate::persistence::PersistError> {
        use crate::persistence::{check_header, get_plan, get_words, PersistError};
        use bytes::Buf;
        let mut input = input;
        check_header(&mut input, b"BSTP")?;
        let plan = get_plan(&mut input)?;
        if input.remaining() < 8 {
            return Err(PersistError::Truncated);
        }
        let node_count = input.get_u32_le() as usize;
        let root_raw = input.get_u32_le();
        if input.remaining() < 8 {
            return Err(PersistError::Truncated);
        }
        let version = input.get_u64_le();
        if plan.m as u64 > bst_bloom::MAX_PROBE_TABLE_BITS {
            return Err(PersistError::Corrupt(
                "m exceeds the 2^32-bit probe-table limit",
            ));
        }
        let hasher = Arc::new(plan.build_hasher());
        let words_per_node = plan.m.div_ceil(64);
        let mut nodes = Vec::with_capacity(node_count);
        let link = |raw: u32| -> Result<Option<NodeId>, PersistError> {
            if raw == u32::MAX {
                Ok(None)
            } else if (raw as usize) < node_count {
                Ok(Some(raw))
            } else {
                Err(PersistError::Corrupt("child link out of range"))
            }
        };
        for _ in 0..node_count {
            if input.remaining() < 8 + 8 + 4 + 4 + 4 + 4 {
                return Err(PersistError::Truncated);
            }
            let start = input.get_u64_le();
            let end = input.get_u64_le();
            if start >= end || end > plan.namespace {
                return Err(PersistError::Corrupt("node range invalid"));
            }
            let level = input.get_u32_le();
            let left = link(input.get_u32_le())?;
            let right = link(input.get_u32_le())?;
            let occ_len = input.get_u32_le() as usize;
            if input.remaining() < occ_len * 8 {
                return Err(PersistError::Truncated);
            }
            let mut occupied = Vec::with_capacity(occ_len);
            for _ in 0..occ_len {
                occupied.push(input.get_u64_le());
            }
            let words = get_words(&mut input, words_per_node)?;
            let bits = bst_bloom::bitvec::BitVec::from_words(words, plan.m);
            // m <= 2^32 was checked above, so every position fits a row.
            let probes = probe_table(&hasher, &occupied);
            nodes.push(PrunedNode {
                range: start..end,
                filter: BloomFilter::from_parts(bits, Arc::clone(&hasher)),
                left,
                right,
                occupied,
                probes,
                level,
                weight: 0, // rebuilt below once the links are in place
            });
        }
        let root = if root_raw == u32::MAX {
            None
        } else if (root_raw as usize) < node_count {
            Some(root_raw)
        } else {
            return Err(PersistError::Corrupt("root link out of range"));
        };
        // The journal itself is not persisted: a decoded tree resumes at
        // the encoded version with empty history, so a reader stamped
        // before the snapshot falls back to a full reset (past-horizon)
        // rather than silently replaying a hole.
        let mut tree = PrunedBloomSampleTree {
            plan,
            hasher,
            nodes,
            root,
            version,
            journal: VecDeque::new(),
            journal_cap: DEFAULT_JOURNAL_CAP,
            colliding: Vec::new(),
        };
        // Maintained weights, probe tables and the collision census are
        // derivable state (leaf = its id count, internal = sum of
        // children; table = its ids' positions; census = occupied ids
        // with degenerate rows), so the snapshot format omits them and
        // the decoder reconstructs them — by construction they match a
        // from-scratch recount.
        if let Some(root) = tree.root {
            tree.rebuild_weights(root)?;
        }
        tree.colliding = tree.census_from_tables();
        Ok(tree)
    }

    /// Recomputes the maintained weight of every node in `root`'s subtree
    /// from the decoded leaves upward. Links come from untrusted bytes,
    /// so the walk is iterative (no stack overflow on adversarial depth)
    /// and rejects structures that revisit a node — cycles or shared
    /// children are not trees and would loop or double-count.
    fn rebuild_weights(&mut self, root: NodeId) -> Result<(), crate::persistence::PersistError> {
        let mut visited = vec![false; self.nodes.len()];
        // Explicit post-order: the first pop schedules the children, the
        // second (ready) pop sums them.
        let mut stack = vec![(root, false)];
        while let Some((node, ready)) = stack.pop() {
            let n = &self.nodes[node as usize];
            if ready {
                let weight = if n.level == self.plan.depth {
                    n.occupied.len() as u64
                } else {
                    [n.left, n.right]
                        .into_iter()
                        .flatten()
                        .map(|c| self.nodes[c as usize].weight)
                        .sum()
                };
                self.nodes[node as usize].weight = weight;
                continue;
            }
            if visited[node as usize] {
                return Err(crate::persistence::PersistError::Corrupt(
                    "node links revisit a node",
                ));
            }
            visited[node as usize] = true;
            stack.push((node, true));
            if n.level != self.plan.depth {
                for child in [n.left, n.right].into_iter().flatten() {
                    stack.push((child, false));
                }
            }
        }
        Ok(())
    }

    /// All occupied ids, ascending (walks the leaves).
    pub fn occupied_ids(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.occupied_count() as usize);
        self.for_each_leaf(|n| out.extend_from_slice(&n.occupied));
        out
    }
}

impl SampleTree for PrunedBloomSampleTree {
    fn root(&self) -> Option<NodeId> {
        self.root
    }

    fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node as usize].level == self.plan.depth
    }

    fn children(&self, node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let n = &self.nodes[node as usize];
        (n.left, n.right)
    }

    fn filter(&self, node: NodeId) -> &BloomFilter {
        &self.nodes[node as usize].filter
    }

    fn range(&self, node: NodeId) -> Range<u64> {
        self.nodes[node as usize].range.clone()
    }

    fn scan_leaf<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &Range<u64>,
        visit: F,
    ) -> u64 {
        debug_assert!(self.is_leaf(node));
        let n = &self.nodes[node as usize];
        let lo = n.occupied.partition_point(|&x| x < window.start);
        let hi = lo + n.occupied[lo..].partition_point(|&x| x < window.end);
        let k = self.plan.k;
        query.for_each_member_in_table(
            &self.hasher,
            &n.occupied[lo..hi],
            &n.probes[lo * k..hi * k],
            visit,
        )
    }

    fn hasher(&self) -> &Arc<BloomHasher> {
        &self.hasher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpStats;
    use crate::reconstruct::BstReconstructor;
    use crate::sampler::BstSampler;
    use crate::tree::BloomSampleTree;
    use bst_bloom::hash::HashKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan() -> TreePlan {
        TreePlan {
            namespace: 1 << 16,
            m: 1 << 15,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 21,
            depth: 6,
            leaf_capacity: 1 << 10,
            target_accuracy: 0.9,
        }
    }

    fn occupied() -> Vec<u64> {
        // Two clusters plus scattered ids: most subtrees stay unbuilt.
        let mut v: Vec<u64> = (1000..1400u64).collect();
        v.extend(40_000..40_200u64);
        v.extend((0..50u64).map(|i| 60_000 + i * 97));
        v
    }

    #[test]
    fn build_materialises_only_needed_subtrees() {
        let t = PrunedBloomSampleTree::build(&plan(), &occupied());
        let full_nodes = (1usize << 7) - 1;
        assert!(
            t.node_count() < full_nodes / 2,
            "pruned tree has {} nodes, full tree {}",
            t.node_count(),
            full_nodes
        );
        assert_eq!(t.occupied_count(), occupied().len() as u64);
        assert_eq!(t.occupied_ids(), occupied());
    }

    #[test]
    fn geometry_matches_complete_tree() {
        let t = PrunedBloomSampleTree::build(&plan(), &occupied());
        // Every leaf range must have complete-tree width.
        let full = BloomSampleTree::build(&plan());
        let full_first_leaf = (1u32 << 6) - 1;
        let full_widths: std::collections::HashSet<(u64, u64)> = (full_first_leaf
            ..full.node_count() as u32)
            .map(|i| {
                let r = full.range(i);
                (r.start, r.end)
            })
            .collect();
        for id in 0..t.node_count() as u32 {
            if t.is_leaf(id) {
                let r = t.range(id);
                assert!(
                    full_widths.contains(&(r.start, r.end)),
                    "pruned leaf {:?} not a complete-tree leaf",
                    r
                );
            }
        }
    }

    #[test]
    fn sampling_over_pruned_tree_is_sound() {
        let occ = occupied();
        let t = PrunedBloomSampleTree::build(&plan(), &occ);
        let members: Vec<u64> = occ.iter().copied().step_by(7).collect();
        let q = t.query_filter(members.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(1);
        let mut stats = OpStats::new();
        for _ in 0..100 {
            let s = sampler.sample(&q, &mut rng, &mut stats).expect("sample");
            // Samples come from occupied ids only.
            assert!(occ.binary_search(&s).is_ok(), "sampled unoccupied {s}");
            assert!(q.contains(s));
        }
    }

    #[test]
    fn reconstruction_matches_full_tree_on_occupied_sets() {
        let occ = occupied();
        let p = plan();
        let pruned = PrunedBloomSampleTree::build(&p, &occ);
        let full = BloomSampleTree::build(&p);
        let members: Vec<u64> = occ.iter().copied().step_by(3).collect();
        let q = pruned.query_filter(members.iter().copied());
        let mut s1 = OpStats::new();
        let rec_pruned = BstReconstructor::new(&pruned).reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let rec_full = BstReconstructor::new(&full).reconstruct(&q, &mut s2);
        // The pruned tree answers only over occupied ids; the full tree may
        // add false positives from unoccupied ids. Restricting the full
        // answer to occupied ids must give the pruned answer.
        let rec_full_occ: Vec<u64> = rec_full
            .into_iter()
            .filter(|x| occ.binary_search(x).is_ok())
            .collect();
        assert_eq!(rec_pruned, rec_full_occ);
        // And the pruned tree does strictly less membership work.
        assert!(s1.memberships <= s2.memberships);
    }

    #[test]
    fn dynamic_insert_equals_batch_build() {
        let occ = occupied();
        let p = plan();
        let batch = PrunedBloomSampleTree::build(&p, &occ);
        let mut dynamic = PrunedBloomSampleTree::empty(&p);
        // Insert in a scrambled order.
        let mut shuffled = occ.clone();
        let mut rng = StdRng::seed_from_u64(2);
        for i in (1..shuffled.len()).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..=i);
            shuffled.swap(i, j);
        }
        for id in shuffled {
            assert!(dynamic.insert(id));
        }
        assert_eq!(dynamic.occupied_count(), batch.occupied_count());
        assert_eq!(dynamic.occupied_ids(), batch.occupied_ids());
        // Same query behaviour even if node arena order differs.
        let q = batch.query_filter(occ.iter().copied().take(100));
        let mut s1 = OpStats::new();
        let mut s2 = OpStats::new();
        let r1 = BstReconstructor::new(&batch).reconstruct(&q, &mut s1);
        let r2 = BstReconstructor::new(&dynamic).reconstruct(&q, &mut s2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let p = plan();
        let mut t = PrunedBloomSampleTree::empty(&p);
        assert!(t.insert(42));
        assert!(!t.insert(42));
        assert_eq!(t.occupied_count(), 1);
    }

    #[test]
    fn empty_tree_has_no_root() {
        let t = PrunedBloomSampleTree::empty(&plan());
        assert_eq!(t.root(), None);
        assert_eq!(t.occupied_count(), 0);
        let q = t.query_filter([1u64]);
        let mut stats = OpStats::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(BstSampler::new(&t).sample(&q, &mut rng, &mut stats), None);
        assert!(BstReconstructor::new(&t)
            .reconstruct(&q, &mut stats)
            .is_empty());
    }

    #[test]
    fn memory_grows_with_occupancy() {
        let p = plan();
        let sparse = PrunedBloomSampleTree::build(&p, &[5, 10, 15]);
        let dense = PrunedBloomSampleTree::build(&p, &occupied());
        assert!(sparse.memory_bytes() < dense.memory_bytes());
        assert!(dense.memory_bytes_with_ids() > dense.memory_bytes());
        // Both are far below the complete tree.
        let full = BloomSampleTree::build(&p);
        assert!(dense.memory_bytes() < full.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "outside namespace")]
    fn out_of_namespace_id_panics() {
        let p = plan();
        let _ = PrunedBloomSampleTree::build(&p, &[1 << 16]);
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn unsorted_occupied_panics() {
        let p = plan();
        let _ = PrunedBloomSampleTree::build(&p, &[5, 3]);
    }
}

#[cfg(test)]
mod removal_tests {
    use super::*;
    use crate::metrics::OpStats;
    use crate::reconstruct::BstReconstructor;
    use crate::tree::SampleTree;
    use bst_bloom::hash::HashKind;

    fn plan() -> TreePlan {
        TreePlan {
            namespace: 1 << 14,
            m: 8192,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 77,
            depth: 5,
            leaf_capacity: 1 << 9,
            target_accuracy: 0.9,
        }
    }

    #[test]
    fn remove_then_queries_forget_the_id() {
        let occ: Vec<u64> = (0..400u64)
            .map(|i| i * 37 % (1 << 14))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut t = PrunedBloomSampleTree::build(&plan(), &occ);
        let victim = occ[123];
        assert!(t.contains_occupied(victim));
        assert!(t.remove(victim));
        assert!(!t.contains_occupied(victim));
        assert!(!t.remove(victim), "double removal must fail");
        assert_eq!(t.occupied_count(), occ.len() as u64 - 1);
        // Reconstruction of a filter containing the victim no longer
        // returns it (leaves only test occupied ids).
        let q = t.query_filter([victim]);
        let mut stats = OpStats::new();
        let rec = BstReconstructor::new(&t).reconstruct(&q, &mut stats);
        assert!(!rec.contains(&victim));
    }

    #[test]
    fn filters_stay_exact_after_removals() {
        // After removals, the tree must behave identically to a fresh
        // build over the surviving ids.
        let occ: Vec<u64> = (0..300u64)
            .map(|i| i * 53 % (1 << 14))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut t = PrunedBloomSampleTree::build(&plan(), &occ);
        let survivors: Vec<u64> = occ.iter().copied().filter(|x| x % 3 != 0).collect();
        for id in occ.iter().filter(|x| *x % 3 == 0) {
            assert!(t.remove(*id));
        }
        assert_eq!(t.occupied_ids(), survivors);
        let fresh = PrunedBloomSampleTree::build(&plan(), &survivors);
        let q = t.query_filter(survivors.iter().copied().take(60));
        let mut s1 = OpStats::new();
        let mut s2 = OpStats::new();
        assert_eq!(
            BstReconstructor::new(&t).reconstruct(&q, &mut s1),
            BstReconstructor::new(&fresh).reconstruct(&q, &mut s2),
        );
        // Filters were rebuilt exactly, so pruning work matches too.
        assert_eq!(s1.intersections, s2.intersections);
        assert_eq!(s1.memberships, s2.memberships);
    }

    #[test]
    fn removing_everything_empties_the_tree() {
        let occ: Vec<u64> = (100..150u64).collect();
        let mut t = PrunedBloomSampleTree::build(&plan(), &occ);
        for id in &occ {
            assert!(t.remove(*id));
        }
        assert_eq!(t.occupied_count(), 0);
        assert_eq!(t.root(), None);
        // Insert works again after total removal.
        assert!(t.insert(42));
        assert!(t.contains_occupied(42));
    }

    #[test]
    fn snapshot_compacts_tombstones() {
        let occ: Vec<u64> = (0..256u64)
            .map(|i| i * 53 % (1 << 14))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut t = PrunedBloomSampleTree::build(&plan(), &occ);
        // Remove a contiguous cluster so whole subtrees unlink.
        for id in &occ {
            if *id < 8_000 {
                assert!(t.remove(*id));
            }
        }
        let survivors: Vec<u64> = occ.iter().copied().filter(|&x| x >= 8_000).collect();
        let fresh = PrunedBloomSampleTree::build(&plan(), &survivors);
        assert!(
            t.node_count() > fresh.node_count(),
            "mutated arena keeps tombstones in memory"
        );
        // The snapshot drops them: same byte length as a fresh build's,
        // and the decoded tree behaves identically.
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), fresh.to_bytes().len());
        let back = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
        assert_eq!(back.node_count(), fresh.node_count());
        assert_eq!(back.occupied_ids(), survivors);
        let q = t.query_filter(survivors.iter().copied().take(40));
        let mut s1 = OpStats::new();
        let mut s2 = OpStats::new();
        assert_eq!(
            BstReconstructor::new(&back).reconstruct(&q, &mut s1),
            BstReconstructor::new(&t).reconstruct(&q, &mut s2),
        );
    }

    #[test]
    fn snapshot_rebuilds_maintained_weights() {
        // Weights are derivable state: the snapshot omits them and
        // from_bytes reconstructs them — matching a fresh recount, with
        // byte-deterministic round-trips.
        let occ: Vec<u64> = (0..300u64)
            .map(|i| i * 41 % (1 << 14))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut t = PrunedBloomSampleTree::build(&plan(), &occ);
        for id in occ.iter().filter(|x| *x % 5 == 0) {
            assert!(t.remove(*id));
        }
        assert!(t.insert(3));
        assert!(t.verify_weights());
        let bytes = t.to_bytes();
        let back = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
        assert!(back.verify_weights(), "decoded weights must pass a recount");
        assert_eq!(back.occupied_count(), t.occupied_count());
        assert_eq!(back.occupied_ids(), t.occupied_ids());
        // Generation continuity: the decoded tree resumes the mutation
        // counter where the snapshot left off, and further mutations
        // keep counting monotonically — stamps issued before the
        // snapshot are never reused after it.
        assert_eq!(back.version(), t.version());
        assert_eq!(back.to_bytes(), bytes, "byte-deterministic round-trip");
        let mut back = back;
        let v = back.version();
        assert!(back.remove(3));
        assert_eq!(back.version(), v + 1);
        // The journal itself is not persisted: pre-snapshot stamps fall
        // past the horizon (full-reset fallback), never a silent hole.
        assert!(back.mutations_since(v).is_some(), "fresh tail covered");
        assert!(back.mutations_since(v - 1).is_none(), "history truncated");
    }

    #[test]
    fn collision_census_tracks_degenerate_probe_ids() {
        // Small m makes within-key probe collisions likely; the census
        // must equal a brute-force scan and follow every mutation, and
        // warm delta-maintained weights must match cold recounts even
        // when colliding ids are filter positives (the fallback path).
        let p = TreePlan {
            namespace: 1 << 14,
            m: 512,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 7,
            depth: 5,
            leaf_capacity: 1 << 9,
            target_accuracy: 0.9,
        };
        let occ: Vec<u64> = (0..(1 << 14)).step_by(3).collect();
        let mut t = PrunedBloomSampleTree::build(&p, &occ);
        let expect: Vec<u64> = occ
            .iter()
            .copied()
            .filter(|&x| !t.hasher().probes_distinct_bits(x))
            .collect();
        assert!(
            !expect.is_empty(),
            "m=512 must yield some degenerate-probe ids"
        );
        assert_eq!(t.colliding_ids(), expect.as_slice());
        // Mutations keep the census exact.
        let victim = expect[0];
        assert!(t.remove(victim));
        assert!(!t.colliding_ids().contains(&victim));
        assert!(t.insert(victim));
        assert_eq!(t.colliding_ids(), expect.as_slice());
        // The census survives a snapshot round-trip (rebuilt on decode).
        let back = PrunedBloomSampleTree::from_bytes(&t.to_bytes()).expect("decode");
        assert_eq!(back.colliding_ids(), expect.as_slice());
    }

    #[test]
    fn cyclic_snapshot_links_rejected_not_looped() {
        // A corrupt snapshot whose child links form a cycle must fail
        // decode with `Corrupt` — the weight rebuild walks untrusted
        // links and would otherwise loop or overflow the stack.
        let occ: Vec<u64> = (0..200u64).collect();
        let p = plan();
        let tree = PrunedBloomSampleTree::build(&p, &occ);
        let mut bytes = tree.to_bytes();
        // Layout: "BSTP" v(1) | plan(47) | live u32 | root u32 |
        // version u64 | nodes.
        // Node: start u64 | end u64 | level u32 | left u32 | right u32 |
        // occ_len u32 | occ ids | m/64 filter words.
        let words = p.m.div_ceil(64);
        let live = u32::from_le_bytes(bytes[52..56].try_into().unwrap()) as usize;
        let mut off = 68usize;
        let mut patched = false;
        for i in 0..live {
            let level = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap());
            let occ_len =
                u32::from_le_bytes(bytes[off + 28..off + 32].try_into().unwrap()) as usize;
            if level != p.depth {
                // First internal node (on the left spine, reachable from
                // the root): point its left link at itself.
                bytes[off + 20..off + 24].copy_from_slice(&(i as u32).to_le_bytes());
                patched = true;
                break;
            }
            off += 32 + occ_len * 8 + words * 8;
        }
        assert!(patched, "tree must have an internal node");
        assert_eq!(
            PrunedBloomSampleTree::from_bytes(&bytes).err(),
            Some(crate::persistence::PersistError::Corrupt(
                "node links revisit a node"
            ))
        );
    }

    #[test]
    fn snapshot_with_m_beyond_u32_probe_positions_is_refused() {
        // Layout: "BSTP" v(1) | plan: namespace u64, m u64, ... — patch
        // m past 2^32; decode must refuse it before sizing any filter.
        let tree = PrunedBloomSampleTree::build(&plan(), &[1, 2, 3]);
        let mut bytes = tree.to_bytes();
        bytes[13..21].copy_from_slice(&((1u64 << 32) + 64).to_le_bytes());
        assert_eq!(
            PrunedBloomSampleTree::from_bytes(&bytes).err(),
            Some(crate::persistence::PersistError::Corrupt(
                "m exceeds the 2^32-bit probe-table limit"
            ))
        );
    }

    #[test]
    fn journal_replays_bounded_history() {
        let mut t = PrunedBloomSampleTree::empty(&plan());
        assert_eq!(t.version(), 0);
        assert!(t.mutations_since(0).is_some_and(|mut m| m.next().is_none()));
        assert!(t.insert(10));
        assert!(t.insert(20));
        assert!(t.remove(10));
        assert_eq!(t.version(), 3);
        let tail: Vec<(u64, bool)> = t.mutations_since(1).expect("covered").collect();
        assert_eq!(tail, vec![(20, true), (10, false)]);
        assert!(
            t.mutations_since(4).is_none(),
            "future stamps are not covered"
        );
        // Overflow the journal: history older than the cap is gone.
        for i in 0..DEFAULT_JOURNAL_CAP as u64 {
            let id = (i * 2 + 100) % (1 << 14);
            let _ = t.insert(id);
            let _ = t.remove(id);
        }
        assert!(t.mutations_since(0).is_none(), "truncated history");
        assert!(t
            .mutations_since(t.version() - DEFAULT_JOURNAL_CAP as u64)
            .is_some());
        // No-ops do not advance the version or the journal.
        let v = t.version();
        assert!(!t.remove(12_345));
        assert_eq!(t.version(), v);
    }

    #[test]
    fn journal_cap_knob_pins_horizon_at_the_boundary() {
        // A configured cap moves the repair horizon exactly: `cap`
        // mutations back is covered, `cap + 1` falls to the full-reset
        // path. Shrinking the cap trims remembered history immediately.
        let mut t = PrunedBloomSampleTree::empty(&plan());
        assert_eq!(t.journal_cap(), DEFAULT_JOURNAL_CAP);
        t.set_journal_cap(4);
        assert_eq!(t.journal_cap(), 4);
        for id in 0..10u64 {
            assert!(t.insert(id));
        }
        let v = t.version();
        assert_eq!(v, 10);
        // Boundary: exactly cap mutations of history are replayable...
        let tail: Vec<(u64, bool)> = t.mutations_since(v - 4).expect("at the cap").collect();
        assert_eq!(tail, vec![(6, true), (7, true), (8, true), (9, true)]);
        // ...one more is past the horizon.
        assert!(t.mutations_since(v - 5).is_none(), "past the cap");
        // Shrinking trims eagerly; clamping keeps the journal usable.
        t.set_journal_cap(1);
        assert!(t.mutations_since(v - 1).is_some());
        assert!(t.mutations_since(v - 2).is_none());
        t.set_journal_cap(0);
        assert_eq!(t.journal_cap(), 1, "cap clamps to >= 1");
    }

    #[test]
    fn insert_remove_interleaving() {
        let mut t = PrunedBloomSampleTree::empty(&plan());
        for i in 0..200u64 {
            // Duplicates return false; both outcomes are fine here.
            let _ = t.insert(i * 13 % (1 << 14));
        }
        let ids = t.occupied_ids();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(t.remove(*id));
            }
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.contains_occupied(*id), i % 2 != 0, "id {id}");
        }
    }
}
