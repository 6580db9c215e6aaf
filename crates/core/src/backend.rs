//! Backend polymorphism for the facade: one [`TreeBackend`] serves both
//! the dense, complete [`BloomSampleTree`] and the occupancy-aware
//! [`PrunedBloomSampleTree`] through the same `query()`/`query_batch()`
//! surface — and, for the pruned backend, lets the *namespace occupancy
//! itself* evolve behind the shared `Arc`.
//!
//! ## Tree generations
//!
//! The pruned tree supports §5.2 `insert`/`remove`, but those take `&mut`
//! while the facade shares the backend behind an `Arc`. The backend
//! therefore wraps the pruned tree in an `RwLock` and stamps every
//! structural mutation with a monotonically increasing **tree
//! generation** (the occupancy analogue of the store's per-set
//! generations). Read access goes through [`TreeBackend::read`], which
//! returns a [`TreeView`] — a read-guard enum implementing
//! [`SampleTree`] — so the sampling and reconstruction algorithms stay
//! statically dispatched inside each arm, with no vtable in the descent
//! loop. While a view is held, writers block, so the view's generation
//! stamp is stable for the whole operation; open
//! [`crate::query::Query`] handles compare stamps at the top of every
//! operation and re-descend cold after any occupancy change.
//!
//! The dense backend's occupancy is the full namespace by construction
//! and never changes: its generation is the constant 0 and the mutation
//! entry points report [`BstError::ImmutableBackend`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
use bst_bloom::params::TreePlan;
use bytes::{Buf, BufMut};
use parking_lot::RwLock;

use crate::error::BstError;
use crate::persistence::PersistError;
use crate::pruned::PrunedBloomSampleTree;
use crate::tree::{BloomSampleTree, NodeId, SampleTree};

/// Snapshot tag for a dense backend.
const TAG_DENSE: u8 = 0;
/// Snapshot tag for a pruned backend.
const TAG_PRUNED: u8 = 1;

/// The mutable half of a pruned backend: the tree behind its lock plus
/// the generation stamp bumped (under the write lock) by every
/// structural mutation.
pub struct PrunedBackend {
    /// The plan, cached outside the lock (it never changes).
    plan: TreePlan,
    /// The shared hash family, cached outside the lock.
    hasher: Arc<BloomHasher>,
    /// Occupancy mutation counter; bumped while the write lock is held,
    /// so a reader holding a [`TreeView`] observes a stable value.
    generation: AtomicU64,
    tree: RwLock<PrunedBloomSampleTree>,
}

/// The tree a [`crate::system::BstSystem`] serves queries from: either the
/// complete tree of Definition 5.1 (static, fully occupied namespaces) or
/// the pruned variant of §5.2 (sparse / dynamic occupancy, mutable
/// through [`Self::insert_occupied`] / [`Self::remove_occupied`]).
pub enum TreeBackend {
    /// The complete [`BloomSampleTree`] over the whole namespace.
    Dense(BloomSampleTree),
    /// The occupancy-aware, lock-wrapped [`PrunedBloomSampleTree`].
    Pruned(PrunedBackend),
}

impl std::fmt::Debug for TreeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeBackend::Dense(t) => write!(f, "{t:?}"),
            TreeBackend::Pruned(p) => write!(
                f,
                "{:?}@gen{}",
                &*p.tree.read(),
                p.generation.load(Ordering::Acquire)
            ),
        }
    }
}

impl TreeBackend {
    /// Wraps a dense tree.
    pub fn dense(tree: BloomSampleTree) -> Self {
        TreeBackend::Dense(tree)
    }

    /// Wraps a pruned tree. The tree generation mirrors the tree's own
    /// mutation [`PrunedBloomSampleTree::version`] exactly (0 for a
    /// freshly built tree; a decoded tree resumes the persisted count),
    /// so generation gaps index directly into the tree's mutation
    /// journal for cache repair and stamps never alias across a reload.
    pub fn pruned(tree: PrunedBloomSampleTree) -> Self {
        TreeBackend::Pruned(PrunedBackend {
            plan: tree.plan().clone(),
            hasher: Arc::clone(tree.hasher()),
            generation: AtomicU64::new(tree.version()),
            tree: RwLock::new(tree),
        })
    }

    /// The plan the backend was built from.
    pub fn plan(&self) -> &TreePlan {
        match self {
            TreeBackend::Dense(t) => t.plan(),
            TreeBackend::Pruned(p) => &p.plan,
        }
    }

    /// Tree depth (leaves at this level; 0 = root-only).
    pub fn depth(&self) -> u32 {
        self.plan().depth
    }

    /// Namespace size `M`.
    pub fn namespace(&self) -> u64 {
        self.plan().namespace
    }

    /// Number of materialised nodes (for a mutated pruned backend this
    /// includes unlinked tombstones still in the arena; snapshots compact
    /// them away).
    pub fn node_count(&self) -> usize {
        match self {
            TreeBackend::Dense(t) => t.node_count(),
            TreeBackend::Pruned(p) => p.tree.read().node_count(),
        }
    }

    /// Heap bytes of all node bit arrays.
    pub fn memory_bytes(&self) -> usize {
        match self {
            TreeBackend::Dense(t) => t.memory_bytes(),
            TreeBackend::Pruned(p) => p.tree.read().memory_bytes(),
        }
    }

    /// Number of occupied namespace ids (the full namespace for a dense
    /// backend).
    pub fn occupied_count(&self) -> u64 {
        match self {
            TreeBackend::Dense(t) => t.namespace(),
            TreeBackend::Pruned(p) => p.tree.read().occupied_count(),
        }
    }

    /// All occupied namespace ids, ascending. For a dense backend this is
    /// the full namespace — `O(M)` memory; intended for pruned backends
    /// and small dense systems.
    pub fn occupied_ids(&self) -> Vec<u64> {
        match self {
            TreeBackend::Dense(t) => (0..t.namespace()).collect(),
            TreeBackend::Pruned(p) => p.tree.read().occupied_ids(),
        }
    }

    /// Whether `id` is an occupied namespace element (exact; always true
    /// inside the namespace for a dense backend).
    pub fn contains_occupied(&self, id: u64) -> bool {
        match self {
            TreeBackend::Dense(t) => id < t.namespace(),
            TreeBackend::Pruned(p) => p.tree.read().contains_occupied(id),
        }
    }

    /// Whether this is the pruned (occupancy-aware) backend.
    pub fn is_pruned(&self) -> bool {
        matches!(self, TreeBackend::Pruned(_))
    }

    /// The shared hash family.
    pub fn hasher(&self) -> &Arc<BloomHasher> {
        match self {
            TreeBackend::Dense(t) => t.hasher(),
            TreeBackend::Pruned(p) => &p.hasher,
        }
    }

    /// Builds a query filter compatible with this backend from a key set.
    pub fn query_filter<I: IntoIterator<Item = u64>>(&self, keys: I) -> BloomFilter {
        BloomFilter::from_keys(Arc::clone(self.hasher()), keys)
    }

    /// The current tree generation: 0 forever for a dense backend, the
    /// occupancy-mutation count for a pruned one. Prefer
    /// [`TreeView::generation`] when a consistent (view, stamp) pair is
    /// needed — this unlocked read may race an in-flight mutation.
    pub fn generation(&self) -> u64 {
        match self {
            TreeBackend::Dense(_) => 0,
            TreeBackend::Pruned(p) => p.generation.load(Ordering::Acquire),
        }
    }

    /// Applies a mutation-journal retention bound (see
    /// [`PrunedBloomSampleTree::set_journal_cap`]). No-op for dense
    /// backends, whose occupancy never mutates.
    pub fn set_journal_cap(&self, cap: usize) {
        if let TreeBackend::Pruned(p) = self {
            p.tree.write().set_journal_cap(cap);
        }
    }

    /// Acquires a read view for sampling/reconstruction. Occupancy
    /// writers block until the view is dropped, so everything computed
    /// through one view is consistent with its [`TreeView::generation`].
    pub fn read(&self) -> TreeView<'_> {
        match self {
            TreeBackend::Dense(t) => TreeView::Dense(t),
            TreeBackend::Pruned(p) => {
                let guard = p.tree.read();
                let generation = p.generation.load(Ordering::Acquire);
                TreeView::Pruned { guard, generation }
            }
        }
    }

    /// Marks `id` occupied (§5.2 dynamic insertion), extending filters
    /// along its root-to-leaf path and materialising missing nodes. Bumps
    /// the tree generation when the occupancy actually changed — open
    /// [`crate::query::Query`] handles re-descend cold on their next
    /// operation — and returns the resulting generation.
    ///
    /// Fails with [`BstError::ImmutableBackend`] on a dense backend and
    /// [`BstError::KeyOutsideNamespace`] for ids outside `[0, M)`.
    pub fn insert_occupied(&self, id: u64) -> Result<u64, BstError> {
        self.mutate_occupied(id, |tree, id| tree.insert(id))
    }

    /// Removes `id` from the occupied set (the §5.2 evolution run in
    /// reverse), rebuilding path filters exactly and unlinking emptied
    /// subtrees. Bumps the tree generation when the occupancy actually
    /// changed and returns the resulting generation. Same failure modes
    /// as [`Self::insert_occupied`].
    pub fn remove_occupied(&self, id: u64) -> Result<u64, BstError> {
        self.mutate_occupied(id, |tree, id| tree.remove(id))
    }

    fn mutate_occupied(
        &self,
        id: u64,
        op: impl FnOnce(&mut PrunedBloomSampleTree, u64) -> bool,
    ) -> Result<u64, BstError> {
        let p = match self {
            TreeBackend::Dense(_) => return Err(BstError::ImmutableBackend),
            TreeBackend::Pruned(p) => p,
        };
        if id >= p.plan.namespace {
            return Err(BstError::KeyOutsideNamespace(id));
        }
        let mut tree = p.tree.write();
        op(&mut tree, id);
        // Republish the tree's own mutation version (unchanged on a
        // no-op) under the write lock: a reader holding a view can never
        // observe a generation older than the tree it reads, and the
        // generation stays aligned with the mutation journal.
        let generation = tree.version();
        p.generation.store(generation, Ordering::Release);
        Ok(generation)
    }

    /// Recounts every subtree from scratch and compares against the
    /// maintained weights (always true for a dense backend). Test-suite
    /// ground truth — `O(nodes)`.
    pub fn weights_consistent(&self) -> bool {
        match self {
            TreeBackend::Dense(_) => true,
            TreeBackend::Pruned(p) => p.tree.read().verify_weights(),
        }
    }

    /// Serializes the backend as `tag u8 | len u64 | tree bytes`, appended
    /// to `buf` (each tree keeps its own magic/version inside the payload).
    /// The pruned tree persists its generation counter inside its own
    /// payload, so a restored backend continues stamping monotonically.
    pub(crate) fn put_bytes(&self, buf: &mut bytes::BytesMut) {
        let (tag, payload) = match self {
            TreeBackend::Dense(t) => (TAG_DENSE, t.to_bytes()),
            TreeBackend::Pruned(p) => (TAG_PRUNED, p.tree.read().to_bytes()),
        };
        buf.put_u8(tag);
        buf.put_u64_le(payload.len() as u64);
        buf.put_slice(&payload);
    }

    /// Decodes a backend serialized with [`Self::put_bytes`], advancing
    /// `input` past the payload.
    pub(crate) fn get_bytes(input: &mut &[u8]) -> Result<Self, PersistError> {
        if input.remaining() < 1 + 8 {
            return Err(PersistError::Truncated);
        }
        let tag = input.get_u8();
        let len = input.get_u64_le() as usize;
        if input.remaining() < len {
            return Err(PersistError::Truncated);
        }
        let payload = &input[..len];
        let backend = match tag {
            TAG_DENSE => TreeBackend::dense(BloomSampleTree::from_bytes(payload)?),
            TAG_PRUNED => TreeBackend::pruned(PrunedBloomSampleTree::from_bytes(payload)?),
            _ => return Err(PersistError::Corrupt("unknown tree backend tag")),
        };
        input.advance(len);
        Ok(backend)
    }
}

/// A read view over a [`TreeBackend`]: the [`SampleTree`] the descent
/// algorithms actually run against. For a pruned backend this holds the
/// read lock, so occupancy writers wait until the view is dropped —
/// acquire it per operation, not per session.
pub enum TreeView<'a> {
    /// A dense backend (no lock needed; the tree is immutable).
    Dense(&'a BloomSampleTree),
    /// A pruned backend's read guard plus the generation it captured.
    Pruned {
        /// The locked tree.
        guard: parking_lot::RwLockReadGuard<'a, PrunedBloomSampleTree>,
        /// Tree generation at acquisition (stable while the guard lives).
        generation: u64,
    },
}

impl TreeView<'_> {
    /// The tree generation this view observes (0 for dense backends).
    pub fn generation(&self) -> u64 {
        match self {
            TreeView::Dense(_) => 0,
            TreeView::Pruned { generation, .. } => *generation,
        }
    }

    /// Repairs a [`crate::sampler::QueryMemo`] last synchronised at tree generation
    /// `since` up to this view's generation by replaying the mutation
    /// journal: each mutated id invalidates cached state along its
    /// root-to-leaf path only (`O(depth)` per mutation). Returns `false`
    /// when the journal no longer reaches back to `since` — the caller
    /// must discard the memo wholesale instead.
    ///
    /// The cached live-leaf weight is **delta-maintained** when
    /// `exact_count` holds (sound `BitOverlap` reconstruction, where the
    /// weight is exactly `|{x occupied : filter(x)}|`): inserting an
    /// occupied id adds `filter.contains(id)`, removing one subtracts
    /// it — O(k) per mutation, no counting walk. Under estimate-
    /// threshold pruning the weight is walk-dependent, so the cache is
    /// dropped and recounted lazily instead.
    ///
    /// The delta is *provably* exact only when the sound walk's
    /// positives-equal-count identity holds, and the one way that
    /// identity can break is a resident occupied id with **degenerate
    /// probes** (fewer than `k` distinct bit positions) that is also a
    /// filter positive — only such an id can sit in a subtree whose
    /// `t∧ < k` prunes it, and only revealing/hiding such an id makes a
    /// mutation's true delta differ from `±filter.contains(id)`. The
    /// tree maintains a census of degenerate-probe residents, so the
    /// fast path simply verifies none of them is a filter positive (the
    /// census is empty in the overwhelmingly common case); otherwise —
    /// and for a degenerate mutated id itself — the cache is dropped
    /// and the next call recounts through the repaired memo.
    pub fn repair_memo(
        &self,
        since: u64,
        memo: &mut crate::sampler::QueryMemo,
        filter: &BloomFilter,
        exact_count: bool,
    ) -> bool {
        match self {
            // Dense generation is constant 0: there is never a gap.
            TreeView::Dense(_) => true,
            TreeView::Pruned { guard, .. } => {
                let Some(mutations) = guard.mutations_since(since) else {
                    return false;
                };
                // Delta exactness precondition (see the method docs): no
                // degenerate-probe resident may be a filter positive.
                // Checked once per sync against the census — which is
                // empty in the common case.
                let deltas_exact = exact_count
                    && memo.cached_count().is_some()
                    && guard.colliding_ids().iter().all(|&c| !filter.contains(c));
                let mut count = memo.cached_count();
                for (id, inserted) in mutations {
                    memo.repair_after_mutation(self, id);
                    count = match count {
                        // An inserted id was not occupied before (so not
                        // counted); a removed id was, and was counted
                        // iff the filter holds it. The mutated id's own
                        // probes are checked directly (a degenerate
                        // removal is not in the post-removal census);
                        // checked arithmetic is belt-and-braces against
                        // wrap.
                        Some(c) if deltas_exact && filter.probes_distinct_bits(id) => {
                            let delta = u64::from(filter.contains(id));
                            if inserted {
                                c.checked_add(delta)
                            } else {
                                c.checked_sub(delta)
                            }
                        }
                        _ => None,
                    };
                }
                memo.cached_count = count;
                true
            }
        }
    }

    /// Journal-replay hook for **external** weight memos — live-leaf
    /// weights cached outside any [`crate::query::Query`] handle, such as
    /// the sharded engine's persistent batch weight cache. Brings an
    /// exact weight computed at tree generation `since` up to this view's
    /// generation by replaying the mutation journal with the O(k) delta
    /// `±filter.contains(id)` per mutation, instead of a counting walk.
    ///
    /// Returns `None` whenever the delta cannot be *proven* exact — the
    /// journal no longer reaches back to `since`, a degenerate-probe
    /// resident is a positive of `filter` (the collision census), a
    /// mutated id itself probes fewer than `k` distinct bits, or the
    /// arithmetic would wrap — in which case the caller must discard the
    /// cached weight and recount. The delta is sound only when the
    /// weight is the exact positives count, i.e. under `BitOverlap`
    /// reconstruction; callers gate on the configuration, as
    /// [`crate::system::BstSystem::repair_live_weight`] does.
    pub fn replay_count(&self, since: u64, filter: &BloomFilter, count: u64) -> Option<u64> {
        match self {
            // Dense generation is constant 0: a zero gap is a no-op and
            // anything else is a caller bug treated as "cannot repair".
            TreeView::Dense(_) => (since == 0).then_some(count),
            TreeView::Pruned { guard, .. } => {
                let mutations = guard.mutations_since(since)?;
                // Same exactness precondition as `repair_memo`: no
                // degenerate-probe resident may be a filter positive.
                if guard.colliding_ids().iter().any(|&c| filter.contains(c)) {
                    return None;
                }
                let mut count = count;
                for (id, inserted) in mutations {
                    if !filter.probes_distinct_bits(id) {
                        return None;
                    }
                    let delta = u64::from(filter.contains(id));
                    count = if inserted {
                        count.checked_add(delta)?
                    } else {
                        count.checked_sub(delta)?
                    };
                }
                Some(count)
            }
        }
    }
}

impl SampleTree for TreeView<'_> {
    fn root(&self) -> Option<NodeId> {
        match self {
            TreeView::Dense(t) => t.root(),
            TreeView::Pruned { guard, .. } => guard.root(),
        }
    }

    fn is_leaf(&self, node: NodeId) -> bool {
        match self {
            TreeView::Dense(t) => t.is_leaf(node),
            TreeView::Pruned { guard, .. } => guard.is_leaf(node),
        }
    }

    fn children(&self, node: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        match self {
            TreeView::Dense(t) => t.children(node),
            TreeView::Pruned { guard, .. } => guard.children(node),
        }
    }

    fn filter(&self, node: NodeId) -> &BloomFilter {
        match self {
            TreeView::Dense(t) => t.filter(node),
            TreeView::Pruned { guard, .. } => guard.filter(node),
        }
    }

    fn range(&self, node: NodeId) -> Range<u64> {
        match self {
            TreeView::Dense(t) => t.range(node),
            TreeView::Pruned { guard, .. } => guard.range(node),
        }
    }

    fn scan_leaf<F: FnMut(u64)>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        window: &Range<u64>,
        visit: F,
    ) -> u64 {
        match self {
            TreeView::Dense(t) => t.scan_leaf(node, query, window, visit),
            TreeView::Pruned { guard, .. } => guard.scan_leaf(node, query, window, visit),
        }
    }

    fn hasher(&self) -> &Arc<BloomHasher> {
        match self {
            TreeView::Dense(t) => t.hasher(),
            TreeView::Pruned { guard, .. } => guard.hasher(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::hash::HashKind;

    fn plan() -> TreePlan {
        TreePlan {
            namespace: 4096,
            m: 4096,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 31,
            depth: 4,
            leaf_capacity: 256,
            target_accuracy: 0.9,
        }
    }

    #[test]
    fn delegation_matches_the_wrapped_tree() {
        let p = plan();
        let dense = TreeBackend::dense(BloomSampleTree::build(&p));
        assert!(!dense.is_pruned());
        assert_eq!(dense.node_count(), (1 << 5) - 1);
        assert_eq!(dense.occupied_count(), 4096);
        assert_eq!(dense.depth(), 4);

        let occ: Vec<u64> = (100..200u64).collect();
        let pruned = TreeBackend::pruned(PrunedBloomSampleTree::build(&p, &occ));
        assert!(pruned.is_pruned());
        assert_eq!(pruned.occupied_count(), 100);
        assert!(pruned.node_count() < dense.node_count());
        assert_eq!(pruned.occupied_ids(), occ);
        // Trait navigation works through the view.
        let view = pruned.read();
        let root = view.root().expect("root");
        assert!(view.filter(root).contains(150));
        assert_eq!(view.range(root), 0..4096);
        assert_eq!(view.generation(), 0);
    }

    #[test]
    fn occupancy_mutations_bump_the_tree_generation() {
        let backend = TreeBackend::pruned(PrunedBloomSampleTree::build(&plan(), &[5, 10]));
        assert_eq!(backend.generation(), 0);
        assert_eq!(backend.insert_occupied(99), Ok(1));
        assert!(backend.contains_occupied(99));
        // A no-op insert does not bump.
        assert_eq!(backend.insert_occupied(99), Ok(1));
        assert_eq!(backend.remove_occupied(5), Ok(2));
        assert!(!backend.contains_occupied(5));
        // A no-op removal does not bump either.
        assert_eq!(backend.remove_occupied(5), Ok(2));
        assert_eq!(backend.occupied_count(), 2);
        assert_eq!(backend.read().generation(), 2);
        // Out-of-namespace ids are typed errors, not panics.
        assert_eq!(
            backend.insert_occupied(4096),
            Err(BstError::KeyOutsideNamespace(4096))
        );
    }

    #[test]
    fn dense_backend_is_immutable() {
        let backend = TreeBackend::dense(BloomSampleTree::build(&plan()));
        assert_eq!(backend.insert_occupied(7), Err(BstError::ImmutableBackend));
        assert_eq!(backend.remove_occupied(7), Err(BstError::ImmutableBackend));
        assert_eq!(backend.generation(), 0);
        assert!(backend.contains_occupied(7));
        assert!(!backend.contains_occupied(4096));
    }

    #[test]
    fn tagged_roundtrip_both_backends() {
        let p = plan();
        let occ: Vec<u64> = (0..4096u64).step_by(17).collect();
        for backend in [
            TreeBackend::dense(BloomSampleTree::build(&p)),
            TreeBackend::pruned(PrunedBloomSampleTree::build(&p, &occ)),
        ] {
            let mut buf = bytes::BytesMut::new();
            backend.put_bytes(&mut buf);
            let mut slice: &[u8] = &buf;
            let back = TreeBackend::get_bytes(&mut slice).expect("decode");
            assert!(slice.is_empty(), "payload fully consumed");
            assert_eq!(back.is_pruned(), backend.is_pruned());
            assert_eq!(back.node_count(), backend.node_count());
            let (va, vb) = (back.read(), backend.read());
            for i in (0..backend.node_count() as u32).step_by(3) {
                assert_eq!(va.filter(i).bits(), vb.filter(i).bits());
            }
        }
    }

    #[test]
    fn bad_tag_and_truncation_rejected() {
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(9);
        buf.put_u64_le(0);
        let mut s: &[u8] = &buf;
        assert_eq!(
            TreeBackend::get_bytes(&mut s).unwrap_err(),
            PersistError::Corrupt("unknown tree backend tag")
        );
        let mut short: &[u8] = &[TAG_DENSE];
        assert_eq!(
            TreeBackend::get_bytes(&mut short).unwrap_err(),
            PersistError::Truncated
        );
    }
}
