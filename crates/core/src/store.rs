//! The mutable filter database `D̄` behind the facade.
//!
//! The paper's setting (§3.2) is a *database* of millions of sets, each
//! queried only as a Bloom filter sharing the tree's `(m, H)`. Real
//! deployments churn: community members join and leave, and plain bit
//! filters cannot forget. [`BstStore`] therefore keeps every registered
//! set as the ascending multiset of its keys, addressed by a stable
//! [`FilterId`], and projects a plain [`BloomFilter`] from the keys
//! whenever the tree needs to query it. A key inserted twice needs two
//! removes; removing a key the set does not hold changes nothing.
//!
//! A store is read through a **partition** of the namespace into
//! contiguous slices: a standalone [`crate::system::BstSystem`] reads one
//! slice, and the shards of a sharded engine share one store, each
//! reading the run of keys its tree covers — every set is held once.
//! Every write batch bumps the **generation** of each slice it has a key
//! in. Query handles opened by id ([`crate::system::BstSystem::query_id`])
//! carry their slice's generation; on their next operation they compare
//! stamps and, if stale, re-project the filter and discard their
//! [`crate::sampler::QueryMemo`] (a cold re-descent) — so a handle never
//! serves results computed against a superseded set.
//!
//! All methods take `&self` (the interior `RwLock` serialises writers and
//! lets concurrent readers project snapshots in parallel), so the store
//! is shared freely through an `Arc`.

use std::collections::HashMap;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::BloomHasher;
use bytes::{Buf, BufMut};
use parking_lot::RwLock;

use crate::error::BstError;
use crate::persistence::PersistError;

/// Stable address of a set registered in a [`BstStore`].
///
/// Ids are never reused within one store: dropping a set retires its id,
/// and stale handles report [`BstError::UnknownFilterId`] rather than
/// silently reading a different set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterId(u64);

impl FilterId {
    /// Reconstructs an id from its raw value (for wire formats / logs).
    pub fn from_raw(raw: u64) -> Self {
        FilterId(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FilterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One registered set: its keys, ascending with repeats, and one
/// mutation stamp per slice of the store's partition.
struct StoredSet {
    keys: Vec<u64>,
    generations: Box<[u64]>,
}

impl StoredSet {
    /// The set's generation: its slice stamps summed, so it moves with
    /// every write (one per slice the write touched). With one slice it
    /// counts the non-empty write batches.
    fn generation(&self) -> u64 {
        self.generations.iter().sum()
    }
}

struct StoreInner {
    sets: HashMap<u64, StoredSet>,
    next_id: u64,
}

/// The id-addressed set database of one system, or of every shard of
/// one sharded engine. Obtain it via
/// [`crate::system::BstSystem::filters`].
pub struct BstStore {
    /// The partition the sets are read through: ascending, first 0, last
    /// the namespace bound `M`. Slice `s` holds the keys in
    /// `[boundaries[s], boundaries[s + 1])`. Stored keys must lie in
    /// `[0, M)` or no tree could ever answer them (silent data loss).
    boundaries: Vec<u64>,
    inner: RwLock<StoreInner>,
}

impl std::fmt::Debug for BstStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        write!(
            f,
            "BstStore(sets={}, next_id={}, slices={})",
            inner.sets.len(),
            inner.next_id,
            self.slices()
        )
    }
}

impl BstStore {
    /// An empty store read through the partition `boundaries`: `S + 1`
    /// ascending values, first 0, last the namespace bound `M`. A
    /// standalone system's store is the one slice `[0, M]`; a sharded
    /// engine passes its shard boundaries.
    pub fn new(boundaries: Vec<u64>) -> Self {
        BstStore {
            boundaries,
            inner: RwLock::new(StoreInner {
                sets: HashMap::new(),
                next_id: 0,
            }),
        }
    }

    /// The partition the store is read through (see [`Self::new`]).
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// The namespace bound `M`.
    pub fn namespace(&self) -> u64 {
        self.boundaries.last().copied().unwrap_or(0)
    }

    /// Number of slices in the partition.
    pub(crate) fn slices(&self) -> usize {
        self.boundaries.len().saturating_sub(1)
    }

    /// Validates and materialises a key batch, ascending: every key must
    /// lie inside the namespace, or the whole mutation is rejected
    /// (atomically — nothing is applied).
    fn checked_keys<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<Vec<u64>, BstError> {
        let namespace = self.namespace();
        let mut keys: Vec<u64> = keys.into_iter().collect();
        match keys.iter().find(|&&x| x >= namespace) {
            Some(&bad) => Err(BstError::KeyOutsideNamespace(bad)),
            None => {
                keys.sort_unstable();
                Ok(keys)
            }
        }
    }

    /// The run of the ascending `keys` that slice `slice` reads.
    fn slice_of<'a>(&self, keys: &'a [u64], slice: usize) -> &'a [u64] {
        let (lo, hi) = (self.boundaries[slice], self.boundaries[slice + 1]);
        let start = keys.partition_point(|&x| x < lo);
        let len = keys[start..].partition_point(|&x| x < hi);
        &keys[start..start + len]
    }

    /// Bumps the generation of every slice the ascending `batch` has a
    /// key in.
    fn bump(&self, set: &mut StoredSet, batch: &[u64]) {
        let mut rest = batch;
        for (generation, &end) in set.generations.iter_mut().zip(&self.boundaries[1..]) {
            let touched = rest.partition_point(|&x| x < end);
            if touched > 0 {
                *generation += 1;
                rest = &rest[touched..];
            }
        }
    }

    /// Registers a new set over `keys`, returning its stable id. Every
    /// slice starts at generation 0. Rejects keys outside the namespace
    /// (they could never be sampled or reconstructed) without creating
    /// anything.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, BstError> {
        let keys = self.checked_keys(keys)?;
        let generations = vec![0; self.slices()].into_boxed_slice();
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.sets.insert(id, StoredSet { keys, generations });
        Ok(FilterId(id))
    }

    /// Inserts `keys` into the stored set, bumping the generation of each
    /// slice the batch has a key in. Returns the set's new generation
    /// ([`Self::generation`]). Rejects the whole batch if any key lies
    /// outside the namespace.
    pub fn insert_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<u64, BstError> {
        let keys = self.checked_keys(keys)?;
        let mut inner = self.inner.write();
        let set = inner
            .sets
            .get_mut(&id.0)
            .ok_or(BstError::UnknownFilterId(id))?;
        // Merge the two ascending runs in place, from the back: each key
        // moves at most once and nothing else is allocated.
        let (mut held, mut batch) = (set.keys.len(), keys.len());
        set.keys.resize(held + batch, 0);
        while batch > 0 {
            let out = held + batch - 1;
            if held > 0 && set.keys[held - 1] > keys[batch - 1] {
                held -= 1;
                set.keys[out] = set.keys[held];
            } else {
                batch -= 1;
                set.keys[out] = keys[batch];
            }
        }
        self.bump(set, &keys);
        Ok(set.generation())
    }

    /// Removes one occurrence of each key in `keys` from the stored set;
    /// a key the set does not hold is skipped. Bumps the generation of
    /// each slice the batch has a key in and returns the set's new
    /// generation. Rejects the whole batch if any key lies outside the
    /// namespace (such a key was never insertable).
    pub fn remove_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<u64, BstError> {
        let keys = self.checked_keys(keys)?;
        let mut inner = self.inner.write();
        let set = inner
            .sets
            .get_mut(&id.0)
            .ok_or(BstError::UnknownFilterId(id))?;
        if !keys.is_empty() {
            // Both sides ascend: each stored key consumes at most one
            // equal batch key, and batch keys below it were absent.
            let mut pending = keys.iter().peekable();
            set.keys.retain(|&x| {
                while pending.next_if(|&&y| y < x).is_some() {}
                pending.next_if_eq(&&x).is_none()
            });
        }
        self.bump(set, &keys);
        Ok(set.generation())
    }

    /// Projects the whole stored set, every slice, to a plain
    /// [`BloomFilter`] under `hasher` (the tree's hash family).
    pub fn get(&self, id: FilterId, hasher: &Arc<BloomHasher>) -> Result<BloomFilter, BstError> {
        let inner = self.inner.read();
        let set = inner.sets.get(&id.0).ok_or(BstError::UnknownFilterId(id))?;
        Ok(BloomFilter::from_keys(
            Arc::clone(hasher),
            set.keys.iter().copied(),
        ))
    }

    /// Slice `slice` of the stored set projected under `hasher`, plus
    /// that slice's generation — one lock acquisition, so the pair is
    /// consistent. `slice` must be below the slice count (every system
    /// checks its slice when it is built).
    pub(crate) fn snapshot(
        &self,
        id: FilterId,
        slice: usize,
        hasher: &Arc<BloomHasher>,
    ) -> Result<(BloomFilter, u64), BstError> {
        let inner = self.inner.read();
        let set = inner.sets.get(&id.0).ok_or(BstError::UnknownFilterId(id))?;
        Ok(self.project(set, slice, hasher))
    }

    /// Re-projects slice `slice` only if it has moved past `seen`:
    /// `Ok(None)` means `seen` is still current. One lock acquisition, so
    /// a query handle's staleness check and refresh cannot race a writer
    /// in between.
    pub(crate) fn snapshot_if_newer(
        &self,
        id: FilterId,
        slice: usize,
        seen: u64,
        hasher: &Arc<BloomHasher>,
    ) -> Result<Option<(BloomFilter, u64)>, BstError> {
        let inner = self.inner.read();
        let set = inner.sets.get(&id.0).ok_or(BstError::UnknownFilterId(id))?;
        if set.generations[slice] == seen {
            Ok(None)
        } else {
            Ok(Some(self.project(set, slice, hasher)))
        }
    }

    fn project(
        &self,
        set: &StoredSet,
        slice: usize,
        hasher: &Arc<BloomHasher>,
    ) -> (BloomFilter, u64) {
        let keys = self.slice_of(&set.keys, slice);
        (
            BloomFilter::from_keys(Arc::clone(hasher), keys.iter().copied()),
            set.generations[slice],
        )
    }

    /// Unregisters the set. Its id is retired, never reused; open handles
    /// report [`BstError::UnknownFilterId`] on their next operation.
    pub fn drop_set(&self, id: FilterId) -> Result<(), BstError> {
        let mut inner = self.inner.write();
        inner
            .sets
            .remove(&id.0)
            .map(|_| ())
            .ok_or(BstError::UnknownFilterId(id))
    }

    /// The set's generation: its slice generations summed (0 until its
    /// first write). With one slice, the number of non-empty write
    /// batches.
    pub fn generation(&self, id: FilterId) -> Result<u64, BstError> {
        let inner = self.inner.read();
        inner
            .sets
            .get(&id.0)
            .map(StoredSet::generation)
            .ok_or(BstError::UnknownFilterId(id))
    }

    /// The generation of slice `slice` of the set.
    pub(crate) fn slice_generation(&self, id: FilterId, slice: usize) -> Result<u64, BstError> {
        let inner = self.inner.read();
        inner
            .sets
            .get(&id.0)
            .map(|s| s.generations[slice])
            .ok_or(BstError::UnknownFilterId(id))
    }

    /// All live ids, ascending.
    pub fn ids(&self) -> Vec<FilterId> {
        let inner = self.inner.read();
        let mut ids: Vec<FilterId> = inner.sets.keys().copied().map(FilterId).collect();
        ids.sort_unstable();
        ids
    }

    /// Number of registered sets.
    pub fn len(&self) -> usize {
        self.inner.read().sets.len()
    }

    /// Whether the store holds no sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the store as
    /// `next_id u64 | count u32 | per set (ascending id): id u64,
    /// generation u64 per slice, key count u64, keys u64…
    /// (non-decreasing)`, appended to `buf`. Sets are written in id order
    /// so snapshots are byte-deterministic. The partition is not written:
    /// the enclosing snapshot knows it.
    pub fn put_bytes(&self, buf: &mut bytes::BytesMut) {
        self.put_slices(buf, None);
    }

    /// The store as a one-slice store holding only slice `slice`: the
    /// body of a system snapshot, so a shard's snapshot restores as a
    /// standalone system over its own keys. On a one-slice store this is
    /// [`Self::put_bytes`].
    pub(crate) fn put_slice_bytes(&self, buf: &mut bytes::BytesMut, slice: usize) {
        self.put_slices(buf, Some(slice));
    }

    fn put_slices(&self, buf: &mut bytes::BytesMut, only: Option<usize>) {
        let inner = self.inner.read();
        buf.put_u64_le(inner.next_id);
        buf.put_u32_le(inner.sets.len() as u32);
        let mut ids: Vec<u64> = inner.sets.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let set = &inner.sets[&id];
            buf.put_u64_le(id);
            let keys = match only {
                None => {
                    bst_bloom::codec::put_u64s(buf, &set.generations);
                    &set.keys[..]
                }
                Some(slice) => {
                    buf.put_u64_le(set.generations[slice]);
                    self.slice_of(&set.keys, slice)
                }
            };
            buf.put_u64_le(keys.len() as u64);
            bst_bloom::codec::put_u64s(buf, keys);
        }
    }

    /// The exact length of [`Self::put_bytes`]'s output (unless the store
    /// changes in between): the bulk of a snapshot, so it sizes the
    /// snapshot buffer.
    pub fn encoded_len_hint(&self) -> usize {
        let inner = self.inner.read();
        let keys: usize = inner.sets.values().map(|s| s.keys.len()).sum();
        8 + 4 + inner.sets.len() * (8 + 8 * self.slices() + 8) + keys * 8
    }

    /// Decodes a store serialized with [`Self::put_bytes`], read through
    /// `boundaries` (which the caller has validated). Every set's keys
    /// must ascend (repeats allowed) and lie inside the namespace, and
    /// the ids must ascend strictly, as written, and stay below
    /// `next_id`.
    pub fn get_bytes(input: &mut &[u8], boundaries: Vec<u64>) -> Result<Self, PersistError> {
        let store = BstStore::new(boundaries);
        let (slices, namespace) = (store.slices(), store.namespace());
        let header = 8 + 8 * slices + 8;
        if input.remaining() < 8 + 4 {
            return Err(PersistError::Truncated);
        }
        let next_id = input.get_u64_le();
        let count = input.get_u32_le() as usize;
        // Cap the pre-allocation by what the payload could possibly hold
        // (each set needs its header bytes): a corrupt count field must
        // fail as Truncated below, not abort in the allocator here.
        let mut sets = HashMap::with_capacity(count.min(input.remaining() / header));
        let mut last = None;
        for _ in 0..count {
            if input.remaining() < header {
                return Err(PersistError::Truncated);
            }
            let id = input.get_u64_le();
            if id >= next_id {
                return Err(PersistError::Corrupt("stored id beyond next_id"));
            }
            if last.is_some_and(|last| id <= last) {
                return Err(PersistError::Corrupt("stored ids not strictly ascending"));
            }
            last = Some(id);
            let generations = crate::persistence::get_words(input, slices)?.into_boxed_slice();
            let len = input.get_u64_le();
            if len > (input.remaining() / 8) as u64 {
                return Err(PersistError::Truncated);
            }
            let keys = crate::persistence::get_words(input, len as usize)?;
            if keys.windows(2).any(|w| w[0] > w[1]) {
                return Err(PersistError::Corrupt("stored keys descend"));
            }
            if keys.last().is_some_and(|&x| x >= namespace) {
                return Err(PersistError::Corrupt("stored key outside the namespace"));
            }
            sets.insert(id, StoredSet { keys, generations });
        }
        *store.inner.write() = StoreInner { sets, next_id };
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::bitvec::BitVec;
    use bst_bloom::hash::HashKind;

    fn store() -> BstStore {
        BstStore::new(vec![0, 100_000])
    }

    fn hasher() -> Arc<BloomHasher> {
        Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 4096, 100_000, 7))
    }

    #[test]
    fn create_get_drop_lifecycle() {
        let s = store();
        assert!(s.is_empty());
        let a = s.create(0..100u64).expect("create");
        let b = s.create((0..50u64).map(|i| i * 2 + 1)).expect("create");
        assert_eq!(s.len(), 2);
        assert_eq!(s.ids(), vec![a, b]);
        assert_ne!(a, b);
        let fa = s.get(a, &hasher()).expect("get");
        for x in 0..100u64 {
            assert!(fa.contains(x));
        }
        assert_eq!(s.generation(a), Ok(0));
        s.drop_set(a).expect("drop");
        assert_eq!(
            s.get(a, &hasher()).unwrap_err(),
            BstError::UnknownFilterId(a)
        );
        assert_eq!(s.drop_set(a), Err(BstError::UnknownFilterId(a)));
        // Ids are never reused.
        let c = s.create([1u64]).expect("create");
        assert!(c.raw() > b.raw());
    }

    #[test]
    fn mutations_bump_generations() {
        let s = store();
        let id = s.create(0..10u64).expect("create");
        assert_eq!(s.insert_keys(id, [100u64, 101]), Ok(1));
        assert_eq!(s.remove_keys(id, [0u64]), Ok(2));
        // No-op mutations (empty key iterators) do not bump.
        assert_eq!(s.insert_keys(id, std::iter::empty()), Ok(2));
        assert_eq!(s.remove_keys(id, std::iter::empty()), Ok(2));
        assert_eq!(s.generation(id), Ok(2));
        assert_eq!(bits(&s, id), from_keys((1..10).chain([100, 101])));
    }

    /// The bits of `from_keys` over `keys`: what the store must project.
    fn from_keys(keys: impl IntoIterator<Item = u64>) -> BitVec {
        BloomFilter::from_keys(hasher(), keys).bits().clone()
    }

    fn bits(s: &BstStore, id: FilterId) -> BitVec {
        s.get(id, &hasher()).expect("get").bits().clone()
    }

    #[test]
    fn a_key_inserted_twice_survives_one_remove() {
        let s = store();
        let id = s.create([7u64, 9]).expect("create");
        s.insert_keys(id, [7u64]).expect("insert");
        s.remove_keys(id, [7u64]).expect("remove");
        assert_eq!(bits(&s, id), from_keys([7, 9]));
        s.remove_keys(id, [7u64]).expect("remove");
        assert_eq!(bits(&s, id), from_keys([9]));
        // One batch may remove several occurrences of one key.
        s.insert_keys(id, [9u64, 9]).expect("insert");
        s.remove_keys(id, [9u64, 9]).expect("remove");
        assert_eq!(bits(&s, id), from_keys([9]));
    }

    #[test]
    fn removing_an_absent_key_changes_no_bit_but_bumps_the_generation() {
        let s = store();
        let id = s.create(0..50u64).expect("create");
        let before = bits(&s, id);
        // 60 is a false positive or not: either way it was never stored,
        // so no other key's bits may go.
        assert_eq!(s.remove_keys(id, [60u64, 99_999]), Ok(1));
        assert_eq!(bits(&s, id), before);
        assert_eq!(s.generation(id), Ok(1));
        // An absent key in a batch (the second 7) does not shield the
        // held keys after it.
        s.remove_keys(id, [7u64, 7, 25]).expect("remove");
        assert_eq!(
            bits(&s, id),
            from_keys((0..50).filter(|&x| x != 7 && x != 25))
        );
    }

    #[test]
    fn out_of_namespace_keys_rejected_atomically() {
        let s = store(); // namespace 100_000
        assert_eq!(
            s.create([5u64, 100_000]).unwrap_err(),
            BstError::KeyOutsideNamespace(100_000)
        );
        assert!(s.is_empty(), "failed create must not register anything");
        let id = s.create([5u64]).expect("create");
        assert_eq!(
            s.insert_keys(id, [6u64, 200_000]),
            Err(BstError::KeyOutsideNamespace(200_000))
        );
        // Atomic: the in-range key of the rejected batch was not applied.
        assert_eq!(bits(&s, id), from_keys([5]));
        assert_eq!(s.generation(id), Ok(0));
        assert_eq!(
            s.remove_keys(id, [100_000u64]),
            Err(BstError::KeyOutsideNamespace(100_000))
        );
        assert_eq!(s.generation(id), Ok(0));
    }

    #[test]
    fn snapshot_pairs_filter_with_generation() {
        let s = store();
        let id = s.create(0..20u64).expect("create");
        let (f0, g0) = s.snapshot(id, 0, &hasher()).expect("snapshot");
        assert_eq!(g0, 0);
        assert!(f0.contains(5));
        assert!(s
            .snapshot_if_newer(id, 0, g0, &hasher())
            .expect("check")
            .is_none());
        s.remove_keys(id, [5u64]).expect("remove");
        let (f1, g1) = s
            .snapshot_if_newer(id, 0, g0, &hasher())
            .expect("check")
            .expect("newer snapshot");
        assert_eq!(g1, 1);
        assert!(!f1.contains(5));
        assert!(f1.contains(6));
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let s = store();
        let ghost = FilterId::from_raw(99);
        assert_eq!(
            s.get(ghost, &hasher()).unwrap_err(),
            BstError::UnknownFilterId(ghost)
        );
        assert_eq!(
            s.insert_keys(ghost, [1u64]),
            Err(BstError::UnknownFilterId(ghost))
        );
        assert_eq!(
            s.remove_keys(ghost, [1u64]),
            Err(BstError::UnknownFilterId(ghost))
        );
        assert_eq!(s.generation(ghost), Err(BstError::UnknownFilterId(ghost)));
    }

    #[test]
    fn byte_roundtrip_preserves_sets_ids_and_generations() {
        let s = store();
        let a = s.create(0..200u64).expect("create");
        let b = s.create((0..80u64).map(|i| i * 3)).expect("create");
        s.insert_keys(a, [500u64, 501]).expect("insert");
        s.remove_keys(a, 0..50u64).expect("remove");
        s.drop_set(b).expect("drop");
        let c = s.create([7u64, 8, 9]).expect("create");

        let mut buf = bytes::BytesMut::new();
        s.put_bytes(&mut buf);
        let mut slice: &[u8] = &buf;
        let back = BstStore::get_bytes(&mut slice, vec![0, 100_000]).expect("decode");
        assert!(slice.is_empty());
        assert_eq!(back.ids(), s.ids());
        assert_eq!(back.generation(a), s.generation(a));
        assert_eq!(back.generation(c), Ok(0));
        assert_eq!(bits(&back, a), bits(&s, a));
        assert_eq!(buf.len(), s.encoded_len_hint());
        // Byte-determinism: re-encoding yields identical bytes.
        let mut buf2 = bytes::BytesMut::new();
        back.put_bytes(&mut buf2);
        assert_eq!(&buf[..], &buf2[..]);
        // Dropped id stays dropped, and id allocation continues past it.
        assert_eq!(
            back.get(b, &hasher()).unwrap_err(),
            BstError::UnknownFilterId(b)
        );
        let d = back.create([1u64]).expect("create");
        assert!(d.raw() > c.raw());
    }

    #[test]
    fn slices_project_their_runs_and_stamp_their_own_writes() {
        let s = BstStore::new(vec![0, 100, 200, 300, 100_000]);
        let id = s.create([5u64, 150, 150, 250, 99_999]).expect("create");
        let slice = |i: usize| {
            let (filter, generation) = s.snapshot(id, i, &hasher()).expect("snapshot");
            (filter.bits().clone(), generation)
        };
        assert_eq!(slice(1), (from_keys([150, 150]), 0));
        assert_eq!(slice(3), (from_keys([99_999]), 0));
        // The whole set is the union of its slices.
        assert_eq!(bits(&s, id), from_keys([5, 150, 150, 250, 99_999]));
        // A batch bumps each slice it has a key in, absent keys included.
        assert_eq!(s.insert_keys(id, [160u64, 170]), Ok(1));
        assert_eq!(s.remove_keys(id, [0u64, 250, 251]), Ok(3));
        let generations: Vec<u64> = (0..4).map(|i| slice(i).1).collect();
        assert_eq!(generations, vec![1, 1, 1, 0]);
        assert_eq!(slice(2), (from_keys([]), 1));
        assert_eq!(slice(1).0, from_keys([150, 150, 160, 170]));
        assert!(s
            .snapshot_if_newer(id, 3, 0, &hasher())
            .expect("check")
            .is_none());
        // Per-slice stamps survive the codec.
        let mut buf = bytes::BytesMut::new();
        s.put_bytes(&mut buf);
        assert_eq!(buf.len(), s.encoded_len_hint());
        let mut input: &[u8] = &buf;
        let back = BstStore::get_bytes(&mut input, s.boundaries().to_vec()).expect("decode");
        assert_eq!(back.slice_generation(id, 2), Ok(1));
        assert_eq!(back.generation(id), Ok(3));
    }

    /// The bytes of a one-set store with `keys` written as they are.
    fn one_set_bytes(keys: &[u64]) -> bytes::BytesMut {
        let mut buf = bytes::BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u32_le(1);
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u64_le(keys.len() as u64);
        bst_bloom::codec::put_u64s(&mut buf, keys);
        buf
    }

    #[test]
    fn decode_refuses_corrupt_keys() {
        let decode = |buf: &[u8]| {
            let mut slice = buf;
            BstStore::get_bytes(&mut slice, vec![0, 100_000]).map(|_| ())
        };
        assert_eq!(decode(&one_set_bytes(&[3, 3, 8])), Ok(()));
        assert_eq!(
            decode(&one_set_bytes(&[3, 8, 5])),
            Err(PersistError::Corrupt("stored keys descend"))
        );
        assert_eq!(
            decode(&one_set_bytes(&[3, 100_000])),
            Err(PersistError::Corrupt("stored key outside the namespace"))
        );
        // A key count the input cannot hold fails before any allocation.
        let mut huge = one_set_bytes(&[]);
        let at = huge.len() - 8;
        huge[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&huge), Err(PersistError::Truncated));
        let full = one_set_bytes(&[1, 2]);
        assert_eq!(
            decode(&full[..full.len() - 1]),
            Err(PersistError::Truncated)
        );
    }
}
