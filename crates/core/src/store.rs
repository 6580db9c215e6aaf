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
//! Every mutation bumps the set's **generation**. Query handles opened by
//! id ([`crate::system::BstSystem::query_id`]) carry the generation they
//! captured; on their next operation they compare stamps and, if stale,
//! re-project the filter and discard their [`crate::sampler::QueryMemo`]
//! (a cold re-descent) — so a handle can never serve results computed
//! against a superseded set.
//!
//! All methods take `&self` (the interior `RwLock` serialises writers and
//! lets concurrent readers project snapshots in parallel), so the store
//! is shared freely through the `Arc` inside `BstSystem`.

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

/// One registered set: its keys, ascending with repeats, and the
/// mutation stamp.
struct StoredSet {
    keys: Vec<u64>,
    generation: u64,
}

struct StoreInner {
    sets: HashMap<u64, StoredSet>,
    next_id: u64,
}

/// The id-addressed set database of one [`crate::system::BstSystem`].
/// Obtain it via [`crate::system::BstSystem::filters`].
pub struct BstStore {
    hasher: Arc<BloomHasher>,
    /// Namespace bound `M`: stored keys must lie in `[0, M)` or they
    /// could never be answered by the tree (silent data loss).
    namespace: u64,
    inner: RwLock<StoreInner>,
}

impl std::fmt::Debug for BstStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        write!(
            f,
            "BstStore(sets={}, next_id={})",
            inner.sets.len(),
            inner.next_id
        )
    }
}

impl BstStore {
    /// An empty store whose sets share `hasher` with the tree and whose
    /// keys are bounded by `namespace`.
    pub(crate) fn new(hasher: Arc<BloomHasher>, namespace: u64) -> Self {
        BstStore {
            hasher,
            namespace,
            inner: RwLock::new(StoreInner {
                sets: HashMap::new(),
                next_id: 0,
            }),
        }
    }

    /// Validates and materialises a key batch, ascending: every key must
    /// lie inside the namespace, or the whole mutation is rejected
    /// (atomically — nothing is applied).
    fn checked_keys<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<Vec<u64>, BstError> {
        let mut keys: Vec<u64> = keys.into_iter().collect();
        match keys.iter().find(|&&x| x >= self.namespace) {
            Some(&bad) => Err(BstError::KeyOutsideNamespace(bad)),
            None => {
                keys.sort_unstable();
                Ok(keys)
            }
        }
    }

    /// Registers a new set over `keys`, returning its stable id. The set
    /// starts at generation 0. Rejects keys outside the namespace (they
    /// could never be sampled or reconstructed) without creating anything.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, BstError> {
        let keys = self.checked_keys(keys)?;
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.sets.insert(
            id,
            StoredSet {
                keys,
                generation: 0,
            },
        );
        Ok(FilterId(id))
    }

    /// Inserts `keys` into the stored set, bumping its generation when at
    /// least one key was processed. Returns the set's new generation.
    /// Rejects the whole batch if any key lies outside the namespace.
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
        if !keys.is_empty() {
            // Two ascending runs: the stable sort merges them in one pass.
            set.keys.extend_from_slice(&keys);
            set.keys.sort();
            set.generation += 1;
        }
        Ok(set.generation)
    }

    /// Removes one occurrence of each key in `keys` from the stored set;
    /// a key the set does not hold is skipped. Bumps the generation when
    /// at least one key was processed and returns the new generation.
    /// Rejects the whole batch if any key lies outside the namespace
    /// (such a key was never insertable).
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
            set.generation += 1;
        }
        Ok(set.generation)
    }

    /// Projects the stored set to a plain [`BloomFilter`] over its keys,
    /// compatible with tree operations.
    pub fn get(&self, id: FilterId) -> Result<BloomFilter, BstError> {
        Ok(self.snapshot(id)?.0)
    }

    /// [`Self::get`] plus the generation the snapshot captures — one lock
    /// acquisition, so the pair is consistent.
    pub fn snapshot(&self, id: FilterId) -> Result<(BloomFilter, u64), BstError> {
        let inner = self.inner.read();
        let set = inner.sets.get(&id.0).ok_or(BstError::UnknownFilterId(id))?;
        Ok((self.project(set), set.generation))
    }

    /// Re-projects only if the set has moved past `seen` generations:
    /// `Ok(None)` means `seen` is still current. One lock acquisition, so
    /// a query handle's staleness check and refresh cannot race a writer
    /// in between.
    pub fn snapshot_if_newer(
        &self,
        id: FilterId,
        seen: u64,
    ) -> Result<Option<(BloomFilter, u64)>, BstError> {
        let inner = self.inner.read();
        let set = inner.sets.get(&id.0).ok_or(BstError::UnknownFilterId(id))?;
        if set.generation == seen {
            Ok(None)
        } else {
            Ok(Some((self.project(set), set.generation)))
        }
    }

    fn project(&self, set: &StoredSet) -> BloomFilter {
        BloomFilter::from_keys(Arc::clone(&self.hasher), set.keys.iter().copied())
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

    /// The set's current generation (0 until its first mutation).
    pub fn generation(&self, id: FilterId) -> Result<u64, BstError> {
        let inner = self.inner.read();
        inner
            .sets
            .get(&id.0)
            .map(|s| s.generation)
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
    /// generation u64, key count u64, keys u64… (non-decreasing)`,
    /// appended to `buf`. Sets are written in id order so snapshots are
    /// byte-deterministic.
    pub(crate) fn put_bytes(&self, buf: &mut bytes::BytesMut) {
        let inner = self.inner.read();
        buf.put_u64_le(inner.next_id);
        buf.put_u32_le(inner.sets.len() as u32);
        let mut ids: Vec<u64> = inner.sets.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let set = &inner.sets[&id];
            buf.put_u64_le(id);
            buf.put_u64_le(set.generation);
            buf.put_u64_le(set.keys.len() as u64);
            crate::persistence::put_words(buf, &set.keys);
        }
    }

    /// The exact length of the store's part of a system snapshot (unless
    /// the store changes in between): the bulk of a snapshot, so it sizes
    /// the snapshot buffer.
    pub fn encoded_len_hint(&self) -> usize {
        let inner = self.inner.read();
        let keys: usize = inner.sets.values().map(|s| s.keys.len()).sum();
        8 + 4 + inner.sets.len() * (8 + 8 + 8) + keys * 8
    }

    /// Decodes a store serialized with [`Self::put_bytes`]. Every set's
    /// keys must ascend (repeats allowed) and lie inside `namespace`.
    pub(crate) fn get_bytes(
        input: &mut &[u8],
        hasher: Arc<BloomHasher>,
        namespace: u64,
    ) -> Result<Self, PersistError> {
        if input.remaining() < 8 + 4 {
            return Err(PersistError::Truncated);
        }
        let next_id = input.get_u64_le();
        let count = input.get_u32_le() as usize;
        // Cap the pre-allocation by what the payload could possibly hold
        // (each set needs ≥ 24 header bytes): a corrupt count field must
        // fail as Truncated below, not abort in the allocator here.
        let mut sets = HashMap::with_capacity(count.min(input.remaining() / 24));
        for _ in 0..count {
            if input.remaining() < 8 + 8 + 8 {
                return Err(PersistError::Truncated);
            }
            let id = input.get_u64_le();
            if id >= next_id {
                return Err(PersistError::Corrupt("stored id beyond next_id"));
            }
            let generation = input.get_u64_le();
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
            if sets.insert(id, StoredSet { keys, generation }).is_some() {
                return Err(PersistError::Corrupt("duplicate stored id"));
            }
        }
        Ok(BstStore {
            hasher,
            namespace,
            inner: RwLock::new(StoreInner { sets, next_id }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bst_bloom::bitvec::BitVec;
    use bst_bloom::hash::HashKind;

    fn store() -> BstStore {
        BstStore::new(
            Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 4096, 100_000, 7)),
            100_000,
        )
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
        let fa = s.get(a).expect("get");
        for x in 0..100u64 {
            assert!(fa.contains(x));
        }
        assert_eq!(s.generation(a), Ok(0));
        s.drop_set(a).expect("drop");
        assert_eq!(s.get(a).unwrap_err(), BstError::UnknownFilterId(a));
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
        assert_eq!(bits(&s, id), from_keys(&s, (1..10).chain([100, 101])));
    }

    /// The bits of `from_keys` over `keys`: what the store must project.
    fn from_keys(s: &BstStore, keys: impl IntoIterator<Item = u64>) -> BitVec {
        BloomFilter::from_keys(Arc::clone(&s.hasher), keys)
            .bits()
            .clone()
    }

    fn bits(s: &BstStore, id: FilterId) -> BitVec {
        s.get(id).expect("get").bits().clone()
    }

    #[test]
    fn a_key_inserted_twice_survives_one_remove() {
        let s = store();
        let id = s.create([7u64, 9]).expect("create");
        s.insert_keys(id, [7u64]).expect("insert");
        s.remove_keys(id, [7u64]).expect("remove");
        assert_eq!(bits(&s, id), from_keys(&s, [7, 9]));
        s.remove_keys(id, [7u64]).expect("remove");
        assert_eq!(bits(&s, id), from_keys(&s, [9]));
        // One batch may remove several occurrences of one key.
        s.insert_keys(id, [9u64, 9]).expect("insert");
        s.remove_keys(id, [9u64, 9]).expect("remove");
        assert_eq!(bits(&s, id), from_keys(&s, [9]));
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
            from_keys(&s, (0..50).filter(|&x| x != 7 && x != 25))
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
        assert_eq!(bits(&s, id), from_keys(&s, [5]));
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
        let (f0, g0) = s.snapshot(id).expect("snapshot");
        assert_eq!(g0, 0);
        assert!(f0.contains(5));
        assert!(s.snapshot_if_newer(id, g0).expect("check").is_none());
        s.remove_keys(id, [5u64]).expect("remove");
        let (f1, g1) = s
            .snapshot_if_newer(id, g0)
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
        assert_eq!(s.get(ghost).unwrap_err(), BstError::UnknownFilterId(ghost));
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
        let back = BstStore::get_bytes(&mut slice, Arc::clone(&s.hasher), 100_000).expect("decode");
        assert!(slice.is_empty());
        assert_eq!(back.ids(), s.ids());
        assert_eq!(back.generation(a), s.generation(a));
        assert_eq!(back.generation(c), Ok(0));
        assert_eq!(bits(&back, a), bits(&s, a));
        assert_eq!(buf.len(), s.encoded_len_hint());
        // Restored sets share the store's single hasher allocation.
        assert!(Arc::ptr_eq(back.get(a).expect("get").hasher(), &s.hasher));
        // Byte-determinism: re-encoding yields identical bytes.
        let mut buf2 = bytes::BytesMut::new();
        back.put_bytes(&mut buf2);
        assert_eq!(&buf[..], &buf2[..]);
        // Dropped id stays dropped, and id allocation continues past it.
        assert_eq!(back.get(b).unwrap_err(), BstError::UnknownFilterId(b));
        let d = back.create([1u64]).expect("create");
        assert!(d.raw() > c.raw());
    }

    /// The bytes of a one-set store with `keys` written as they are.
    fn one_set_bytes(keys: &[u64]) -> bytes::BytesMut {
        let mut buf = bytes::BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u32_le(1);
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u64_le(keys.len() as u64);
        crate::persistence::put_words(&mut buf, keys);
        buf
    }

    #[test]
    fn decode_refuses_corrupt_keys() {
        let decode = |buf: &[u8]| {
            let mut slice = buf;
            BstStore::get_bytes(&mut slice, Arc::clone(&store().hasher), 100_000).map(|_| ())
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
