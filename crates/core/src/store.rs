//! The mutable filter database `D̄` behind the facade.
//!
//! The paper's setting (§3.2) is a *database* of millions of sets, each
//! stored only as a Bloom filter sharing the tree's `(m, H)`. Real
//! deployments churn: community members join and leave, so plain bit
//! filters (which cannot forget) are the wrong substrate for the stored
//! sets themselves. [`BstStore`] keeps every registered set as a
//! [`CountingBloomFilter`] — insert *and* remove — addressed by a stable
//! [`FilterId`], and projects a plain [`BloomFilter`] snapshot whenever
//! the tree needs to query it.
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

use bst_bloom::codec;
use bst_bloom::counting::CountingBloomFilter;
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

/// One registered set: its counting filter and the mutation stamp.
struct StoredSet {
    counting: CountingBloomFilter,
    generation: u64,
}

struct StoreInner {
    sets: HashMap<u64, StoredSet>,
    next_id: u64,
}

/// The id-addressed, counting-filter-backed set database of one
/// [`crate::system::BstSystem`]. Obtain it via
/// [`crate::system::BstSystem::filters`].
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

    /// Validates and materialises a key batch: every key must lie inside
    /// the namespace, or the whole mutation is rejected (atomically —
    /// nothing is applied).
    fn checked_keys<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<Vec<u64>, BstError> {
        let keys: Vec<u64> = keys.into_iter().collect();
        match keys.iter().find(|&&x| x >= self.namespace) {
            Some(&bad) => Err(BstError::KeyOutsideNamespace(bad)),
            None => Ok(keys),
        }
    }

    /// Registers a new set over `keys`, returning its stable id. The set
    /// starts at generation 0. Rejects keys outside the namespace (they
    /// could never be sampled or reconstructed) without creating anything.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, BstError> {
        let keys = self.checked_keys(keys)?;
        let counting = CountingBloomFilter::from_keys(Arc::clone(&self.hasher), keys);
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.sets.insert(
            id,
            StoredSet {
                counting,
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
        for &x in &keys {
            set.counting.insert(x);
        }
        if !keys.is_empty() {
            set.generation += 1;
        }
        Ok(set.generation)
    }

    /// Removes `keys` from the stored set (counting-filter semantics: one
    /// remove cancels one insert; removing a key that was never inserted
    /// is an unchecked logical error, as in all counting Bloom filters).
    /// Bumps the generation when at least one key was processed and
    /// returns the new generation. Rejects the whole batch if any key
    /// lies outside the namespace (such a key was never insertable).
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
        for &x in &keys {
            set.counting.remove(x);
        }
        if !keys.is_empty() {
            set.generation += 1;
        }
        Ok(set.generation)
    }

    /// Projects the stored set to a plain [`BloomFilter`] snapshot
    /// (bit set ⇔ counter nonzero), compatible with tree operations.
    pub fn get(&self, id: FilterId) -> Result<BloomFilter, BstError> {
        Ok(self.snapshot(id)?.0)
    }

    /// [`Self::get`] plus the generation the snapshot captures — one lock
    /// acquisition, so the pair is consistent.
    pub fn snapshot(&self, id: FilterId) -> Result<(BloomFilter, u64), BstError> {
        let inner = self.inner.read();
        let set = inner.sets.get(&id.0).ok_or(BstError::UnknownFilterId(id))?;
        Ok((set.counting.to_bloom(), set.generation))
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
            Ok(Some((set.counting.to_bloom(), set.generation)))
        }
    }

    /// A clone of the stored counting filter itself (counter values, not
    /// the bit projection).
    pub fn counting(&self, id: FilterId) -> Result<CountingBloomFilter, BstError> {
        let inner = self.inner.read();
        inner
            .sets
            .get(&id.0)
            .map(|s| s.counting.clone())
            .ok_or(BstError::UnknownFilterId(id))
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

    /// Membership query against the stored (counting) set.
    pub fn contains_key(&self, id: FilterId, x: u64) -> Result<bool, BstError> {
        let inner = self.inner.read();
        inner
            .sets
            .get(&id.0)
            .map(|s| s.counting.contains(x))
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

    /// Heap bytes of all counting-filter counter arrays.
    pub fn memory_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner.sets.values().map(|s| s.counting.heap_bytes()).sum()
    }

    /// Serializes the store as
    /// `next_id u64 | count u32 | per set (ascending id): id u64,
    /// generation u64, len u64, counting-codec bytes`, appended to `buf`.
    /// Sets are written in id order so snapshots are byte-deterministic.
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
            crate::persistence::put_len_prefixed(buf, |buf| {
                codec::put_counting(buf, &set.counting);
            });
        }
    }

    /// The length of the store's part of a system snapshot, from
    /// [`Self::memory_bytes`] and the set count (exact unless the store
    /// changes in between): the bulk of a snapshot, so it sizes the
    /// snapshot buffer.
    pub fn encoded_len_hint(&self) -> usize {
        8 + 4 + self.len() * (8 + 8 + 8 + codec::COUNTING_HEADER_LEN) + self.memory_bytes()
    }

    /// Decodes a store serialized with [`Self::put_bytes`]. Every decoded
    /// counting filter must share `hasher`'s parameters (the tree's), or
    /// the snapshot is structurally inconsistent.
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
            let len = input.get_u64_le() as usize;
            if input.remaining() < len {
                return Err(PersistError::Truncated);
            }
            let counting = codec::decode_counting(&input[..len])
                .map_err(|_| PersistError::Corrupt("counting filter payload"))?;
            input.advance(len);
            if counting.hasher() != &hasher {
                return Err(PersistError::Corrupt(
                    "stored set hash family differs from the tree's",
                ));
            }
            // Re-point the set at the tree's hasher: the codec rebuilt an
            // identical family, but millions of sets should share the one
            // allocation rather than hold a copy each.
            let (counters, _) = counting.into_parts();
            let counting = CountingBloomFilter::from_parts(counters, Arc::clone(&hasher));
            if sets
                .insert(
                    id,
                    StoredSet {
                        counting,
                        generation,
                    },
                )
                .is_some()
            {
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
        assert_eq!(s.contains_key(id, 100), Ok(true));
        assert_eq!(s.contains_key(id, 0), Ok(false));
        assert_eq!(s.contains_key(id, 5), Ok(true));
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
        assert_eq!(s.contains_key(id, 6), Ok(false));
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
        assert_eq!(
            back.counting(a).expect("counting").counter_bytes(),
            s.counting(a).expect("counting").counter_bytes()
        );
        // Restored sets share the store's single hasher allocation.
        assert!(Arc::ptr_eq(
            back.counting(a).expect("counting").hasher(),
            &s.hasher
        ));
        // Byte-determinism: re-encoding yields identical bytes.
        let mut buf2 = bytes::BytesMut::new();
        back.put_bytes(&mut buf2);
        assert_eq!(&buf[..], &buf2[..]);
        // Dropped id stays dropped, and id allocation continues past it.
        assert_eq!(back.get(b).unwrap_err(), BstError::UnknownFilterId(b));
        let d = back.create([1u64]).expect("create");
        assert!(d.raw() > c.raw());
    }

    #[test]
    fn decode_rejects_foreign_hashers_and_corruption() {
        let s = store();
        s.create(0..10u64).expect("create");
        let mut buf = bytes::BytesMut::new();
        s.put_bytes(&mut buf);
        // Wrong hash family on decode.
        let other = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 4096, 100_000, 8));
        let mut slice: &[u8] = &buf;
        assert_eq!(
            BstStore::get_bytes(&mut slice, other, 100_000).unwrap_err(),
            PersistError::Corrupt("stored set hash family differs from the tree's")
        );
        // Truncation.
        let mut short: &[u8] = &buf[..buf.len() - 10];
        assert!(BstStore::get_bytes(&mut short, Arc::clone(&s.hasher), 100_000).is_err());
    }
}
