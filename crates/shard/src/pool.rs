//! The engine's warm-handle pool: the one owner of per-filter warm
//! state.
//!
//! A [`ShardQuery`] handle's memo is what makes repeated sampling on one
//! filter cheap — an O(1), journal-repaired live weight per shard and
//! cached descent state (§3.2: one shared tree, many stored filters,
//! repeated operations). The pool keeps the most recently opened
//! handles alive across calls, so every entry point that serves a
//! filter more than once — the server's SAMPLE / RECONSTRUCT arms and
//! both batch entry points — warms and reuses the same handle.
//!
//! * **Keys.** A stored set is keyed by its raw store id (never
//!   reused, so a raw id names one set forever). A detached filter is
//!   keyed by [`filter_content_hash`]; a hit is accepted only if the
//!   resident handle holds a bit-identical filter
//!   ([`bst_core::query::Query::holds`]), so a hash collision is a
//!   miss, never a wrong answer.
//! * **Bound.** At most [`HANDLE_POOL_CAP`] handles, evicted in
//!   insertion order. A handle at the service configuration (M = 2^20,
//!   S = 4) costs about 150–180 KiB, so the pool stays near 11 MiB
//!   however many connections share it.
//! * **Locking.** The pool lock is a leaf: it is held only to look up,
//!   insert or evict. Handles are opened, called and dropped outside
//!   it. Two callers racing to open the same key both open, and the
//!   first insert wins; the loser's handle is dropped.
//! * **Lifetime.** Staleness is the handle's own business (generation
//!   stamps plus journal repair), so nothing is invalidated on writes.
//!   [`crate::system::ShardedBstSystem::drop_set`] removes the id's
//!   entry, and the pool dies with its engine.

use std::collections::VecDeque;
use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_obs::Counter;
use parking_lot::Mutex;

use crate::query::ShardQuery;

/// Most handles the pool keeps (FIFO eviction beyond it).
pub const HANDLE_POOL_CAP: usize = 64;

/// Content hash of a filter: FNV-1a over the parameterization and the
/// raw bit words. A map key, not an identity — pool hits are guarded by
/// a bit comparison.
pub fn filter_content_hash(filter: &BloomFilter) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(PRIME);
    mix(filter.m() as u64);
    mix(filter.k() as u64);
    for &w in filter.bits().words() {
        mix(w);
    }
    h
}

/// What a pooled handle answers for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PoolKey {
    /// A stored set, by raw sharded id.
    Stored(u64),
    /// A detached filter, by [`filter_content_hash`].
    Adhoc(u64),
}

/// Pool effectiveness since the engine was built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandlePoolStats {
    /// Lookups served by a resident handle.
    pub hits: u64,
    /// Lookups that opened a handle (absent, or a hash collision).
    pub misses: u64,
    /// Handles resident now (at most [`HANDLE_POOL_CAP`]).
    pub handles: usize,
}

/// The bounded FIFO of open handles behind
/// [`crate::system::ShardedBstSystem::pooled_query_id`] and
/// [`crate::system::ShardedBstSystem::pooled_query`].
#[derive(Default)]
pub(crate) struct HandlePool {
    entries: Mutex<VecDeque<(PoolKey, Arc<ShardQuery>)>>,
    hits: Counter,
    misses: Counter,
}

impl HandlePool {
    fn find(&self, key: PoolKey) -> Option<Arc<ShardQuery>> {
        let entries = self.entries.lock();
        entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, handle)| Arc::clone(handle))
    }

    /// The pooled handle for `key`, or one opened with `open` and
    /// pooled. `guard` vets a resident handle before it is served (the
    /// ad-hoc collision check); a resident it rejects is kept, and the
    /// caller gets a fresh unpooled handle.
    pub(crate) fn get_or_open<E>(
        &self,
        key: PoolKey,
        guard: impl Fn(&ShardQuery) -> bool,
        open: impl FnOnce() -> Result<ShardQuery, E>,
    ) -> Result<Arc<ShardQuery>, E> {
        let resident = self.find(key);
        if let Some(handle) = resident.as_ref().filter(|h| guard(h)) {
            self.hits.inc();
            return Ok(Arc::clone(handle));
        }
        self.misses.inc();
        let fresh = Arc::new(open()?);
        if resident.is_some() {
            return Ok(fresh);
        }
        let mut entries = self.entries.lock();
        if let Some((_, raced)) = entries.iter().find(|(k, _)| *k == key) {
            // Another caller pooled this key while we were opening.
            let raced = Arc::clone(raced);
            drop(entries);
            return Ok(if guard(&raced) { raced } else { fresh });
        }
        let evicted = (entries.len() >= HANDLE_POOL_CAP)
            .then(|| entries.pop_front())
            .flatten();
        entries.push_back((key, Arc::clone(&fresh)));
        drop(entries);
        drop(evicted);
        Ok(fresh)
    }

    /// Removes `key`'s entry, if any.
    pub(crate) fn remove(&self, key: PoolKey) {
        let mut entries = self.entries.lock();
        let removed = entries
            .iter()
            .position(|(k, _)| *k == key)
            .and_then(|pos| entries.remove(pos));
        drop(entries);
        drop(removed);
    }

    /// Drops every pooled handle (the counters keep counting).
    pub(crate) fn clear(&self) {
        let drained = std::mem::take(&mut *self.entries.lock());
        drop(drained);
    }

    pub(crate) fn stats(&self) -> HandlePoolStats {
        HandlePoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            handles: self.entries.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ShardedBstSystem;

    #[test]
    fn content_hash_tracks_bits() {
        let sys = ShardedBstSystem::builder(4_096).shards(2).build();
        let a = sys.store([2u64, 4, 8]);
        let b = sys.store([2u64, 4, 8]);
        let c = sys.store([2u64, 4, 10]);
        assert_eq!(filter_content_hash(&a), filter_content_hash(&b));
        assert_ne!(filter_content_hash(&a), filter_content_hash(&c));
    }

    #[test]
    fn pool_is_bounded_fifo_and_a_collision_is_a_miss() {
        let sys = ShardedBstSystem::builder(4_096).shards(2).build();
        let pool = HandlePool::default();
        let filters: Vec<BloomFilter> = (0..HANDLE_POOL_CAP as u64 + 8)
            .map(|i| sys.store([i, i + 1]))
            .collect();
        let open = |f: &BloomFilter| {
            let key = PoolKey::Adhoc(filter_content_hash(f));
            pool.get_or_open(
                key,
                |q| q.shard_handles()[0].holds(f),
                || Ok::<_, ()>(sys.query(f)),
            )
        };
        for f in &filters {
            open(f).unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.handles, HANDLE_POOL_CAP);
        assert_eq!((stats.hits, stats.misses), (0, filters.len() as u64));
        // The newest survive, the oldest were evicted.
        let last = filters.last().unwrap();
        let a = open(last).unwrap();
        assert!(Arc::ptr_eq(&a, &open(last).unwrap()));
        let first = open(&filters[0]).unwrap();
        assert_eq!(pool.stats().hits, 2);
        assert!(first.shard_handles()[0].holds(&filters[0]));

        // A different filter under a resident's key: served fresh and
        // unpooled, and the resident stays.
        let key = PoolKey::Adhoc(filter_content_hash(last));
        let other = &filters[1];
        let q = pool
            .get_or_open(
                key,
                |q| q.shard_handles()[0].holds(other),
                || Ok::<_, ()>(sys.query(other)),
            )
            .unwrap();
        assert!(q.shard_handles()[0].holds(other));
        assert!(Arc::ptr_eq(&a, &open(last).unwrap()));
        pool.remove(key);
        pool.clear();
        assert_eq!(pool.stats().handles, 0);
    }
}
