//! The engine's warm-handle pool: the one owner of per-set warm state.
//!
//! A [`ShardQuery`] handle's memo is what makes repeated sampling on one
//! stored set cheap — an O(1), journal-repaired live weight per shard
//! and cached descent state (§3.2: one shared tree, many stored filters,
//! repeated operations). The pool keeps the most recently opened
//! stored-set handles alive across calls, so every entry point that
//! serves a stored set more than once — the server's SAMPLE /
//! RECONSTRUCT arms and [`crate::system::ShardedBstSystem::query_batch_ids`]
//! — warms and reuses the same handle. A detached filter is the one-shot
//! case: it is served on a handle of its own and never pooled, so ad-hoc
//! traffic cannot evict a stored set's handle.
//!
//! * **Keys.** A stored set is keyed by its raw store id, which is never
//!   reused, so a key names one set forever.
//! * **Bound.** At most [`HANDLE_POOL_CAP`] handles, evicted in
//!   insertion order. At the service configuration (M = 2^20, S = 4,
//!   2^18 occupied ids) a handle warmed by sampling a 1,000-key set
//!   holds about 45 KiB of heap, mostly its S projected query filters,
//!   so a full pool is about 2.9 MiB however many connections share
//!   it.
//! * **Locking.** The pool lock is a leaf: it is held only to look up,
//!   insert or remove. Handles are opened, called and dropped outside
//!   it. Two callers racing to open the same id both open, and the
//!   first insert wins; the loser's handle is dropped.
//! * **Lifetime.** Staleness is the handle's own business (generation
//!   stamps plus journal repair), so nothing is invalidated on writes.
//!   [`crate::system::ShardedBstSystem::drop_set`] removes the id's
//!   entry after the store drops the set, and
//!   [`crate::system::ShardedBstSystem::pooled_query_id`] removes an
//!   entry it inserted for a set dropped meanwhile, so no dropped set
//!   stays pooled. The pool dies with its engine.

use std::collections::VecDeque;
use std::sync::Arc;

use bst_obs::Counter;
use parking_lot::Mutex;

use crate::query::ShardQuery;

/// Most handles the pool keeps (FIFO eviction beyond it).
pub const HANDLE_POOL_CAP: usize = 64;

/// Pool effectiveness since the engine was built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandlePoolStats {
    /// Lookups served by a resident handle.
    pub hits: u64,
    /// Lookups that opened a handle (absent).
    pub misses: u64,
    /// Handles resident now (at most [`HANDLE_POOL_CAP`]).
    pub handles: usize,
}

/// The bounded FIFO of open stored-set handles behind
/// [`crate::system::ShardedBstSystem::pooled_query_id`], keyed by raw
/// store id.
#[derive(Default)]
pub(crate) struct HandlePool {
    entries: Mutex<VecDeque<(u64, Arc<ShardQuery>)>>,
    hits: Counter,
    misses: Counter,
}

impl HandlePool {
    /// The resident handle for `key`, counted as a hit, or `None`,
    /// counted as a miss.
    pub(crate) fn get(&self, key: u64) -> Option<Arc<ShardQuery>> {
        let entries = self.entries.lock();
        let found = entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, handle)| Arc::clone(handle));
        drop(entries);
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Pools `handle` under `key`, evicting the oldest entry at the cap,
    /// and returns it — or, if another caller pooled `key` first, that
    /// caller's handle.
    pub(crate) fn insert(&self, key: u64, handle: ShardQuery) -> Arc<ShardQuery> {
        let mut entries = self.entries.lock();
        if let Some((_, raced)) = entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(raced);
        }
        let handle = Arc::new(handle);
        let evicted = (entries.len() >= HANDLE_POOL_CAP)
            .then(|| entries.pop_front())
            .flatten();
        entries.push_back((key, Arc::clone(&handle)));
        drop(entries);
        drop(evicted);
        handle
    }

    /// Removes `key`'s entry, if any.
    pub(crate) fn remove(&self, key: u64) {
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
    use bst_core::store::FilterId;

    #[test]
    fn pool_is_a_bounded_fifo_of_stored_handles() {
        let sys = ShardedBstSystem::builder(4_096).shards(2).build();
        let pool = HandlePool::default();
        let ids: Vec<u64> = (0..HANDLE_POOL_CAP as u64 + 8)
            .map(|i| sys.create([i, i + 1]).expect("create").raw())
            .collect();
        let open = |key: u64| {
            pool.get(key).unwrap_or_else(|| {
                pool.insert(key, sys.query_id(FilterId::from_raw(key)).expect("open"))
            })
        };
        for &id in &ids {
            open(id);
        }
        let stats = pool.stats();
        assert_eq!(stats.handles, HANDLE_POOL_CAP);
        assert_eq!((stats.hits, stats.misses), (0, ids.len() as u64));
        // The newest survive, the oldest were evicted.
        let last = *ids.last().unwrap();
        let a = open(last);
        assert!(Arc::ptr_eq(&a, &open(last)));
        assert_eq!(pool.stats().hits, 2);
        let first = open(ids[0]);
        assert_eq!(pool.stats().misses, ids.len() as u64 + 1);
        assert_eq!(first.filter_id().map(|id| id.raw()), Some(ids[0]));
        // A raced insert keeps the first handle pooled.
        let raced = sys.query_id(FilterId::from_raw(last)).unwrap();
        assert!(Arc::ptr_eq(&a, &pool.insert(last, raced)));
        pool.remove(last);
        assert_eq!(pool.stats().handles, HANDLE_POOL_CAP - 1);
        pool.clear();
        assert_eq!(pool.stats().handles, 0);
    }
}
