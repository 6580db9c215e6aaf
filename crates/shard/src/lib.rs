#![forbid(unsafe_code)]
//! # bst-shard — the sharded, mutable sampling engine
//!
//! One [`bst_core::system::BstSystem`] holds one tree and one store; at
//! "millions of users" scale that single tree becomes the bottleneck —
//! every descent serializes on one allocation, every occupancy write
//! blocks every read, and construction cost grows with the whole
//! namespace. Bloofi (Crainiceanu & Lemire) shows that collections of
//! Bloom filters scale by splitting them into independently searchable
//! units; [`ShardedBstSystem`] applies that to the BloomSampleTree.
//!
//! ## Shape
//!
//! The namespace `[0, M)` is split into `S` contiguous shards; shard `s`
//! owns `[boundaries[s], boundaries[s+1])` and is a `BstSystem` over a
//! pruned [`bst_core::backend::TreeBackend`] materialised only over the
//! shard's occupied ids. The shards share the engine's one
//! [`bst_core::store::BstStore`]: a stored set is one id and one sorted
//! key list, and shard `s` reads the run of its keys inside its range.
//! All shards share one `TreePlan`
//! (namespace, `m`, `k`, hash family, seed), so **one query Bloom filter
//! is valid against every shard** — no key translation, no re-hashing —
//! and per-shard answers concatenate into globally sorted results.
//!
//! ## Scatter-gather
//!
//! * **Sampling** ([`ShardQuery::sample`]): each shard reports its
//!   **live-leaf weight** for the query filter — the exact number of
//!   matching candidates over its live leaves
//!   ([`bst_core::query::Query::live_weight`], memo-amortized). A shard
//!   is drawn with probability proportional to its weight, then sampled
//!   internally; with exact weights the merged distribution equals a
//!   single tree's (chi²-checked in `tests/e2e_shard.rs`).
//! * **Reconstruction** ([`ShardQuery::reconstruct`]): shard answers are
//!   disjoint and range-ordered, so gathering is concatenation.
//! * **Batches** ([`ShardedBstSystem::query_batch`]): a two-phase
//!   scatter over a crossbeam worker pool — weigh every (shard, filter)
//!   cell, pick one shard per filter ∝ the weights, sample only the
//!   chosen cells. Ad-hoc filters are weighed in chunks of up to 16, one
//!   bit-sliced first-probe index pass per (shard, chunk)
//!   ([`bst_core::tree::QueryChunk`]). Per-(shard, filter) RNG seeding keeps results
//!   deterministic for a fixed seed regardless of thread count. The
//!   handle and batch paths share one soft-error merge and one weighted
//!   shard pick.
//! * **Warm state** ([`pool`]): one bounded engine pool of open
//!   [`ShardQuery`] handles on stored sets, keyed by store id. Id
//!   batches and repeated single queries
//!   ([`ShardedBstSystem::pooled_query_id`]) take their handle from it,
//!   so a set served before is weighed by an O(1) memo read — repaired
//!   through the mutation journal after occupancy churn — and sampled on
//!   a warm descent memo. Warm handles answer exactly like cold ones.
//!   A detached filter is served on a handle of its own, never pooled.
//!
//! ## Mutability
//!
//! Both evolution paths of the underlying system are stamped per shard:
//! stored-set churn (`insert_keys`/`remove_keys` take the one store's
//! lock once and bump the set generation of each shard the batch has a
//! key in) and namespace-occupancy churn
//! (`insert_occupied`/`remove_occupied`, routed to the owning shard's
//! tree generation). Open
//! [`ShardQuery`] handles are built from per-shard
//! [`bst_core::query::Query`] handles, so both staleness protocols apply
//! unchanged — a warm sharded handle answers exactly like a cold one.
//!
//! **Isolation caveat:** a set write is applied to every shard's slice
//! under one store lock, but a reader's per-shard handles sync one at a
//! time, so there is no cross-shard snapshot isolation — a reader
//! racing a multi-shard mutation (`insert_keys` spanning two shards,
//! say) can observe one shard before the write and another after it, a
//! torn state a single-tree system cannot produce.
//! Single-writer or per-span-writer deployments (and everything
//! single-threaded) are unaffected; readers always see *some* prefix of
//! each shard's mutation history, never corrupt data.
//!
//! ```
//! use bst_shard::ShardedBstSystem;
//!
//! // 4 shards over a 40k namespace, every id occupied.
//! let system = ShardedBstSystem::builder(40_000).shards(4).build();
//! let community = system.create((0..400u64).map(|i| i * 97 % 40_000)).unwrap();
//! let query = system.query_id(community).unwrap();
//! let mut rng = rand::thread_rng();
//! let member = query.sample(&mut rng).unwrap();
//! assert!(system.get(community).unwrap().contains(member));
//!
//! // Writes stamp the shards they touch; the open handle stays honest.
//! system.insert_keys(community, [39_999u64]).unwrap();
//! assert!(query.reconstruct().unwrap().binary_search(&39_999).is_ok());
//!
//! // The whole sharded engine snapshots to bytes.
//! let restored = ShardedBstSystem::from_bytes(&system.to_bytes()).unwrap();
//! assert_eq!(
//!     restored.query_id(community).unwrap().reconstruct().unwrap(),
//!     query.reconstruct().unwrap(),
//! );
//! ```

#![warn(missing_docs)]

pub mod durable;
pub mod pool;
pub mod query;
pub mod system;

pub use durable::{DurableBstSystem, DurableConfig, DurableError};
pub use pool::{HandlePoolStats, HANDLE_POOL_CAP};
pub use query::ShardQuery;
pub use system::{
    shard_boundaries, slot_seed, BatchObs, ShardedBstSystem, ShardedBstSystemBuilder,
};
