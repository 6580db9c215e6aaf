#![forbid(unsafe_code)]
//! # bloomsampletree
//!
//! A reproduction of **"Sampling and Reconstruction Using Bloom Filters"**
//! (Neha Sengupta, Amitabha Bagchi, Srikanta Bedathur, Maya Ramanath;
//! ICDE 2017, arXiv:1701.03308) as a production-quality Rust workspace.
//!
//! Given a set `S ⊆ [0, M)` stored in a Bloom filter `B`, this crate can:
//!
//! * draw a (near-)uniform random sample from `S ∪ S(B)` (the stored set
//!   plus `B`'s false positives) — [`Query::sample`];
//! * reconstruct `S ∪ S(B)` entirely — [`Query::reconstruct`];
//!
//! without touching the original data, using only the filter and a
//! once-built **BloomSampleTree** index over the namespace.
//!
//! ## Quickstart
//!
//! The shape of the API mirrors the paper's framework: one shared tree,
//! many filters, *repeated* operations per filter. [`BstSystem`] is a
//! cheap-to-clone (`Arc`), `Send + Sync` handle to the tree; per-filter
//! work goes through a [`Query`] handle that caches descent state so
//! repeated operations on the same filter amortize the intersection work.
//!
//! ```
//! use bloomsampletree::BstSystem;
//!
//! // One tree for the namespace, reused across all query filters.
//! let system = BstSystem::builder(100_000).accuracy(0.9).build();
//!
//! // Store a set as a Bloom filter (in practice these filters arrive
//! // from elsewhere — a log, a cache, another machine).
//! let community = system.store((0..500u64).map(|i| i * 31));
//!
//! // Open a query handle: the filter is captured once, and descent
//! // state accumulates across calls.
//! let query = system.query(&community);
//!
//! // Sample from it, without the original set. Fallible operations
//! // return `Result<_, BstError>` naming the failure cause.
//! let mut rng = rand::thread_rng();
//! let member = query.sample(&mut rng).unwrap();
//! assert!(community.contains(member));
//!
//! // Repeated samples through the same handle get cheaper: cached
//! // intersections are hash-map hits, visible in the handle's stats.
//! for _ in 0..100 {
//!     query.sample(&mut rng).unwrap();
//! }
//!
//! // Or rebuild the whole set.
//! let rebuilt = query.reconstruct().unwrap();
//! assert!(rebuilt.binary_search(&(31 * 7)).is_ok());
//! ```
//!
//! ## Error handling
//!
//! Every fallible operation returns [`BstError`], which distinguishes an
//! empty filter, a filter built with the wrong hash family, provably-dead
//! descents, and an exhausted rejection budget:
//!
//! ```
//! use bloomsampletree::{BstError, BstSystem};
//!
//! let system = BstSystem::builder(10_000).build();
//! let empty = system.store(std::iter::empty());
//! let mut rng = rand::thread_rng();
//! assert_eq!(system.query(&empty).sample(&mut rng), Err(BstError::EmptyFilter));
//! ```
//!
//! ## The filter database: mutable sets by id
//!
//! The paper's setting is a *database* `D̄` of stored sets. Registering a
//! set with the system ([`BstSystem::create`]) backs it with a counting
//! filter — it supports `insert_keys` *and* `remove_keys` — addressed by
//! a stable [`FilterId`]. Handles opened by id are generation-stamped:
//! mutating the set invalidates their cached descent state, so they
//! always answer against the current membership:
//!
//! ```
//! use bloomsampletree::BstSystem;
//!
//! let system = BstSystem::builder(10_000).build();
//! let community = system.create((0..300u64).map(|i| i * 3)).unwrap();
//! let query = system.query_id(community).unwrap();
//!
//! system.insert_keys(community, [9_001u64]).unwrap();   // member joins
//! system.remove_keys(community, [0u64, 3]).unwrap();    // members leave
//! let rebuilt = query.reconstruct().unwrap();           // sees the churn
//! assert!(rebuilt.binary_search(&9_001).is_ok());
//!
//! // The whole system — tree, store, config — snapshots to bytes.
//! let restored = BstSystem::from_bytes(&system.to_bytes()).unwrap();
//! assert_eq!(restored.query_id(community).unwrap().reconstruct().unwrap(), rebuilt);
//! ```
//!
//! ## Serving many filters
//!
//! `BstSystem: Clone + Send + Sync` (an `Arc` bump), so worker threads
//! share one tree. Batches go through the sharded engine:
//! [`ShardedBstSystem::query_batch`] samples across a whole batch of
//! filters in parallel ([`ShardedBstSystem::query_batch_ids`] is the
//! id-addressed form), and warm handles from its pool serve repeated
//! filters. Each shard is a pruned-backend system; sparse or
//! dynamic-occupancy namespaces list their occupied ids with
//! [`occupied(ids)`](bst_shard::ShardedBstSystemBuilder::occupied), and
//! `shards(1)` keeps one tree:
//!
//! ```
//! use bloomsampletree::ShardedBstSystem;
//!
//! let engine = ShardedBstSystem::builder(10_000).shards(1).build();
//! let filters: Vec<_> = (0..8)
//!     .map(|i| engine.store((0..50u64).map(|j| (i * 997 + j * 11) % 10_000)))
//!     .collect();
//! let (picks, _stats) = engine.query_batch(&filters, 42, 0);
//! for (filter, pick) in filters.iter().zip(&picks) {
//!     assert!(filter.contains(pick.unwrap()));
//! }
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`bloom`] (re-export of `bst-bloom`) | bit vectors, hash families (Simple affine / Murmur3 / MD5), the Bloom filter, estimators, parameter planning, codec |
//! | [`core`] (re-export of `bst-core`) | the BloomSampleTree, pruned variant (mutable occupancy via tree generations), BSTSample and reconstruction under one `BstConfig`, the `Query` handle facade, DictionaryAttack and HashInvert baselines, cost model |
//! | [`shard`] (re-export of `bst-shard`) | `ShardedBstSystem`: the namespace split into contiguous shards, scatter-gather sampling/reconstruction, crossbeam batch fan-out |
//! | [`workloads`] (re-export of `bst-workloads`) | uniform/clustered query sets, namespace occupancy, the synthetic social stream |
//! | [`stats`] (re-export of `bst-stats`) | chi-squared testing, summaries, binomial sampling |
//!
//! See `README.md` for the workspace tour, `DESIGN.md` for the system
//! inventory, and `results/` for the measured performance record of
//! every growth step.

#![warn(missing_docs)]

pub use bst_bloom as bloom;
pub use bst_core as core;
pub use bst_shard as shard;
pub use bst_stats as stats;
pub use bst_workloads as workloads;

pub use bst_bloom::{BloomFilter, BloomHasher, HashKind, TreePlan};
pub use bst_core::{
    BloomSampleTree, BstConfig, BstError, BstReconstructor, BstSampler, BstStore, BstSystem,
    FilterId, OpStats, PersistError, PrunedBloomSampleTree, Query, QueryMemo, SampleTree,
    TreeBackend, TreeView,
};
pub use bst_shard::{HandlePoolStats, ShardQuery, ShardedBstSystem};

/// The README's quickstart snippet, compiled and executed by
/// `cargo test --doc` so the front-page example can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
