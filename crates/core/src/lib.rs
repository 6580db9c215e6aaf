#![forbid(unsafe_code)]
//! # bst-core — BloomSampleTree sampling and reconstruction
//!
//! The primary contribution of *Sampling and Reconstruction Using Bloom
//! Filters* (Sengupta et al., ICDE 2017):
//!
//! * [`tree::BloomSampleTree`] — the complete tree of Definition 5.1, with
//!   the [`tree::SampleTree`] navigation trait;
//! * [`pruned::PrunedBloomSampleTree`] — the occupancy-aware variant
//!   (§5.2) with dynamic insertion;
//! * [`sampler::BstSampler`] — BSTSample (Algorithm 1) plus the one-pass
//!   multi-sampler (§5.3);
//! * [`reconstruct::BstReconstructor`] — set reconstruction (§6);
//! * [`sampler::BstConfig`] — the one behaviour configuration both take:
//!   the liveness rule they prune by, plus the sampler's ratio estimator
//!   and correction;
//! * [`baselines`] — DictionaryAttack and HashInvert (§4);
//! * [`metrics::OpStats`] — the intersection/membership accounting behind
//!   Figures 3–4 and 8–12;
//! * [`costmodel`] — the §5.4 depth rules of both backends, with opt-in
//!   `icost/mcost` measurement ([`costmodel::CostModel`]);
//! * [`error::BstError`] — typed failure reasons for every fallible op;
//! * [`system::BstSystem`] — the `Arc`-shared, `Send + Sync` facade over
//!   a [`backend::TreeBackend`] (dense, or pruned with tree-generation-
//!   stamped occupancy mutation) and the filter store;
//! * [`store::BstStore`] — the mutable, [`store::FilterId`]-addressed
//!   database `D̄` of sets stored as their keys and queried as filters
//!   (§3.2);
//! * [`query::Query`] — the per-filter handle with amortized descent
//!   state, opened via [`system::BstSystem::query`] or (generation-
//!   stamped, mutation-safe) [`system::BstSystem::query_id`];
//! * [`wal`] — the append-only durability log: checksummed replayable
//!   mutation records, with recovery = checkpoint + tail replay.
//!
//! ## Example
//!
//! One tree serves a mutable database of filter-backed sets; per-filter
//! work goes through generation-stamped [`query::Query`] handles:
//!
//! ```
//! use bst_core::system::BstSystem;
//!
//! let system = BstSystem::builder(50_000).accuracy(0.9).build();
//!
//! // A mutable stored set, addressed by id; its handle tracks churn.
//! let community = system.create((0..300u64).map(|i| i * 11)).unwrap();
//! let query = system.query_id(community).unwrap();
//! system.insert_keys(community, [49_999u64]).unwrap();
//! assert!(query.reconstruct().unwrap().binary_search(&49_999).is_ok());
//! ```
//!
//! Batches of many filters go through the sharded engine (`bst-shard`'s
//! `ShardedBstSystem::query_batch`), each of whose shards is a
//! pruned-backend [`system::BstSystem`].

#![warn(missing_docs)]

pub mod backend;
pub mod baselines;
pub mod costmodel;
pub mod error;
pub mod metrics;
pub mod persistence;
mod probe_index;
pub mod pruned;
pub mod query;
pub mod reconstruct;
pub mod sampler;
pub mod store;
pub mod system;
pub mod tree;
pub mod wal;

pub use backend::{TreeBackend, TreeView};
pub use error::BstError;
pub use metrics::OpStats;
pub use persistence::PersistError;
pub use pruned::PrunedBloomSampleTree;
pub use query::Query;
pub use reconstruct::BstReconstructor;
pub use sampler::{BstConfig, BstSampler, QueryMemo};
pub use store::{BstStore, FilterId};
pub use system::BstSystem;
pub use tree::{BloomSampleTree, QueryChunk, SampleTree};
pub use wal::{FsyncPolicy, Wal, WalRecord};
