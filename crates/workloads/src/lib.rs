#![forbid(unsafe_code)]
//! # bst-workloads — dataset and query-set generators
//!
//! Workload substrate for the evaluation (§7–8):
//!
//! * [`querysets`] — uniform and clustered query sets (the §7.1
//!   pdf-splitting process, default aggressiveness p = 10);
//! * [`occupancy`] — uniform / clustered namespace-fraction occupancy
//!   (§8.1, 256 hypothetical leaves);
//! * [`social`] — the synthetic Twitter-like stream substituting the
//!   paper's proprietary crawl;
//! * [`fenwick`], [`skipset`], [`sampling`] — the data-structure substrate
//!   (prefix-sum trees, nearest-free-neighbour skips, distinct sampling,
//!   alias tables).
//!
//! ## Example
//!
//! Deterministic query-set generation, the input side of every
//! experiment (§7.1):
//!
//! ```
//! use bst_workloads::querysets::{clustered_set, uniform_set};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let uniform = uniform_set(&mut rng, 10_000, 50);
//! assert_eq!(uniform.len(), 50);
//! assert!(uniform.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
//!
//! // The pdf-splitting clustered process at the paper's p = 10%.
//! let clustered = clustered_set(&mut rng, 10_000, 50, 10.0);
//! assert!(clustered.iter().all(|&x| x < 10_000));
//! ```

#![warn(missing_docs)]

pub mod fenwick;
pub mod occupancy;
pub mod querysets;
pub mod sampling;
pub mod skipset;
pub mod social;

pub use occupancy::OccupiedRanges;
pub use querysets::{clustered_set, uniform_set};
pub use social::{SocialConfig, SocialStream};
