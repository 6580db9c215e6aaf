//! The engine configuration and the seeded data every workload shares.
//!
//! Everything here is a pure function of the run seed, generated before
//! any clock starts, so two runs with one seed send the server the same
//! bytes.

use std::sync::Arc;

use bst_bloom::{BloomFilter, BloomHasher};
use bst_server::protocol::Request;
use bst_shard::ShardedBstSystem;
use bst_workloads::sampling::sample_distinct;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Namespace size M = 2^20, close to the paper's M = 10^6 row.
pub const NAMESPACE: u64 = 1 << 20;
/// Shard count S.
pub const SHARDS: usize = 4;
/// Target sampling accuracy the filter size is planned for.
pub const ACCURACY: f64 = 0.9;
/// Stored-set size the accuracy target refers to.
pub const EXPECTED_SET_SIZE: u64 = 1000;
/// Occupied ids: a quarter of the namespace.
pub const OCCUPIED: usize = 1 << 18;
/// Stored sets loaded during set-up, with `SET_KEYS` uniform keys each.
pub const STORED_SETS: usize = 1024;
pub const SET_KEYS: usize = 1000;

/// Derives an independent stream seed from the run seed and a tag, so
/// each input family has its own stream and adding one never shifts
/// another.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded occupancy and stored sets.
pub struct Data {
    /// Occupied ids, ascending.
    pub occupied: Vec<u64>,
    occupied_bits: Vec<u64>,
    /// The keys of stored set `i`; set-up creates them in order, so set
    /// `i` gets sharded id `i`.
    pub sets: Vec<Vec<u64>>,
    /// The engine's hash family, for building filters client-side.
    pub hasher: Arc<BloomHasher>,
}

impl Data {
    pub fn generate(seed: u64) -> Data {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        let occupied = sample_distinct(&mut rng, 0, NAMESPACE, OCCUPIED);
        let mut occupied_bits = vec![0u64; (NAMESPACE / 64) as usize];
        for &x in &occupied {
            occupied_bits[(x / 64) as usize] |= 1 << (x % 64);
        }
        let mut data = Data {
            occupied,
            occupied_bits,
            sets: Vec::new(),
            // The hash family depends on the plan alone, not on the
            // occupancy, so a one-id engine yields the served engine's.
            hasher: builder(vec![0]).build().store([]).hasher().clone(),
        };
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        data.sets = (0..STORED_SETS)
            .map(|_| data.uniform_keys(&mut rng, SET_KEYS))
            .collect();
        data
    }

    /// `n` distinct occupied ids drawn uniformly, ascending.
    pub fn uniform_keys(&self, rng: &mut StdRng, n: usize) -> Vec<u64> {
        sample_distinct(rng, 0, self.occupied.len() as u64, n)
            .into_iter()
            .map(|i| self.occupied[i as usize])
            .collect()
    }

    pub fn is_occupied(&self, x: u64) -> bool {
        x < NAMESPACE && self.occupied_bits[(x / 64) as usize] >> (x % 64) & 1 == 1
    }

    /// A query filter over `keys`, valid against every shard.
    pub fn filter(&self, keys: &[u64]) -> BloomFilter {
        BloomFilter::from_keys(self.hasher.clone(), keys.iter().copied())
    }

    /// The set-up requests, in creation order.
    pub fn create_requests(&self) -> Vec<Request> {
        self.sets
            .iter()
            .map(|keys| Request::Create { keys: keys.clone() })
            .collect()
    }

    /// Builds the engine over this occupancy (no stored sets yet).
    pub fn build_engine(&self) -> ShardedBstSystem {
        builder(self.occupied.clone()).build()
    }
}

fn builder(occupied: Vec<u64>) -> bst_shard::ShardedBstSystemBuilder {
    ShardedBstSystem::builder(NAMESPACE)
        .shards(SHARDS)
        .accuracy(ACCURACY)
        .expected_set_size(EXPECTED_SET_SIZE)
        .occupied(occupied)
}
