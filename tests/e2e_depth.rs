//! Depth invariance: the tree depth is a cost choice, not a semantic
//! one. Under the default, sound `BitOverlap` liveness a sharded pruned
//! engine answers `live_weight` and `reconstruct` identically at every
//! depth, for uniform filters and for the paper's §7.1 clustered ones.
//! So the depth the builder derives from the occupancy
//! (`bst_core::costmodel`) can move without changing any weight or
//! reconstruction.

use bloomsampletree::workloads::querysets::{clustered_set, uniform_set, PAPER_CLUSTERING_PCT};
use bloomsampletree::workloads::sampling::sample_distinct;
use bloomsampletree::ShardedBstSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NAMESPACE: u64 = 1 << 16;
const SHARDS: usize = 4;
/// Sparse occupancy: one id in eight.
const OCCUPIED: usize = (NAMESPACE / 8) as usize;
const SET_SIZE: usize = 500;

fn engine(occupied: &[u64], depth: Option<u32>) -> ShardedBstSystem {
    let builder = ShardedBstSystem::builder(NAMESPACE)
        .shards(SHARDS)
        .expected_set_size(SET_SIZE as u64)
        .seed(5)
        .occupied(occupied.iter().copied());
    match depth {
        Some(d) => builder.depth(d),
        None => builder,
    }
    .build()
}

fn depth_of(sys: &ShardedBstSystem) -> u32 {
    sys.shard_systems()[0].tree().plan().depth
}

/// `(live_weight, reconstruction)` of every key set, each through a
/// fresh handle.
fn answers(sys: &ShardedBstSystem, sets: &[Vec<u64>]) -> Vec<(u64, Vec<u64>)> {
    sets.iter()
        .map(|keys| {
            let f = sys.store(keys.iter().copied());
            let weight = sys.query(&f).live_weight().expect("live weight");
            let recon = sys.query(&f).reconstruct().expect("reconstruct");
            (weight, recon)
        })
        .collect()
}

#[test]
fn weights_and_reconstructions_do_not_depend_on_depth() {
    let mut rng = StdRng::seed_from_u64(0xD3_97);
    let occupied = sample_distinct(&mut rng, 0, NAMESPACE, OCCUPIED);
    let mut sets = Vec::new();
    for _ in 0..4 {
        sets.push(uniform_set(&mut rng, NAMESPACE, SET_SIZE));
        sets.push(clustered_set(
            &mut rng,
            NAMESPACE,
            SET_SIZE,
            PAPER_CLUSTERING_PCT,
        ));
    }

    let default = engine(&occupied, None);
    let derived = depth_of(&default);
    let expected = answers(&default, &sets);
    for (i, (weight, recon)) in expected.iter().enumerate() {
        assert!(!recon.is_empty(), "set {i} reconstructs to nothing");
        assert_eq!(*weight, recon.len() as u64, "set {i}: weight = |recon|");
    }
    for depth in 2..=10 {
        let sys = engine(&occupied, Some(depth));
        assert_eq!(depth_of(&sys), depth);
        assert_eq!(
            answers(&sys, &sets),
            expected,
            "depth {depth} disagrees with the derived default depth {derived}"
        );
    }
}
