//! A sharded sampling service: the namespace split into shards, each
//! with its own pruned tree and store, serving scatter-gather queries
//! whose merged results match a single-tree system — plus live shard
//! rebalancing of traffic, occupancy churn routed to the owning shard,
//! and a whole-engine snapshot.
//!
//! Run with: `cargo run --release --example sharded_service`

use bloomsampletree::stats::chi2_uniform_test;
use bloomsampletree::{BstConfig, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let namespace = 1u64 << 20; // 1M ids
    let shards = 8usize;
    let mut rng = StdRng::seed_from_u64(1);

    // Occupancy clusters unevenly across the namespace — some shards are
    // hot, some nearly empty, exactly the case where naive round-robin
    // sampling would skew the merged distribution.
    let mut occupied: Vec<u64> = Vec::new();
    for region in 0..5u64 {
        let base = region * (namespace / 5);
        let density = 1 + region * 4; // later regions denser
        for _ in 0..(2_000 * density) {
            occupied.push(base + rng.gen_range(0..namespace / 5));
        }
    }
    occupied.sort_unstable();
    occupied.dedup();

    let engine = ShardedBstSystem::builder(namespace)
        .shards(shards)
        .expected_set_size(500)
        .accuracy(0.85)
        .seed(9)
        .config(BstConfig::corrected())
        .occupied(occupied.iter().copied())
        .build();
    println!(
        "sharded engine: {} ids across {} shards of [0, {namespace})",
        engine.occupied_count(),
        engine.shard_count()
    );
    for (s, sys) in engine.shard_systems().iter().enumerate() {
        println!(
            "  shard {s}: [{:>8}, {:>8})  {:>6} occupied, {:>5} tree nodes, {:.2} MB",
            engine.boundaries()[s],
            engine.boundaries()[s + 1],
            sys.occupied_count(),
            sys.tree().node_count(),
            sys.tree().memory_bytes() as f64 / 1e6
        );
    }

    // A community spanning several shards, stored once under one id.
    let members: Vec<u64> = occupied.iter().copied().step_by(97).collect();
    let community = engine.create(members.iter().copied()).expect("create");
    let query = engine.query_id(community).expect("open");
    println!(
        "\ncommunity {community}: {} members across shards, live-leaf weight {}",
        members.len(),
        query.live_weight().expect("weight")
    );

    // Scatter-gather sampling: shard picked by live-leaf weight, then
    // sampled within. Verify the merged distribution is uniform.
    let subset: Vec<u64> = members.iter().copied().take(50).collect();
    let sub_filter = engine.store(subset.iter().copied());
    let sub_query = engine.query(&sub_filter);
    let positives = sub_query.reconstruct().expect("reconstruct");
    let mut counts = vec![0u64; positives.len()];
    let mut sample_rng = StdRng::seed_from_u64(2);
    for _ in 0..130 * positives.len() {
        let s = sub_query.sample(&mut sample_rng).expect("sample");
        counts[positives.binary_search(&s).expect("positive")] += 1;
    }
    let chi2 = chi2_uniform_test(&counts);
    println!(
        "merged sampling over {} positives: chi2 p-value {:.3} (uniform at 1%: {})",
        positives.len(),
        chi2.p_value,
        chi2.is_uniform_at(0.01)
    );

    // Batch traffic fans out across shards on a worker pool.
    let filters: Vec<_> = (0..64)
        .map(|i| {
            let base = i * 731;
            engine.store(occupied.iter().copied().skip(base).step_by(211).take(40))
        })
        .collect();
    let (results, stats) = engine.query_batch(&filters, 42, 0);
    let served = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "\nbatch of {} filters: {served} served, {} ops total ({} intersections, {} memberships)",
        filters.len(),
        stats.total_ops(),
        stats.intersections,
        stats.memberships
    );

    // Occupancy churn routes to the owning shard; only that shard's
    // handles re-descend.
    let newcomer = namespace - 7;
    let owner = engine.shard_of(newcomer);
    engine.insert_occupied(newcomer).expect("signup");
    engine.insert_keys(community, [newcomer]).expect("join");
    let rec = query.reconstruct().expect("reconstruct");
    println!(
        "\nsignup of id {newcomer} -> shard {owner} (tree generation {}), \
         visible through the open sharded handle: {}",
        engine.shard_systems()[owner].tree_generation(),
        rec.binary_search(&newcomer).is_ok()
    );

    // Snapshot the whole engine: boundaries, config, the store, every tree.
    let snapshot = engine.to_bytes();
    let restored = ShardedBstSystem::from_bytes(&snapshot).expect("restore");
    let restored_rec = restored
        .query_id(community)
        .expect("open")
        .reconstruct()
        .expect("reconstruct");
    println!(
        "\nsnapshot: {:.2} MB; restored engine answers identically: {}",
        snapshot.len() as f64 / 1e6,
        restored_rec == rec
    );
    assert_eq!(restored_rec, rec);
}
