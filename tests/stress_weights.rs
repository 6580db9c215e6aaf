//! Thread-based stress: concurrent occupancy mutators against warm
//! `Query`/`ShardQuery` handles **and the engine's warm-handle pool**.
//! The bar — a reader must **never observe a superseded weight**: any
//! weight returned after a mutation was published carries a
//! tree-generation stamp at least as new as every generation the reader
//! saw before asking (the stamps force the repair/re-descend path; a
//! stale memo slipping through would surface here as a stamp
//! regression), and pooled handles' stamps only ever move forward. Every scenario runs under both filter
//! layouts (classic `Murmur3` and cache-line `DeltaBlocked`): the
//! repair/stamp machinery is layout-independent and must stay so. Runs
//! in release in CI (the `test` job runs `cargo test --release`);
//! ignored under debug builds.

use bloomsampletree::{BstSystem, HashKind, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MUTATIONS_PER_THREAD: u64 = 400;
const READS_PER_THREAD: u64 = 800;

fn concurrent_mutators_never_yield_superseded_weights_single_with(kind: HashKind) {
    let namespace = 16_384u64;
    let sys = BstSystem::builder(namespace)
        .expected_set_size(200)
        .seed(3)
        .hash_kind(kind)
        .pruned((0..namespace).step_by(2))
        .build();
    let keys: Vec<u64> = (0..400u64).map(|i| i * 41 % namespace).collect();
    let filter = sys.store(keys.iter().copied());
    let warm = sys.query(&filter);
    warm.live_weight().expect("prime");

    std::thread::scope(|scope| {
        for m in 0..2u64 {
            let sys = sys.clone();
            scope.spawn(move || {
                // Disjoint odd ids per mutator: every op really mutates.
                for i in 0..MUTATIONS_PER_THREAD {
                    let id = (((i * 4 + m * 2 + 1) * 7) % namespace) | 1;
                    sys.insert_occupied(id).expect("insert");
                    sys.remove_occupied(id).expect("remove");
                }
            });
        }
        for r in 0..2u64 {
            let sys = sys.clone();
            let warm = &warm;
            let filter = &filter;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + r);
                let mut last_stamp = 0u64;
                for i in 0..READS_PER_THREAD {
                    let gen_before = sys.tree_generation();
                    let (outcome, _set_gen, tree_gen) = warm.live_weight_stamped();
                    let weight = outcome.expect("weight");
                    assert!(
                        tree_gen >= gen_before,
                        "superseded weight: stamped {tree_gen} < observed {gen_before}"
                    );
                    assert!(tree_gen >= last_stamp, "stamps must be monotonic");
                    last_stamp = tree_gen;
                    assert!(weight >= 1, "the even ids never leave the tree");
                    if i % 8 == 0 {
                        let s = warm.sample(&mut rng).expect("sample");
                        assert!(filter.contains(s), "non-positive sample {s}");
                    }
                }
            });
        }
    });

    // Quiescent: the warm handle, a cold handle, and the occupied count
    // must all agree exactly.
    let cold = sys.query(&filter);
    assert_eq!(warm.live_weight(), cold.live_weight());
    assert_eq!(warm.reconstruct(), cold.reconstruct());
    assert_eq!(sys.occupied_count(), sys.occupied_ids().len() as u64);
    assert_eq!(sys.occupied_count(), namespace / 2, "all churn was toggles");
}

fn concurrent_mutators_never_yield_superseded_weights_sharded_with(kind: HashKind) {
    let namespace = 16_384u64;
    let engine = ShardedBstSystem::builder(namespace)
        .shards(4)
        .expected_set_size(200)
        .seed(5)
        .hash_kind(kind)
        .occupied((0..namespace).step_by(2))
        .build();
    let keys: Vec<u64> = (0..400u64).map(|i| i * 37 % namespace).collect();
    let filter = engine.store(keys.iter().copied());
    let warm = engine.query(&filter);
    warm.live_weight().expect("prime");

    std::thread::scope(|scope| {
        for m in 0..2u64 {
            let engine = engine.clone();
            scope.spawn(move || {
                for i in 0..MUTATIONS_PER_THREAD {
                    let id = (((i * 4 + m * 2 + 1) * 11) % namespace) | 1;
                    engine.insert_occupied(id).expect("insert");
                    engine.remove_occupied(id).expect("remove");
                }
            });
        }
        for r in 0..2u64 {
            let engine = engine.clone();
            let warm = &warm;
            let filter = &filter;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + r);
                for i in 0..READS_PER_THREAD {
                    let before: Vec<u64> = engine
                        .shard_systems()
                        .iter()
                        .map(|s| s.tree_generation())
                        .collect();
                    let weight = warm.live_weight().expect("weight");
                    assert!(weight >= 1, "the even ids never leave the engine");
                    // Every per-shard stamp the weight was served under
                    // must be at least as new as the generations observed
                    // before the call.
                    for (handle, b) in warm.shard_handles().iter().zip(&before) {
                        let stamp = handle.tree_generation();
                        assert!(
                            stamp >= *b,
                            "superseded shard weight: stamped {stamp} < observed {b}"
                        );
                    }
                    if i % 8 == 0 {
                        let s = warm.sample(&mut rng).expect("sample");
                        assert!(filter.contains(s), "non-positive sample {s}");
                    }
                }
            });
        }
    });

    let cold = engine.query(&filter);
    assert_eq!(warm.live_weight(), cold.live_weight());
    assert_eq!(warm.reconstruct(), cold.reconstruct());
    assert_eq!(engine.occupied_count(), engine.occupied_ids().len() as u64);
    assert_eq!(engine.occupied_count(), namespace / 2);
}

fn engine_handle_pool_never_serves_superseded_weights_with(kind: HashKind) {
    let namespace = 16_384u64;
    let engine = ShardedBstSystem::builder(namespace)
        .shards(4)
        .expected_set_size(200)
        .seed(7)
        .hash_kind(kind)
        .occupied((0..namespace).step_by(2))
        .build();
    let ids: Vec<_> = (0..3u64)
        .map(|i| {
            engine
                .create((0..300u64).map(|j| ((i * 1_009 + j * 53) % namespace) & !1))
                .expect("create")
        })
        .collect();
    let filters: Vec<_> = (0..3u64)
        .map(|i| engine.store((0..200u64).map(|j| ((i * 733 + j * 59) % namespace) & !1)))
        .collect();
    // Prime the pool so readers start from warm handles.
    engine.query_batch_ids(&ids, 1, 2);
    engine.query_batch(&filters, 1, 2);

    std::thread::scope(|scope| {
        for m in 0..2u64 {
            let engine = engine.clone();
            scope.spawn(move || {
                // Odd ids only: the stored keys and filter members (all
                // even) never leave the occupancy, so every batch slot
                // stays answerable throughout.
                for i in 0..MUTATIONS_PER_THREAD {
                    let id = (((i * 4 + m * 2 + 1) * 13) % namespace) | 1;
                    engine.insert_occupied(id).expect("insert");
                    engine.remove_occupied(id).expect("remove");
                }
            });
        }
        for r in 0..2u64 {
            let engine = engine.clone();
            let ids = &ids;
            let filters = &filters;
            scope.spawn(move || {
                // Per-(set, shard) stamps of the pooled handles must be
                // monotone across the whole run, and each batch must
                // weigh at stamps at least as new as the generations
                // observed before it started.
                let mut last: Vec<Vec<(u64, u64)>> = vec![vec![(0, 0); 4]; ids.len()];
                for i in 0..READS_PER_THREAD / 4 {
                    let seed = r * 10_000 + i;
                    let before: Vec<u64> = engine
                        .shard_systems()
                        .iter()
                        .map(|s| s.tree_generation())
                        .collect();
                    let (results, _) = engine.query_batch_ids(ids, seed, 2);
                    for (slot, res) in results.iter().enumerate() {
                        let s = res.expect("stored slots stay answerable");
                        assert!(
                            engine.get(ids[slot]).expect("get").contains(s),
                            "non-positive batch sample {s}"
                        );
                    }
                    let (results, _) = engine.query_batch(filters, seed, 2);
                    for (slot, res) in results.iter().enumerate() {
                        let s = res.expect("filter slots stay answerable");
                        assert!(filters[slot].contains(s), "non-positive {s}");
                    }
                    for (slot, id) in ids.iter().enumerate() {
                        let pooled = engine.pooled_query_id(*id).expect("pooled");
                        for (shard, handle) in pooled.shard_handles().iter().enumerate() {
                            let stamps = (handle.generation(), handle.tree_generation());
                            let seen = &mut last[slot][shard];
                            assert!(
                                stamps.0 >= seen.0 && stamps.1 >= seen.1,
                                "pooled stamp regression on set {slot} shard {shard}: \
                                 {stamps:?} after {seen:?}"
                            );
                            assert!(
                                stamps.1 >= before[shard],
                                "superseded pooled weight on set {slot} shard {shard}: \
                                 stamped {} < observed {}",
                                stamps.1,
                                before[shard]
                            );
                            *seen = stamps;
                        }
                    }
                }
            });
        }
    });

    // Quiescent: every pooled handle agrees exactly with a cold recount,
    // and pooled batches equal batches on cold handles.
    let (warm_f, _) = engine.query_batch(&filters, 99, 2);
    let (warm_i, _) = engine.query_batch_ids(&ids, 99, 2);
    for id in &ids {
        let pooled = engine.pooled_query_id(*id).expect("pooled");
        let cold = engine.query_id(*id).expect("open");
        for (shard, (w, c)) in pooled
            .shard_handles()
            .iter()
            .zip(cold.shard_handles())
            .enumerate()
        {
            assert_eq!(
                w.live_weight(),
                c.live_weight(),
                "pooled weight disagrees with recount (shard {shard})"
            );
        }
    }
    engine.clear_handle_pool();
    let misses = engine.handle_pool_stats().misses;
    let (cold_f, _) = engine.query_batch(&filters, 99, 2);
    let (cold_i, _) = engine.query_batch_ids(&ids, 99, 2);
    assert_eq!(
        engine.handle_pool_stats().misses - misses,
        ids.len() as u64,
        "every handle reopened"
    );
    assert_eq!(warm_f, cold_f);
    assert_eq!(warm_i, cold_i);
}

macro_rules! both_layouts {
    ($classic:ident, $blocked:ident, $body:ident) => {
        #[test]
        #[cfg_attr(debug_assertions, ignore = "slow: run under --release (CI does)")]
        fn $classic() {
            $body(HashKind::Murmur3);
        }
        #[test]
        #[cfg_attr(debug_assertions, ignore = "slow: run under --release (CI does)")]
        fn $blocked() {
            $body(HashKind::DeltaBlocked);
        }
    };
}

both_layouts!(
    concurrent_mutators_never_yield_superseded_weights_single_classic,
    concurrent_mutators_never_yield_superseded_weights_single_blocked,
    concurrent_mutators_never_yield_superseded_weights_single_with
);
both_layouts!(
    concurrent_mutators_never_yield_superseded_weights_sharded_classic,
    concurrent_mutators_never_yield_superseded_weights_sharded_blocked,
    concurrent_mutators_never_yield_superseded_weights_sharded_with
);
both_layouts!(
    engine_handle_pool_never_serves_superseded_weights_classic,
    engine_handle_pool_never_serves_superseded_weights_blocked,
    engine_handle_pool_never_serves_superseded_weights_with
);
