//! Property-based tests for shard routing and scatter-gather soundness:
//! the boundaries partition `[0, M)` exactly — every key maps to exactly
//! one shard, no gaps, no overlaps — and a sharded engine reconstructs
//! exactly what a single pruned system over the same occupancy does.
//! The sharded snapshot decoder accepts only what the encoder writes.

use bst_bloom::hash::HashKind;
use bst_core::persistence::{put_config, VERSION};
use bst_core::system::BstSystem;
use bst_shard::{shard_boundaries, ShardedBstSystem};
use proptest::prelude::*;

/// Decodes `input` as a sharded snapshot: no panic, and whatever the
/// decoder accepts re-encodes to exactly `input`.
fn assert_sharded_canonical(input: &[u8]) {
    if let Ok(engine) = ShardedBstSystem::from_bytes(input) {
        assert_eq!(
            engine.to_bytes(),
            input,
            "BSTH accepted bytes it does not write"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Boundaries tile the namespace: `S + 1` strictly ascending values
    /// from 0 to `M`, so consecutive pairs cover `[0, M)` with no gaps
    /// and no overlaps, and widths stay within one of each other.
    #[test]
    fn boundaries_partition_exactly(
        namespace in 1u64..2_000_000,
        shards_raw in 1usize..64,
    ) {
        let shards = shards_raw.min(namespace as usize);
        let b = shard_boundaries(namespace, shards);
        prop_assert_eq!(b.len(), shards + 1);
        prop_assert_eq!(b[0], 0);
        prop_assert_eq!(*b.last().unwrap(), namespace);
        prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        // No gaps, no overlaps: consecutive ranges abut by construction,
        // and total width telescopes to M.
        let total: u64 = b.windows(2).map(|w| w[1] - w[0]).sum();
        prop_assert_eq!(total, namespace);
        // Balance: widths differ by at most one.
        let widths: Vec<u64> = b.windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        prop_assert!(max - min <= 1, "widths {min}..{max} unbalanced");
    }

    /// Every key maps to exactly one shard, and the routing rule
    /// (binary search over the boundaries) lands it in that shard.
    #[test]
    fn every_key_maps_to_exactly_one_shard(
        namespace in 1u64..1_000_000,
        shards_raw in 1usize..64,
        keys in prop::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let shards = shards_raw.min(namespace as usize);
        let b = shard_boundaries(namespace, shards);
        for key in keys.into_iter().map(|k| k % namespace) {
            let owners: Vec<usize> = (0..shards)
                .filter(|&s| b[s] <= key && key < b[s + 1])
                .collect();
            prop_assert_eq!(owners.len(), 1, "key {} owned by {:?}", key, owners);
            let routed = b.partition_point(|&x| x <= key) - 1;
            prop_assert_eq!(routed, owners[0], "routing disagrees for key {}", key);
        }
    }

    /// A sharded engine reconstructs exactly what a single pruned system
    /// over the same occupancy does — occupancy is partitioned across
    /// shards, so even Bloom false positives agree.
    #[test]
    fn sharded_reconstruct_equals_single_tree(
        occupied in prop::collection::btree_set(0u64..2_048, 10..200),
        shards in 1usize..6,
        member_stride in 1usize..4,
    ) {
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let sharded = ShardedBstSystem::builder(2_048)
            .shards(shards)
            .expected_set_size(64)
            .seed(33)
            .occupied(occ.iter().copied())
            .build();
        let single = BstSystem::builder(2_048)
            .expected_set_size(64)
            .seed(33)
            .pruned(occ.iter().copied())
            .build();
        let members: Vec<u64> = occ.iter().copied().step_by(member_stride).collect();
        let filter = sharded.store(members.iter().copied());
        let via_shards = sharded.query(&filter).reconstruct().expect("sharded");
        let via_single = single.query(&filter).reconstruct().expect("single");
        prop_assert_eq!(via_shards, via_single);
    }

    /// Under arbitrary interleaved `insert_occupied`/`remove_occupied`
    /// routed through the engine, every shard's maintained subtree
    /// weights exactly equal a from-scratch recount, per shard and in
    /// total — and a warm scatter-gather handle repaired through the
    /// mutation journals reports exactly what a cold handle computes.
    #[test]
    fn sharded_maintained_weights_equal_recount(
        occupied in prop::collection::btree_set(0u64..2_048, 5..150),
        shards in 1usize..6,
        ops in prop::collection::vec((any::<bool>(), 0u64..2_048), 1..60),
    ) {
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let engine = ShardedBstSystem::builder(2_048)
            .shards(shards)
            .expected_set_size(64)
            .seed(41)
            .occupied(occ.iter().copied())
            .build();
        let members: Vec<u64> = (0..2_048u64).step_by(5).collect();
        let filter = engine.store(members.iter().copied());
        let warm = engine.query(&filter);
        let _ = warm.live_weight();
        let mut live = occupied.clone();
        for (insert, id) in ops {
            if insert {
                engine.insert_occupied(id).unwrap();
                live.insert(id);
            } else {
                engine.remove_occupied(id).unwrap();
                live.remove(&id);
            }
        }
        // Per shard and in total: the occupied count == recount.
        let mut total = 0u64;
        for sys in engine.shard_systems() {
            let ids = sys.occupied_ids();
            prop_assert_eq!(sys.occupied_count(), ids.len() as u64);
            total += ids.len() as u64;
        }
        prop_assert_eq!(total, live.len() as u64);
        prop_assert_eq!(engine.occupied_count(), live.len() as u64);
        prop_assert_eq!(engine.occupied_ids(), live.into_iter().collect::<Vec<u64>>());
        // Warm handle ≡ cold handle after journal repair.
        let cold = engine.query(&filter);
        prop_assert_eq!(warm.live_weight(), cold.live_weight());
        prop_assert_eq!(warm.reconstruct(), cold.reconstruct());
    }

    /// The engine's warm-handle pool never changes batch output: under
    /// arbitrary interleaved store churn, occupancy churn and repeated
    /// batches, a warm engine and a twin that clears its pool before
    /// every batch, driven identically, produce bit-identical
    /// `query_batch` and `query_batch_ids` results — and every pooled
    /// handle's per-shard weight equals a from-scratch recomputation.
    /// Runs under both filter layouts (classic and cache-line blocked).
    #[test]
    fn cached_batches_equal_cleared_batches_under_churn(
        occupied in prop::collection::btree_set(0u64..2_048, 20..200),
        shards in 1usize..5,
        ops in prop::collection::vec((0u8..4, 0u64..2_048), 1..40),
        seed in any::<u64>(),
        kind in prop_oneof![Just(HashKind::Murmur3), Just(HashKind::DeltaBlocked)],
    ) {
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let build = || {
            ShardedBstSystem::builder(2_048)
                .shards(shards)
                .expected_set_size(64)
                .seed(27)
                .hash_kind(kind)
                .occupied(occ.iter().copied())
                .build()
        };
        let cached = build();
        let cold = build();
        let keysets: Vec<Vec<u64>> = (0..3u64)
            .map(|i| (0..40u64).map(|j| (i * 709 + j * 31) % 2_048).collect())
            .collect();
        let ids_cached: Vec<_> = keysets
            .iter()
            .map(|k| cached.create(k.iter().copied()).unwrap())
            .collect();
        let ids_cold: Vec<_> = keysets
            .iter()
            .map(|k| cold.create(k.iter().copied()).unwrap())
            .collect();
        let filters: Vec<_> = (0..3u64)
            .map(|i| cached.store((0..30u64).map(|j| (i * 523 + j * 41) % 2_048)))
            .collect();
        // Prime the warm engine, then interleave mutations with batches;
        // the cold twin clears its pool before every batch, so it weighs
        // every cell on a fresh handle.
        cached.query_batch(&filters, seed, 2);
        cached.query_batch_ids(&ids_cached, seed, 2);
        for (round, (op, id)) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    cached.insert_occupied(id).unwrap();
                    cold.insert_occupied(id).unwrap();
                }
                1 => {
                    cached.remove_occupied(id).unwrap();
                    cold.remove_occupied(id).unwrap();
                }
                2 => {
                    let set = (id % 3) as usize;
                    cached.insert_keys(ids_cached[set], [id]).unwrap();
                    cold.insert_keys(ids_cold[set], [id]).unwrap();
                }
                _ => {
                    let set = (id % 3) as usize;
                    cached.remove_keys(ids_cached[set], [id]).unwrap();
                    cold.remove_keys(ids_cold[set], [id]).unwrap();
                }
            }
            let batch_seed = seed.wrapping_add(round as u64);
            let (rc, _) = cached.query_batch(&filters, batch_seed, 2);
            cold.clear_handle_pool();
            let (rb, _) = cold.query_batch(&filters, batch_seed, 2);
            prop_assert_eq!(rc, rb, "detached batch diverged at round {}", round);
            let (rc, _) = cached.query_batch_ids(&ids_cached, batch_seed, 2);
            cold.clear_handle_pool();
            let (rb, _) = cold.query_batch_ids(&ids_cold, batch_seed, 2);
            prop_assert_eq!(rc, rb, "stored batch diverged at round {}", round);
        }
        // Every pooled handle's weights equal a recount on a cold one.
        for (slot, id) in ids_cached.iter().enumerate() {
            let pooled = cached.pooled_query_id(*id).expect("pooled");
            let fresh = cached.query_id(*id).expect("open");
            for (shard, (warm, cold)) in pooled
                .shard_handles()
                .iter()
                .zip(fresh.shard_handles())
                .enumerate()
            {
                prop_assert_eq!(
                    warm.live_weight(),
                    cold.live_weight(),
                    "stale pooled weight: set {} shard {}", slot, shard
                );
            }
        }
    }

    /// Scatter-gather sampling returns positives only, and the sharded
    /// live-leaf weight equals the single system's reconstruction size.
    #[test]
    fn sharded_samples_are_positives(
        occupied in prop::collection::btree_set(0u64..2_048, 20..200),
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let sharded = ShardedBstSystem::builder(2_048)
            .shards(shards)
            .expected_set_size(64)
            .seed(33)
            .occupied(occ.iter().copied())
            .build();
        let members: Vec<u64> = occ.iter().copied().step_by(3).collect();
        let filter = sharded.store(members.iter().copied());
        let q = sharded.query(&filter);
        let positives = q.reconstruct().expect("reconstruct");
        prop_assert_eq!(q.live_weight().expect("weight"), positives.len() as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let s = q.sample(&mut rng).expect("sample");
            prop_assert!(positives.binary_search(&s).is_ok(), "non-positive {}", s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `BSTH` accepts only what it writes. The decoder gets arbitrary
    /// bytes (bare, and behind the magic and the current version), small
    /// valid snapshots, those with one byte overwritten (each byte of the
    /// store, and drawn bytes anywhere, in the header and in the shard
    /// trees), and those with one byte appended: it never panics, and an
    /// accepted input re-encodes to exactly its bytes.
    #[test]
    fn sharded_snapshots_accept_only_what_they_write(
        noise in prop::collection::vec(0u16..256, 0..120),
        occupied in prop::collection::btree_set(0u64..1_024, 0..40),
        shards in 1usize..4,
        sets in prop::collection::vec(prop::collection::vec(0u64..1_024, 0..8), 0..3),
        edit in (any::<usize>(), 0usize..96, any::<usize>(), 0u16..256),
        appended in 0u16..256,
    ) {
        let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
        assert_sharded_canonical(&noise);
        assert_sharded_canonical(&[&b"BSTH"[..], &[VERSION], &noise].concat());

        let engine = ShardedBstSystem::builder(1_024)
            .shards(shards)
            .expected_set_size(32)
            .seed(3)
            .occupied(occupied.iter().copied())
            .build();
        for keys in &sets {
            engine.create(keys.iter().copied()).expect("create");
        }
        // Dropped sets leave `next_id` far past the ids, so an edited id
        // can fall out of order.
        for _ in 0..250 {
            engine.drop_set(engine.create([]).expect("create")).expect("drop");
        }
        let valid = engine.to_bytes();
        assert_sharded_canonical(&valid);

        // "BSTH" v | boundaries | config | store | S × tree backend. Every
        // byte of the store is edited; the rest at drawn positions.
        let mut config = bytes::BytesMut::new();
        put_config(&mut config, &engine.config());
        let store = 5 + 4 + 8 * (shards + 1) + config.len();
        let mut trees = bytes::BytesMut::new();
        for sys in engine.shard_systems() {
            sys.tree().put_bytes(&mut trees);
        }
        let trees_at = valid.len() - trees.len();
        let (anywhere, in_header, in_trees, byte) = edit;
        let drawn = [
            anywhere % valid.len(),
            in_header % store,
            trees_at + in_trees % trees.len(),
        ];
        for at in (store..trees_at).chain(drawn) {
            let mut edited = valid.clone();
            edited[at] = byte as u8;
            assert_sharded_canonical(&edited);
        }
        let mut longer = valid.clone();
        longer.push(appended as u8);
        assert_sharded_canonical(&longer);
    }
}
