//! Property-based tests for the BloomSampleTree core: soundness of
//! sampling and reconstruction under arbitrary sets, agreement between
//! methods, and pruned-tree/full-tree equivalence.

use bst_bloom::hash::HashKind;
use bst_bloom::params::{leaf_size, TreePlan};
use bst_core::baselines::{dictionary, hashinvert};
use bst_core::metrics::OpStats;
use bst_core::pruned::PrunedBloomSampleTree;
use bst_core::reconstruct::BstReconstructor;
use bst_core::sampler::BstSampler;
use bst_core::tree::{BloomSampleTree, SampleTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan(namespace: u64, m: usize, depth: u32, kind: HashKind) -> TreePlan {
    TreePlan {
        namespace,
        m,
        k: 3,
        kind,
        seed: 99,
        depth,
        leaf_capacity: leaf_size(namespace, depth),
        target_accuracy: 0.9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every sample is a positive of the query filter, across tree shapes.
    #[test]
    fn samples_are_positives(
        keys in prop::collection::hash_set(0u64..4096, 1..200),
        depth in 1u32..7,
        seed in any::<u64>(),
    ) {
        let tree = BloomSampleTree::build(&plan(4096, 1 << 15, depth, HashKind::Murmur3));
        let mut sorted: Vec<u64> = keys.iter().copied().collect();
        sorted.sort_unstable();
        let q = tree.query_filter(sorted.iter().copied());
        let sampler = BstSampler::new(&tree);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = OpStats::new();
        for _ in 0..20 {
            if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                prop_assert!(q.contains(s), "sample {} is not a positive", s);
                prop_assert!(s < 4096, "sample outside namespace");
            }
        }
    }

    /// Sound reconstruction returns exactly the positive set (equal to the
    /// Dictionary Attack scan), for every hash family.
    #[test]
    fn reconstruction_equals_full_scan(
        keys in prop::collection::hash_set(0u64..2048, 1..150),
        kind in prop_oneof![Just(HashKind::Simple), Just(HashKind::Murmur3)],
    ) {
        let tree = BloomSampleTree::build(&plan(2048, 1 << 14, 4, kind));
        let mut sorted: Vec<u64> = keys.iter().copied().collect();
        sorted.sort_unstable();
        let q = tree.query_filter(sorted.iter().copied());
        let mut s1 = OpStats::new();
        let rec = BstReconstructor::new(&tree).reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let scan = dictionary::da_reconstruct(&q, 2048, &mut s2);
        prop_assert_eq!(rec, scan);
    }

    /// HashInvert reconstruction agrees with the Dictionary Attack in both
    /// density modes.
    #[test]
    fn hashinvert_equals_full_scan(
        keys in prop::collection::hash_set(0u64..8192, 1..300),
        m in 512usize..8192,
    ) {
        let hasher = std::sync::Arc::new(bst_bloom::hash::BloomHasher::new(
            HashKind::Simple, 3, m, 8192, 3,
        ));
        let q = bst_bloom::filter::BloomFilter::from_keys(hasher, keys.iter().copied());
        let mut s1 = OpStats::new();
        let hi = hashinvert::hi_reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let da = dictionary::da_reconstruct(&q, 8192, &mut s2);
        prop_assert_eq!(hi, da);
    }

    /// The pruned tree over the full namespace's occupied set answers
    /// queries identically to the complete tree restricted to occupied ids.
    #[test]
    fn pruned_matches_full_on_occupied(
        occupied in prop::collection::btree_set(0u64..4096, 10..300),
        member_stride in 1usize..5,
    ) {
        let p = plan(4096, 1 << 15, 5, HashKind::Murmur3);
        let occ: Vec<u64> = occupied.iter().copied().collect();
        let pruned = PrunedBloomSampleTree::build(&p, &occ);
        let full = BloomSampleTree::build(&p);
        let members: Vec<u64> = occ.iter().copied().step_by(member_stride).collect();
        let q = pruned.query_filter(members.iter().copied());
        let mut s1 = OpStats::new();
        let rec_pruned = BstReconstructor::new(&pruned).reconstruct(&q, &mut s1);
        let mut s2 = OpStats::new();
        let rec_full: Vec<u64> = BstReconstructor::new(&full)
            .reconstruct(&q, &mut s2)
            .into_iter()
            .filter(|x| occ.binary_search(x).is_ok())
            .collect();
        prop_assert_eq!(rec_pruned, rec_full);
    }

    /// Dynamic insertion in any order produces the same tree behaviour as a
    /// batch build.
    #[test]
    fn dynamic_equals_batch(
        ids in prop::collection::hash_set(0u64..65_536, 1..150),
    ) {
        let p = plan(65_536, 4096, 6, HashKind::Murmur3);
        let mut sorted: Vec<u64> = ids.iter().copied().collect();
        sorted.sort_unstable();
        let batch = PrunedBloomSampleTree::build(&p, &sorted);
        let mut dynamic = PrunedBloomSampleTree::empty(&p);
        for &id in &ids {
            prop_assert!(dynamic.insert(id));
        }
        prop_assert_eq!(dynamic.occupied_ids(), batch.occupied_ids());
        prop_assert_eq!(dynamic.occupied_count(), batch.occupied_count());
        let q = batch.query_filter(sorted.iter().copied().take(40));
        let mut s1 = OpStats::new();
        let mut s2 = OpStats::new();
        prop_assert_eq!(
            BstReconstructor::new(&batch).reconstruct(&q, &mut s1),
            BstReconstructor::new(&dynamic).reconstruct(&q, &mut s2)
        );
    }

    /// Under arbitrary interleaved `insert`/`remove` sequences, the
    /// maintained subtree weights exactly equal a from-scratch recount
    /// at every node, and the root weight equals the surviving id count.
    #[test]
    fn maintained_weights_equal_recount(
        initial in prop::collection::btree_set(0u64..4096, 0..120),
        ops in prop::collection::vec((any::<bool>(), 0u64..4096), 1..150),
    ) {
        let p = plan(4096, 2048, 5, HashKind::Murmur3);
        let occ: Vec<u64> = initial.iter().copied().collect();
        let mut tree = PrunedBloomSampleTree::build(&p, &occ);
        let mut live = initial.clone();
        let mut mutations = 0u64;
        for (insert, id) in ops {
            let expected = if insert { live.insert(id) } else { live.remove(&id) };
            let changed = if insert { tree.insert(id) } else { tree.remove(id) };
            prop_assert_eq!(changed, expected);
            mutations += u64::from(changed);
            prop_assert!(tree.verify_weights(), "weights drifted after mutation");
        }
        prop_assert_eq!(tree.occupied_count(), live.len() as u64);
        prop_assert_eq!(tree.occupied_ids(), live.into_iter().collect::<Vec<u64>>());
        // Every successful mutation bumped the journal version once.
        prop_assert_eq!(tree.version(), mutations);
    }

    /// The leaf probe tables and the collision census stay exactly what
    /// hashing the occupied ids gives, through arbitrary mutation
    /// schedules and a snapshot round trip; windowed reconstructions
    /// (which scan sub-slices of the tables) equal the full
    /// reconstruction cut to the window.
    #[test]
    fn probe_tables_and_census_track_churn_and_snapshots(
        kind in prop_oneof![
            Just(HashKind::Simple),
            Just(HashKind::Murmur3),
            Just(HashKind::DeltaBlocked),
        ],
        initial in prop::collection::btree_set(0u64..4096, 0..200),
        ops in prop::collection::vec((any::<bool>(), 0u64..4096), 1..120),
        members in prop::collection::vec(0u64..4096, 1..80),
        windows in prop::collection::vec((0u64..4200, 0u64..600), 1..6),
    ) {
        // m = 512 makes within-key probe collisions (census members)
        // common for the classic families.
        let p = plan(4096, 512, 5, kind);
        let occ: Vec<u64> = initial.iter().copied().collect();
        let mut tree = PrunedBloomSampleTree::build(&p, &occ);
        let census = |t: &PrunedBloomSampleTree| -> Vec<u64> {
            t.occupied_ids()
                .into_iter()
                .filter(|&x| !t.hasher().probes_distinct_bits(x))
                .collect()
        };
        prop_assert!(tree.verify_probe_tables(), "build tables drifted");
        prop_assert_eq!(tree.colliding_ids(), census(&tree).as_slice());
        for (insert, id) in ops {
            if insert { tree.insert(id); } else { tree.remove(id); }
            prop_assert!(tree.verify_probe_tables(), "tables drifted after mutation");
            prop_assert_eq!(tree.colliding_ids(), census(&tree).as_slice());
        }
        let bytes = tree.to_bytes();
        let back = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
        prop_assert!(back.verify_probe_tables(), "decoded tables drifted");
        prop_assert_eq!(back.colliding_ids(), census(&tree).as_slice());
        prop_assert_eq!(back.to_bytes(), bytes);
        let q = tree.query_filter(members.iter().copied());
        for t in [&tree, &back] {
            let r = BstReconstructor::new(t);
            let full = r.reconstruct(&q, &mut OpStats::new());
            for &(start, len) in &windows {
                let window = start..start + len;
                let cut: Vec<u64> = full.iter().copied().filter(|x| window.contains(x)).collect();
                prop_assert_eq!(r.reconstruct_range(&q, window, &mut OpStats::new()), cut);
            }
        }
    }

    /// A warm `Query` handle repaired through the mutation journal
    /// reports exactly the live weight (and reconstruction) a cold
    /// handle computes, under arbitrary interleaved occupancy churn.
    #[test]
    fn repaired_live_weight_equals_cold(
        initial in prop::collection::btree_set(0u64..2048, 1..100),
        member_stride in 1usize..4,
        ops in prop::collection::vec((any::<bool>(), 0u64..2048), 1..40),
    ) {
        use bst_core::system::BstSystem;
        let occ: Vec<u64> = initial.iter().copied().collect();
        let sys = BstSystem::builder(2048)
            .expected_set_size(64)
            .seed(17)
            .pruned(occ.iter().copied())
            .build();
        let members: Vec<u64> = (0..2048u64).step_by(member_stride * 7).collect();
        let filter = sys.store(members.iter().copied());
        let warm = sys.query(&filter);
        // Prime the memo so every mutation exercises the repair path.
        let _ = warm.live_weight();
        for (insert, id) in ops {
            if insert {
                sys.insert_occupied(id).unwrap();
            } else {
                sys.remove_occupied(id).unwrap();
            }
            let cold = sys.query(&filter);
            prop_assert_eq!(warm.live_weight(), cold.live_weight());
            prop_assert_eq!(warm.reconstruct(), cold.reconstruct());
            prop_assert!(sys.weights_consistent());
        }
    }

    /// The one-pass multi-sampler returns only positives and at most r.
    #[test]
    fn sample_many_sound(
        keys in prop::collection::hash_set(0u64..4096, 1..100),
        r in 0usize..64,
        seed in any::<u64>(),
    ) {
        let tree = BloomSampleTree::build(&plan(4096, 1 << 15, 5, HashKind::Murmur3));
        let q = tree.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&tree);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = OpStats::new();
        let out = sampler.sample_many(&q, r, &mut rng, &mut stats);
        prop_assert!(out.len() <= r);
        for s in out {
            prop_assert!(q.contains(s));
        }
    }
}
