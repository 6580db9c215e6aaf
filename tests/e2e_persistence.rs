//! Persistence and determinism: filters survive the binary codec, hash
//! families rebuild identically from their parameters, both tree
//! backends round-trip through their snapshot formats, and whole systems
//! are reproducible from a plan.

use bloomsampletree::{
    BloomFilter, BloomHasher, BstSystem, HashKind, OpStats, PrunedBloomSampleTree, SampleTree,
    TreePlan,
};
use bst_bloom::codec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn filter_binary_roundtrip_preserves_queries() {
    for kind in HashKind::ALL {
        let mut f = BloomFilter::with_params(kind, 3, 8192, 100_000, 55);
        for x in (0..2000u64).step_by(3) {
            f.insert(x);
        }
        let bytes = codec::encode(&f);
        let back = codec::decode(&bytes).expect("decode");
        for x in 0..2000u64 {
            assert_eq!(f.contains(x), back.contains(x), "{kind}: {x}");
        }
    }
}

#[test]
fn filter_codec_roundtrip_over_simple_family() {
    let mut f = BloomFilter::with_params(HashKind::Simple, 3, 4096, 50_000, 56);
    f.insert(123);
    f.insert(49_999);
    let bytes = codec::encode(&f);
    let back = codec::decode(&bytes).expect("decode");
    assert!(back.contains(123));
    assert!(back.contains(49_999));
    assert!(back.compatible_with(&f));
}

#[test]
fn hashers_rebuild_identically_from_parameters() {
    for kind in HashKind::ALL {
        let a = BloomHasher::new(kind, 4, 10_000, 1 << 20, 999);
        let b = BloomHasher::new(kind, 4, 10_000, 1 << 20, 999);
        assert_eq!(a, b);
        for x in (0..10_000u64).step_by(997) {
            for i in 0..4 {
                assert_eq!(a.position(x, i), b.position(x, i));
            }
        }
    }
}

#[test]
fn plan_roundtrip_through_tree_bytes_rebuilds_equivalent_tree() {
    let plan = TreePlan::for_accuracy(50_000, 500, 0.9, 3, HashKind::Murmur3, 77, 128.0);
    let t1 = bloomsampletree::BloomSampleTree::build(&plan);
    let t2 = bloomsampletree::BloomSampleTree::from_bytes(&t1.to_bytes()).expect("decode tree");
    assert_eq!(&plan, t2.plan());
    for i in (0..t1.node_count() as u32).step_by(7) {
        assert_eq!(t1.filter(i).bits(), t2.filter(i).bits(), "node {i}");
    }
}

#[test]
fn stored_set_multiplicity_survives_a_system_snapshot() {
    // A stored set is the multiset of its keys: the snapshot must carry
    // every copy, or a restored set would forget how many inserts a key
    // needs removed before it leaves.
    let system = BstSystem::builder(100_000).expected_set_size(400).build();
    let keys: Vec<u64> = (0..400u64).map(|i| i * 11).collect();
    let id = system.create(keys.iter().copied()).expect("create");
    system.insert_keys(id, [55u64]).expect("insert"); // 55 = 5 * 11, twice now
    let restored = BstSystem::from_bytes(&system.to_bytes()).expect("restore");
    let bits_over = |keys: &[u64]| {
        BloomFilter::from_keys(Arc::clone(restored.tree().hasher()), keys.iter().copied())
            .bits()
            .clone()
    };
    let without_55: Vec<u64> = keys.iter().copied().filter(|&x| x != 55).collect();
    restored.remove_keys(id, [55u64]).expect("remove");
    assert_eq!(restored.get(id).expect("get").bits(), &bits_over(&keys));
    restored.remove_keys(id, [55u64]).expect("remove");
    assert_eq!(
        restored.get(id).expect("get").bits(),
        &bits_over(&without_55)
    );
}

#[test]
fn pruned_tree_snapshot_restores_structure_and_answers() {
    let plan = TreePlan {
        namespace: 1 << 16,
        m: 1 << 14,
        k: 3,
        kind: HashKind::Murmur3,
        seed: 33,
        depth: 6,
        leaf_capacity: 1 << 10,
        target_accuracy: 0.9,
    };
    // Clustered occupancy, then churn, so the snapshot covers grown and
    // shrunk regions.
    let occupied: Vec<u64> = (2_000..2_600u64)
        .chain((40_000..40_300).step_by(3))
        .collect();
    let mut tree = PrunedBloomSampleTree::build(&plan, &occupied);
    for id in 50_000..50_040u64 {
        assert!(tree.insert(id));
    }
    for id in (2_000..2_100u64).step_by(2) {
        assert!(tree.remove(id));
    }

    let bytes = tree.to_bytes();
    let restored = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
    assert_eq!(restored.plan(), tree.plan());
    assert_eq!(restored.node_count(), tree.node_count());
    assert_eq!(restored.occupied_count(), tree.occupied_count());
    assert_eq!(restored.occupied_ids(), tree.occupied_ids());
    // The occupied count survives the round-trip: the decoder builds
    // over the snapshot's ids, and the snapshot stays byte-deterministic.
    assert_eq!(tree.occupied_count(), tree.occupied_ids().len() as u64);
    assert_eq!(
        restored.occupied_count(),
        restored.occupied_ids().len() as u64
    );
    assert_eq!(restored.to_bytes(), bytes);

    // Same answers through the sampling/reconstruction layers.
    let members: Vec<u64> = tree.occupied_ids().into_iter().step_by(5).collect();
    let q = tree.query_filter(members.iter().copied());
    let mut s1 = OpStats::new();
    let mut s2 = OpStats::new();
    let rec_orig = bloomsampletree::BstReconstructor::new(&tree).reconstruct(&q, &mut s1);
    let rec_back = bloomsampletree::BstReconstructor::new(&restored).reconstruct(&q, &mut s2);
    assert_eq!(rec_orig, rec_back);
    assert_eq!(s1.intersections, s2.intersections, "identical pruning work");
    let mut rng_a = StdRng::seed_from_u64(3);
    let mut rng_b = StdRng::seed_from_u64(3);
    for _ in 0..40 {
        assert_eq!(
            bloomsampletree::BstSampler::new(&tree).sample(&q, &mut rng_a, &mut s1),
            bloomsampletree::BstSampler::new(&restored).sample(&q, &mut rng_b, &mut s2),
        );
    }

    // The restored tree stays dynamic: inserts and removals keep working.
    let mut restored = restored;
    assert!(restored.insert(60_000));
    assert!(restored.contains_occupied(60_000));
    assert!(restored.remove(60_000));

    // Corruption is rejected, not mis-decoded.
    assert!(PrunedBloomSampleTree::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    let mut wrong = bytes.clone();
    wrong[0] = b'X';
    assert!(PrunedBloomSampleTree::from_bytes(&wrong).is_err());
}

#[test]
fn remote_filter_scenario() {
    // The §3.2 framework: filters are produced elsewhere (same parameters)
    // and shipped as bytes; the local tree must answer queries on them.
    let system = BstSystem::builder(30_000)
        .expected_set_size(300)
        .seed(88)
        .build();
    let plan = system.tree().plan().clone();

    // "Remote" producer: rebuilds the hash family from the plan alone.
    let remote_hasher = Arc::new(plan.build_hasher());
    let keys: Vec<u64> = (0..300u64).map(|i| i * 99 + 1).collect();
    let remote_filter = BloomFilter::from_keys(remote_hasher, keys.iter().copied());
    let wire = codec::encode(&remote_filter);

    // Local consumer: decode and sample/reconstruct through a handle.
    let received = codec::decode(&wire).expect("decode");
    assert!(received.compatible_with(system.tree().read().filter(0)));
    let query = system.query(&received);
    let mut rng = StdRng::seed_from_u64(89);
    let s = query.sample(&mut rng).expect("sample");
    assert!(received.contains(s));
    let rec = query.reconstruct().expect("reconstruct");
    for k in &keys {
        assert!(rec.binary_search(k).is_ok());
    }
}
