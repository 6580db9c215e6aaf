//! Integration tests for the production extensions: tree persistence,
//! range-restricted reconstruction, and prepared corrected sampling.

use bst_bloom::hash::HashKind;
use bst_bloom::params::{leaf_size, TreePlan};
use bst_core::metrics::OpStats;
use bst_core::pruned::PrunedBloomSampleTree;
use bst_core::reconstruct::BstReconstructor;
use bst_core::sampler::{BstConfig, BstSampler, QueryMemo};
use bst_core::tree::{BloomSampleTree, SampleTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan(namespace: u64, depth: u32) -> TreePlan {
    TreePlan {
        namespace,
        m: 16_384,
        k: 3,
        kind: HashKind::Murmur3,
        seed: 5,
        depth,
        leaf_capacity: leaf_size(namespace, depth),
        target_accuracy: 0.9,
    }
}

#[test]
fn complete_tree_roundtrips_through_bytes() {
    let p = plan(8192, 5);
    let tree = BloomSampleTree::build(&p);
    let bytes = tree.to_bytes();
    let back = BloomSampleTree::from_bytes(&bytes).expect("decode");
    assert_eq!(back.node_count(), tree.node_count());
    assert_eq!(back.plan(), tree.plan());
    for i in 0..tree.node_count() as u32 {
        assert_eq!(back.filter(i).bits(), tree.filter(i).bits(), "node {i}");
        assert_eq!(back.range(i), tree.range(i), "range {i}");
    }
    // Behavioural equivalence: same reconstruction for the same filter.
    let keys: Vec<u64> = (0..150u64).map(|i| i * 53 % 8192).collect();
    let q = tree.query_filter(keys.iter().copied());
    let mut s1 = OpStats::new();
    let mut s2 = OpStats::new();
    assert_eq!(
        BstReconstructor::new(&tree).reconstruct(&q, &mut s1),
        BstReconstructor::new(&back).reconstruct(&q, &mut s2),
    );
}

#[test]
fn pruned_tree_roundtrips_through_bytes() {
    let p = plan(1 << 16, 6);
    let occupied: Vec<u64> = (0..500u64)
        .map(|i| i * 131 % (1 << 16))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut tree = PrunedBloomSampleTree::build(&p, &occupied);
    // Exercise dynamic state before persisting.
    tree.insert(99);
    tree.remove(occupied[10]);
    let bytes = tree.to_bytes();
    let back = PrunedBloomSampleTree::from_bytes(&bytes).expect("decode");
    assert_eq!(back.occupied_count(), tree.occupied_count());
    assert_eq!(back.occupied_ids(), tree.occupied_ids());
    assert_eq!(back.node_count(), tree.node_count());
    let q = tree.query_filter(tree.occupied_ids().into_iter().take(50));
    let mut s1 = OpStats::new();
    let mut s2 = OpStats::new();
    assert_eq!(
        BstReconstructor::new(&tree).reconstruct(&q, &mut s1),
        BstReconstructor::new(&back).reconstruct(&q, &mut s2),
    );
}

#[test]
fn decode_rejects_corruption() {
    use bst_core::persistence::PersistError;
    let p = plan(4096, 4);
    let tree = BloomSampleTree::build(&p);
    let bytes = tree.to_bytes();
    assert_eq!(
        BloomSampleTree::from_bytes(&bytes[..10]).unwrap_err(),
        PersistError::Truncated
    );
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert_eq!(
        BloomSampleTree::from_bytes(&wrong_magic).unwrap_err(),
        PersistError::BadMagic
    );
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 200;
    assert_eq!(
        BloomSampleTree::from_bytes(&wrong_version).unwrap_err(),
        PersistError::BadVersion(200)
    );
    // Pruned decoder must reject complete-tree payloads.
    assert_eq!(
        PrunedBloomSampleTree::from_bytes(&bytes).unwrap_err(),
        PersistError::BadMagic
    );
}

/// Format version 2 dropped three config bytes and the journal cap from
/// the system snapshot, version 3 cut the pruned tree to its plan,
/// version and ids, version 4 stores sets as their keys, version 5
/// writes a sharded engine's store once, version 6 writes the config's
/// liveness rule once, and version 7 cuts the complete tree to its plan;
/// an older snapshot is refused, not migrated.
#[test]
fn older_version_snapshots_are_refused() {
    use bst_core::error::BstError;
    use bst_core::persistence::PersistError;
    use bst_core::system::BstSystem;
    use bst_shard::ShardedBstSystem;
    for old in [1u8, 2, 3, 4, 5, 6] {
        let as_old = |mut bytes: Vec<u8>| {
            assert_eq!(bytes[4], bst_core::persistence::VERSION);
            bytes[4] = old;
            bytes
        };
        let refused = Some(BstError::Persist(PersistError::BadVersion(old)));
        for pruned in [false, true] {
            let builder = BstSystem::builder(4096).expected_set_size(50);
            let sys = if pruned {
                builder.pruned((0..4096u64).step_by(3)).build()
            } else {
                builder.build()
            };
            sys.create((0..50u64).map(|i| i * 61)).expect("create");
            let bytes = as_old(sys.to_bytes());
            assert_eq!(
                BstSystem::from_bytes(&bytes).err(),
                refused,
                "v{old}, pruned {pruned}"
            );
        }
        let sharded = ShardedBstSystem::builder(4096)
            .shards(2)
            .expected_set_size(50)
            .build();
        sharded.create((0..50u64).map(|i| i * 61)).expect("create");
        let bytes = as_old(sharded.to_bytes());
        assert_eq!(ShardedBstSystem::from_bytes(&bytes).err(), refused);
        let tree = PrunedBloomSampleTree::build(&plan(4096, 4), &[1, 2, 3]);
        assert_eq!(
            PrunedBloomSampleTree::from_bytes(&as_old(tree.to_bytes())).err(),
            Some(PersistError::BadVersion(old))
        );
    }
}

#[test]
fn range_reconstruction_matches_filtered_full() {
    let p = plan(8192, 5);
    let tree = BloomSampleTree::build(&p);
    let keys: Vec<u64> = (0..300u64)
        .map(|i| i * 27 % 8192)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let q = tree.query_filter(keys.iter().copied());
    let recon = BstReconstructor::new(&tree);
    let mut s_full = OpStats::new();
    let full = recon.reconstruct(&q, &mut s_full);
    for window in [0..8192u64, 1000..3000, 0..1, 8191..8192, 4000..4001] {
        let mut s_win = OpStats::new();
        let got = recon.reconstruct_range(&q, window.clone(), &mut s_win);
        let expected: Vec<u64> = full
            .iter()
            .copied()
            .filter(|x| window.contains(x))
            .collect();
        assert_eq!(got, expected, "window {window:?}");
    }
}

/// Under the sound rule, a window asked of a memo that already holds
/// every leaf's list is cut from the stored sorted lists: no scan and
/// no child test, and the same answer as a cold windowed walk, which
/// scans the clipped leaves' tables. Both hash kinds.
#[test]
fn warm_windows_slice_stored_lists() {
    let namespace = 1u64 << 14;
    let occupied: Vec<u64> = (0..namespace).filter(|x| x % 5 != 2).collect();
    let keys: Vec<u64> = (0..400u64).map(|i| i * 41 % namespace).collect();
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        let tree = PrunedBloomSampleTree::build(
            &TreePlan {
                kind,
                ..plan(namespace, 6)
            },
            &occupied,
        );
        let q = tree.query_filter(keys.iter().copied());
        let recon = BstReconstructor::new(&tree);
        let mut memo = QueryMemo::new();
        let full = recon
            .try_reconstruct_memo(&q, &mut memo, &mut OpStats::new())
            .unwrap();
        assert!(full.len() >= 300, "{kind:?}: {} positives", full.len());
        for window in [
            0..namespace,
            1000..3001,
            257..258,
            8191..8193,
            namespace - 1..namespace,
        ] {
            let mut cold_stats = OpStats::new();
            let cold = recon.reconstruct_range(&q, window.clone(), &mut cold_stats);
            let expect: Vec<u64> = full
                .iter()
                .copied()
                .filter(|x| window.contains(x))
                .collect();
            assert_eq!(cold, expect, "{kind:?} cold {window:?}");
            let mut warm_stats = OpStats::new();
            let warm = recon
                .try_reconstruct_range_memo(&q, window.clone(), &mut memo, &mut warm_stats)
                .unwrap();
            assert_eq!(warm, cold, "{kind:?} warm {window:?}");
            assert_eq!(warm_stats, OpStats::new(), "{kind:?} warm {window:?}");
        }
    }
}

#[test]
fn narrow_windows_cost_less() {
    let p = plan(1 << 14, 7);
    let tree = BloomSampleTree::build(&p);
    let keys: Vec<u64> = (0..(1 << 14)).step_by(16).collect();
    let q = tree.query_filter(keys.iter().copied());
    let recon = BstReconstructor::new(&tree);
    let mut s_full = OpStats::new();
    let _ = recon.reconstruct(&q, &mut s_full);
    let mut s_win = OpStats::new();
    let _ = recon.reconstruct_range(&q, 0..512, &mut s_win);
    assert!(
        s_win.memberships * 4 < s_full.memberships,
        "window scan {} vs full {}",
        s_win.memberships,
        s_full.memberships
    );
}

#[test]
fn empty_window_returns_nothing() {
    let p = plan(4096, 4);
    let tree = BloomSampleTree::build(&p);
    let q = tree.query_filter([1u64, 2, 3]);
    let recon = BstReconstructor::new(&tree);
    let mut stats = OpStats::new();
    #[allow(clippy::reversed_empty_ranges)]
    let window = 100..100u64;
    assert!(recon.reconstruct_range(&q, window, &mut stats).is_empty());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn memoized_sampling_matches_unmemoized_distribution() {
    use bst_core::sampler::QueryMemo;
    let p = plan(1 << 14, 6);
    let tree = BloomSampleTree::build(&p);
    let keys: Vec<u64> = (0..64u64)
        .map(|i| i * 251 % (1 << 14))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let q = tree.query_filter(keys.iter().copied());
    let sampler = BstSampler::with_config(&tree, BstConfig::corrected());
    let mut rng = StdRng::seed_from_u64(42);
    let mut stats = OpStats::new();
    let mut memo = QueryMemo::new();
    let mut counts = vec![0u64; keys.len()];
    for _ in 0..130 * keys.len() {
        let s = sampler
            .try_sample_memo(&q, &mut memo, &mut rng, &mut stats)
            .expect("sample");
        if let Ok(i) = keys.binary_search(&s) {
            counts[i] += 1;
        }
    }
    assert!(memo.is_prepared());
    assert!(memo.estimated_cardinality().expect("prepared") > 40.0);
    let res = bst_stats::chi2_uniform_test(&counts);
    assert!(
        res.p_value > 0.01,
        "memoized sampling skewed: p = {}",
        res.p_value
    );

    // Memoization amortises: sampling with a warm memo must not be slower
    // per sample than fresh corrected sampling.
    let t0 = std::time::Instant::now();
    for _ in 0..200 {
        let _ = std::hint::black_box(sampler.try_sample_memo(&q, &mut memo, &mut rng, &mut stats));
    }
    let memoized_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    for _ in 0..200 {
        std::hint::black_box(sampler.sample(&q, &mut rng, &mut stats));
    }
    let fresh_time = t1.elapsed();
    assert!(
        memoized_time <= fresh_time * 2,
        "memoized {memoized_time:?} vs fresh {fresh_time:?}"
    );
}
