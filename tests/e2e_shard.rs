//! End-to-end coverage of the sharded engine and the tree-generation
//! mechanism behind it:
//!
//! * scatter-gather sampling is statistically indistinguishable from
//!   single-tree sampling (the `bst-stats` conformance harness: chi²
//!   goodness-of-fit/homogeneity + Kolmogorov–Smirnov, fixed seeds) —
//!   for both configurations;
//! * a warm handle's post-mutation distribution is indistinguishable
//!   from a cold handle's (the journal-repaired memo does not bias the
//!   sampler) — for both configurations;
//! * warm handles equal cold handles across `insert_occupied` /
//!   `remove_occupied` mutations on the pruned backend — single system
//!   and sharded engine both;
//! * a warm handle's memo repair after an occupancy mutation re-tests
//!   only the mutated path's nodes, and under the sound configurations
//!   re-scans only the mutated leaf;
//! * after set writes, a pooled handle's weight and reconstruction
//!   equal the occupied ids accepted by filters built from a model of
//!   each shard's stored keys, on both filter layouts;
//! * `ShardedBstSystem` round-trips through `to_bytes`/`from_bytes`
//!   deterministically.

use std::collections::BTreeMap;
use std::sync::Arc;

use bloomsampletree::stats::chi2_uniform_test;
use bloomsampletree::stats::conformance::{
    chi2_homogeneity, ks_two_sample_ids, sample_counts, DEFAULT_ALPHA,
};
use bloomsampletree::{BloomFilter, BstConfig, BstError, BstSystem, HashKind, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's Table 5 protocol (130 draws per element), asserted at 1%
/// like the core uniformity tests: a correct sampler's p-values are
/// Uniform(0,1), so the paper's 0.08 level would flake by construction.
const ROUNDS_PER_ELEMENT: usize = 130;
const ALPHA: f64 = DEFAULT_ALPHA;

/// Both behaviour configurations, named for assertion messages.
fn both_configs() -> [(&'static str, BstConfig); 2] {
    [
        ("default", BstConfig::default()),
        ("corrected", BstConfig::corrected()),
    ]
}

/// Sharded scatter-gather sampling and single-tree sampling over the
/// same key set must both pass the chi² uniformity bar — the merged
/// shard distribution is statistically indistinguishable from one tree.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn sharded_sampling_matches_single_tree_chi2() {
    let namespace = 40_000u64;
    let n = 40usize;
    // Keys spread across all four shards' ranges.
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| i * 997 % namespace)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let n = keys.len();
    let rounds = ROUNDS_PER_ELEMENT * n;

    // Sparse occupancy containing the keys: the pruned path on both
    // sides, so leaf candidate sets agree exactly.
    let mut occupied: Vec<u64> = (0..namespace).step_by(5).collect();
    occupied.extend(keys.iter().copied());
    occupied.sort_unstable();
    occupied.dedup();

    let sharded = ShardedBstSystem::builder(namespace)
        .shards(4)
        .expected_set_size(200)
        .seed(42)
        .config(BstConfig::corrected())
        .occupied(occupied.iter().copied())
        .build();
    let single = BstSystem::builder(namespace)
        .expected_set_size(200)
        .seed(42)
        .config(BstConfig::corrected())
        .pruned(occupied.iter().copied())
        .build();

    let filter = sharded.store(keys.iter().copied());
    // Both engines must agree on the positive set before distributions
    // are compared (otherwise the counts index different supports).
    let positives = sharded.query(&filter).reconstruct().expect("sharded rec");
    assert_eq!(
        positives,
        single.query(&filter).reconstruct().expect("single rec")
    );
    assert_eq!(
        positives, keys,
        "no false positives at this m for the test seed"
    );

    let sharded_query = sharded.query(&filter);
    let sharded_counts = sample_counts(&keys, rounds, 7, |rng| {
        sharded_query.sample(rng).expect("sharded sample")
    });
    let single_query = single.query(&filter);
    let single_counts = sample_counts(&keys, rounds, 7, |rng| {
        single_query.sample(rng).expect("single sample")
    });

    let sharded_chi2 = chi2_uniform_test(&sharded_counts);
    let single_chi2 = chi2_uniform_test(&single_counts);
    assert!(
        sharded_chi2.is_uniform_at(ALPHA),
        "sharded sampling rejected uniformity: p = {}",
        sharded_chi2.p_value
    );
    assert!(
        single_chi2.is_uniform_at(ALPHA),
        "single-tree sampling rejected uniformity: p = {}",
        single_chi2.p_value
    );
    // Every shard with keys actually serves samples (the weighted pick
    // is not collapsing onto one shard).
    let boundaries = sharded.boundaries().to_vec();
    for s in 0..sharded.shard_count() {
        let in_shard: u64 = keys
            .iter()
            .zip(&sharded_counts)
            .filter(|(k, _)| (boundaries[s]..boundaries[s + 1]).contains(*k))
            .map(|(_, c)| *c)
            .sum();
        let keys_in_shard = keys
            .iter()
            .filter(|k| (boundaries[s]..boundaries[s + 1]).contains(*k))
            .count();
        if keys_in_shard > 0 {
            assert!(
                in_shard > 0,
                "shard {s} with {keys_in_shard} keys never sampled"
            );
        }
    }
}

/// The merged sharded distribution conforms to the single tree's, for
/// both configurations: both run the sound rule on pruned trees, so
/// each shard and the single tree draw exactly (one uniform index into
/// the leaves' lists; rejection correction does not apply there), and
/// the scatter picks a shard by its exact live weight. Independent draw
/// streams must be chi²-homogeneous and KS-indistinguishable, and the
/// shard *marginal* `P(shard) = w_s / Σw` is pinned by a χ²
/// goodness-of-fit against the engine's own reported weights.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn merged_distribution_conforms_to_single_tree_both_configs() {
    let namespace = 16_384u64;
    let keys: Vec<u64> = (0..30u64)
        .map(|i| (i * 997 + 3) % namespace)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut occupied: Vec<u64> = (0..namespace).step_by(3).collect();
    occupied.extend(keys.iter().copied());
    occupied.sort_unstable();
    occupied.dedup();
    let rounds = ROUNDS_PER_ELEMENT * keys.len();

    for (name, cfg) in both_configs() {
        let sharded = ShardedBstSystem::builder(namespace)
            .shards(4)
            .expected_set_size(200)
            .seed(42)
            .config(cfg)
            .occupied(occupied.iter().copied())
            .build();
        let single = BstSystem::builder(namespace)
            .expected_set_size(200)
            .seed(42)
            .config(cfg)
            .pruned(occupied.iter().copied())
            .build();
        let filter = sharded.store(keys.iter().copied());
        let support = sharded.query(&filter).reconstruct().expect("sharded rec");
        assert_eq!(
            support,
            single.query(&filter).reconstruct().expect("single rec"),
            "{name}: engines must agree on the positive set"
        );

        // Independent seeds: the comparison is statistical, not stream-
        // equality. Raw draws feed the KS test; counts feed chi².
        let sharded_query = sharded.query(&filter);
        let mut sharded_raw = Vec::with_capacity(rounds);
        let sharded_counts = sample_counts(&support, rounds, 7, |rng| {
            let s = sharded_query.sample(rng).expect("sharded sample");
            sharded_raw.push(s);
            s
        });

        let single_query = single.query(&filter);
        let mut single_raw = Vec::with_capacity(rounds);
        let single_counts = sample_counts(&support, rounds, 8, |rng| {
            let s = single_query.sample(rng).expect("single sample");
            single_raw.push(s);
            s
        });
        let h = chi2_homogeneity(&sharded_counts, &single_counts);
        assert!(
            h.is_uniform_at(ALPHA),
            "{name}: sharded vs single chi² homogeneity rejected: p = {}",
            h.p_value
        );
        let ks = ks_two_sample_ids(&sharded_raw, &single_raw);
        assert!(
            ks.is_same_distribution_at(ALPHA),
            "{name}: sharded vs single KS rejected: D = {}, p = {}",
            ks.statistic,
            ks.p_value
        );

        // Shard marginal vs the engine's own exact weights. The
        // per-shard handles are warm after the draws, so live_weight
        // reads the maintained counts.
        let boundaries = sharded.boundaries().to_vec();
        let shard_of = |key: u64| boundaries.partition_point(|&b| b <= key) - 1;
        let mut observed = vec![0u64; sharded.shard_count()];
        for (key, count) in support.iter().zip(&sharded_counts) {
            observed[shard_of(*key)] += count;
        }
        let weights: Vec<u64> = sharded_query
            .shard_handles()
            .iter()
            .map(|h| h.live_weight().expect("shard weight"))
            .collect();
        let total: u64 = weights.iter().sum();
        assert_eq!(
            total,
            support.len() as u64,
            "{name}: weights sum to |support|"
        );
        // Keep only shards with mass (chi2_test needs positive
        // expectations; weightless shards can never be drawn).
        let (obs, exp): (Vec<u64>, Vec<f64>) = observed
            .iter()
            .zip(&weights)
            .filter(|(_, &w)| w > 0)
            .map(|(&o, &w)| (o, rounds as f64 * w as f64 / total as f64))
            .unzip();
        let gof = bloomsampletree::stats::chi2_test(&obs, &exp);
        assert!(
            gof.is_uniform_at(ALPHA),
            "{name}: shard marginal deviates from exact weights: p = {}",
            gof.p_value
        );
    }
}

/// After occupancy churn, a warm handle's sampling distribution
/// conforms to a cold handle's, for both configurations: the journal-
/// repaired memo must not bias the sampler relative to a cold descent.
/// (Stream-level warm-equals-cold is pinned deterministically below;
/// this is the statistical version with independent seeds, on the
/// single system and the sharded engine both.)
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn post_mutation_warm_distribution_conforms_to_cold_both_configs() {
    let namespace = 8_192u64;
    let keys: Vec<u64> = (0..25u64).map(|i| (i * 311 + 1) % namespace).collect();
    let occupied: Vec<u64> = (0..namespace).step_by(2).collect();
    let rounds = ROUNDS_PER_ELEMENT * keys.len();

    for (name, cfg) in both_configs() {
        let single = BstSystem::builder(namespace)
            .expected_set_size(200)
            .seed(11)
            .config(cfg)
            .pruned(occupied.iter().copied())
            .build();
        let sharded = ShardedBstSystem::builder(namespace)
            .shards(4)
            .expected_set_size(200)
            .seed(11)
            .config(cfg)
            .occupied(occupied.iter().copied())
            .build();
        let filter = single.store(keys.iter().copied());

        // Open the handles first, then churn occupancy so their memos go
        // through the journal-repair path before any drawing starts.
        let warm_single = single.query(&filter);
        let warm_sharded = sharded.query(&filter);
        warm_single.reconstruct().expect("prime the memo");
        warm_sharded.reconstruct().expect("prime the memo");
        // Churn with odd *filter keys*: occupancy starts as the evens,
        // so each insert really mutates — and because the ids are true
        // positives, the odd-round survivors change the sampling
        // support, forcing the repaired memos to answer over genuinely
        // different trees than the ones they were primed on.
        let odd_keys: Vec<u64> = keys.iter().copied().filter(|k| k % 2 == 1).collect();
        assert!(odd_keys.len() >= 10, "need enough initially-free keys");
        for round in 0..10u64 {
            let id = odd_keys[round as usize];
            single.insert_occupied(id).expect("insert");
            sharded.insert_occupied(id).expect("insert");
            if round % 2 == 0 {
                single.remove_occupied(id).expect("remove");
                sharded.remove_occupied(id).expect("remove");
            }
        }

        let support = warm_single.reconstruct().expect("post-churn support");
        for (round, id) in odd_keys.iter().take(10).enumerate() {
            assert_eq!(
                support.binary_search(id).is_ok(),
                round % 2 == 1,
                "{name}: churn must have changed the support (key {id})"
            );
        }
        assert_eq!(
            support,
            warm_sharded.reconstruct().expect("sharded support"),
            "{name}: engines must agree post-churn"
        );

        let warm_counts = sample_counts(&support, rounds, 21, |rng| {
            warm_single.sample(rng).expect("warm sample")
        });
        let cold_counts = sample_counts(&support, rounds, 22, |rng| {
            single.query(&filter).sample(rng).expect("cold sample")
        });
        let h = chi2_homogeneity(&warm_counts, &cold_counts);
        assert!(
            h.is_uniform_at(ALPHA),
            "{name}: warm vs cold (single) homogeneity rejected: p = {}",
            h.p_value
        );

        let warm_sharded_counts = sample_counts(&support, rounds, 23, |rng| {
            warm_sharded.sample(rng).expect("warm sharded sample")
        });
        let cold_sharded_counts = sample_counts(&support, rounds, 24, |rng| {
            sharded.query(&filter).sample(rng).expect("cold sharded")
        });
        let h = chi2_homogeneity(&warm_sharded_counts, &cold_sharded_counts);
        assert!(
            h.is_uniform_at(ALPHA),
            "{name}: warm vs cold (sharded) homogeneity rejected: p = {}",
            h.p_value
        );
    }
}

/// Warm handles equal freshly opened handles across occupancy mutations
/// (`insert_occupied`/`remove_occupied`) on the pruned backend, for the
/// default, corrected and paper configurations — the tree-generation
/// invalidation path end to end.
#[test]
fn warm_equals_cold_across_occupancy_mutations() {
    for cfg in [
        BstConfig::default(),
        BstConfig::corrected(),
        BstConfig::paper(),
    ] {
        let namespace = 30_000u64;
        let occupied: Vec<u64> = (0..namespace).step_by(2).collect();
        let sys = BstSystem::builder(namespace)
            .expected_set_size(300)
            .seed(91)
            .config(cfg)
            .pruned(occupied.iter().copied())
            .build();
        // The filter stores both occupied and (currently) unoccupied
        // ids, so occupancy churn changes the answer set.
        let keys: Vec<u64> = (0..300u64).map(|i| i * 97 % namespace).collect();
        let id = sys.create(keys.iter().copied()).expect("create");
        let reused = sys.query_id(id).expect("open");
        let detached = sys.query(&sys.get(id).expect("get"));
        let mut rng_warm = StdRng::seed_from_u64(17);
        let mut rng_cold = StdRng::seed_from_u64(17);
        let mut rng_det_warm = StdRng::seed_from_u64(18);
        let mut rng_det_cold = StdRng::seed_from_u64(18);
        for round in 0..8u64 {
            // Occupancy churn: ids enter and leave the namespace.
            let newcomer = (round * 2 + 1) * 97 % namespace;
            if round % 2 == 0 {
                sys.insert_occupied(newcomer).expect("insert_occupied");
            } else {
                sys.remove_occupied(newcomer | 1).ok();
                sys.remove_occupied((round * 194) % namespace).ok();
            }
            assert_eq!(reused.is_stale(), Ok(true), "round {round}");
            for draw in 0..6 {
                let warm = reused.sample(&mut rng_warm);
                let cold = sys.query_id(id).expect("open").sample(&mut rng_cold);
                assert_eq!(warm, cold, "stored handle, round {round} draw {draw}");
                let warm_det = detached.sample(&mut rng_det_warm);
                let cold_det = sys
                    .query(&sys.get(id).expect("get"))
                    .sample(&mut rng_det_cold);
                assert_eq!(
                    warm_det, cold_det,
                    "detached handle, round {round} draw {draw}"
                );
            }
            assert_eq!(
                reused.reconstruct(),
                sys.query_id(id).expect("open").reconstruct(),
                "round {round}"
            );
            assert_eq!(reused.tree_generation(), sys.tree_generation());
        }
    }
}

/// A warm handle repairs its memo after one occupancy mutation by
/// dropping only the mutated id's root-to-leaf path: a fully warmed
/// handle's next reconstruction re-tests at most the `depth + 1` nodes on
/// that path (dropping the path nodes' children too would double it),
/// and it, the samples after it and the live weight all equal a cold
/// handle's, for the default, corrected and paper configurations. Under
/// the sound configurations neither handle walks: the warm one reads its
/// stored leaf lists, the mutated leaf's patched in place, so it tests
/// no intersection and no membership, and the two compare on
/// memberships.
#[test]
fn occupancy_repair_retests_only_the_mutated_path() {
    for (name, cfg, sound) in [
        ("default", BstConfig::default(), true),
        ("corrected", BstConfig::corrected(), true),
        ("paper", BstConfig::paper(), false),
    ] {
        let namespace = 30_000u64;
        let sys = BstSystem::builder(namespace)
            .expected_set_size(300)
            .seed(91)
            .config(cfg)
            .pruned((0..namespace).step_by(2))
            .build();
        let keys: Vec<u64> = (0..300u64).map(|i| i * 97 % namespace).collect();
        let id = sys.create(keys.iter().copied()).expect("create");
        let warm = sys.query_id(id).expect("open");
        warm.reconstruct().expect("warm up");
        let bound = u64::from(sys.tree().depth()) + 1;
        let mut rng_warm = StdRng::seed_from_u64(23);
        let mut rng_cold = StdRng::seed_from_u64(23);
        let (mut warm_total, mut cold_total) = (0u64, 0u64);
        for round in 0..8u64 {
            // One mutation per round, on a stored key: odd keys enter
            // the namespace, even ones leave it.
            let target = keys[(round as usize * 37) % keys.len()];
            if target % 2 == 1 {
                sys.insert_occupied(target).expect("insert_occupied");
            } else {
                sys.remove_occupied(target).expect("remove_occupied");
            }
            warm.take_stats();
            let cold = sys.query_id(id).expect("open");
            assert_eq!(
                warm.reconstruct(),
                cold.reconstruct(),
                "{name}, round {round}"
            );
            let (w, c) = (warm.take_stats(), cold.take_stats());
            assert!(
                w.intersections <= bound,
                "{name}, round {round}: {} intersections after repair, bound {bound}",
                w.intersections
            );
            if sound {
                assert_eq!(w.intersections, 0, "{name}, round {round}");
                assert_eq!(
                    w.memberships, 0,
                    "{name}, round {round}: the patched leaf list needs no scan"
                );
                warm_total += w.memberships;
                cold_total += c.memberships;
            } else {
                warm_total += w.intersections;
                cold_total += c.intersections;
            }
            for draw in 0..6 {
                assert_eq!(
                    warm.sample(&mut rng_warm),
                    cold.sample(&mut rng_cold),
                    "{name}, round {round} draw {draw}"
                );
            }
            assert_eq!(warm.live_weight(), cold.live_weight(), "{name}");
        }
        assert!(
            warm_total < cold_total,
            "{name}: repaired {warm_total} vs cold {cold_total} {}",
            if sound {
                "memberships"
            } else {
                "intersections"
            }
        );
    }
}

/// The same warm-equals-cold bar on the sharded engine, with both
/// mutation paths (set churn + occupancy churn) interleaved.
#[test]
fn sharded_warm_equals_cold_across_mutations() {
    let namespace = 16_384u64;
    let sharded = ShardedBstSystem::builder(namespace)
        .shards(4)
        .expected_set_size(200)
        .seed(5)
        .occupied((0..namespace).step_by(2))
        .build();
    let keys: Vec<u64> = (0..200u64).map(|i| i * 81 % namespace).collect();
    let id = sharded.create(keys.iter().copied()).expect("create");
    let reused = sharded.query_id(id).expect("open");
    let mut rng_warm = StdRng::seed_from_u64(23);
    let mut rng_cold = StdRng::seed_from_u64(23);
    for round in 0..6u64 {
        match round % 3 {
            0 => sharded
                .insert_keys(id, [(round * 1_237 + 1) % namespace])
                .expect("insert_keys"),
            1 => {
                sharded
                    .insert_occupied((round * 2_467 + 1) % namespace)
                    .ok();
            }
            _ => sharded
                .remove_keys(id, [(round * 81) % namespace])
                .expect("remove_keys"),
        };
        for draw in 0..6 {
            let warm = reused.sample(&mut rng_warm);
            let cold = sharded.query_id(id).expect("open").sample(&mut rng_cold);
            assert_eq!(warm, cold, "round {round} draw {draw}");
        }
        assert_eq!(
            reused.reconstruct(),
            sharded.query_id(id).expect("open").reconstruct(),
            "round {round}"
        );
    }
}

/// After set writes, a pooled handle's weight and reconstruction equal a
/// ground truth the engine does not compute: the occupied ids accepted by
/// `from_keys` over a model multiset of each shard's keys. Warm-equals-
/// cold checks compare two handles over the same projection, so only this
/// pins the store's key bookkeeping and projection themselves — on both
/// filter layouts, with removes of keys the set does not hold.
#[test]
fn pooled_handle_matches_key_ground_truth_across_set_writes() {
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        let namespace = 16_384u64;
        let sharded = ShardedBstSystem::builder(namespace)
            .shards(4)
            .expected_set_size(400)
            .hash_kind(kind)
            .seed(9)
            .occupied((0..namespace).step_by(2))
            .build();
        let hasher = Arc::clone(sharded.shard_systems()[0].tree().hasher());
        // One multiset per shard: key -> copies held.
        let mut model = vec![BTreeMap::<u64, u32>::new(); 4];
        let keys: Vec<u64> = (0..300u64).map(|i| i * 53 % namespace).collect();
        for &x in &keys {
            *model[sharded.shard_of(x)].entry(x).or_default() += 1;
        }
        let id = sharded.create(keys.iter().copied()).expect("create");
        let pooled = sharded.pooled_query_id(id).expect("open");
        let occupied = sharded.occupied_ids();
        for round in 0..8u64 {
            let batch: Vec<u64> = (0..40u64)
                .map(|i| (round * 4_099 + i * 409) % namespace)
                .collect();
            if round % 2 == 0 {
                for &x in &batch {
                    *model[sharded.shard_of(x)].entry(x).or_default() += 1;
                }
                sharded.insert_keys(id, batch).expect("insert_keys");
            } else {
                // Every other round takes back the previous round's batch,
                // a slice of the original keys, and keys never inserted.
                let mut undo: Vec<u64> = (0..40u64)
                    .map(|i| ((round - 1) * 4_099 + i * 409) % namespace)
                    .collect();
                undo.extend_from_slice(&keys[round as usize * 10..round as usize * 10 + 10]);
                undo.extend((0..4u64).map(|i| namespace - 1 - round * 8 - i));
                for &x in &undo {
                    let shard = &mut model[sharded.shard_of(x)];
                    if let Some(copies) = shard.get_mut(&x) {
                        *copies -= 1;
                        if *copies == 0 {
                            shard.remove(&x);
                        }
                    }
                }
                sharded.remove_keys(id, undo).expect("remove_keys");
            }
            // An id is a positive iff its own shard's projection accepts it.
            let projected: Vec<BloomFilter> = model
                .iter()
                .map(|shard| BloomFilter::from_keys(Arc::clone(&hasher), shard.keys().copied()))
                .collect();
            let truth: Vec<u64> = occupied
                .iter()
                .copied()
                .filter(|&x| projected[sharded.shard_of(x)].contains(x))
                .collect();
            assert!(!truth.is_empty(), "{kind}, round {round}");
            assert_eq!(
                pooled.live_weight().expect("weight"),
                truth.len() as u64,
                "{kind}, round {round}"
            );
            assert_eq!(
                pooled.reconstruct().expect("reconstruct"),
                truth,
                "{kind}, round {round}"
            );
        }
    }
}

/// The sharded engine snapshots and restores deterministically through
/// the facade, preserving scatter-gather behaviour exactly.
#[test]
fn sharded_snapshot_roundtrips_end_to_end() {
    let sharded = ShardedBstSystem::builder(20_000)
        .shards(4)
        .expected_set_size(300)
        .seed(77)
        .config(BstConfig::corrected())
        .occupied((0..20_000u64).step_by(3))
        .build();
    let a = sharded
        .create((0..250u64).map(|i| i * 333 % 20_000))
        .expect("create");
    let b = sharded.create((0..60u64).map(|i| i * 41)).expect("create");
    sharded.insert_keys(a, [19_999u64]).expect("insert");
    sharded.remove_keys(a, [0u64]).expect("remove");
    sharded.drop_set(b).expect("drop");
    sharded.insert_occupied(1).expect("insert_occupied");
    sharded.remove_occupied(3).expect("remove_occupied");

    let bytes = sharded.to_bytes();
    let restored = ShardedBstSystem::from_bytes(&bytes).expect("restore");
    assert_eq!(restored.boundaries(), sharded.boundaries());
    assert_eq!(restored.ids(), sharded.ids());
    assert_eq!(restored.occupied_count(), sharded.occupied_count());
    assert_eq!(bytes, restored.to_bytes(), "byte-deterministic");
    assert_eq!(
        restored.occupied_count(),
        restored.occupied_ids().len() as u64,
        "the restored occupied count must equal a recount"
    );
    assert_eq!(
        restored.get(b).unwrap_err(),
        BstError::UnknownFilterId(b),
        "dropped spans stay dropped"
    );

    let q1 = sharded.query_id(a).expect("open");
    let q2 = restored.query_id(a).expect("open");
    let mut r1 = StdRng::seed_from_u64(29);
    let mut r2 = StdRng::seed_from_u64(29);
    for _ in 0..25 {
        assert_eq!(q1.sample(&mut r1), q2.sample(&mut r2));
    }
    assert_eq!(q1.reconstruct(), q2.reconstruct());
    let (batch1, _) = sharded.query_batch_ids(&[a], 3, 2);
    let (batch2, _) = restored.query_batch_ids(&[a], 3, 2);
    assert_eq!(batch1, batch2);
}

/// Batch scatter-gather serves a mixed bag of filters, deterministic
/// across thread counts, with typed per-slot failures.
#[test]
fn sharded_batches_fan_out_with_typed_errors() {
    let sharded = ShardedBstSystem::builder(20_000)
        .shards(4)
        .expected_set_size(200)
        .seed(13)
        .build();
    let mut filters: Vec<_> = (0..10)
        .map(|i| sharded.store((0..50u64).map(|j| (i * 911 + j * 23) % 20_000)))
        .collect();
    filters.insert(4, sharded.store(std::iter::empty()));
    let (results, stats) = sharded.query_batch(&filters, 21, 3);
    assert_eq!(results.len(), filters.len());
    assert_eq!(results[4], Err(BstError::EmptyFilter));
    for (i, (f, r)) in filters.iter().zip(&results).enumerate() {
        if i != 4 {
            assert!(f.contains(r.expect("sample")), "slot {i}");
        }
    }
    assert!(stats.total_ops() > 0);
    for threads in [1, 2, 8] {
        let (again, _) = sharded.query_batch(&filters, 21, threads);
        assert_eq!(results, again, "threads = {threads}");
    }
}

/// The engine's warm-handle pool is invisible in batch output: across a
/// schedule of store churn and occupancy churn, every `query_batch` /
/// `query_batch_ids` result on a warm engine is byte-identical to a twin
/// that clears its pool before every batch — warm (repeated), repaired
/// (post-churn) and cold alike — while the pool measurably serves hits.
#[test]
fn batch_outputs_identical_warm_and_cleared() {
    let namespace = 20_000u64;
    let build = || {
        ShardedBstSystem::builder(namespace)
            .shards(4)
            .expected_set_size(200)
            .seed(17)
            .occupied((0..namespace).step_by(2))
            .build()
    };
    let cached = build();
    let cold = build();

    let filters: Vec<_> = (0..12)
        .map(|i| cached.store((0..80u64).map(|j| (i * 1_213 + j * 37) % namespace)))
        .collect();
    let keysets: Vec<Vec<u64>> = (0..4u64)
        .map(|i| (0..60u64).map(|j| (i * 773 + j * 41) % namespace).collect())
        .collect();
    let ids_cached: Vec<_> = keysets
        .iter()
        .map(|k| cached.create(k.iter().copied()).expect("create"))
        .collect();
    let ids_cold: Vec<_> = keysets
        .iter()
        .map(|k| cold.create(k.iter().copied()).expect("create"))
        .collect();

    // Mutation schedule: (occupancy toggle, set churn) between batches.
    type Round = (Option<u64>, Option<(usize, u64)>);
    let schedule: &[Round] = &[
        (None, None),                  // repeat: pure warm hits
        (Some(4_001), None),           // occupancy churn: journal repair
        (None, Some((1, 9_999))),      // set churn: targeted re-weigh
        (Some(4_001), Some((2, 123))), // both at once
        (None, None),                  // warm again
    ];
    for (round, (occ, churn)) in schedule.iter().enumerate() {
        if let Some(id) = occ {
            cached.insert_occupied(*id).expect("insert");
            cached.remove_occupied(*id).expect("remove");
            cold.insert_occupied(*id).expect("insert");
            cold.remove_occupied(*id).expect("remove");
        }
        if let Some((set, key)) = churn {
            cached.insert_keys(ids_cached[*set], [*key]).expect("keys");
            cold.insert_keys(ids_cold[*set], [*key]).expect("keys");
        }
        for threads in [1, 3] {
            let seed = 31 + round as u64;
            let (rc, _) = cached.query_batch(&filters, seed, threads);
            cold.clear_handle_pool();
            let (rb, _) = cold.query_batch(&filters, seed, threads);
            assert_eq!(rc, rb, "detached batch, round {round}, threads {threads}");
            let (rc, _) = cached.query_batch_ids(&ids_cached, seed, threads);
            cold.clear_handle_pool();
            let (rb, _) = cold.query_batch_ids(&ids_cold, seed, threads);
            assert_eq!(rc, rb, "stored batch, round {round}, threads {threads}");
        }
    }
    assert!(
        cached.handle_pool_stats().hits > 0,
        "the schedule must exercise warm serving"
    );
    assert_eq!(
        cold.handle_pool_stats().hits,
        0,
        "the cleared twin opens every handle cold"
    );
}
