//! Exact draws on pruned trees under the sound rule.
//!
//! Under `Liveness::BitOverlap`, a tree that keeps a first-probe index
//! and a census answers a count and a reconstruction from its leaves'
//! match lists, and a draw reads the same lists: one uniform index into
//! the full-range answer. This suite pins that contract:
//!
//! * a draw is `reconstruct()[i]` for one `gen_range(0..len)` on the
//!   same RNG stream, on a single pruned tree and on every shard of the
//!   sharded engine, and `sample_many(r)` is `r` such draws (never
//!   short);
//! * the path needs the sound rule and a handle that keeps its memo;
//!   handles under the paper's rule and a bare sampler descend;
//! * warm handles, repaired ones included, draw what cold ones draw;
//! * a batch's draws do not depend on the worker count, and stay equal
//!   when its handles were warm;
//! * at the service configuration (M = 2^20, 2^18 occupied ids, S = 1
//!   and 4, the 1,000-key sizing, Murmur3 and DeltaBlocked), draws over
//!   uniform and clustered 1,000-key sets pass χ² and keep their total
//!   variation distance within the sampling-noise floor of their draw
//!   count (release builds only: 300 draws per element).

use bloomsampletree::stats::chi2_uniform_test;
use bloomsampletree::stats::conformance::{sample_counts, DEFAULT_ALPHA};
use bloomsampletree::workloads::querysets::{clustered_set, PAPER_CLUSTERING_PCT};
use bloomsampletree::workloads::sampling::sample_distinct;
use bloomsampletree::{
    BstConfig, BstSampler, BstSystem, HashKind, OpStats, QueryMemo, ShardedBstSystem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` distinct ids of `occupied` (ascending): uniform, or clustered by
/// the paper's §7.1 process over the occupied ids' ranks.
fn keys_of(occupied: &[u64], n: usize, clustered: bool, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ranks = if clustered {
        clustered_set(&mut rng, occupied.len() as u64, n, PAPER_CLUSTERING_PCT)
    } else {
        sample_distinct(&mut rng, 0, occupied.len() as u64, n)
    };
    ranks.into_iter().map(|r| occupied[r as usize]).collect()
}

fn small_occupancy() -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(3);
    sample_distinct(&mut rng, 0, 1 << 16, 1 << 14)
}

fn small_engine(kind: HashKind, shards: usize) -> ShardedBstSystem {
    ShardedBstSystem::builder(1 << 16)
        .shards(shards)
        .expected_set_size(300)
        .hash_kind(kind)
        .seed(11)
        .occupied(small_occupancy())
        .build()
}

#[test]
fn a_draw_is_one_index_into_the_reconstruction() {
    let occupied = small_occupancy();
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        let single = BstSystem::builder(1 << 16)
            .expected_set_size(300)
            .hash_kind(kind)
            .seed(11)
            .pruned(occupied.iter().copied())
            .build();
        let engine = small_engine(kind, 4);
        for clustered in [false, true] {
            let keys = keys_of(&occupied, 300, clustered, 5);
            let mut handles = vec![single.query(&single.store(keys.iter().copied()))];
            let sharded = engine.query(&engine.store(keys.iter().copied()));
            // Every shard of the engine, each through a fresh core handle.
            handles.extend(
                sharded
                    .shard_handles()
                    .iter()
                    .map(|h| h.system().query(&h.filter())),
            );
            for (h, q) in handles.iter().enumerate() {
                let rec = q.reconstruct().expect("reconstruct");
                assert_eq!(q.live_weight(), Ok(rec.len() as u64));
                let mut rng = StdRng::seed_from_u64(40 + h as u64);
                let mut index = StdRng::seed_from_u64(40 + h as u64);
                for _ in 0..64 {
                    let expect = rec[index.gen_range(0..rec.len() as u64) as usize];
                    assert_eq!(q.sample(&mut rng), Ok(expect), "{kind} handle {h}");
                }
                let many = q.sample_many(200, &mut rng).expect("sample_many");
                let expect: Vec<u64> = (0..200)
                    .map(|_| rec[index.gen_range(0..rec.len() as u64) as usize])
                    .collect();
                assert_eq!(many, expect, "{kind} handle {h}: r draws, never short");
            }
        }
    }
}

/// The exact path needs the sound rule, under which counts, weights,
/// reconstructions and draws read one answer, and a query handle, which
/// keeps its memo. A handle under the paper's threshold rule, and a bare
/// sampler, descend: BSTSample evaluates nodes, an exact draw evaluates
/// none.
#[test]
fn only_sound_handles_draw_exactly() {
    let occupied = small_occupancy();
    let keys = keys_of(&occupied, 300, false, 5);
    let build = |cfg: BstConfig| {
        BstSystem::builder(1 << 16)
            .expected_set_size(300)
            .seed(11)
            .config(cfg)
            .pruned(occupied.iter().copied())
            .build()
    };
    for (name, cfg, exact) in [
        ("sound", BstConfig::default(), true),
        ("paper", BstConfig::paper(), false),
    ] {
        let sys = build(cfg);
        let q = sys.query(&sys.store(keys.iter().copied()));
        q.sample(&mut StdRng::seed_from_u64(1)).expect("sample");
        assert_eq!(q.cached_evals() == 0, exact, "{name} handle");
    }
    let sys = build(BstConfig::default());
    let filter = sys.store(keys.iter().copied());
    let view = sys.tree().read();
    let mut memo = QueryMemo::new();
    BstSampler::new(&view)
        .try_sample_memo(
            &filter,
            &mut memo,
            &mut StdRng::seed_from_u64(1),
            &mut OpStats::new(),
        )
        .expect("bare sample");
    assert!(memo.cached_evals() > 0, "a bare sampler descends");
}

#[test]
fn warm_and_repaired_handles_draw_what_cold_ones_draw() {
    let occupied = small_occupancy();
    let engine = small_engine(HashKind::Murmur3, 4);
    let keys = keys_of(&occupied, 300, true, 9);
    // Two unoccupied ids the filter stores: occupying them moves the
    // answer, so a repaired handle must draw over the new lists.
    let fresh: Vec<u64> = (0..1u64 << 16)
        .filter(|x| occupied.binary_search(x).is_err())
        .take(2)
        .collect();
    let filter = engine.store(keys.iter().copied().chain(fresh.iter().copied()));
    let warm = engine.query(&filter);
    let mut seed = 0;
    let mut check = |warm: &bloomsampletree::ShardQuery| {
        seed += 1;
        let cold = engine.query(&filter);
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            assert_eq!(warm.sample(&mut a), cold.sample(&mut b));
        }
        assert_eq!(warm.sample_many(50, &mut a), cold.sample_many(50, &mut b));
        assert_eq!(warm.reconstruct(), cold.reconstruct());
    };
    check(&warm);
    check(&warm);
    for &x in &fresh {
        engine.insert_occupied(x).expect("insert");
        check(&warm);
    }
    engine.remove_occupied(fresh[0]).expect("remove");
    check(&warm);
}

#[test]
fn batches_do_not_depend_on_worker_count_or_warmth() {
    let occupied = small_occupancy();
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        let engine = small_engine(kind, 4);
        let filters: Vec<_> = (0..16)
            .map(|i| engine.store(keys_of(&occupied, 200, i % 2 == 1, 100 + i)))
            .collect();
        let (serial, _) = engine.query_batch(&filters, 7, 1);
        for threads in [0, 2, 3, 16] {
            assert_eq!(engine.query_batch(&filters, 7, threads).0, serial, "{kind}");
        }
        let ids: Vec<_> = (0..8)
            .map(|i| engine.create(keys_of(&occupied, 200, i % 2 == 0, 200 + i)))
            .collect::<Result<_, _>>()
            .expect("create");
        let (cold, _) = engine.query_batch_ids(&ids, 8, 2);
        let (warm, _) = engine.query_batch_ids(&ids, 8, 1);
        assert_eq!(warm, cold, "{kind}: pooled handles draw as cold ones");
    }
}

/// Draws per element of the conformance runs.
const DRAWS_PER_ELEMENT: usize = 300;

/// The expected total variation distance of `draws` multinomial draws
/// over `n` equally likely elements from the uniform distribution:
/// `½ Σ E|X_i/N − 1/n|` with each count near-normal, `≈ ½ n √(2p(1−p)/(πN))`
/// at `p = 1/n`. About 0.022 at 300,000 draws over 1,000 elements.
fn tv_floor(n: usize, draws: usize) -> f64 {
    let p = 1.0 / n as f64;
    0.5 * n as f64 * (2.0 * p * (1.0 - p) / (std::f64::consts::PI * draws as f64)).sqrt()
}

/// The service configuration: M = 2^20 with a quarter of it occupied,
/// filters sized for 1,000-key sets at accuracy 0.9, S = 1 and 4,
/// Murmur3 and DeltaBlocked; uniform and clustered 1,000-key sets. Each
/// set's draws must pass χ² against uniform over the reconstruction and
/// keep their total variation distance within 1.2× the noise floor (a
/// correct sampler's distance sits within a few percent of the floor).
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn service_configuration_draws_are_uniform() {
    let namespace = 1u64 << 20;
    let mut rng = StdRng::seed_from_u64(1);
    let occupied = sample_distinct(&mut rng, 0, namespace, 1 << 18);
    let sets = [
        ("uniform", keys_of(&occupied, 1000, false, 21)),
        ("clustered", keys_of(&occupied, 1000, true, 22)),
    ];
    for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
        for shards in [1, 4] {
            let engine = ShardedBstSystem::builder(namespace)
                .shards(shards)
                .accuracy(0.9)
                .expected_set_size(1000)
                .hash_kind(kind)
                .occupied(occupied.iter().copied())
                .build();
            for (shape, keys) in &sets {
                let q = engine.query(&engine.store(keys.iter().copied()));
                let support = q.reconstruct().expect("reconstruct");
                let draws = DRAWS_PER_ELEMENT * support.len();
                let counts =
                    sample_counts(&support, draws, 31, |rng| q.sample(rng).expect("sample"));
                let share = draws as f64 / support.len() as f64;
                let tv = 0.5
                    * counts
                        .iter()
                        .map(|&c| (c as f64 - share).abs())
                        .sum::<f64>()
                    / draws as f64;
                let floor = tv_floor(support.len(), draws);
                let worst = counts.iter().copied().max().unwrap_or(0) as f64 / share;
                let chi2 = chi2_uniform_test(&counts);
                let label = format!("{kind} S={shards} {shape} ({} positives)", support.len());
                eprintln!(
                    "{label}: chi2 p = {:.3}, TV = {tv:.4} (floor {floor:.4}), max/share = {worst:.2}",
                    chi2.p_value
                );
                assert!(
                    chi2.is_uniform_at(DEFAULT_ALPHA),
                    "{label}: chi2 rejected uniformity: p = {}",
                    chi2.p_value
                );
                assert!(
                    tv <= 1.2 * floor,
                    "{label}: total variation {tv} above the noise floor {floor}"
                );
            }
        }
    }
}
