//! Layout-conformance suite for the blocked Bloom filter layout
//! (`HashKind::DeltaBlocked`) and the word-level weighing kernel:
//!
//! * classic-layout outputs are **bit-identical** to the pre-kernel
//!   implementation: fixed-seed draws, live weights, and reconstruction
//!   prefixes are pinned against values captured from the naive
//!   per-bit scan before the kernel rewrite landed — single tree and
//!   S = 16 sharded (the single tree's draw sequence re-captured when
//!   sound sampling on pruned trees became an exact prefix-sum draw);
//! * blocked-layout sampling is **statistically indistinguishable**
//!   from classic-layout sampling over the same key set (χ² homogeneity
//!   via `assert_homogeneous`, which prints the observed table on
//!   failure, plus Kolmogorov–Smirnov over pooled raw draws) — single
//!   tree and S = 16 sharded. The conformance pair runs under
//!   `BstConfig::corrected()` (rejection-corrected sampling): raw
//!   BSTSample carries frozen estimate noise whose *shape* depends on
//!   the filter layout (blocked filters concentrate chance collisions
//!   inside blocks), so comparing raw samplers measures that noise, not
//!   the layout's correctness; the corrected sampler cancels the
//!   proposal distribution exactly and is the mode with a distributional
//!   guarantee to conform *to*;
//! * blocked reconstruction is exact on both engines, and sharded ≡
//!   single under the blocked layout (occupancy partitioning makes even
//!   false positives agree);
//! * every engine above is pinned to the depth the goldens were captured
//!   at, and the depth the builder now derives from the occupancy
//!   samples from the same distribution as that one (χ² + KS).

use bloomsampletree::core::system::BstSystemBuilder;
use bloomsampletree::shard::ShardedBstSystemBuilder;
use bloomsampletree::stats::conformance::{
    assert_homogeneous, ks_two_sample_ids, sample_counts, DEFAULT_ALPHA,
};
use bloomsampletree::{BstConfig, BstSystem, HashKind, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS_PER_ELEMENT: usize = 130;

/// The fixed scenario every test here builds: namespace 4096, two
/// thirds occupied, every seventh id stored. At this fill the filters
/// carry real false positives — exactly what the golden capture pins.
fn scenario() -> (u64, Vec<u64>, Vec<u64>) {
    let namespace = 4096u64;
    let occupied: Vec<u64> = (0..namespace).filter(|x| x % 3 != 0).collect();
    let members: Vec<u64> = (0..namespace).filter(|x| x % 7 == 0).collect();
    (namespace, occupied, members)
}

/// A sparse stored set (every 31st id) whose fill ratio is low enough
/// that both layouts reconstruct it exactly — the conformance tests
/// need the two engines to agree on the support before distributions
/// can be compared.
fn sparse_members() -> (Vec<u64>, Vec<u64>) {
    let members: Vec<u64> = (0..4096u64).filter(|x| x % 31 == 0).collect();
    let support: Vec<u64> = members.iter().copied().filter(|x| x % 3 != 0).collect();
    (members, support)
}

/// Depth the golden values were captured at: the namespace rule at the
/// paper's cost ratio (leaves of at most 1,328 ids). Pruned builds derive
/// their depth from the occupancy, so every engine here pins it;
/// [`default_depth_sampling_conforms_to_capture_depth`] checks the
/// derived shape.
const CAPTURE_DEPTH: u32 = 2;

/// The single-tree scenario at the derived default depth.
fn single_builder(
    kind: HashKind,
    accuracy: f64,
    expected: u64,
    seed: u64,
    cfg: BstConfig,
) -> BstSystemBuilder {
    let (namespace, occupied, _) = scenario();
    BstSystem::builder(namespace)
        .expected_set_size(expected)
        .accuracy(accuracy)
        .seed(seed)
        .config(cfg)
        .hash_kind(kind)
        .pruned(occupied.iter().copied())
}

/// The sharded scenario at the derived default depth.
fn sharded_builder(
    kind: HashKind,
    shards: usize,
    accuracy: f64,
    expected: u64,
    seed: u64,
    cfg: BstConfig,
) -> ShardedBstSystemBuilder {
    let (namespace, occupied, _) = scenario();
    ShardedBstSystem::builder(namespace)
        .shards(shards)
        .expected_set_size(expected)
        .accuracy(accuracy)
        .seed(seed)
        .config(cfg)
        .hash_kind(kind)
        .occupied(occupied.iter().copied())
}

fn single_system(
    kind: HashKind,
    accuracy: f64,
    expected: u64,
    seed: u64,
    cfg: BstConfig,
) -> BstSystem {
    single_builder(kind, accuracy, expected, seed, cfg)
        .depth(CAPTURE_DEPTH)
        .build()
}

fn sharded_system(
    kind: HashKind,
    shards: usize,
    accuracy: f64,
    expected: u64,
    seed: u64,
    cfg: BstConfig,
) -> ShardedBstSystem {
    sharded_builder(kind, shards, accuracy, expected, seed, cfg)
        .depth(CAPTURE_DEPTH)
        .build()
}

/// Sizing for the conformance tests: accuracy 0.99 + set size 1500
/// drive `m` up ~5x over the golden scenario, and the tree seed is
/// chosen so that *neither* layout's reconstruction carries a false
/// positive — both engines must sample over the identical support
/// before their distributions can be compared. The golden test keeps
/// the builder defaults (accuracy 0.9), where false positives are real
/// and deliberately pinned.
const CONFORMANCE_ACCURACY: f64 = 0.99;
const CONFORMANCE_SET_SIZE: u64 = 1500;
const CONFORMANCE_SEED: u64 = 2;
const GOLDEN_ACCURACY: f64 = 0.9;
const GOLDEN_SET_SIZE: u64 = 600;
const GOLDEN_SEED: u64 = 99;

/// Golden values captured from the pre-kernel implementation (naive
/// per-bit `contains` loop over leaf candidates) at this exact
/// scenario and seeds. The kernel rewrite must not perturb any of
/// them: same weights, same draw sequence, same reconstruction. One
/// re-capture since: the single tree's draw sequence, when sound
/// sampling on a pruned tree became one uniform index into the leaves'
/// lists. The S = 16 engine's shards are single leaves (depth 0), where
/// the descent was already that draw, so its sequence did not move.
#[test]
fn classic_outputs_bit_identical_to_pre_kernel_capture() {
    let (_, _, members) = scenario();
    let single = single_system(
        HashKind::Murmur3,
        GOLDEN_ACCURACY,
        GOLDEN_SET_SIZE,
        GOLDEN_SEED,
        BstConfig::default(),
    );
    let f = single.store(members.iter().copied());
    let q = single.query(&f);
    assert_eq!(q.live_weight().unwrap(), 440);
    let mut rng = StdRng::seed_from_u64(4242);
    let draws: Vec<u64> = (0..32).map(|_| q.sample(&mut rng).unwrap()).collect();
    assert_eq!(
        draws,
        [
            1456, 622, 2870, 763, 224, 1225, 2737, 3038, 1403, 1498, 4025, 2333, 3311, 476, 385,
            2149, 2828, 3710, 3269, 1099, 721, 1316, 1459, 3262, 1841, 3388, 3794, 413, 713, 1804,
            1610, 343
        ],
        "classic fixed-seed draw sequence changed"
    );
    let recon = q.reconstruct().unwrap();
    assert_eq!(recon.len(), 440);
    assert_eq!(&recon[..8], &[7, 14, 28, 35, 49, 56, 70, 77]);

    let sharded = sharded_system(
        HashKind::Murmur3,
        16,
        GOLDEN_ACCURACY,
        GOLDEN_SET_SIZE,
        GOLDEN_SEED,
        BstConfig::default(),
    );
    let sf = sharded.store(members.iter().copied());
    let sq = sharded.query(&sf);
    assert_eq!(sq.live_weight().unwrap(), 440);
    let mut rng = StdRng::seed_from_u64(4242);
    let sdraws: Vec<u64> = (0..32).map(|_| sq.sample(&mut rng).unwrap()).collect();
    assert_eq!(
        sdraws,
        [
            1316, 2870, 77, 2744, 1391, 3976, 3101, 392, 3052, 3136, 602, 1480, 2002, 3605, 623,
            1561, 1804, 1078, 1414, 1246, 343, 3430, 1960, 2471, 2471, 49, 2926, 1547, 1253, 2828,
            1463, 3623
        ],
        "sharded classic fixed-seed draw sequence changed"
    );
}

/// Blocked reconstruction is exact (no stray elements at this `m`),
/// equals classic reconstruction, and sharded blocked equals single
/// blocked bit-for-bit.
#[test]
fn blocked_reconstruction_is_exact_and_shard_invariant() {
    let (members, expected) = sparse_members();
    let classic = single_system(
        HashKind::Murmur3,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let blocked = single_system(
        HashKind::DeltaBlocked,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let sharded_blocked = sharded_system(
        HashKind::DeltaBlocked,
        16,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );

    let fc = classic.store(members.iter().copied());
    let fb = blocked.store(members.iter().copied());
    let fs = sharded_blocked.store(members.iter().copied());

    let via_classic = classic.query(&fc).reconstruct().unwrap();
    let via_blocked = blocked.query(&fb).reconstruct().unwrap();
    let via_sharded = sharded_blocked.query(&fs).reconstruct().unwrap();
    assert_eq!(via_classic, expected, "classic picked up false positives");
    assert_eq!(via_blocked, expected, "blocked picked up false positives");
    assert_eq!(via_sharded, via_blocked, "sharded blocked diverged");
}

/// χ² homogeneity + KS: single-tree blocked-layout sampling draws from
/// the same distribution as classic-layout sampling.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn blocked_single_tree_sampling_conforms_to_classic() {
    let (members, support) = sparse_members();
    let rounds = ROUNDS_PER_ELEMENT * support.len();

    let classic = single_system(
        HashKind::Murmur3,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let blocked = single_system(
        HashKind::DeltaBlocked,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let fc = classic.store(members.iter().copied());
    let fb = blocked.store(members.iter().copied());
    assert_eq!(classic.query(&fc).reconstruct().unwrap(), support);
    assert_eq!(blocked.query(&fb).reconstruct().unwrap(), support);

    let qc = classic.query(&fc);
    let qb = blocked.query(&fb);
    let classic_counts = sample_counts(&support, rounds, 7, |rng| qc.sample(rng).unwrap());
    let blocked_counts = sample_counts(&support, rounds, 8, |rng| qb.sample(rng).unwrap());
    assert_homogeneous(
        "single-tree blocked vs classic",
        &support,
        &blocked_counts,
        &classic_counts,
        DEFAULT_ALPHA,
    );

    let mut rng = StdRng::seed_from_u64(9);
    let classic_raw: Vec<u64> = (0..rounds).map(|_| qc.sample(&mut rng).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(10);
    let blocked_raw: Vec<u64> = (0..rounds).map(|_| qb.sample(&mut rng).unwrap()).collect();
    let ks = ks_two_sample_ids(&blocked_raw, &classic_raw);
    assert!(
        ks.is_same_distribution_at(DEFAULT_ALPHA),
        "KS rejected blocked vs classic: D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}

/// Same bar at S = 16: scatter-gather over blocked shards draws from
/// the same distribution as scatter-gather over classic shards.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn blocked_sharded_s16_sampling_conforms_to_classic() {
    let (members, support) = sparse_members();
    let rounds = ROUNDS_PER_ELEMENT * support.len();

    let classic = sharded_system(
        HashKind::Murmur3,
        16,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let blocked = sharded_system(
        HashKind::DeltaBlocked,
        16,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let fc = classic.store(members.iter().copied());
    let fb = blocked.store(members.iter().copied());
    assert_eq!(classic.query(&fc).reconstruct().unwrap(), support);
    assert_eq!(blocked.query(&fb).reconstruct().unwrap(), support);

    let qc = classic.query(&fc);
    let qb = blocked.query(&fb);
    let classic_counts = sample_counts(&support, rounds, 11, |rng| qc.sample(rng).unwrap());
    let blocked_counts = sample_counts(&support, rounds, 12, |rng| qb.sample(rng).unwrap());
    assert_homogeneous(
        "S=16 blocked vs classic",
        &support,
        &blocked_counts,
        &classic_counts,
        DEFAULT_ALPHA,
    );

    let mut rng = StdRng::seed_from_u64(13);
    let classic_raw: Vec<u64> = (0..rounds).map(|_| qc.sample(&mut rng).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(14);
    let blocked_raw: Vec<u64> = (0..rounds).map(|_| qb.sample(&mut rng).unwrap()).collect();
    let ks = ks_two_sample_ids(&blocked_raw, &classic_raw);
    assert!(
        ks.is_same_distribution_at(DEFAULT_ALPHA),
        "KS rejected sharded blocked vs classic: D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}

/// Depths the builders derive for this scenario from the occupancy
/// (mean occupied ids per materialised leaf, `bst_core::costmodel`).
/// 2,730 occupied ids: the golden sizing (m = 5,791 bits, leaf capacity
/// 391) cuts one tree at depth 3 and stops the S = 16 shards, each
/// holding about 170 ids, at their roots; the conformance sizing
/// (m = 22,670 bits, capacity 1,938) cuts one tree at depth 1.
#[test]
fn layout_scenario_derived_depths() {
    let depth = |sys: &BstSystem| sys.tree().plan().depth;
    let golden = (GOLDEN_ACCURACY, GOLDEN_SET_SIZE, GOLDEN_SEED);
    let conformance = (CONFORMANCE_ACCURACY, CONFORMANCE_SET_SIZE, CONFORMANCE_SEED);
    for (sizing, single_depth, sharded_depth) in [(golden, 3, 0), (conformance, 1, 0)] {
        let (accuracy, expected, seed) = sizing;
        let single = single_builder(
            HashKind::Murmur3,
            accuracy,
            expected,
            seed,
            BstConfig::default(),
        )
        .build();
        assert_eq!(
            depth(&single),
            single_depth,
            "single at accuracy {accuracy}"
        );
        let sharded = sharded_builder(
            HashKind::Murmur3,
            16,
            accuracy,
            expected,
            seed,
            BstConfig::default(),
        )
        .build();
        for shard in sharded.shard_systems() {
            assert_eq!(depth(shard), sharded_depth, "S = 16 at accuracy {accuracy}");
        }
    }
}

/// χ² homogeneity + KS: sampling at the derived default depth draws from
/// the same distribution as sampling at [`CAPTURE_DEPTH`], with the same
/// support.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn default_depth_sampling_conforms_to_capture_depth() {
    let (members, support) = sparse_members();
    let rounds = ROUNDS_PER_ELEMENT * support.len();

    let pinned = single_system(
        HashKind::Murmur3,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    );
    let derived = single_builder(
        HashKind::Murmur3,
        CONFORMANCE_ACCURACY,
        CONFORMANCE_SET_SIZE,
        CONFORMANCE_SEED,
        BstConfig::corrected(),
    )
    .build();
    assert_ne!(
        derived.tree().plan().depth,
        pinned.tree().plan().depth,
        "the derived default must be a different tree shape"
    );
    let fp = pinned.store(members.iter().copied());
    let fd = derived.store(members.iter().copied());
    assert_eq!(pinned.query(&fp).reconstruct().unwrap(), support);
    assert_eq!(derived.query(&fd).reconstruct().unwrap(), support);

    let qp = pinned.query(&fp);
    let qd = derived.query(&fd);
    let pinned_counts = sample_counts(&support, rounds, 15, |rng| qp.sample(rng).unwrap());
    let derived_counts = sample_counts(&support, rounds, 16, |rng| qd.sample(rng).unwrap());
    assert_homogeneous(
        "default depth vs capture depth",
        &support,
        &derived_counts,
        &pinned_counts,
        DEFAULT_ALPHA,
    );

    let mut rng = StdRng::seed_from_u64(17);
    let pinned_raw: Vec<u64> = (0..rounds).map(|_| qp.sample(&mut rng).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(18);
    let derived_raw: Vec<u64> = (0..rounds).map(|_| qd.sample(&mut rng).unwrap()).collect();
    let ks = ks_two_sample_ids(&derived_raw, &pinned_raw);
    assert!(
        ks.is_same_distribution_at(DEFAULT_ALPHA),
        "KS rejected default depth vs capture depth: D = {}, p = {}",
        ks.statistic,
        ks.p_value
    );
}
