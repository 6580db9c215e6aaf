//! Equality suite for the first-probe index of pruned trees.
//!
//! A full-range walk on a memo that holds no leaf list yet fills every
//! materialised leaf from one index pass; every other leaf lookup scans
//! the leaf's probe table. Both test "all `k` probe bits set", so they
//! must agree element for element. This suite checks that on sharded
//! engines (Murmur3 and `DeltaBlocked`, S = 4) and on a small-`m` tree
//! whose buckets hold many ids and whose collision census is non-empty,
//! for uniform and §7.1-clustered filters:
//!
//! * every materialised leaf's list from the index pass equals its
//!   table scan;
//! * a handle that takes the index path and one forced through table
//!   scans (it ran windowed reconstructions first, so its memo already
//!   held leaf lists) return the same live weight, seeded draws,
//!   `sample_many` draws and reconstruction;
//! * all of the above again after a run of occupancy inserts and
//!   removals, which also moves the index's bucket width, and on the
//!   repaired warm handles.

use bloomsampletree::core::backend::TreeView;
use bloomsampletree::core::tree::SampleTree;
use bloomsampletree::workloads::querysets::{clustered_set, uniform_set, PAPER_CLUSTERING_PCT};
use bloomsampletree::workloads::sampling::sample_distinct;
use bloomsampletree::{BloomFilter, HashKind, ShardQuery, ShardedBstSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMESPACE: u64 = 1 << 16;
const SET_SIZE: usize = 100;

/// One engine under test, with the occupancy it was built over.
struct Case {
    name: &'static str,
    sys: ShardedBstSystem,
    namespace: u64,
}

/// S = 4 engines over half the namespace: about 8,192 occupied ids per
/// shard against a few thousand filter bits, so the index buckets are
/// one bit wide and the leaves barely prune.
fn sharded(kind: HashKind) -> Case {
    let mut rng = StdRng::seed_from_u64(0x1D_E5);
    let occupied = sample_distinct(&mut rng, 0, NAMESPACE, NAMESPACE as usize / 2);
    let sys = ShardedBstSystem::builder(NAMESPACE)
        .shards(4)
        .expected_set_size(SET_SIZE as u64)
        .hash_kind(kind)
        .seed(11)
        .occupied(occupied)
        .build();
    Case {
        name: kind.name(),
        sys,
        namespace: NAMESPACE,
    }
}

/// One tree with a few hundred filter bits over thousands of ids: many
/// ids share each bucket, and some probe fewer than `k` distinct bits.
fn small_m() -> Case {
    let namespace = 1u64 << 14;
    let sys = ShardedBstSystem::builder(namespace)
        .shards(1)
        .expected_set_size(40)
        .accuracy(0.2)
        .hash_kind(HashKind::Murmur3)
        .seed(7)
        .occupied((0..namespace).step_by(3))
        .build();
    Case {
        name: "small-m",
        sys,
        namespace,
    }
}

/// Uniform and clustered key sets over `namespace`.
fn key_sets(namespace: u64, size: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::new();
    for _ in 0..2 {
        sets.push(uniform_set(&mut rng, namespace, size));
        sets.push(clustered_set(
            &mut rng,
            namespace,
            size,
            PAPER_CLUSTERING_PCT,
        ));
    }
    sets
}

/// Calls `f` with every shard's read view.
fn for_each_view(sys: &ShardedBstSystem, mut f: impl FnMut(&TreeView<'_>)) {
    for shard in sys.shard_systems() {
        f(&shard.tree().read());
    }
}

/// Checks every shard's index pass against its per-leaf table scans and
/// returns, per shard, the candidates the pass tested and the number of
/// materialised leaves.
fn passes_equal_table_scans(case: &Case, filter: &BloomFilter) -> Vec<(u64, usize)> {
    let mut shards = Vec::new();
    for_each_view(&case.sys, |view| {
        let TreeView::Pruned { guard, .. } = view else {
            panic!("{}: pruned engines only", case.name);
        };
        assert!(guard.verify_index(), "{}: index drifted", case.name);
        let pass = view.index_pass(filter).expect("same hash family");
        let mut leaves = 0;
        let mut stack: Vec<_> = view.root().into_iter().collect();
        while let Some(node) = stack.pop() {
            if view.is_leaf(node) {
                leaves += 1;
                continue;
            }
            let (l, r) = view.children(node);
            stack.extend([l, r].into_iter().flatten());
        }
        assert_eq!(
            pass.leaves.len(),
            leaves,
            "{}: one list per leaf",
            case.name
        );
        for (leaf, matches) in &pass.leaves {
            let mut scanned = Vec::new();
            view.scan_leaf(*leaf, filter, &view.range(*leaf), |x| scanned.push(x));
            assert_eq!(matches, &scanned, "{}: leaf {leaf}", case.name);
        }
        shards.push((pass.tested, leaves));
    });
    shards
}

/// Runs a windowed reconstruction over the first half of every shard,
/// which covers whole leaves without covering the shard: afterwards the
/// handle's memos hold leaf lists, so its full walks scan tables. Each
/// window must return the part of `full` inside it.
fn force_table_scans(case: &Case, q: &ShardQuery, full: &[u64]) {
    let bounds = case.sys.boundaries();
    for w in bounds.windows(2) {
        let half = w[0]..w[0] + (w[1] - w[0]) / 2;
        let cut: Vec<u64> = full.iter().copied().filter(|x| half.contains(x)).collect();
        assert_eq!(q.reconstruct_range(half).expect("window"), cut);
    }
}

/// What a handle answers: live weight, 16 seeded draws, a seeded
/// `sample_many`, and the reconstruction.
fn answers(q: &ShardQuery) -> (u64, Vec<u64>, Vec<u64>, Vec<u64>) {
    let weight = q.live_weight().expect("weight");
    let mut rng = StdRng::seed_from_u64(4242);
    let draws = (0..16).map(|_| q.sample(&mut rng).expect("draw")).collect();
    let mut rng = StdRng::seed_from_u64(77);
    let many = q.sample_many(32, &mut rng).expect("sample_many");
    (weight, draws, many, q.reconstruct().expect("reconstruct"))
}

/// The whole check for one engine and its current occupancy. Returns
/// the index-path handles for the caller to keep warm.
fn check(case: &Case, filters: &[BloomFilter]) -> Vec<ShardQuery> {
    let mut warm = Vec::new();
    for (i, filter) in filters.iter().enumerate() {
        let shards = passes_equal_table_scans(case, filter);
        let indexed = case.sys.query(filter);
        indexed.live_weight().expect("weight");
        // A shard whose walk reaches a leaf runs the pass once and holds
        // every leaf's list; one whose leaves are all pruned tests nothing.
        for (handle, &(tested, leaves)) in indexed.shard_handles().iter().zip(&shards) {
            let memberships = handle.stats().memberships;
            let held = handle.cached_leaves();
            assert!(
                (memberships, held) == (tested, leaves) || (memberships, held) == (0, 0),
                "{} filter {i}: a cold weighing ran the index pass \
                 ({memberships} tested, {held} lists; pass: {tested}, {leaves})",
                case.name
            );
        }
        let expect = answers(&indexed);
        assert!(expect.0 > 0, "{} filter {i}: nothing to compare", case.name);
        let scanned = case.sys.query(filter);
        force_table_scans(case, &scanned, &expect.3);
        // Its memos now hold some leaf lists but not all, so every full
        // walk below fills the rest by table scans.
        for (handle, &(_, leaves)) in scanned.shard_handles().iter().zip(&shards) {
            let held = handle.cached_leaves();
            assert!(
                held > 0 && held < leaves,
                "{}: {held} of {leaves}",
                case.name
            );
        }
        assert_eq!(answers(&scanned), expect, "{} filter {i}", case.name);
        warm.push(indexed);
    }
    warm
}

/// Removes `removals` distinct random occupied ids, then inserts
/// `inserts` random ids.
fn churn(case: &Case, removals: usize, inserts: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut occupied = case.sys.occupied_ids();
    for i in 0..removals {
        let j = rng.gen_range(i..occupied.len());
        occupied.swap(i, j);
        case.sys.remove_occupied(occupied[i]).expect("remove");
    }
    for _ in 0..inserts {
        let id = rng.gen_range(0..case.namespace);
        case.sys.insert_occupied(id).expect("insert");
    }
    for_each_view(&case.sys, |view| {
        if let TreeView::Pruned { guard, .. } = view {
            assert!(guard.verify_index(), "{}: churn broke the index", case.name);
        }
    });
}

/// Whether every shard holds more occupied ids than filter bits (the
/// index buckets are one bit wide), or every shard fewer (wider).
fn occupancy_exceeds_m(case: &Case) -> Option<bool> {
    let mut above = Vec::new();
    for_each_view(&case.sys, |view| {
        if let TreeView::Pruned { guard, .. } = view {
            above.push(guard.occupied_count() > guard.plan().m as u64);
        }
    });
    let first = above[0];
    above.iter().all(|&a| a == first).then_some(first)
}

fn run(case: Case) {
    let size = if case.name == "small-m" { 40 } else { SET_SIZE };
    let filters: Vec<BloomFilter> = key_sets(case.namespace, size, 0xF1)
        .into_iter()
        .map(|keys| case.sys.store(keys))
        .collect();
    let warm = check(&case, &filters);
    // A short run stays inside the mutation journal, so the warm
    // handles are repaired: their full walks refill the mutated leaves
    // by table scans, and must still agree with fresh handles.
    churn(&case, 96, 12, 0xC4);
    let fresh = check(&case, &filters);
    for (i, (w, f)) in warm.iter().zip(&fresh).enumerate() {
        assert_eq!(
            answers(w),
            answers(f),
            "{} filter {i} after churn",
            case.name
        );
    }
    // A long run drops the occupancy to about m/4 per shard: the
    // buckets widen.
    assert_eq!(occupancy_exceeds_m(&case), Some(true));
    let shards = case.sys.shard_count();
    let m = case.sys.shard_systems()[0].tree().read().filter(0).m();
    let removals = case.sys.occupied_ids().len() - shards * m / 4;
    churn(&case, removals, 0, 0xC5);
    assert_eq!(occupancy_exceeds_m(&case), Some(false));
    // The original sets barely meet the few survivors: add every
    // fourth of them, so the walks reach leaves with members.
    let survivors: Vec<u64> = case.sys.occupied_ids().into_iter().step_by(4).collect();
    let filters: Vec<BloomFilter> = key_sets(case.namespace, size, 0xF2)
        .into_iter()
        .map(|keys| {
            case.sys
                .store(keys.into_iter().chain(survivors.iter().copied()))
        })
        .collect();
    check(&case, &filters);
}

#[test]
fn murmur3_engine_index_equals_table_scans() {
    run(sharded(HashKind::Murmur3));
}

#[test]
fn blocked_engine_index_equals_table_scans() {
    run(sharded(HashKind::DeltaBlocked));
}

#[test]
fn small_m_tree_with_colliding_ids_index_equals_table_scans() {
    let case = small_m();
    let tree = case.sys.shard_systems()[0].tree();
    let TreeView::Pruned { guard, .. } = tree.read() else {
        panic!("pruned engine");
    };
    let m = guard.plan().m;
    assert!(m < 1024, "m = {m} is not small");
    assert!(
        !guard.colliding_ids().is_empty(),
        "m = {m} must yield degenerate-probe ids"
    );
    assert!(
        guard.occupied_count() > 4 * m as u64,
        "buckets hold many ids"
    );
    drop(guard);
    run(case);
}
