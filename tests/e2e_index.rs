//! Equality suite for the first-probe index of pruned trees, and for
//! the sound counts and reconstructions read off it without a walk.
//!
//! A full-range operation on a memo that holds no leaf list yet fills
//! every materialised leaf from one index pass; every other leaf lookup
//! scans the leaf's probe table. Both test "all `k` probe bits set", so
//! they must agree element for element. Under the sound default a count
//! or reconstruction then sums the lists instead of walking; only a
//! leaf whose hits are all collision-census members has its root path
//! tested. This suite checks that on sharded engines (Murmur3 and
//! `DeltaBlocked`, S = 4, plus a Murmur3 engine whose `m` passes 2^16,
//! so the index stores its probes as `u32`) and on a small-`m` tree
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
//!   repaired warm handles;
//! * a leaf whose only positive is a census member under a node with
//!   `t∧ < k` is dropped exactly as the walk drops it, cold and on a
//!   repaired handle, checked against the walk recomputed from the path
//!   filters.

use bloomsampletree::core::backend::TreeView;
use bloomsampletree::core::tree::SampleTree;
use bloomsampletree::workloads::querysets::{clustered_set, uniform_set, PAPER_CLUSTERING_PCT};
use bloomsampletree::workloads::sampling::sample_distinct;
use bloomsampletree::{BloomFilter, BstSystem, HashKind, ShardQuery, ShardedBstSystem};
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
    sharded_for(kind, SET_SIZE as u64, 0.9, kind.name())
}

/// [`sharded`] with filters sized for `expected` keys at `accuracy`.
fn sharded_for(kind: HashKind, expected: u64, accuracy: f64, name: &'static str) -> Case {
    let mut rng = StdRng::seed_from_u64(0x1D_E5);
    let occupied = sample_distinct(&mut rng, 0, NAMESPACE, NAMESPACE as usize / 2);
    let sys = ShardedBstSystem::builder(NAMESPACE)
        .shards(4)
        .expected_set_size(expected)
        .accuracy(accuracy)
        .hash_kind(kind)
        .seed(11)
        .occupied(occupied)
        .build();
    Case {
        name,
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

/// Checks `case` with sets of `size` keys, churns it briefly and
/// checks it again.
fn check_across_churn(case: &Case, size: usize) {
    let filters: Vec<BloomFilter> = key_sets(case.namespace, size, 0xF1)
        .into_iter()
        .map(|keys| case.sys.store(keys))
        .collect();
    let warm = check(case, &filters);
    // A short run stays inside the mutation journal, so the warm
    // handles are repaired: their full walks refill the mutated leaves
    // by table scans, and must still agree with fresh handles.
    churn(case, 96, 12, 0xC4);
    let fresh = check(case, &filters);
    for (i, (w, f)) in warm.iter().zip(&fresh).enumerate() {
        assert_eq!(
            answers(w),
            answers(f),
            "{} filter {i} after churn",
            case.name
        );
    }
}

fn run(case: Case) {
    let size = if case.name == "small-m" { 40 } else { SET_SIZE };
    check_across_churn(&case, size);
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

/// Filters sized for 1,500 keys at accuracy 0.99 take m past 2^16
/// (70,483 bits), so every shard's index stores its probes as `u32`;
/// 8,192 ids per shard keep the buckets wider than one bit through the
/// churn.
#[test]
fn wide_probe_engine_index_equals_table_scans() {
    let case = sharded_for(HashKind::Murmur3, 1_500, 0.99, "wide-probes");
    let m = case.sys.shard_systems()[0].tree().read().filter(0).m();
    assert!(m > 1 << 16, "m = {m} fits 16-bit probes");
    assert_eq!(occupancy_exceeds_m(&case), Some(false));
    check_across_churn(&case, SET_SIZE);
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

/// The sound walk's answer recomputed from the tree's filters: a leaf
/// counts when every node below the root on its path has `t∧ ≥ k`
/// against `q`, and then gives its table-scan matches.
fn sound_walk_reference(view: &TreeView<'_>, q: &BloomFilter) -> Vec<u64> {
    let mut out = Vec::new();
    // (node, whether the path above it passed); right pushed first, so
    // leaves pop left to right.
    let mut stack: Vec<(u32, bool)> = view.root().into_iter().map(|r| (r, true)).collect();
    while let Some((node, live)) = stack.pop() {
        if !live {
            continue;
        }
        if view.is_leaf(node) {
            view.scan_leaf(node, q, &view.range(node), |x| out.push(x));
            continue;
        }
        let (l, r) = view.children(node);
        for child in [r, l].into_iter().flatten() {
            stack.push((child, view.filter(child).and_count(q) >= q.k()));
        }
    }
    out
}

/// The leaf holding `id` and its root path below the root.
fn leaf_path(view: &TreeView<'_>, id: u64) -> Vec<u32> {
    let mut path = Vec::new();
    let mut node = view.root().expect("root");
    while !view.is_leaf(node) {
        let (l, r) = view.children(node);
        node = [l, r]
            .into_iter()
            .flatten()
            .find(|&c| view.range(c).contains(&id))
            .expect("materialised path");
        path.push(node);
    }
    path
}

/// A sound count read off the index pass must still drop a leaf whose
/// only filter positives are collision-census members when its root
/// path fails a `t∧ ≥ k` test, exactly as the walk does. The last leaf
/// holds a census id `c`, whose two distinct bits the query sets, and
/// one other id; the query's other keys sit in an earlier leaf. So `c`
/// is a positive under a leaf with `t∧ < k`. The walk-free answers of a
/// cold handle and of a warm handle repaired across occupancy inserts
/// and removals in that leaf (which move its `t∧` across `k`) must equal
/// the walk recomputed from the path filters.
#[test]
fn census_only_leaf_counts_only_when_its_path_is_live() {
    let namespace = 1u64 << 12;
    let last = namespace - namespace / 8..namespace;
    let sys = BstSystem::builder(namespace)
        .expected_set_size(40)
        .accuracy(0.2)
        .hash_kind(HashKind::Murmur3)
        .seed(7)
        .depth(3)
        .pruned((0..last.start).step_by(3))
        .build();
    let probe = sys.store(std::iter::empty());
    let c = last
        .clone()
        .find(|&x| !probe.probes_distinct_bits(x))
        .expect("a degenerate-probe id in the last leaf");
    let keys: Vec<u64> = (0..12u64).map(|i| 1026 + i * 3).chain([c]).collect();
    let q = sys.store(keys.iter().copied());
    let k = q.k();
    // The last leaf's other id: not a positive, and sharing no query bit,
    // so the leaf's `t∧` is `c`'s two bits alone.
    let quiet = last
        .clone()
        .find(|&x| x != c && probe.probes_distinct_bits(x) && sys.store([x]).and_count(&q) == 0)
        .expect("an id sharing no bit with the query");
    // An id that lifts the leaf's `t∧` to `k` without being a positive.
    let loud = last
        .clone()
        .find(|&x| {
            let fx = sys.store([x, c]);
            x != c && !q.contains(x) && probe.probes_distinct_bits(x) && fx.and_count(&q) >= k
        })
        .expect("an id that lifts the leaf's overlap");
    sys.insert_occupied(c).expect("insert c");
    sys.insert_occupied(quiet).expect("insert quiet");

    let check = |handle: &bloomsampletree::Query, stage: &str, live: bool| {
        let view = sys.tree().read();
        let leaf = *leaf_path(&view, c).last().expect("leaf");
        let mut hits = Vec::new();
        view.scan_leaf(leaf, &q, &view.range(leaf), |x| hits.push(x));
        let census = match &view {
            TreeView::Pruned { guard, .. } => guard.colliding_ids().to_vec(),
            TreeView::Dense(_) => panic!("pruned system"),
        };
        assert!(hits.contains(&c), "{stage}: c is a positive");
        assert!(
            hits.iter().all(|x| census.binary_search(x).is_ok()),
            "{stage}: the leaf's positives are census members"
        );
        let path_live = leaf_path(&view, c)
            .iter()
            .all(|&n| view.filter(n).and_count(&q) >= k);
        assert_eq!(path_live, live, "{stage}: the leaf's path liveness");
        let expect = sound_walk_reference(&view, &q);
        drop(view);
        assert_eq!(expect.contains(&c), live, "{stage}");
        assert!(expect.len() > 12, "{stage}: the stored keys count");
        assert_eq!(handle.live_weight(), Ok(expect.len() as u64), "{stage}");
        assert_eq!(handle.reconstruct().as_ref(), Ok(&expect), "{stage}");
        let window = last.start + 1..namespace;
        let cut: Vec<u64> = expect
            .iter()
            .copied()
            .filter(|x| window.contains(x))
            .collect();
        assert_eq!(handle.reconstruct_range(window), Ok(cut), "{stage}");
    };

    let warm = sys.query(&q);
    check(&warm, "cold", false);
    assert!(
        warm.stats().intersections > 0,
        "the census-only leaf's path was tested"
    );
    check(&sys.query(&q), "cold, fresh", false);
    sys.insert_occupied(loud).expect("insert loud");
    check(&warm, "repaired after insert", true);
    check(&sys.query(&q), "cold after insert", true);
    sys.remove_occupied(loud).expect("remove loud");
    check(&warm, "repaired after removal", false);
    check(&sys.query(&q), "cold after removal", false);
}
