//! Classic vs blocked filter layout on the weighing-heavy paths: a
//! 32-slot batch of ad-hoc filters through the sharded engine (ad-hoc
//! filters are never pooled, so every batch re-runs phase 1 from
//! scratch), and a single-tree cold `live_weight` over a fresh handle.
//! The blocked layout answers each leaf membership probe with one or
//! two masked word loads instead of k scattered bit reads, which is
//! where the cold weighing time goes. A third group weighs and batches
//! on the service benchmark's engine, across batch shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bloom::hash::HashKind;
use bst_core::system::BstSystem;
use bst_shard::ShardedBstSystem;

const NAMESPACE: u64 = 262_144;
const BATCH_SLOTS: u64 = 32;
const KEYS_PER_SLOT: u64 = 200;

/// Sparse occupancy shared by every engine under test.
fn occupancy() -> Vec<u64> {
    (0..NAMESPACE).step_by(4).collect()
}

fn layouts() -> [HashKind; 2] {
    [HashKind::Murmur3, HashKind::DeltaBlocked]
}

/// A cold 32-slot batch on one thread: ad-hoc filters are never pooled,
/// so each `query_batch` call weighs every filter on every shard (two
/// 16-filter index passes per shard) before sampling.
fn bench_batch_phase1(c: &mut Criterion) {
    let occ = occupancy();
    let mut group = c.benchmark_group("blocked-weigh");
    group.sample_size(20);
    for kind in layouts() {
        let engine = ShardedBstSystem::builder(NAMESPACE)
            .shards(4)
            .accuracy(0.9)
            .expected_set_size(1000)
            .seed(1)
            .hash_kind(kind)
            .occupied(occ.iter().copied())
            .build();
        let filters: Vec<_> = (0..BATCH_SLOTS)
            .map(|i| {
                engine.store(
                    (0..KEYS_PER_SLOT).map(|j| occ[((i * 4_099 + j * 97) as usize) % occ.len()]),
                )
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("batch32-cold-phase1", kind.name()),
            &engine,
            |b, engine| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    engine.query_batch(&filters, seed, 1)
                })
            },
        );
    }
    group.finish();
}

/// Single-tree cold weighing: a fresh `Query` handle per iteration
/// forces the full descend-and-scan recount (no memoized leaves).
fn bench_single_cold_weigh(c: &mut Criterion) {
    let occ = occupancy();
    let mut group = c.benchmark_group("blocked-weigh");
    group.sample_size(20);
    for kind in layouts() {
        let sys = BstSystem::builder(NAMESPACE)
            .accuracy(0.9)
            .expected_set_size(1000)
            .seed(1)
            .hash_kind(kind)
            .pruned(occ.iter().copied())
            .build();
        let filter = sys.store((0..1_000u64).map(|j| occ[(j * 131) as usize % occ.len()]));
        group.bench_with_input(
            BenchmarkId::new("single-cold-live-weight", kind.name()),
            &sys,
            |b, sys| b.iter(|| sys.query(&filter).live_weight().expect("weight")),
        );
    }
    group.finish();
}

/// Cold weighing on the service benchmark's engine (M = 2^20, S = 4,
/// a quarter of the namespace occupied, accuracy 0.9): 16 fresh
/// 200-key filters weighed on every shard through fresh handles, one
/// index pass per (filter, shard) cell, on one thread.
/// `results/cold_weighing.md` splits it. `service-batch16` runs the
/// whole batch on the same filters: `query_batch` at `threads = 0`
/// weighs them cold in one bit-sliced index pass per shard (phase 1, on
/// the workers) and draws from the chosen cells (phase 2, on the calling
/// thread under the sound default) — a `cold-batch` request without the
/// wire. `service-batch1` and `service-batch4` run the first 1 and 4 of
/// those filters, and `service-batch16x1000` 16 filters of 1,000 keys:
/// the pass across batch shapes (`results/sliced_weigh.md`).
fn bench_service_cold_weigh(c: &mut Criterion) {
    let namespace = 1u64 << 20;
    // A seeded quarter of the namespace: every id kept with odds 1/4.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let occ: Vec<u64> = (0..namespace)
        .filter(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 3 == 0
        })
        .collect();
    let mut group = c.benchmark_group("cold-weighing");
    group.sample_size(10);
    for kind in layouts() {
        let engine = ShardedBstSystem::builder(namespace)
            .shards(4)
            .accuracy(0.9)
            .expected_set_size(1000)
            .hash_kind(kind)
            .occupied(occ.iter().copied())
            .build();
        let shards = engine.shard_systems();
        let batch = |keys: u64| -> Vec<_> {
            (0..16u64)
                .map(|i| {
                    shards[0].store((0..keys).map(|j| {
                        let at = (i * 7_919 + j) * 2_654_435_761;
                        occ[(at % occ.len() as u64) as usize]
                    }))
                })
                .collect()
        };
        let filters = batch(200);
        let dense = batch(1_000);
        group.bench_with_input(
            BenchmarkId::new("16x4-live-weight", kind.name()),
            &filters,
            |b, filters| {
                b.iter(|| {
                    let mut total = 0u64;
                    for f in filters {
                        for shard in shards {
                            total += shard.query(f).live_weight().expect("weight");
                        }
                    }
                    total
                })
            },
        );
        let arms: [(&str, &[_]); 4] = [
            ("service-batch1", &filters[..1]),
            ("service-batch4", &filters[..4]),
            ("service-batch16", &filters),
            ("service-batch16x1000", &dense),
        ];
        for (arm, filters) in arms {
            group.bench_with_input(BenchmarkId::new(arm, kind.name()), filters, |b, filters| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    engine.query_batch(filters, seed, 0)
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_batch_phase1, bench_single_cold_weigh, bench_service_cold_weigh
}
criterion_main!(benches);
