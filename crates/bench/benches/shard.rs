//! The sharded engine: scatter-gather sample/reconstruct latency at
//! S ∈ {1, 4, 16} shards against the single-tree baseline, batch fan-out
//! across the crossbeam pool, the occupancy-mutation invalidation
//! round-trip (insert_occupied → stale sharded handle → journal-repaired
//! re-weight), the warm repaired weight refresh vs a full recount, the
//! two-phase batch scatter vs a one-phase emulation, and
//! warm repeated batches on the engine's pooled handles vs the cold
//! (pool-cleared) two-phase path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bench::common::rng_for;
use bst_bloom::filter::BloomFilter;
use bst_core::error::BstError;
use bst_core::system::BstSystem;
use bst_shard::ShardedBstSystem;
use bst_workloads::querysets::uniform_set;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMESPACE: u64 = 262_144;
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Sparse occupancy shared by every engine under test.
fn occupancy() -> Vec<u64> {
    (0..NAMESPACE).step_by(4).collect()
}

fn build_sharded(shards: usize) -> ShardedBstSystem {
    ShardedBstSystem::builder(NAMESPACE)
        .shards(shards)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(1)
        .occupied(occupancy())
        .build()
}

fn build_single() -> BstSystem {
    BstSystem::builder(NAMESPACE)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(1)
        .pruned(occupancy())
        .build()
}

/// Warm-handle scatter-gather sampling vs the single-tree baseline.
fn bench_sample_scaling(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(3);
    let keys: Vec<u64> = uniform_set(&mut rng, occ.len() as u64, 1000)
        .into_iter()
        .map(|i| occ[i as usize])
        .collect();

    let mut group = c.benchmark_group("shard-sample");
    let single = build_single();
    let filter = single.store(keys.iter().copied());
    group.bench_function("single-tree", |b| {
        let query = single.query(&filter);
        let mut rng = rng_for(7);
        b.iter(|| query.sample(&mut rng))
    });
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        group.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, _| {
            let query = engine.query(&filter);
            let mut rng = rng_for(7);
            b.iter(|| query.sample(&mut rng))
        });
    }
    group.finish();
}

/// Cold reconstruction (the scatter-gather path that visits every live
/// leaf once) vs the single-tree baseline.
fn bench_reconstruct_scaling(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(5);
    let keys: Vec<u64> = uniform_set(&mut rng, occ.len() as u64, 1000)
        .into_iter()
        .map(|i| occ[i as usize])
        .collect();

    let mut group = c.benchmark_group("shard-reconstruct");
    group.sample_size(20);
    let single = build_single();
    let filter = single.store(keys.iter().copied());
    group.bench_function("single-tree", |b| {
        b.iter(|| single.query(&filter).reconstruct().expect("reconstruct"))
    });
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        group.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, _| {
            b.iter(|| engine.query(&filter).reconstruct().expect("reconstruct"))
        });
    }
    group.finish();
}

/// Batch fan-out across the crossbeam worker pool (ad-hoc filters are
/// never pooled, so every batch is cold: this group tracks the cold
/// scatter cost itself — the warm path has its own `batch-warm-cache`
/// group).
fn bench_batch_fanout(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(9);
    let mut group = c.benchmark_group("shard-batch-32");
    group.sample_size(10);
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        let filters: Vec<_> = (0..32)
            .map(|_| {
                let keys = uniform_set(&mut rng, occ.len() as u64, 200);
                engine.store(keys.into_iter().map(|i| occ[i as usize]))
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, _| {
            b.iter(|| engine.query_batch(&filters, 17, 0))
        });
    }
    group.finish();
}

/// The occupancy-mutation invalidation round-trip: insert_occupied on
/// the owning shard, then the stale sharded handle's next sample (full
/// re-weight + cold re-descent on one shard).
fn bench_occupancy_invalidation(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(11);
    let keys: Vec<u64> = uniform_set(&mut rng, occ.len() as u64, 1000)
        .into_iter()
        .map(|i| occ[i as usize])
        .collect();

    let mut group = c.benchmark_group("occupancy-invalidation");
    group.sample_size(20);
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        let filter = engine.store(keys.iter().copied());
        group.bench_with_input(
            BenchmarkId::new("insert+stale-sample", shards),
            &shards,
            |b, _| {
                let query = engine.query(&filter);
                let mut rng = rng_for(13);
                let mut key = 1u64;
                b.iter(|| {
                    // Toggle an id in and out of the occupancy so the
                    // engine keeps mutating without unbounded growth.
                    engine.insert_occupied(key).expect("insert");
                    engine.remove_occupied(key).expect("remove");
                    key = (key + 4) % NAMESPACE;
                    query.sample(&mut rng)
                })
            },
        );
    }
    let single = build_single();
    let filter = single.store(keys.iter().copied());
    group.bench_function("single-tree/insert+stale-sample", |b| {
        let query = single.query(&filter);
        let mut rng = rng_for(13);
        let mut key = 1u64;
        b.iter(|| {
            single.insert_occupied(key).expect("insert");
            single.remove_occupied(key).expect("remove");
            key = (key + 4) % NAMESPACE;
            query.sample(&mut rng)
        })
    });
    group.finish();
}

/// The mutation round-trip in isolation: mutate, then refresh
/// `live_weight` on a **warm** handle (journal repair patches the
/// mutated leaf's list; the count sums the lists) vs a **fresh** handle
/// per call (a full cold recount of the mutated shard).
fn bench_weight_delta(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(15);
    let keys: Vec<u64> = uniform_set(&mut rng, occ.len() as u64, 1000)
        .into_iter()
        .map(|i| occ[i as usize])
        .collect();

    let mut group = c.benchmark_group("weight-delta");
    group.sample_size(20);
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        let filter = engine.store(keys.iter().copied());
        group.bench_with_input(
            BenchmarkId::new("mutate+delta-refresh", shards),
            &shards,
            |b, _| {
                let query = engine.query(&filter);
                query.live_weight().expect("prime");
                let mut key = 1u64;
                b.iter(|| {
                    engine.insert_occupied(key).expect("insert");
                    engine.remove_occupied(key).expect("remove");
                    key = (key + 4) % NAMESPACE;
                    query.live_weight().expect("weight")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mutate+full-recount", shards),
            &shards,
            |b, _| {
                let mut key = 1u64;
                b.iter(|| {
                    engine.insert_occupied(key).expect("insert");
                    engine.remove_occupied(key).expect("remove");
                    key = (key + 4) % NAMESPACE;
                    // A fresh handle has no memo: its weight is the cold
                    // counting walk every time — PR 3's refresh cost.
                    engine.query(&filter).live_weight().expect("weight")
                })
            },
        );
    }
    group.finish();
}

/// The PR 3 one-phase scatter, reproduced for comparison: every
/// (shard, slot) cell computes its weight **and** a speculative sample,
/// workers chunk whole shards (capped at the shard count), and the
/// gather keeps one candidate per slot.
type OnePhaseCell = (u64, Result<u64, BstError>);

fn one_phase_batch(
    engine: &ShardedBstSystem,
    filters: &[BloomFilter],
    seed: u64,
) -> Vec<Result<u64, BstError>> {
    fn cell_seed(seed: u64, shard: u64, slot: u64) -> u64 {
        seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ slot.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
    }
    let shards = engine.shard_systems();
    let slots = filters.len();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(shards.len());
    let chunk = shards.len().div_ceil(workers);
    let mut rows: Vec<(usize, Vec<Vec<OnePhaseCell>>)> = crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for (w, systems) in shards.chunks(chunk).enumerate() {
            handles.push(scope.spawn(move |_| {
                let mut out = Vec::with_capacity(systems.len());
                for (offset, sys) in systems.iter().enumerate() {
                    let shard = w * chunk + offset;
                    let mut row = Vec::with_capacity(slots);
                    for (slot, filter) in filters.iter().enumerate() {
                        let q = sys.query(filter);
                        let weight = q.live_weight().unwrap_or(0);
                        let mut rng =
                            StdRng::seed_from_u64(cell_seed(seed, shard as u64, slot as u64));
                        row.push((weight, q.sample(&mut rng)));
                    }
                    out.push(row);
                }
                (w, out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    })
    .expect("scope");
    rows.sort_by_key(|(w, _)| *w);
    let grid: Vec<Vec<OnePhaseCell>> = rows.into_iter().flat_map(|(_, r)| r).collect();
    (0..slots)
        .map(|slot| {
            let total: u64 = grid.iter().map(|row| row[slot].0).sum();
            if total == 0 {
                return Err(BstError::NoLiveLeaf);
            }
            let mut rng = StdRng::seed_from_u64(cell_seed(seed, u64::MAX, slot as u64));
            let mut pick = rng.gen_range(0..total);
            for row in &grid {
                let (weight, result) = &row[slot];
                if pick < *weight {
                    return *result;
                }
                pick -= weight;
            }
            unreachable!()
        })
        .collect()
}

/// Two-phase batch scatter (weights first, sample only chosen cells,
/// cell-grid chunking) vs the one-phase emulation above. Both arms
/// weigh on fresh handles (ad-hoc filters are never pooled): this group
/// compares the scatter *structures* at equal (cold) weighing cost.
fn bench_batch_two_phase(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(19);
    let mut group = c.benchmark_group("batch-two-phase-32");
    group.sample_size(10);
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        let filters: Vec<_> = (0..32)
            .map(|_| {
                let keys = uniform_set(&mut rng, occ.len() as u64, 200);
                engine.store(keys.into_iter().map(|i| occ[i as usize]))
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("two-phase", shards), &shards, |b, _| {
            b.iter(|| engine.query_batch(&filters, 17, 0))
        });
        group.bench_with_input(BenchmarkId::new("one-phase", shards), &shards, |b, _| {
            b.iter(|| one_phase_batch(&engine, &filters, 17))
        });
    }
    group.finish();
}

/// Repeated 32-slot `query_batch_ids` batches over 32 stored sets on the
/// engine's pooled handles vs the cold two-phase path (pool cleared
/// before every batch): a warm batch reads `S × 32` memoized weights and
/// samples the 32 chosen cells on warm descent memos, instead of
/// re-walking every (shard, slot) weighing from scratch. A third variant
/// mutates the occupancy between batches, so the mutated shard's 32
/// handles repair their memos through the mutation journal before
/// serving (the stale-repair path).
fn bench_batch_warm_cache(c: &mut Criterion) {
    let occ = occupancy();
    let mut rng = rng_for(23);
    let mut group = c.benchmark_group("batch-warm-cache");
    group.sample_size(10);
    for shards in SHARD_COUNTS {
        let engine = build_sharded(shards);
        let ids: Vec<_> = (0..32)
            .map(|_| {
                let keys = uniform_set(&mut rng, occ.len() as u64, 200);
                engine
                    .create(keys.into_iter().map(|i| occ[i as usize]))
                    .expect("create")
            })
            .collect();
        // Cold: the two-phase path on fresh handles (pool cleared before
        // every batch).
        group.bench_with_input(
            BenchmarkId::new("cold-two-phase", shards),
            &shards,
            |b, _| {
                b.iter(|| {
                    engine.clear_handle_pool();
                    engine.query_batch_ids(&ids, 17, 0)
                })
            },
        );
        // Warm: pool primed — repeated identical batches weigh from the
        // handle memos.
        engine.query_batch_ids(&ids, 17, 0);
        group.bench_with_input(BenchmarkId::new("warm-cached", shards), &shards, |b, _| {
            b.iter(|| engine.query_batch_ids(&ids, 17, 0))
        });
        // Warm + churn: an occupancy toggle between batches forces the
        // journal-repair path on the mutated shard's 32 cells.
        group.bench_with_input(
            BenchmarkId::new("warm-repaired", shards),
            &shards,
            |b, _| {
                let mut key = 1u64;
                b.iter(|| {
                    engine.insert_occupied(key).expect("insert");
                    engine.remove_occupied(key).expect("remove");
                    key = (key + 4) % NAMESPACE;
                    engine.query_batch_ids(&ids, 17, 0)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sample_scaling,
    bench_reconstruct_scaling,
    bench_batch_fanout,
    bench_occupancy_invalidation,
    bench_weight_delta,
    bench_batch_two_phase,
    bench_batch_warm_cache
);
criterion_main!(benches);
