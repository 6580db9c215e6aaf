//! The mutable filter database: store mutation throughput, the cost of a
//! generation-stamp check on the hot sampling path, the refresh penalty a
//! mutation imposes on an open handle, the key projection that refresh
//! runs, and whole-system snapshot encode/decode throughput.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bench::common::rng_for;
use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::{BloomHasher, HashKind};
use bst_core::system::BstSystem;
use bst_workloads::querysets::uniform_set;

const NAMESPACE: u64 = 100_000;

fn build_system() -> BstSystem {
    BstSystem::builder(NAMESPACE)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(1)
        .build()
}

/// Warm-handle sampling, detached vs store-backed: the stamp check a
/// `query_id` handle pays per operation is one store read-lock + integer
/// compare, and this pair of benches prices it.
fn bench_stamp_check_overhead(c: &mut Criterion) {
    let system = build_system();
    let mut rng = rng_for(3);
    let keys = uniform_set(&mut rng, NAMESPACE, 1000);

    let mut group = c.benchmark_group("warm-sample");
    let filter = system.store(keys.iter().copied());
    group.bench_function("detached-handle", |b| {
        let query = system.query(&filter);
        let mut rng = rng_for(7);
        b.iter(|| query.sample(&mut rng))
    });
    let id = system.create(keys.iter().copied()).expect("create");
    group.bench_function("stored-handle", |b| {
        let query = system.query_id(id).expect("open");
        let mut rng = rng_for(7);
        b.iter(|| query.sample(&mut rng))
    });
    group.finish();
}

/// One mutation + the stale handle's next operation: the full
/// invalidation round-trip (bump, re-projection, cold re-descent).
fn bench_mutation_refresh(c: &mut Criterion) {
    let system = build_system();
    let mut rng = rng_for(5);
    let keys = uniform_set(&mut rng, NAMESPACE, 1000);
    let id = system.create(keys.iter().copied()).expect("create");

    let mut group = c.benchmark_group("mutate-then-sample");
    group.bench_function("insert+stale-refresh", |b| {
        let query = system.query_id(id).expect("open");
        let mut rng = rng_for(11);
        let mut key = 0u64;
        b.iter(|| {
            key = (key + 1) % NAMESPACE;
            system.insert_keys(id, [key]).expect("insert");
            query.sample(&mut rng)
        })
    });
    group.bench_function("mutation-only", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key = (key + 1) % NAMESPACE;
            system.insert_keys(id, [key]).expect("insert")
        })
    });
    group.finish();
}

/// The projection a stale handle's refresh runs under the store read
/// lock: a stored set's keys to plain bits. The plan matches one shard of
/// the service benchmark (m = 61,865, k = 3) holding its 250-key share of
/// a 1000-key set.
fn bench_key_projection(c: &mut Criterion) {
    let hasher = Arc::new(BloomHasher::new(HashKind::Murmur3, 3, 61_865, 1 << 18, 1));
    let mut rng = rng_for(17);
    let mut keys = uniform_set(&mut rng, 1 << 18, 250);
    keys.sort_unstable();

    let mut group = c.benchmark_group("key-projection");
    group.bench_function("from_keys/m61865-k3-250keys", |b| {
        b.iter(|| BloomFilter::from_keys(Arc::clone(&hasher), keys.iter().copied()))
    });
    group.finish();
}

/// Whole-system snapshot encode/decode at growing store sizes.
fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("system-snapshot");
    group.sample_size(10);
    for sets in [1usize, 32] {
        let system = build_system();
        let mut rng = rng_for(13);
        for _ in 0..sets {
            let keys = uniform_set(&mut rng, NAMESPACE, 500);
            system.create(keys.iter().copied()).expect("create");
        }
        let bytes = system.to_bytes();
        group.bench_with_input(BenchmarkId::new("to_bytes", sets), &sets, |b, _| {
            b.iter(|| system.to_bytes())
        });
        group.bench_with_input(BenchmarkId::new("from_bytes", sets), &sets, |b, _| {
            b.iter(|| BstSystem::from_bytes(&bytes).expect("decode"))
        });
        println!(
            "snapshot-size/{sets}-sets: {:.2} MB",
            bytes.len() as f64 / 1e6
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stamp_check_overhead,
    bench_mutation_refresh,
    bench_key_projection,
    bench_snapshot
);
criterion_main!(benches);
