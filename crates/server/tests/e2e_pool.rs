//! End-to-end tests of the engine's warm-handle pool over real sockets:
//! one bounded pool of stored-set handles shared by every connection,
//! warm state handed from one connection to the next with no change in
//! any draw, ad-hoc traffic that never touches the pool, and dropped
//! sets leaving the pool.
//!
//! The engine is `Clone` over an `Arc`, so each test keeps a handle on
//! the very engine being served and reads its pool directly.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bst_bloom::filter::BloomFilter;
use bst_core::store::FilterId;
use bst_server::client::{Client, ClientError};
use bst_server::protocol::{Target, WireError};
use bst_server::server::{serve, ServerConfig, ServerHandle};
use bst_shard::{ShardedBstSystem, HANDLE_POOL_CAP};

/// A served engine plus a clone of it for in-process reference access.
fn spawn(namespace: u64, shards: usize) -> (ServerHandle, ShardedBstSystem) {
    let engine = ShardedBstSystem::builder(namespace)
        .shards(shards)
        .expected_set_size(64)
        .seed(11)
        .build();
    let reference = engine.clone();
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    (handle, reference)
}

#[test]
fn connections_share_one_bounded_pool() {
    const CLIENTS: u64 = 3;
    let (mut handle, reference) = spawn(8_192, 4);
    let sets: Vec<u64> = (0..HANDLE_POOL_CAP as u64 + 36)
        .map(|i| {
            let keys = (0..40u64).map(|j| (i * 61 + j * 89) % 8_192);
            reference.create(keys).expect("create").raw()
        })
        .collect();
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let sets = &sets;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Each client walks every id from its own offset, so
                // the connections keep opening, sharing and evicting.
                for round in 0..2 {
                    for i in 0..sets.len() {
                        let id = sets[(i + c as usize * 37) % sets.len()];
                        client
                            .sample(Target::Stored(id), round * 1_000 + i as u64)
                            .expect("sample");
                        let held = reference.handle_pool_stats().handles;
                        assert!(held <= HANDLE_POOL_CAP, "pool grew to {held}");
                    }
                }
            });
        }
    });
    let stats = reference.handle_pool_stats();
    assert_eq!(stats.handles, HANDLE_POOL_CAP);
    assert_eq!(
        stats.hits + stats.misses,
        CLIENTS * 2 * sets.len() as u64,
        "one pool lookup per SAMPLE"
    );
    let mut client = Client::connect(addr).expect("connect");
    let text = client.metrics().expect("metrics");
    let line = format!("bst_engine_handle_pool_handles {HANDLE_POOL_CAP}");
    assert!(text.lines().any(|l| l == line), "missing `{line}`:\n{text}");
    handle.shutdown();
}

#[test]
fn a_handle_warmed_by_one_connection_serves_another_bit_identically() {
    let (mut handle, reference) = spawn(4_096, 4);
    let set = reference
        .create((0..300u64).map(|i| i * 13 % 4_096))
        .expect("create")
        .raw();
    // A cold in-process answer, on a handle outside the pool.
    let cold = |seed: u64| {
        reference
            .query_id(FilterId::from_raw(set))
            .expect("open")
            .sample(&mut StdRng::seed_from_u64(seed))
            .expect("sample")
    };

    let mut warmer = Client::connect(handle.addr()).expect("connect");
    let mut other = Client::connect(handle.addr()).expect("connect");
    assert_eq!(
        warmer.sample(Target::Stored(set), 42).expect("sample"),
        cold(42)
    );
    let before = other.stats().expect("stats");
    // The second connection's first SAMPLE finds the pooled handle warm:
    // the weights are memo reads and the descent is cached, so it
    // drains no intersections — and draws what a cold handle draws.
    assert_eq!(
        other.sample(Target::Stored(set), 42).expect("sample"),
        cold(42)
    );
    let after = other.stats().expect("stats");
    assert_eq!(after.engine_intersections, before.engine_intersections);
    assert_eq!(after.weight_cache_hits, before.weight_cache_hits + 1);
    assert_eq!(after.weight_cache_misses, before.weight_cache_misses);
    for seed in 0..32 {
        assert_eq!(
            other.sample(Target::Stored(set), seed).expect("sample"),
            cold(seed),
            "seed {seed}"
        );
    }
    handle.shutdown();
}

#[test]
fn drop_set_from_another_connection_evicts_the_pooled_handle() {
    let (mut handle, reference) = spawn(4_096, 2);
    let mut reader = Client::connect(handle.addr()).expect("connect");
    let mut writer = Client::connect(handle.addr()).expect("connect");
    let kept = reader.create((0..50u64).collect()).expect("create");
    let doomed = reader.create((100..150u64).collect()).expect("create");
    reader.sample(Target::Stored(kept), 1).expect("sample");
    reader.sample(Target::Stored(doomed), 1).expect("sample");
    assert_eq!(reference.handle_pool_stats().handles, 2);

    writer.drop_set(doomed).expect("drop");
    assert_eq!(reference.handle_pool_stats().handles, 1);
    match reader.sample(Target::Stored(doomed), 2) {
        Err(ClientError::Wire(WireError::UnknownFilterId { raw })) => assert_eq!(raw, doomed),
        other => panic!("expected UnknownFilterId, got {other:?}"),
    }
    assert_eq!(
        reference.handle_pool_stats().handles,
        1,
        "an unknown id is not pooled"
    );
    reader
        .sample(Target::Stored(kept), 2)
        .expect("kept set still served");
    handle.shutdown();
}

#[test]
fn ad_hoc_traffic_leaves_warm_stored_handles_resident() {
    const SETS: u64 = 32;
    let (mut handle, reference) = spawn(8_192, 4);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let sets: Vec<u64> = (0..SETS)
        .map(|i| {
            let keys = (0..60u64).map(|j| (i * 131 + j * 37) % 8_192).collect();
            client.create(keys).expect("create")
        })
        .collect();
    let cold_stored = |set: u64, seed: u64| {
        reference
            .query_id(FilterId::from_raw(set))
            .expect("open")
            .sample(&mut StdRng::seed_from_u64(seed))
            .expect("sample")
    };
    let sample_all = |client: &mut Client, seed: u64| {
        for &set in &sets {
            let wire = client.sample(Target::Stored(set), seed).expect("sample");
            assert_eq!(wire, cold_stored(set, seed), "set {set}");
        }
    };
    sample_all(&mut client, 1);
    let warmed = client.stats().expect("stats");

    // More ad-hoc filters than the pool holds: 4 batches of 16, one
    // SAMPLE and one RECONSTRUCT, each equal to a cold in-process answer.
    let filter = |i: u64| -> BloomFilter {
        reference.store((0..40u64).map(move |j| (i * 211 + j * 53) % 8_192))
    };
    for b in 0..4u64 {
        let filters: Vec<BloomFilter> = (0..16).map(|i| filter(b * 16 + i)).collect();
        let targets = filters.iter().map(Target::adhoc).collect();
        let wire = client.batch(targets, 500 + b).expect("batch");
        let (cold, _) = reference.query_batch(&filters, 500 + b, 1);
        let cold: Vec<_> = cold
            .into_iter()
            .map(|r| r.map_err(WireError::from))
            .collect();
        assert_eq!(wire, cold, "batch {b}");
    }
    let lone = filter(64);
    assert_eq!(
        client.sample(Target::adhoc(&lone), 7).expect("sample"),
        reference
            .query(&lone)
            .sample(&mut StdRng::seed_from_u64(7))
            .expect("sample")
    );
    assert_eq!(
        client
            .reconstruct(Target::adhoc(&lone))
            .expect("reconstruct"),
        reference.query(&lone).reconstruct().expect("reconstruct")
    );
    let after_adhoc = client.stats().expect("stats");

    sample_all(&mut client, 2);
    let resampled = client.stats().expect("stats");
    assert_eq!(
        (
            resampled.weight_cache_hits - after_adhoc.weight_cache_hits,
            resampled.weight_cache_misses - after_adhoc.weight_cache_misses,
        ),
        (SETS, 0),
        "every stored handle survived the ad-hoc traffic"
    );
    assert_eq!(
        (
            after_adhoc.weight_cache_hits,
            after_adhoc.weight_cache_misses
        ),
        (warmed.weight_cache_hits, warmed.weight_cache_misses),
        "ad-hoc requests make no pool lookups"
    );
    assert_eq!(reference.handle_pool_stats().handles, SETS as usize);
    handle.shutdown();
}

#[test]
fn a_set_dropped_while_being_pooled_leaves_no_handle() {
    const READERS: usize = 3;
    let engine = ShardedBstSystem::builder(8_192)
        .shards(4)
        .expected_set_size(500)
        .seed(11)
        .build();
    for round in 0..500u64 {
        let id = engine
            .create((0..500u64).map(|j| (round * 7 + j * 13) % 8_192))
            .expect("create");
        let start = std::sync::Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    // Bounded: a handle left pooled on the dropped set
                    // would keep answering the lookup.
                    for _ in 0..10_000 {
                        if engine.pooled_query_id(id).is_err() {
                            break;
                        }
                    }
                });
            }
            start.wait();
            for _ in 0..round % 8 {
                std::thread::yield_now();
            }
            engine.drop_set(id).expect("drop");
        });
        assert_eq!(
            engine.handle_pool_stats().handles,
            0,
            "round {round}: the dropped set stayed pooled"
        );
    }
}
