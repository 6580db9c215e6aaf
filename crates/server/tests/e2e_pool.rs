//! End-to-end tests of the engine's warm-handle pool over real sockets:
//! one bounded pool shared by every connection, warm state handed from
//! one connection to the next with no change in any draw, and dropped
//! sets leaving the pool.
//!
//! The engine is `Clone` over an `Arc`, so each test keeps a handle on
//! the very engine being served and reads its pool directly.

use rand::rngs::StdRng;
use rand::SeedableRng;

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
