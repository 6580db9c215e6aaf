//! End-to-end observability tests: every number the server exposes —
//! StatsReply engine totals, handle-pool counters, latency-row counts,
//! and the METRICS text page — must equal ground truth computed by
//! replaying the same wire workload on an independent in-process
//! replica of the engine.
//!
//! The replica is rebuilt from a snapshot taken before any wire query,
//! so both sides start from bit-identical state with cold caches; every
//! wire request is then mirrored in the same order, and equality is
//! exact, not statistical.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bst_core::store::FilterId;
use bst_core::OpStats;
use bst_server::client::Client;
use bst_server::protocol::Target;
use bst_server::server::{serve, ServerConfig, ServerHandle};
use bst_server::stats::OpClass;
use bst_shard::ShardedBstSystem;

/// A served engine plus a clone of it for in-process reference access.
fn spawn(namespace: u64, shards: usize, cfg: ServerConfig) -> (ServerHandle, ShardedBstSystem) {
    let engine = ShardedBstSystem::builder(namespace)
        .shards(shards)
        .expected_set_size((namespace / 8).max(8))
        .seed(7)
        .build();
    let reference = engine.clone();
    let handle = serve(engine, "127.0.0.1:0", cfg).expect("bind ephemeral port");
    (handle, reference)
}

fn member_keys(n: u64, namespace: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 97 + 13) % namespace).collect()
}

fn add(total: &mut OpStats, delta: OpStats) {
    total.intersections += delta.intersections;
    total.memberships += delta.memberships;
    total.nodes_visited += delta.nodes_visited;
    total.backtracks += delta.backtracks;
}

#[test]
fn every_exposed_metric_equals_ground_truth_replay() {
    const SAMPLES: u64 = 57;
    const BATCH_SLOTS: usize = 8;
    let (mut handle, reference) = spawn(4_096, 4, ServerConfig::default());
    let set_keys = member_keys(250, 4_096);
    let set = reference.create(set_keys.iter().copied()).unwrap().raw();

    // Snapshot *before* any query: the replica starts from the same
    // state the server's first query sees, with an equally empty handle
    // pool — so replayed OpStats and pool outcomes match exactly.
    let replica = ShardedBstSystem::from_bytes(&reference.to_bytes()).unwrap();

    let mut client = Client::connect(handle.addr()).expect("connect");
    let wire_samples: Vec<u64> = (0..SAMPLES)
        .map(|seed| client.sample(Target::Stored(set), seed).expect("sample"))
        .collect();
    let wire_batch = client
        .batch(vec![Target::Stored(set); BATCH_SLOTS], 99)
        .expect("batch");

    // Ground truth: mirror the workload on the replica, through its
    // handle pool exactly as the server's SAMPLE arm does (opened on the
    // first request, warm after — and still warm for the batch).
    let mut expect = OpStats::new();
    for (seed, &wire_key) in wire_samples.iter().enumerate() {
        let local = replica.pooled_query_id(FilterId::from_raw(set)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed as u64);
        assert_eq!(local.sample(&mut rng).unwrap(), wire_key, "draw {seed}");
        add(&mut expect, local.take_stats());
    }
    let ids = vec![FilterId::from_raw(set); BATCH_SLOTS];
    let (local_batch, batch_stats) = replica.query_batch_ids(&ids, 99, 0);
    add(&mut expect, batch_stats);
    for (slot, (wire, local)) in wire_batch.iter().zip(&local_batch).enumerate() {
        assert_eq!(
            wire.as_ref().ok(),
            local.as_ref().ok(),
            "batch slot {slot} diverged"
        );
    }
    let pool = replica.handle_pool_stats();
    assert_eq!(
        (pool.hits, pool.misses),
        (SAMPLES - 1 + BATCH_SLOTS as u64, 1)
    );

    // STATS surface: cumulative engine OpStats and handle-pool outcomes
    // (in the weight-cache fields) must equal the ground truth exactly.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.engine_intersections, expect.intersections);
    assert_eq!(stats.engine_memberships, expect.memberships);
    assert_eq!(stats.engine_nodes_visited, expect.nodes_visited);
    assert_eq!(stats.engine_backtracks, expect.backtracks);
    assert_eq!(stats.weight_cache_hits, pool.hits);
    assert_eq!(stats.weight_cache_misses, pool.misses);
    assert_eq!(stats.weight_cache_repairs, 0);
    let sample_row = stats
        .ops
        .iter()
        .find(|row| row.op == OpClass::Sample.tag())
        .expect("sample latency row");
    assert_eq!(sample_row.count, SAMPLES, "one histogram entry per draw");

    // METRICS page: well-formed, and the same numbers again as text.
    let text = client.metrics().expect("metrics");
    let series = bst_obs::expo::validate(&text).expect("page must validate");
    assert!(series > 0);
    for line in [
        format!("bst_server_request_latency_us_count{{op=\"sample\"}} {SAMPLES}"),
        "bst_server_request_latency_us_count{op=\"batch\"} 1".to_string(),
        format!(
            "bst_engine_ops_total{{kind=\"intersections\"}} {}",
            expect.intersections
        ),
        format!(
            "bst_engine_ops_total{{kind=\"memberships\"}} {}",
            expect.memberships
        ),
        format!(
            "bst_engine_ops_total{{kind=\"nodes_visited\"}} {}",
            expect.nodes_visited
        ),
        format!(
            "bst_engine_ops_total{{kind=\"backtracks\"}} {}",
            expect.backtracks
        ),
        format!(
            "bst_engine_handle_pool_total{{kind=\"hits\"}} {}",
            pool.hits
        ),
        format!(
            "bst_engine_handle_pool_total{{kind=\"misses\"}} {}",
            pool.misses
        ),
        "bst_engine_handle_pool_handles 1".to_string(),
        "bst_engine_batches_total 1".to_string(),
        "bst_engine_namespace 4096".to_string(),
        "bst_engine_sets 1".to_string(),
        "bst_server_active_connections 1".to_string(),
        "bst_server_frame_errors_total 0".to_string(),
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "metrics page missing `{line}`\n--- page ---\n{text}"
        );
    }

    // Trace ring: core sample spans and the shard batch span landed.
    let spans = handle.state().trace_dump();
    assert!(spans.iter().any(|s| s.name == "bst.core.sample"));
    let batch_span = spans
        .iter()
        .rev()
        .find(|s| s.name == "bst.shard.batch")
        .expect("batch span recorded");
    let attr = |k: &str| {
        batch_span
            .attrs
            .iter()
            .find(|(name, _)| *name == k)
            .map(|(_, v)| *v)
    };
    assert_eq!(attr("slots"), Some(BATCH_SLOTS as u64));

    handle.shutdown();
}

#[test]
fn observability_follows_engine_across_wire_load() {
    let (mut handle, reference) = spawn(1_024, 2, ServerConfig::default());
    let set = reference
        .create(member_keys(64, 1_024).iter().copied())
        .unwrap()
        .raw();

    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .batch(vec![Target::Stored(set); 4], 5)
        .expect("batch");
    let before = client.stats().expect("stats");
    assert!(before.engine_nodes_visited > 0);

    // Swap the engine through the wire. The replacement must be
    // re-instrumented: batch spans keep landing in the same ring and
    // the batch counter keeps counting.
    let snapshot = client.save().expect("save");
    client.load(snapshot).expect("load");
    client
        .batch(vec![Target::Stored(set); 4], 6)
        .expect("batch");
    client.sample(Target::Stored(set), 7).expect("sample");

    let after = client.stats().expect("stats");
    assert!(
        after.engine_nodes_visited > before.engine_nodes_visited,
        "engine totals must accumulate across LOAD"
    );
    // Pool counters read through the *current* engine, which is freshly
    // loaded: the post-load batch opens a cold handle, the sample reuses
    // it.
    assert_eq!((after.weight_cache_hits, after.weight_cache_misses), (4, 1));

    let text = client.metrics().expect("metrics");
    bst_obs::expo::validate(&text).expect("page must validate");
    assert!(
        text.lines().any(|l| l == "bst_engine_batches_total 2"),
        "batch counter must survive the engine swap\n{text}"
    );

    let spans = handle.state().trace_dump();
    assert!(
        spans.iter().filter(|s| s.name == "bst.shard.batch").count() >= 2,
        "post-load batch must still trace into the server's ring"
    );

    handle.shutdown();
}
