//! End-to-end durability over a real socket: SAVE is a checkpoint,
//! LOAD with an empty body is recovery from disk, acked mutations
//! survive a server restart from the WAL directory, the METRICS page
//! carries the WAL series, and shutdown latency stays bounded.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bst_core::wal::FsyncPolicy;
use bst_server::client::{Client, ClientError};
use bst_server::protocol::{Target, WireError};
use bst_server::server::{serve, serve_durable, ServerConfig, ServerHandle};
use bst_shard::{DurableBstSystem, DurableConfig, ShardedBstSystem};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bst-e2e-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const NAMESPACE: u64 = 4_096;

fn build_engine() -> ShardedBstSystem {
    ShardedBstSystem::builder(NAMESPACE)
        .shards(3)
        .expected_set_size(64)
        .seed(11)
        .build()
}

fn open_durable(dir: &Path) -> DurableBstSystem {
    DurableBstSystem::open(
        dir,
        DurableConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        },
        build_engine,
    )
    .expect("open durable dir")
}

fn spawn_durable(dir: &Path) -> ServerHandle {
    serve_durable(open_durable(dir), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port")
}

/// SAVE-as-checkpoint and LOAD-as-recovery while other clients keep
/// mutating: recovery preserves every acked mutation (the log replays
/// them), sessions survive the epoch bump, and after a clean shutdown
/// the WAL directory alone reproduces the served state.
#[test]
fn save_checkpoints_and_empty_load_recovers_under_concurrent_traffic() {
    const WORKERS: usize = 3;
    const ROUNDS: usize = 40;
    let dir = scratch_dir("traffic");
    let mut handle = spawn_durable(&dir);
    let addr = handle.addr();

    std::thread::scope(|scope| {
        // Worker clients: create, churn keys, and sample continuously.
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut ids = Vec::new();
                    for i in 0..ROUNDS {
                        let base = (w * 1_000 + i * 17) as u64;
                        let keys: Vec<u64> =
                            (0..20u64).map(|j| (base + j * 13) % NAMESPACE).collect();
                        let id = client.create(keys.clone()).expect("create");
                        ids.push((id, keys));
                        client
                            .insert_keys(id, vec![base % NAMESPACE])
                            .expect("insert");
                        let (id, _) = &ids[i / 2];
                        client
                            .sample(Target::Stored(*id), base)
                            .expect("sample under churn");
                    }
                    ids
                })
            })
            .collect();

        // Meanwhile: checkpoints and disk recoveries from a separate
        // client. Empty-body LOAD = recover from disk; every mutation
        // acked before the recovery is preserved by log replay.
        let mut admin = Client::connect(addr).expect("connect admin");
        for round in 0..10 {
            let snapshot = admin.save().expect("save");
            assert!(!snapshot.is_empty());
            admin.load(Vec::new()).expect("empty load = recover");
            let _ = round;
        }

        let all_ids: Vec<(u64, Vec<u64>)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker"))
            .collect();

        // Traffic done: every acked set is still fully reconstructable
        // after the mid-traffic recoveries.
        for (id, keys) in &all_ids {
            let got = admin
                .reconstruct(Target::Stored(*id))
                .expect("reconstruct after recoveries");
            let mut want = keys.clone();
            want.sort_unstable();
            want.dedup();
            for k in &want {
                assert!(got.binary_search(k).is_ok(), "set {id} lost member {k}");
            }
        }

        // Epoch advanced once per recovery.
        let stats = admin.stats().expect("stats");
        assert_eq!(stats.epoch, 10);
        assert_eq!(stats.sets as usize, all_ids.len());

        // WAL series are on the METRICS page, and recovery really
        // replayed a tail (mutations landed after the last checkpoint).
        let page = admin.metrics().expect("metrics");
        for series in [
            "bst_wal_records_total",
            "bst_wal_fsyncs_total",
            "bst_wal_replayed_records",
            "bst_wal_torn_tail_bytes",
            "bst_wal_checkpoints_total",
            "bst_wal_last_checkpoint_us",
            "bst_wal_last_checkpoint_stall_us",
            "bst_wal_log_bytes",
        ] {
            assert!(page.contains(series), "metrics page lacks {series}");
        }

        // Quiesce with a final checkpoint, remember the exact state.
        let final_snapshot = admin.save().expect("final save");
        drop(admin);
        handle.shutdown();

        // The WAL directory alone reproduces the served state.
        let reopened = open_durable(&dir);
        assert_eq!(reopened.system().to_bytes(), final_snapshot);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// LOAD with an explicit snapshot body adopts it as the new durable
/// state: post-snapshot sets vanish, and the adoption is itself
/// durable — a restart from the directory serves the adopted state.
#[test]
fn explicit_load_adopts_snapshot_durably() {
    let dir = scratch_dir("adopt");
    let mut handle = spawn_durable(&dir);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let keep = client.create(vec![1, 2, 3]).expect("create keep");
    let snapshot = client.save().expect("save");
    let doomed = client.create(vec![7, 8, 9]).expect("create doomed");

    client.load(snapshot.clone()).expect("adopt snapshot");
    assert!(
        matches!(
            client.reconstruct(Target::Stored(doomed)),
            Err(ClientError::Wire(WireError::UnknownFilterId { .. }))
        ),
        "post-snapshot set must vanish after adoption"
    );
    assert_eq!(
        client.reconstruct(Target::Stored(keep)).expect("keep"),
        vec![1, 2, 3]
    );

    drop(client);
    handle.shutdown();
    let reopened = open_durable(&dir);
    assert_eq!(reopened.system().to_bytes(), snapshot);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a WAL directory, an empty LOAD body stays an error (there is
/// no disk state to recover), so the durable semantics are opt-in.
#[test]
fn empty_load_without_wal_dir_is_a_typed_error() {
    let handle = serve(build_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(
        matches!(
            client.load(Vec::new()),
            Err(ClientError::Wire(WireError::Persist { .. }))
        ),
        "empty LOAD must fail without a durability layer"
    );
}

/// Wire-initiated shutdown is prompt even when the accept loop has been
/// idle long enough to reach its backoff ceiling: the reply arrives and
/// the whole server (accept loop + workers) stops well inside the old
/// fixed 20ms-per-poll regime's worst case.
#[test]
fn wire_shutdown_latency_is_bounded() {
    let handle = serve(build_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    // Let the accept loop idle so its backoff reaches the ceiling.
    std::thread::sleep(Duration::from_millis(120));
    let started = Instant::now();
    client.shutdown_server().expect("shutdown acked");
    handle.join();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "shutdown took {elapsed:?}, expected < 500ms"
    );
}

/// A connection arriving after a long idle spell is accepted within the
/// backoff ceiling, not a full fixed poll interval.
#[test]
fn post_idle_accept_latency_stays_low() {
    let handle = serve(build_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    // Idle long enough for the accept backoff to max out.
    std::thread::sleep(Duration::from_millis(200));
    let started = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "post-idle connect+ping took {elapsed:?}, expected < 100ms"
    );
}
