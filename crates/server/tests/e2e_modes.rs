//! Mode parity: a server without a WAL and a server with one serve the
//! same engine through the same store type, so one request script must
//! produce identical reply streams against both — mutations, seeded
//! draws, SAVE, and LOAD included. Also pins LOAD's single swap under
//! concurrent CREATEs without a WAL: once LOAD acks, every CREATE acked
//! afterwards is visible to other connections.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use bst_core::wal::FsyncPolicy;
use bst_server::client::Client;
use bst_server::protocol::{Request, Response, Target};
use bst_server::server::{serve, serve_durable, ServerConfig, ServerHandle};
use bst_shard::{DurableBstSystem, DurableConfig, ShardedBstSystem};

const NAMESPACE: u64 = 4_096;

fn build_engine() -> ShardedBstSystem {
    ShardedBstSystem::builder(NAMESPACE)
        .shards(3)
        .expected_set_size(64)
        .seed(5)
        .build()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bst-e2e-modes-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_plain() -> ServerHandle {
    serve(build_engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind")
}

fn serve_logged(dir: &std::path::Path) -> ServerHandle {
    let store = DurableBstSystem::open(
        dir,
        DurableConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        },
        build_engine,
    )
    .expect("open wal dir");
    serve_durable(store, "127.0.0.1:0", ServerConfig::default()).expect("bind")
}

fn keys(base: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| (base + i * 37) % NAMESPACE).collect()
}

/// Runs the parity script against the server at `handle` and returns
/// every reply, errors rendered as text.
fn run_script(handle: &ServerHandle) -> Vec<Result<Response, String>> {
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut replies = Vec::new();
    let mut send = |req: Request| {
        let reply = client.request(&req).map_err(|e| e.to_string());
        replies.push(reply.clone());
        reply
    };
    // An ad-hoc filter from an identically built engine: same plan,
    // so it is compatible with both served engines.
    let adhoc = Target::adhoc(&build_engine().store(keys(900, 40)));
    let a = match send(Request::Create { keys: keys(1, 50) }) {
        Ok(Response::Created { id }) => id,
        other => panic!("CREATE answered {other:?}"),
    };
    let b = match send(Request::Create {
        keys: keys(400, 30),
    }) {
        Ok(Response::Created { id }) => id,
        other => panic!("CREATE answered {other:?}"),
    };
    send(Request::InsertKeys {
        id: a,
        keys: keys(2_000, 10),
    })
    .expect("INSERT_KEYS");
    send(Request::RemoveKeys {
        id: a,
        keys: keys(1, 5),
    })
    .expect("REMOVE_KEYS");
    send(Request::OccRemove { key: 38 }).expect("OCC_REMOVE");
    send(Request::OccInsert { key: 38 }).expect("OCC_INSERT");
    send(Request::DropSet { id: b }).expect("DROP_SET");
    // Rejections must match too.
    let _ = send(Request::InsertKeys {
        id: 999,
        keys: vec![1],
    });
    let _ = send(Request::DropSet { id: b });

    let queries = |a: u64, b: u64| {
        vec![
            Request::Sample {
                target: Target::Stored(a),
                seed: 41,
            },
            Request::SampleMany {
                target: Target::Stored(a),
                r: 16,
                seed: 42,
            },
            Request::Sample {
                target: adhoc.clone(),
                seed: 43,
            },
            Request::Reconstruct {
                target: Target::Stored(a),
            },
            Request::Batch {
                targets: vec![
                    Target::Stored(a),
                    adhoc.clone(),
                    Target::Stored(b),
                    Target::Adhoc(vec![1, 2, 3]),
                ],
                seed: 44,
            },
            Request::Get { id: a },
            Request::ListSets,
        ]
    };
    for req in queries(a, b) {
        let _ = send(req);
    }
    let snapshot = match send(Request::Save) {
        Ok(Response::Snapshot { bytes }) => bytes,
        other => panic!("SAVE answered {other:?}"),
    };
    // A set created after the snapshot must vanish with LOAD.
    send(Request::Create { keys: keys(7, 20) }).expect("CREATE after SAVE");
    assert_eq!(send(Request::Load { bytes: snapshot }), Ok(Response::Ok));
    for req in queries(a, b) {
        let _ = send(req);
    }
    replies
}

#[test]
fn one_script_answers_identically_with_and_without_a_wal() {
    let plain = serve_plain();
    let plain_replies = run_script(&plain);
    let dir = scratch_dir("parity");
    let logged = serve_logged(&dir);
    let logged_replies = run_script(&logged);
    assert!(plain.state().durable().is_none());
    assert!(logged.state().durable().is_some());
    assert_eq!(plain_replies.len(), logged_replies.len());
    for (i, (p, l)) in plain_replies.iter().zip(&logged_replies).enumerate() {
        assert_eq!(p, l, "reply {i} differs between modes");
    }
    // The script is not vacuous: seeded draws answered in both modes.
    let draws = plain_replies
        .iter()
        .filter(|r| matches!(r, Ok(Response::Sampled { .. })))
        .count();
    assert_eq!(draws, 4);
    drop(logged);
    let _ = std::fs::remove_dir_all(&dir);
}

/// LOAD swaps the engine under the epoch write lock without a WAL too:
/// CREATEs racing a LOAD may land before the swap (and vanish with it),
/// but every CREATE sent after LOAD acked is visible to GET and
/// LIST_SETS on another connection.
#[test]
fn creates_acked_after_load_are_visible_without_a_wal() {
    const ROUNDS: usize = 12;
    const CREATORS: usize = 2;
    let handle = serve_plain();
    let addr = handle.addr();
    let snapshot = Client::connect(addr)
        .and_then(|mut c| c.save())
        .expect("save");
    let mut checker = Client::connect(addr).expect("connect checker");
    for round in 0..ROUNDS {
        let start = Barrier::new(CREATORS + 1);
        let loaded = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let after_load: Mutex<Vec<(u64, Vec<u64>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for c in 0..CREATORS {
                let (start, loaded, stop, after_load) = (&start, &loaded, &stop, &after_load);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect creator");
                    start.wait();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let sent_after_load = loaded.load(Ordering::Acquire);
                        let base = (round * 1_000 + c * 500) as u64 + i * 3;
                        let set = keys(base, 8);
                        let id = client.create(set.clone()).expect("create");
                        if sent_after_load {
                            after_load.lock().unwrap().push((id, set));
                        }
                        i += 1;
                    }
                });
            }
            let mut loader = Client::connect(addr).expect("connect loader");
            // Released together: the LOAD races the creators' first CREATEs.
            start.wait();
            loader.load(snapshot.clone()).expect("load");
            loaded.store(true, Ordering::Release);
            while after_load.lock().unwrap().len() < 2 * CREATORS {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });
        let after_load = after_load.into_inner().unwrap();
        let listed = checker.list_sets().expect("list sets");
        for (id, set) in &after_load {
            assert!(listed.contains(id), "round {round}: set {id} not listed");
            let filter = checker.get_filter(*id).expect("get acked set");
            assert!(
                set.iter().all(|&k| filter.contains(k)),
                "round {round}: set {id} answered another set's filter"
            );
        }
    }
}
