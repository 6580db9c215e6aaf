//! End-to-end tests over a real socket: concurrent clients, wire/warm
//! conformance, snapshot determinism through the protocol, adversarial
//! framing, backpressure, and clean shutdown.
//!
//! The engine is `Clone` over an `Arc`, so tests keep a handle on the
//! very engine being served and compare wire answers against in-process
//! answers **on the same state** — equality here is exact, not
//! statistical, wherever the request carries a seed.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bst_server::client::{Client, ClientError};
use bst_server::frame::write_frame;
use bst_server::protocol::{encode_request, Request, Response, Target, WireError};
use bst_server::server::{serve, ServerConfig, ServerHandle};
use bst_shard::ShardedBstSystem;
use bst_stats::conformance::{chi2_homogeneity, ks_two_sample_ids, DEFAULT_ALPHA};

/// A served engine plus a clone of it for in-process reference answers.
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

#[test]
#[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
fn concurrent_clients_get_warm_wire_samples_identical_to_in_process() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 2_000;
    let (handle, reference) = spawn(4_096, 4, ServerConfig::default());
    let set_keys = member_keys(250, 4_096);
    let set = reference.create(set_keys.iter().copied()).unwrap().raw();
    let addr = handle.addr();

    // Four clients hammer the same stored set concurrently, each with
    // its own seed stream. They share the engine's one pooled handle,
    // warm after the first frame.
    let wire_samples: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (0..ROUNDS)
                        .map(|i| {
                            let seed = (c as u64) * 1_000_000 + i as u64;
                            client.sample(Target::Stored(set), seed).expect("sample")
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Bit-identical: replay every seed on a warm in-process handle.
    let local = reference
        .query_id(bst_core::store::FilterId::from_raw(set))
        .unwrap();
    for (c, samples) in wire_samples.iter().enumerate() {
        for (i, &wire_key) in samples.iter().enumerate() {
            let seed = (c as u64) * 1_000_000 + i as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                local.sample(&mut rng).unwrap(),
                wire_key,
                "client {c}, draw {i}: wire and in-process draws diverged"
            );
        }
    }

    // Distributional: pooled wire draws vs an independent in-process
    // seed stream must be chi²- and KS-indistinguishable.
    let support = local.reconstruct().unwrap();
    let pooled: Vec<u64> = wire_samples.iter().flatten().copied().collect();
    let mut wire_counts = vec![0u64; support.len()];
    for &key in &pooled {
        let slot = support.binary_search(&key).expect("sample outside support");
        wire_counts[slot] += 1;
    }
    let mut local_counts = vec![0u64; support.len()];
    let mut local_pool = Vec::with_capacity(pooled.len());
    for i in 0..pooled.len() {
        let mut rng = StdRng::seed_from_u64(0xFEED_0000 + i as u64);
        let key = local.sample(&mut rng).unwrap();
        local_counts[support.binary_search(&key).unwrap()] += 1;
        local_pool.push(key);
    }
    let chi2 = chi2_homogeneity(&wire_counts, &local_counts);
    assert!(
        chi2.p_value >= DEFAULT_ALPHA,
        "wire vs in-process chi² rejected: {chi2:?}"
    );
    let ks = ks_two_sample_ids(&pooled, &local_pool);
    assert!(
        ks.p_value >= DEFAULT_ALPHA,
        "wire vs in-process KS rejected: {ks:?}"
    );
}

#[test]
fn snapshot_save_load_roundtrips_byte_identically_through_the_protocol() {
    let (handle, reference) = spawn(2_048, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = client.create(member_keys(40, 2_048)).unwrap();
    let b = client.create((100..160u64).collect()).unwrap();
    client.occ_remove(500).unwrap();
    client.occ_remove(501).unwrap();

    let snap1 = client.save().unwrap();
    assert_eq!(
        snap1,
        reference.to_bytes(),
        "wire SAVE equals in-process to_bytes"
    );
    client.load(snap1.clone()).unwrap();
    let snap2 = client.save().unwrap();
    assert_eq!(snap1, snap2, "SAVE → LOAD → SAVE must be byte-identical");

    // The restored engine serves the same sets from its own, fresh
    // handle pool; the epoch moved.
    assert_eq!(client.list_sets().unwrap(), vec![a, b]);
    let key = client.sample(Target::Stored(a), 9).unwrap();
    assert!(key < 2_048);
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.sets, 2);
    assert_eq!(stats.occupied, 2_048 - 2);
}

/// The offset of the first `magic` in `bytes`.
fn find_magic(bytes: &[u8], magic: &[u8; 4]) -> usize {
    bytes
        .windows(4)
        .position(|w| w == magic)
        .expect("magic present")
}

/// `LOAD` carries a client's bytes straight into the tree decoders. Each
/// hostile shard body gets a typed `Persist` verdict, never a panic or
/// an abort, and the served engine is left exactly as it was.
#[test]
fn hostile_tree_snapshots_are_refused_and_the_engine_is_untouched() {
    const NAMESPACE: u64 = 2_048;
    let (handle, _reference) = spawn(NAMESPACE, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(40, NAMESPACE)).unwrap();
    let before = client.save().unwrap();
    let draw = client.sample(Target::Stored(set), 3).unwrap();

    // Shard 0's pruned tree: "BSTP" v | plan (namespace [5..13], k
    // [21..23], depth [32..36]) | version u64 | count u64 | ids from 68.
    let tree = find_magic(&before, b"BSTP");
    let patched = |at: usize, value: &[u8]| {
        let mut bytes = before.clone();
        bytes[tree + at..tree + at + value.len()].copy_from_slice(value);
        bytes
    };
    let count = u64::from_le_bytes(before[tree + 60..tree + 68].try_into().unwrap()) as usize;
    let mut unsorted = before.clone();
    let ids = tree + 68;
    let (a, b) = unsorted[ids..ids + 16].split_at_mut(8);
    a.swap_with_slice(b);
    // Shard 0 as a dense tree whose plan claims a 2^41-id namespace and
    // depth 40: shard trees must be pruned, and the plan check refuses
    // it too. A tree backend is `tag u8 | len u64 | tree bytes`.
    let dense = {
        let system = bst_core::system::BstSystem::builder(NAMESPACE)
            .expected_set_size(NAMESPACE / 8)
            .seed(7)
            .build()
            .to_bytes();
        let backend = |bytes: &[u8], magic: &[u8; 4]| {
            let at = find_magic(bytes, magic);
            let len = u64::from_le_bytes(bytes[at - 8..at].try_into().unwrap()) as usize;
            (at - 9, at + len)
        };
        let (from, to) = backend(&system, b"BSTC");
        let (at, end) = backend(&before, b"BSTP");
        let mut bytes = before[..at].to_vec();
        bytes.extend_from_slice(&system[from..to]);
        bytes.extend_from_slice(&before[end..]);
        let tree = find_magic(&bytes, b"BSTC");
        bytes[tree + 5..tree + 13].copy_from_slice(&(1u64 << 41).to_le_bytes());
        bytes[tree + 32..tree + 36].copy_from_slice(&40u32.to_le_bytes());
        bytes
    };
    let hostile = [
        ("k = 0", patched(21, &0u16.to_le_bytes())),
        // ⌈log₂ 2048⌉ = 11.
        ("depth past log2 M", patched(32, &12u32.to_le_bytes())),
        ("unsorted ids", unsorted),
        (
            "id outside the namespace",
            patched(68 + (count - 1) * 8, &NAMESPACE.to_le_bytes()),
        ),
        ("dense depth 40", dense),
    ];
    for (what, bytes) in hostile {
        let verdict = client.load(bytes);
        assert!(
            matches!(verdict, Err(ClientError::Wire(WireError::Persist { .. }))),
            "{what}: {verdict:?}"
        );
    }

    client.ping().expect("the server still answers");
    assert_eq!(client.sample(Target::Stored(set), 3).unwrap(), draw);
    assert_eq!(client.save().unwrap(), before, "no hostile LOAD landed");
}

/// `LOAD` carries a client's bytes into the store decoder too. A
/// sharded snapshot (since v5) holds each set once, in its one store body; a body
/// with a key past the namespace, a repeated set id, or an id at or past
/// `next_id` gets a typed `Persist` verdict and the served engine is left
/// exactly as it was.
#[test]
fn hostile_store_bodies_are_refused_and_the_engine_is_untouched() {
    const NAMESPACE: u64 = 2_048;
    let (handle, reference) = spawn(NAMESPACE, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(40, NAMESPACE)).unwrap();
    let before = client.save().unwrap();
    let draw = client.sample(Target::Stored(set), 3).unwrap();

    // "BSTH" v | boundaries (4 + 3 × 8) | config | store | 2 × tree.
    let mut config = bytes::BytesMut::new();
    bst_core::persistence::put_config(&mut config, &reference.config());
    let store_at = 5 + 28 + config.len();
    let trees_at = find_magic(&before, b"BSTP") - 9;
    // Store: next_id u64 | count u32 | per set: id u64, one generation
    // u64 per shard, key count u64, keys u64….
    let store = |next_id: u64, sets: &[(u64, &[u64])]| {
        let mut bytes = before[..store_at].to_vec();
        bytes.extend_from_slice(&next_id.to_le_bytes());
        bytes.extend_from_slice(&(sets.len() as u32).to_le_bytes());
        for (id, keys) in sets {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            bytes.extend_from_slice(&(keys.len() as u64).to_le_bytes());
            for key in *keys {
                bytes.extend_from_slice(&key.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&before[trees_at..]);
        bytes
    };
    // The splice itself is sound: the served set's own body restores.
    let keys: Vec<u64> = {
        let mut keys = member_keys(40, NAMESPACE);
        keys.sort_unstable();
        keys
    };
    assert_eq!(store(1, &[(0, &keys)]), before, "the splice matches SAVE");
    let hostile = [
        ("key >= M", store(1, &[(0, &[3, NAMESPACE])])),
        ("duplicate set id", store(2, &[(0, &[3]), (0, &[4])])),
        ("id >= next_id", store(1, &[(1, &[3])])),
    ];
    for (what, bytes) in hostile {
        let verdict = client.load(bytes);
        assert!(
            matches!(verdict, Err(ClientError::Wire(WireError::Persist { .. }))),
            "{what}: {verdict:?}"
        );
    }

    client.ping().expect("the server still answers");
    assert_eq!(client.sample(Target::Stored(set), 3).unwrap(), draw);
    assert_eq!(client.save().unwrap(), before, "no hostile LOAD landed");
}

/// A Simple-family namespace past 2^64 - 59 leaves the affine hash no
/// prime modulus. An ad-hoc `SAMPLE` filter and a `LOAD`ed tree plan that
/// claim one are refused with typed errors before any hash family is
/// built, and the server keeps serving.
#[test]
fn simple_namespaces_past_the_largest_prime_are_refused_typed() {
    const NAMESPACE: u64 = 2_048;
    let (handle, _reference) = spawn(NAMESPACE, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(40, NAMESPACE)).unwrap();
    let before = client.save().unwrap();
    let draw = client.sample(Target::Stored(set), 3).unwrap();

    // Filter codec: namespace u64 at [16..24].
    let filter =
        bst_bloom::BloomFilter::with_params(bst_bloom::HashKind::Simple, 3, 512, NAMESPACE, 7);
    let mut adhoc = bst_bloom::codec::encode(&filter).to_vec();
    adhoc[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    let verdict = client.sample(Target::Adhoc(adhoc), 3);
    assert!(
        matches!(verdict, Err(ClientError::Wire(WireError::Malformed { .. }))),
        "{verdict:?}"
    );

    // Shard 0's plan: namespace at [5..13], kind tag at [23] (0 = Simple).
    let mut plan = before.clone();
    let tree = find_magic(&plan, b"BSTP");
    plan[tree + 5..tree + 13].copy_from_slice(&u64::MAX.to_le_bytes());
    plan[tree + 23] = 0;
    let verdict = client.load(plan);
    assert!(
        matches!(verdict, Err(ClientError::Wire(WireError::Persist { .. }))),
        "{verdict:?}"
    );

    client.ping().expect("the server still answers");
    assert_eq!(client.sample(Target::Stored(set), 3).unwrap(), draw);
    assert_eq!(client.save().unwrap(), before, "the LOAD did not land");
}

/// `LOAD` reaches the plan check. A shard tree whose plan names
/// m = 2^32 bits at full depth for its one id, 21 filters of 512 MiB, is
/// refused typed before any filter is sized, and the next `SAMPLE` is
/// served.
#[test]
fn oversized_tree_plans_are_refused_before_sizing() {
    const NAMESPACE: u64 = 2_048;
    let (handle, _reference) = spawn(NAMESPACE, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(40, NAMESPACE)).unwrap();
    let draw = client.sample(Target::Stored(set), 3).unwrap();

    // One shard over 2^20 ids holding one: the snapshot ends with its
    // tree, `"BSTP" v | plan (m [13..21], depth [32..36]) | version |
    // count | id`, 76 bytes.
    let mut oversized = ShardedBstSystem::builder(1 << 20)
        .shards(1)
        .expected_set_size(50)
        .occupied([12_345u64])
        .build()
        .to_bytes();
    let tree = oversized.len() - 76;
    assert_eq!(&oversized[tree..tree + 4], b"BSTP");
    oversized[tree + 13..tree + 21].copy_from_slice(&(1u64 << 32).to_le_bytes());
    oversized[tree + 32..tree + 36].copy_from_slice(&20u32.to_le_bytes());
    let verdict = client.load(oversized);
    assert!(
        matches!(
            &verdict,
            Err(ClientError::Wire(WireError::Persist { message })) if message.contains("budget")
        ),
        "{verdict:?}"
    );

    assert_eq!(client.sample(Target::Stored(set), 3).unwrap(), draw);
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let cfg = ServerConfig {
        max_frame: 4_096,
        ..ServerConfig::default()
    };
    let (handle, _reference) = spawn(1_024, 2, cfg);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unsupported protocol version.
    let mut bad = bst_server::protocol::encode_request(&Request::Ping);
    bad[0] = 99;
    send_raw(client.stream(), &bad);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::BadVersion { got: 99 }))
    ));

    // Unknown opcode.
    let mut bad = bst_server::protocol::encode_request(&Request::Ping);
    bad[1] = 200;
    send_raw(client.stream(), &bad);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::UnknownOpcode { got: 200 }))
    ));

    // Truncated body.
    let good = bst_server::protocol::encode_request(&Request::Create {
        keys: vec![1, 2, 3],
    });
    send_raw(client.stream(), &good[..good.len() - 4]);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::Malformed { .. }))
    ));

    // Zero-length frame.
    client.stream().write_all(&0u32.to_le_bytes()).unwrap();
    client.stream().flush().unwrap();
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::Malformed { .. }))
    ));

    // Oversized frame: drained, refused with a typed verdict.
    let oversized = vec![0u8; 8_192];
    send_raw(client.stream(), &oversized);
    assert!(matches!(
        client.read_reply(),
        Err(ClientError::Wire(WireError::FrameTooLarge {
            declared: 8_192,
            max: 4_096
        }))
    ));

    // After all of that, the same connection still serves requests.
    client.ping().expect("connection survived the abuse");
}

/// A `SAMPLE_MANY` is a few dozen bytes whatever its `r`, but its reply
/// holds 8 bytes per key. An `r` whose reply would exceed the frame
/// limit is refused with a typed verdict before any handle opens, and
/// the connection goes on serving.
#[test]
fn sample_many_beyond_the_frame_limit_is_refused_before_sampling() {
    let cfg = ServerConfig {
        max_frame: 4_096,
        ..ServerConfig::default()
    };
    let (handle, reference) = spawn(1_024, 2, cfg);
    let set = reference
        .create(member_keys(100, 1_024).iter().copied())
        .unwrap();
    let target = Target::Stored(set.raw());
    let mut client = Client::connect(handle.addr()).unwrap();

    // A reply is 7 header bytes plus 8 per key: 511 keys fit in 4 KiB,
    // 512 do not.
    let before = reference.handle_pool_stats();
    for r in [u32::MAX, 512] {
        match client.sample_many(target.clone(), r, 3) {
            Err(ClientError::Wire(WireError::FrameTooLarge { declared, max })) => {
                assert_eq!(declared, 7 + 8 * u64::from(r));
                assert_eq!(max, 4_096);
            }
            other => panic!("r = {r}: expected FrameTooLarge, got {other:?}"),
        }
    }
    assert_eq!(
        reference.handle_pool_stats(),
        before,
        "a refused request must not open or touch a handle"
    );
    let most = client.sample_many(target.clone(), 511, 3).expect("511 fit");
    assert!(!most.is_empty() && most.len() <= 511);

    // The same connection then serves a normal SAMPLE, bit-identical to
    // the in-process draw.
    let key = client.sample(target, 5).expect("sample after refusal");
    let mut rng = StdRng::seed_from_u64(5);
    assert_eq!(
        key,
        reference.query_id(set).unwrap().sample(&mut rng).unwrap()
    );
}

#[test]
fn back_to_back_frames_are_answered_in_order_with_identical_draws() {
    let (handle, _reference) = spawn(2_048, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(120, 2_048)).unwrap();
    // 400 SAMPLE frames of 23 bytes: more than one 8 KiB read buffer,
    // so frames straddle the server's buffer refills.
    let seeds: Vec<u64> = (0..400).map(|i| 0x5EED + i * 31).collect();
    let one_at_a_time: Vec<u64> = seeds
        .iter()
        .map(|&seed| client.sample(Target::Stored(set), seed).unwrap())
        .collect();

    // The same seeds again: all but the last frame in one write, the
    // last trickled a byte per write, before any reply is read.
    let frames: Vec<Vec<u8>> = seeds
        .iter()
        .map(|&seed| {
            let mut frame = Vec::new();
            let req = Request::Sample {
                target: Target::Stored(set),
                seed,
            };
            write_frame(&mut frame, &encode_request(&req)).unwrap();
            frame
        })
        .collect();
    let (trickled, burst) = frames.split_last().unwrap();
    let burst = burst.concat();
    assert!(burst.len() > 8 << 10, "{} bytes", burst.len());
    // A frame the server loses would leave the client waiting forever.
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.stream().write_all(&burst).unwrap();
    for byte in trickled {
        client.stream().write_all(&[*byte]).unwrap();
    }
    let in_order: Vec<u64> = seeds
        .iter()
        .map(|_| match client.read_reply().unwrap() {
            Response::Sampled { key } => key,
            other => panic!("expected Sampled, got {other:?}"),
        })
        .collect();
    assert_eq!(
        in_order, one_at_a_time,
        "replies out of order or draws diverged"
    );

    // The connection keeps serving afterwards.
    assert_eq!(
        client.sample(Target::Stored(set), seeds[7]).unwrap(),
        one_at_a_time[7]
    );
    client.ping().unwrap();
}

#[test]
fn abrupt_disconnect_mid_frame_does_not_wedge_other_clients() {
    let (handle, _reference) = spawn(1_024, 2, ServerConfig::default());
    let mut healthy = Client::connect(handle.addr()).unwrap();
    healthy.ping().unwrap();

    {
        // Declare a 100-byte frame, send 3 bytes, vanish.
        let mut rude = TcpStream::connect(handle.addr()).unwrap();
        rude.write_all(&100u32.to_le_bytes()).unwrap();
        rude.write_all(&[1, 2, 3]).unwrap();
    } // dropped here

    std::thread::sleep(Duration::from_millis(100));
    healthy
        .ping()
        .expect("server loop survived the rude client");
    healthy
        .create((0..16u64).collect())
        .expect("mutations still served");
}

#[test]
fn backpressure_refuses_connections_over_the_cap_with_a_typed_frame() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let (handle, _reference) = spawn(1_024, 2, cfg);
    let mut first = Client::connect(handle.addr()).unwrap();
    first.ping().unwrap();

    // The second arrival is refused with Busy before any request.
    let mut refused = Client::connect(handle.addr()).unwrap();
    match refused.read_reply() {
        Err(ClientError::Wire(WireError::Busy { active: 1, max: 1 })) => {}
        other => panic!("expected Busy refusal, got {other:?}"),
    }

    // Once the first client leaves, the slot frees up (within the
    // worker's poll interval) and new connections are served again.
    drop(first);
    let mut again = retry_connect_and_ping(handle.addr());
    let stats = again.stats().unwrap();
    assert!(stats.sessions_refused >= 1, "refusal must be counted");
    assert_eq!(stats.active_connections, 1);
}

fn retry_connect_and_ping(addr: std::net::SocketAddr) -> Client {
    for _ in 0..100 {
        if let Ok(mut c) = Client::connect(addr) {
            if c.ping().is_ok() {
                return c;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server never freed the connection slot");
}

#[test]
fn mixed_batches_over_the_wire_match_in_process_scatter() {
    let (handle, reference) = spawn(2_048, 4, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = client.create(member_keys(60, 2_048)).unwrap();
    let b = client.create((300..380u64).collect()).unwrap();
    let adhoc_filter = reference.store((700..760u64).map(|k| k % 2_048));
    let seed = 0xBA7C4;

    let results = client
        .batch(
            vec![
                Target::Stored(a),
                Target::adhoc(&adhoc_filter),
                Target::Stored(b),
                Target::Stored(999_999),      // unknown id: fails alone
                Target::Adhoc(vec![1, 2, 3]), // garbage bytes: fails alone
            ],
            seed,
        )
        .unwrap();

    // The handler runs id-slots and filter-slots as separate engine
    // batches with the same seed; mirror that in-process.
    use bst_core::store::FilterId;
    let (id_answers, _) = reference.query_batch_ids(
        &[
            FilterId::from_raw(a),
            FilterId::from_raw(b),
            FilterId::from_raw(999_999),
        ],
        seed,
        0,
    );
    let (filter_answers, _) = reference.query_batch(&[adhoc_filter], seed, 0);
    assert_eq!(results.len(), 5);
    assert_eq!(results[0], id_answers[0].map_err(WireError::from));
    assert_eq!(results[2], id_answers[1].map_err(WireError::from));
    assert_eq!(results[3], id_answers[2].map_err(WireError::from));
    assert!(matches!(results[3], Err(WireError::UnknownFilterId { .. })));
    assert_eq!(results[1], filter_answers[0].map_err(WireError::from));
    assert!(matches!(results[4], Err(WireError::Malformed { .. })));

    // sample_many over the wire equals an in-process seeded draw too.
    let wire = client.sample_many(Target::Stored(a), 32, 77).unwrap();
    let local = reference
        .query_id(FilterId::from_raw(a))
        .unwrap()
        .sample_many(32, &mut StdRng::seed_from_u64(77))
        .unwrap();
    assert_eq!(wire, local);

    // And reconstruction: wire == in-process, both sorted.
    let wire_rec = client.reconstruct(Target::Stored(b)).unwrap();
    let local_rec = reference
        .query_id(FilterId::from_raw(b))
        .unwrap()
        .reconstruct()
        .unwrap();
    assert_eq!(wire_rec, local_rec);
    let windowed = client
        .reconstruct_range(Target::Stored(b), 300, 340)
        .unwrap();
    assert!(windowed.iter().all(|&k| (300..340).contains(&k)));
}

#[test]
fn stats_surface_reports_latencies_and_weight_cache() {
    let (handle, _reference) = spawn(1_024, 2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let set = client.create(member_keys(30, 1_024)).unwrap();
    for i in 0..20 {
        client.sample(Target::Stored(set), i).unwrap();
    }
    client.batch(vec![Target::Stored(set)], 5).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.namespace, 1_024);
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.sets, 1);
    assert!(stats.frames_served >= 22);
    assert_eq!(stats.active_connections, 1);
    // The weight-cache fields count handle-pool lookups: one open, then
    // 19 sample hits and the batch's hit; repairs always read 0.
    assert_eq!(
        (
            stats.weight_cache_hits,
            stats.weight_cache_misses,
            stats.weight_cache_repairs
        ),
        (20, 1, 0),
        "{stats:?}"
    );
    // Sample and batch latency rows exist, with sane percentiles.
    let sample_row = stats
        .ops
        .iter()
        .find(|r| r.op == bst_server::stats::OpClass::Sample.tag())
        .expect("sample row");
    assert_eq!(sample_row.count, 20);
    assert!(sample_row.p50_us <= sample_row.p95_us);
    assert!(sample_row.p95_us <= sample_row.p99_us);
    let total = stats.total.expect("total row");
    assert!(total.count >= 22);
}

#[test]
fn wire_shutdown_stops_the_server_cleanly() {
    let (handle, _reference) = spawn(512, 2, ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown_server().unwrap();
    // join() returns because the wire shutdown stopped the accept loop.
    handle.join();
    // The listener is gone: fresh connections fail (or are reset
    // immediately on first use).
    let gone = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(gone, "listener must be closed after wire shutdown");
}

/// Writes a pre-encoded payload as one frame.
fn send_raw(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    stream.flush().unwrap();
}
