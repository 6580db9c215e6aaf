//! Property tests for the wire codec in `protocol.rs`: arbitrary bytes
//! never panic either decoder, and whatever a decoder accepts, edited
//! frames included, re-encodes to exactly its bytes; every `Request` and
//! `Response` variant, built from drawn primitives, round-trips through
//! encode → decode; and one appended byte turns a valid frame into
//! `Malformed`.
//!
//! The vendored proptest draws primitives and collections only, so the
//! values are assembled in the test bodies from a drawn variant index.

use bst_server::protocol::{
    decode_request, decode_response, encode_error, encode_request, encode_response, OpLatencyRow,
    Request, Response, StatsReply, Target, WireError, PROTO_VERSION,
};
use proptest::prelude::*;

/// Request variants (one per opcode).
const REQUESTS: u8 = 19;
/// Response variants, counting the typed error frame as one more.
const RESPONSES: u8 = 13;
/// `WireError` variants.
const ERRORS: u8 = 16;

fn bytes_of(raw: &[u16]) -> Vec<u8> {
    raw.iter().map(|&b| b as u8).collect()
}

/// Arbitrary valid UTF-8, multibyte replacement characters included.
fn text_of(raw: &[u16]) -> String {
    String::from_utf8_lossy(&bytes_of(raw)).into_owned()
}

fn target(pick: u64, id: u64, raw: &[u16]) -> Target {
    if pick.is_multiple_of(2) {
        Target::Stored(id)
    } else {
        Target::Adhoc(bytes_of(raw))
    }
}

fn wire_error(variant: u8, a: u64, b: u64, raw: &[u16]) -> WireError {
    match variant % ERRORS {
        0 => WireError::EmptyFilter,
        1 => WireError::IncompatibleFilter,
        2 => WireError::EmptyTree,
        3 => WireError::NoLiveLeaf,
        4 => WireError::BudgetExhausted { attempts: a },
        5 => WireError::InvalidConfig {
            message: text_of(raw),
        },
        6 => WireError::UnknownFilterId { raw: a },
        7 => WireError::ImmutableBackend,
        8 => WireError::KeyOutsideNamespace { key: a },
        9 => WireError::Persist {
            message: text_of(raw),
        },
        10 => WireError::BadVersion { got: a as u8 },
        11 => WireError::UnknownOpcode { got: a as u8 },
        12 => WireError::Malformed {
            context: text_of(raw),
        },
        13 => WireError::FrameTooLarge {
            declared: a,
            max: b,
        },
        14 => WireError::Busy {
            active: a as u32,
            max: b as u32,
        },
        _ => WireError::ShuttingDown,
    }
}

fn request(variant: u8, a: u64, b: u64, c: u32, keys: &[u64], raw: &[u16]) -> Request {
    let keys = keys.to_vec();
    match variant % REQUESTS {
        0 => Request::Ping,
        1 => Request::Create { keys },
        2 => Request::InsertKeys { id: a, keys },
        3 => Request::RemoveKeys { id: a, keys },
        4 => Request::DropSet { id: a },
        5 => Request::OccInsert { key: a },
        6 => Request::OccRemove { key: a },
        7 => Request::Get { id: a },
        8 => Request::ListSets,
        9 => Request::Sample {
            target: target(b, a, raw),
            seed: b,
        },
        10 => Request::SampleMany {
            target: target(b, a, raw),
            r: c,
            seed: b,
        },
        11 => Request::Reconstruct {
            target: target(b, a, raw),
        },
        12 => Request::ReconstructRange {
            target: target(b, a, raw),
            start: a,
            end: b,
        },
        13 => Request::Batch {
            targets: keys
                .iter()
                .enumerate()
                .map(|(i, &k)| target(k, k, &raw[..raw.len().min(i)]))
                .collect(),
            seed: b,
        },
        14 => Request::Save,
        15 => Request::Load {
            bytes: bytes_of(raw),
        },
        16 => Request::Stats,
        17 => Request::Shutdown,
        _ => Request::Metrics,
    }
}

fn latency_row(op: u64, x: u64) -> OpLatencyRow {
    // Finite, exactly representable floats: the codec ships f64 bits.
    let f = |k: u64| (x >> 11).wrapping_mul(k) as f64 * 1e-3;
    OpLatencyRow {
        op: op as u8,
        count: x,
        p50_us: f(1),
        p95_us: f(3),
        p99_us: f(7),
    }
}

fn stats_reply(a: u64, b: u64, keys: &[u64]) -> StatsReply {
    StatsReply {
        namespace: a,
        shards: b as u32,
        sets: a ^ b,
        occupied: a.rotate_left(7),
        epoch: b,
        active_connections: a as u32,
        sessions_served: a.wrapping_add(1),
        sessions_refused: b.wrapping_add(2),
        frames_served: a.wrapping_mul(3),
        weight_cache_hits: b.rotate_left(3),
        weight_cache_misses: a >> 5,
        weight_cache_repairs: 0,
        engine_intersections: b >> 1,
        engine_memberships: a >> 2,
        engine_nodes_visited: b >> 3,
        engine_backtracks: a >> 4,
        ops: keys.iter().map(|&k| latency_row(k, k ^ a)).collect(),
        total: b.is_multiple_of(2).then(|| latency_row(255, b)),
    }
}

/// A response frame: `Ok` bodies through `encode_response`, the last
/// variant a typed error frame through `encode_error`.
fn response(variant: u8, a: u64, b: u64, keys: &[u64], raw: &[u16]) -> Result<Response, WireError> {
    Ok(match variant % RESPONSES {
        0 => Response::Ok,
        1 => Response::Pong,
        2 => Response::Created { id: a },
        3 => Response::Generation { generation: a },
        4 => Response::Filter {
            bytes: bytes_of(raw),
        },
        5 => Response::Sets { ids: keys.to_vec() },
        6 => Response::Sampled { key: a },
        7 => Response::Keys {
            keys: keys.to_vec(),
        },
        8 => Response::Batch {
            results: keys
                .iter()
                .map(|&k| {
                    if k.is_multiple_of(3) {
                        Err(wire_error(k as u8, k, a, raw))
                    } else {
                        Ok(k)
                    }
                })
                .collect(),
        },
        9 => Response::Snapshot {
            bytes: bytes_of(raw),
        },
        10 => Response::Stats(stats_reply(a, b, keys)),
        11 => Response::Metrics { text: text_of(raw) },
        _ => return Err(wire_error(b as u8, a, b, raw)),
    })
}

fn encode(frame: &Result<Response, WireError>) -> Vec<u8> {
    match frame {
        Ok(resp) => encode_response(resp),
        Err(e) => encode_error(e),
    }
}

/// Feeds `bytes` to both decoders: whatever one accepts re-encodes to
/// exactly `bytes`.
fn assert_decoders_canonical(bytes: &[u8]) {
    if let Ok(req) = decode_request(bytes) {
        assert_eq!(encode_request(&req), bytes, "accepted {req:?}");
    }
    if let Ok(frame) = decode_response(bytes) {
        assert_eq!(encode(&frame), bytes, "accepted {frame:?}");
    }
}

/// `bytes` with the byte at `at` (modulo the length) overwritten.
fn edited(bytes: &[u8], at: usize, byte: u16) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at % bytes.len()] = byte as u8;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Neither decoder panics on arbitrary bytes — raw, or behind a
    /// valid header so the body decoders see them too — and whatever one
    /// accepts re-encodes to exactly its bytes.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in prop::collection::vec(0u16..256, 0..200),
        op in 0u8..24,
        status in 0u8..3,
    ) {
        let body = bytes_of(&raw);
        assert_decoders_canonical(&body);
        let mut request = vec![PROTO_VERSION, op];
        request.extend_from_slice(&body);
        assert_decoders_canonical(&request);
        let mut response = vec![PROTO_VERSION, status];
        response.extend_from_slice(&body);
        assert_decoders_canonical(&response);
    }

    /// Every request variant round-trips; one overwritten byte decodes
    /// only to what re-encodes to it; one appended byte is `Malformed`.
    #[test]
    fn requests_round_trip_and_reject_a_trailing_byte(
        variant in 0u8..REQUESTS,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        keys in prop::collection::vec(any::<u64>(), 0..24),
        raw in prop::collection::vec(0u16..256, 0..64),
        extra in 0u16..256,
        edit in (any::<usize>(), 0u16..256),
    ) {
        let req = request(variant, a, b, c, &keys, &raw);
        let mut bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes), Ok(req));
        assert_decoders_canonical(&edited(&bytes, edit.0, edit.1));
        bytes.push(extra as u8);
        prop_assert!(
            matches!(decode_request(&bytes), Err(WireError::Malformed { .. })),
            "variant {} accepted a trailing byte", variant
        );
    }

    /// Every response variant and every typed error frame round-trips;
    /// one overwritten byte decodes only to what re-encodes to it; one
    /// appended byte is `Malformed`.
    #[test]
    fn responses_round_trip_and_reject_a_trailing_byte(
        variant in 0u8..RESPONSES,
        a in any::<u64>(),
        b in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 0..24),
        raw in prop::collection::vec(0u16..256, 0..64),
        extra in 0u16..256,
        edit in (any::<usize>(), 0u16..256),
    ) {
        let frame = response(variant, a, b, &keys, &raw);
        let mut bytes = encode(&frame);
        prop_assert_eq!(decode_response(&bytes), Ok(frame));
        assert_decoders_canonical(&edited(&bytes, edit.0, edit.1));
        bytes.push(extra as u8);
        prop_assert!(
            matches!(decode_response(&bytes), Err(WireError::Malformed { .. })),
            "variant {} accepted a trailing byte", variant
        );
    }

    /// Every `WireError` variant survives an error frame.
    #[test]
    fn every_wire_error_round_trips(
        variant in 0u8..ERRORS,
        a in any::<u64>(),
        b in any::<u64>(),
        raw in prop::collection::vec(0u16..256, 0..64),
    ) {
        let e = wire_error(variant, a, b, &raw);
        prop_assert_eq!(decode_response(&encode_error(&e)), Ok(Err(e)));
    }
}
