//! The wire protocol: typed request/response/error enums and their
//! deterministic binary codec.
//!
//! Every frame on the socket is length-prefixed: `len u32 | payload`,
//! where `len` counts payload bytes only (see [`crate::frame`]). The
//! payload layouts follow the `bst_core::persistence` conventions —
//! little-endian integers, `u8` tags for enum variants, explicit length
//! prefixes before repeated elements, and typed decode errors instead of
//! panics on malformed input.
//!
//! ```text
//! request:  version u8 | opcode u8 | body
//! response: version u8 | status u8 (0 = ok, 1 = err) | body
//! error:    tag u8 | variant payload          (see WireError)
//! target:   0 u8 | id u64                      (stored set)
//!         | 1 u8 | len u64 | bst-bloom codec bytes   (ad-hoc filter)
//! keys:     count u32 | count × u64
//! string:   len u32 | utf-8 bytes
//! ```
//!
//! The codec is deterministic: encoding the same value always produces
//! the same bytes (snapshot SAVE/LOAD round-trips over the wire are
//! byte-identical, pinned in `tests/e2e_server.rs`).

use bytes::{Buf, BufMut, BytesMut};

use bst_core::error::BstError;

/// Protocol version carried in every request and response header.
pub const PROTO_VERSION: u8 = 1;

/// Response status byte: the body is a [`Response`].
pub const STATUS_OK: u8 = 0;
/// Response status byte: the body is a [`WireError`].
pub const STATUS_ERR: u8 = 1;

// Opcodes (request header byte 2).
const OP_PING: u8 = 1;
const OP_CREATE: u8 = 2;
const OP_INSERT_KEYS: u8 = 3;
const OP_REMOVE_KEYS: u8 = 4;
const OP_DROP_SET: u8 = 5;
const OP_OCC_INSERT: u8 = 6;
const OP_OCC_REMOVE: u8 = 7;
const OP_GET: u8 = 8;
const OP_LIST_SETS: u8 = 9;
const OP_SAMPLE: u8 = 10;
const OP_SAMPLE_MANY: u8 = 11;
const OP_RECONSTRUCT: u8 = 12;
const OP_RECONSTRUCT_RANGE: u8 = 13;
const OP_BATCH: u8 = 14;
const OP_SAVE: u8 = 15;
const OP_LOAD: u8 = 16;
const OP_STATS: u8 = 17;
const OP_SHUTDOWN: u8 = 18;
const OP_METRICS: u8 = 19;

/// How a query command addresses its filter: a stored sharded set id, or
/// an ad-hoc Bloom filter shipped in the request body (encoded with the
/// `bst_bloom::codec` binary format).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// A stored set, by raw sharded [`bst_core::store::FilterId`].
    Stored(u64),
    /// A detached query filter, as `bst_bloom::codec::encode` bytes.
    Adhoc(Vec<u8>),
}

impl Target {
    /// An ad-hoc target from a live filter (encodes it).
    pub fn adhoc(filter: &bst_bloom::filter::BloomFilter) -> Self {
        Target::Adhoc(bst_bloom::codec::encode(filter).to_vec())
    }
}

/// A client request, one per frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Register a stored set over `keys`; answers [`Response::Created`].
    Create {
        /// The set's members (validated against the namespace).
        keys: Vec<u64>,
    },
    /// Insert `keys` into stored set `id`.
    InsertKeys {
        /// Raw sharded filter id.
        id: u64,
        /// Keys to insert.
        keys: Vec<u64>,
    },
    /// Remove one occurrence of each of `keys` from stored set `id`; keys
    /// the set does not hold are skipped.
    RemoveKeys {
        /// Raw sharded filter id.
        id: u64,
        /// Keys to remove.
        keys: Vec<u64>,
    },
    /// Unregister stored set `id`.
    DropSet {
        /// Raw sharded filter id.
        id: u64,
    },
    /// Mark `key` occupied (§5.2 churn); answers [`Response::Generation`].
    OccInsert {
        /// Namespace id to occupy.
        key: u64,
    },
    /// Remove `key` from the occupied set; answers [`Response::Generation`].
    OccRemove {
        /// Namespace id to vacate.
        key: u64,
    },
    /// Project stored set `id` to a plain filter; answers [`Response::Filter`].
    Get {
        /// Raw sharded filter id.
        id: u64,
    },
    /// List live stored ids; answers [`Response::Sets`].
    ListSets,
    /// Draw one sample; the server seeds a fresh `StdRng` from `seed`,
    /// so the same request against the same state draws the same key.
    Sample {
        /// What to sample from.
        target: Target,
        /// RNG seed for this draw.
        seed: u64,
    },
    /// Draw up to `r` samples (§5.3 multi-sampling); answers [`Response::Keys`].
    SampleMany {
        /// What to sample from.
        target: Target,
        /// Requested sample count.
        r: u32,
        /// RNG seed for the draws.
        seed: u64,
    },
    /// Reconstruct the whole positive set; answers [`Response::Keys`].
    Reconstruct {
        /// What to reconstruct.
        target: Target,
    },
    /// Reconstruct restricted to `[start, end)`; answers [`Response::Keys`].
    ReconstructRange {
        /// What to reconstruct.
        target: Target,
        /// Window start (inclusive).
        start: u64,
        /// Window end (exclusive).
        end: u64,
    },
    /// One sample per target over the engine's two-phase batch scatter;
    /// answers [`Response::Batch`] with per-slot results.
    Batch {
        /// One slot per target, stored and ad-hoc freely mixed.
        targets: Vec<Target>,
        /// RNG seed for the whole batch.
        seed: u64,
    },
    /// Snapshot the whole engine; answers [`Response::Snapshot`].
    Save,
    /// Replace the engine with a snapshot previously produced by `Save`.
    Load {
        /// `ShardedBstSystem::to_bytes` payload.
        bytes: Vec<u8>,
    },
    /// Server statistics; answers [`Response::Stats`].
    Stats,
    /// Stop the server after replying (the accept loop drains and every
    /// worker exits); the in-process `ServerHandle::join` then returns.
    Shutdown,
    /// Scrape the unified metrics registry as a Prometheus-style text
    /// page; answers [`Response::Metrics`].
    Metrics,
}

/// A successful reply, one per frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Generic success for mutations with nothing to return.
    Ok,
    /// Reply to [`Request::Ping`].
    Pong,
    /// The freshly allocated stored set id.
    Created {
        /// Raw sharded filter id.
        id: u64,
    },
    /// The owning shard's tree generation after an occupancy mutation.
    Generation {
        /// Post-mutation tree generation of the owning shard.
        generation: u64,
    },
    /// A projected filter, as `bst_bloom::codec::encode` bytes.
    Filter {
        /// Encoded filter.
        bytes: Vec<u8>,
    },
    /// Live stored ids, ascending.
    Sets {
        /// Raw sharded filter ids.
        ids: Vec<u64>,
    },
    /// One sampled key.
    Sampled {
        /// The drawn namespace id.
        key: u64,
    },
    /// A key list (samples or a reconstruction).
    Keys {
        /// The keys, in the operation's natural order.
        keys: Vec<u64>,
    },
    /// Per-slot batch outcomes, aligned with the request's targets.
    Batch {
        /// One result per slot.
        results: Vec<Result<u64, WireError>>,
    },
    /// A whole-engine snapshot.
    Snapshot {
        /// `ShardedBstSystem::to_bytes` payload (byte-deterministic).
        bytes: Vec<u8>,
    },
    /// Server statistics.
    Stats(StatsReply),
    /// The metrics exposition page.
    Metrics {
        /// Prometheus text format, one series per line plus
        /// `# HELP` / `# TYPE` comments.
        text: String,
    },
}

/// Latency percentiles for one operation class, from the server's
/// `bst_stats::histogram::Histogram` registry (microseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpLatencyRow {
    /// Operation-class tag (see `crate::stats::OpClass`).
    pub op: u8,
    /// Requests recorded (in-range observations plus outliers).
    pub count: u64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
}

/// The body of [`Response::Stats`]: engine shape, serving counters, the
/// engine handle pool's effectiveness, and per-op latency percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Namespace size `M`.
    pub namespace: u64,
    /// Shard count `S`.
    pub shards: u32,
    /// Registered stored sets.
    pub sets: u64,
    /// Occupied namespace ids.
    pub occupied: u64,
    /// Engine epoch: bumps on every wire `LOAD`.
    pub epoch: u64,
    /// Connections currently being served.
    pub active_connections: u32,
    /// Connections accepted and served since startup.
    pub sessions_served: u64,
    /// Connections refused by the max-connections backpressure policy.
    pub sessions_refused: u64,
    /// Frames processed since startup.
    pub frames_served: u64,
    /// Engine handle-pool hits (see `bst_shard::HandlePoolStats`). The
    /// field keeps its name and wire slot from the weight cache the pool
    /// replaced.
    pub weight_cache_hits: u64,
    /// Engine handle-pool misses (lookups that opened a handle).
    pub weight_cache_misses: u64,
    /// Always 0: the pool repairs weights inside its handles and counts
    /// no repairs. Kept so the reply layout is unchanged.
    pub weight_cache_repairs: u64,
    /// Cumulative Bloom probe intersections drained from every served
    /// query (paper §7.1 units; survives engine swaps).
    pub engine_intersections: u64,
    /// Cumulative membership tests.
    pub engine_memberships: u64,
    /// Cumulative tree nodes visited.
    pub engine_nodes_visited: u64,
    /// Cumulative sampling descent backtracks.
    pub engine_backtracks: u64,
    /// Per-op latency percentiles, ascending by op tag; only classes
    /// with at least one recorded request appear.
    pub ops: Vec<OpLatencyRow>,
    /// All classes merged into one histogram (`Histogram::merge`);
    /// `None` until any request has been recorded.
    pub total: Option<OpLatencyRow>,
}

/// Every way a request can fail, shipped back as a typed error frame.
///
/// Engine failures mirror [`BstError`] variant by variant (with owned
/// strings where the engine uses `&'static str`, so the messages survive
/// the wire); the protocol-level variants cover framing and decoding
/// problems plus the server's backpressure verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// [`BstError::EmptyFilter`].
    EmptyFilter,
    /// [`BstError::IncompatibleFilter`].
    IncompatibleFilter,
    /// [`BstError::EmptyTree`].
    EmptyTree,
    /// [`BstError::NoLiveLeaf`].
    NoLiveLeaf,
    /// [`BstError::BudgetExhausted`].
    BudgetExhausted {
        /// Proposal walks attempted before giving up.
        attempts: u64,
    },
    /// [`BstError::InvalidConfig`].
    InvalidConfig {
        /// The engine's description of the rejected value.
        message: String,
    },
    /// [`BstError::UnknownFilterId`].
    UnknownFilterId {
        /// The raw id that names no stored set.
        raw: u64,
    },
    /// [`BstError::ImmutableBackend`].
    ImmutableBackend,
    /// [`BstError::KeyOutsideNamespace`].
    KeyOutsideNamespace {
        /// The offending key.
        key: u64,
    },
    /// [`BstError::Persist`] — a snapshot decode failure (wire `LOAD`).
    Persist {
        /// The persistence layer's description of the problem.
        message: String,
    },
    /// The request header carried an unsupported protocol version.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The request header carried an opcode this server does not know.
    UnknownOpcode {
        /// The opcode byte received.
        got: u8,
    },
    /// The request body could not be decoded (truncated, trailing bytes,
    /// bad tags, or an undecodable embedded filter).
    Malformed {
        /// What failed to decode.
        context: String,
    },
    /// The declared frame length exceeds the server's limit. The server
    /// drains and discards the frame, so the connection stays usable. A
    /// `SAMPLE_MANY` whose reply would exceed the limit gets this error
    /// too, with the reply's length as `declared`.
    FrameTooLarge {
        /// Declared payload length.
        declared: u64,
        /// The server's maximum payload length.
        max: u64,
    },
    /// The max-connections backpressure policy refused this connection;
    /// sent as the only frame before the server closes the socket.
    Busy {
        /// Connections being served when this one arrived.
        active: u32,
        /// The configured ceiling.
        max: u32,
    },
    /// The server is shutting down and no longer serves requests.
    ShuttingDown,
}

impl From<BstError> for WireError {
    fn from(e: BstError) -> Self {
        match e {
            BstError::EmptyFilter => WireError::EmptyFilter,
            BstError::IncompatibleFilter => WireError::IncompatibleFilter,
            BstError::EmptyTree => WireError::EmptyTree,
            BstError::NoLiveLeaf => WireError::NoLiveLeaf,
            BstError::BudgetExhausted { attempts } => WireError::BudgetExhausted {
                attempts: attempts as u64,
            },
            BstError::InvalidConfig(message) => WireError::InvalidConfig {
                message: message.to_string(),
            },
            BstError::UnknownFilterId(id) => WireError::UnknownFilterId { raw: id.raw() },
            BstError::ImmutableBackend => WireError::ImmutableBackend,
            BstError::KeyOutsideNamespace(key) => WireError::KeyOutsideNamespace { key },
            BstError::Persist(p) => WireError::Persist {
                message: p.to_string(),
            },
            // BstError is non_exhaustive: future variants degrade to a
            // typed Malformed-like description rather than a panic.
            other => WireError::Malformed {
                context: format!("unmapped engine error: {other}"),
            },
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::EmptyFilter => write!(f, "query filter is empty"),
            WireError::IncompatibleFilter => {
                write!(f, "query filter parameters do not match the tree")
            }
            WireError::EmptyTree => write!(f, "tree has no root"),
            WireError::NoLiveLeaf => write!(f, "no live leaf: every descent path died"),
            WireError::BudgetExhausted { attempts } => {
                write!(f, "rejection budget exhausted after {attempts} proposals")
            }
            WireError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            WireError::UnknownFilterId { raw } => {
                write!(f, "unknown filter id {raw}: never created here, or dropped")
            }
            WireError::ImmutableBackend => write!(f, "dense backend occupancy is immutable"),
            WireError::KeyOutsideNamespace { key } => {
                write!(f, "key {key} lies outside the server's namespace")
            }
            WireError::Persist { message } => write!(f, "snapshot rejected: {message}"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::UnknownOpcode { got } => write!(f, "unknown opcode {got}"),
            WireError::Malformed { context } => write!(f, "malformed request: {context}"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            WireError::Busy { active, max } => {
                write!(f, "server busy: {active} active connections (max {max})")
            }
            WireError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(context: &str) -> WireError {
    WireError::Malformed {
        context: context.to_string(),
    }
}

// ---------------------------------------------------------------------
// Primitive codecs.
// ---------------------------------------------------------------------

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(input: &mut &[u8]) -> Result<String, WireError> {
    if input.remaining() < 4 {
        return Err(malformed("truncated string length"));
    }
    let len = input.get_u32_le() as usize;
    if input.remaining() < len {
        return Err(malformed("truncated string body"));
    }
    let s = std::str::from_utf8(&input[..len])
        .map_err(|_| malformed("string is not utf-8"))?
        .to_string();
    input.advance(len);
    Ok(s)
}

/// Payload bytes of a [`Response::Keys`] reply before its keys: version,
/// status, tag and the `u32` key count. Each key adds 8.
pub(crate) const KEYS_REPLY_HEADER: u64 = 7;

fn put_keys(buf: &mut BytesMut, keys: &[u64]) {
    buf.put_u32_le(keys.len() as u32);
    bst_bloom::codec::put_u64s(buf, keys);
}

fn get_keys(input: &mut &[u8]) -> Result<Vec<u64>, WireError> {
    if input.remaining() < 4 {
        return Err(malformed("truncated key count"));
    }
    let count = input.get_u32_le() as usize;
    if input.remaining() < count * 8 {
        return Err(malformed("truncated key list"));
    }
    let keys = bst_bloom::codec::le_u64s(&input[..count * 8]);
    input.advance(count * 8);
    Ok(keys)
}

fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u64_le(bytes.len() as u64);
    buf.put_slice(bytes);
}

fn get_bytes(input: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    if input.remaining() < 8 {
        return Err(malformed("truncated byte-string length"));
    }
    let len = input.get_u64_le() as usize;
    if input.remaining() < len {
        return Err(malformed("truncated byte-string body"));
    }
    let out = input[..len].to_vec();
    input.advance(len);
    Ok(out)
}

fn get_u64(input: &mut &[u8], what: &str) -> Result<u64, WireError> {
    if input.remaining() < 8 {
        return Err(malformed(what));
    }
    Ok(input.get_u64_le())
}

fn put_target(buf: &mut BytesMut, target: &Target) {
    match target {
        Target::Stored(id) => {
            buf.put_u8(0);
            buf.put_u64_le(*id);
        }
        Target::Adhoc(bytes) => {
            buf.put_u8(1);
            put_bytes(buf, bytes);
        }
    }
}

fn get_target(input: &mut &[u8]) -> Result<Target, WireError> {
    if input.remaining() < 1 {
        return Err(malformed("truncated target tag"));
    }
    match input.get_u8() {
        0 => Ok(Target::Stored(get_u64(input, "truncated target id")?)),
        1 => Ok(Target::Adhoc(get_bytes(input)?)),
        _ => Err(malformed("unknown target tag")),
    }
}

// ---------------------------------------------------------------------
// WireError codec.
// ---------------------------------------------------------------------

/// Appends the error's wire encoding (tag + variant payload) to `buf`.
pub fn put_wire_error(buf: &mut BytesMut, e: &WireError) {
    match e {
        WireError::EmptyFilter => buf.put_u8(0),
        WireError::IncompatibleFilter => buf.put_u8(1),
        WireError::EmptyTree => buf.put_u8(2),
        WireError::NoLiveLeaf => buf.put_u8(3),
        WireError::BudgetExhausted { attempts } => {
            buf.put_u8(4);
            buf.put_u64_le(*attempts);
        }
        WireError::InvalidConfig { message } => {
            buf.put_u8(5);
            put_string(buf, message);
        }
        WireError::UnknownFilterId { raw } => {
            buf.put_u8(6);
            buf.put_u64_le(*raw);
        }
        WireError::ImmutableBackend => buf.put_u8(7),
        WireError::KeyOutsideNamespace { key } => {
            buf.put_u8(8);
            buf.put_u64_le(*key);
        }
        WireError::Persist { message } => {
            buf.put_u8(9);
            put_string(buf, message);
        }
        WireError::BadVersion { got } => {
            buf.put_u8(10);
            buf.put_u8(*got);
        }
        WireError::UnknownOpcode { got } => {
            buf.put_u8(11);
            buf.put_u8(*got);
        }
        WireError::Malformed { context } => {
            buf.put_u8(12);
            put_string(buf, context);
        }
        WireError::FrameTooLarge { declared, max } => {
            buf.put_u8(13);
            buf.put_u64_le(*declared);
            buf.put_u64_le(*max);
        }
        WireError::Busy { active, max } => {
            buf.put_u8(14);
            buf.put_u32_le(*active);
            buf.put_u32_le(*max);
        }
        WireError::ShuttingDown => buf.put_u8(15),
    }
}

/// Decodes an error encoded with [`put_wire_error`], advancing `input`.
pub fn get_wire_error(input: &mut &[u8]) -> Result<WireError, WireError> {
    if input.remaining() < 1 {
        return Err(malformed("truncated error tag"));
    }
    Ok(match input.get_u8() {
        0 => WireError::EmptyFilter,
        1 => WireError::IncompatibleFilter,
        2 => WireError::EmptyTree,
        3 => WireError::NoLiveLeaf,
        4 => WireError::BudgetExhausted {
            attempts: get_u64(input, "truncated attempts")?,
        },
        5 => WireError::InvalidConfig {
            message: get_string(input)?,
        },
        6 => WireError::UnknownFilterId {
            raw: get_u64(input, "truncated filter id")?,
        },
        7 => WireError::ImmutableBackend,
        8 => WireError::KeyOutsideNamespace {
            key: get_u64(input, "truncated key")?,
        },
        9 => WireError::Persist {
            message: get_string(input)?,
        },
        10 => {
            if input.remaining() < 1 {
                return Err(malformed("truncated version byte"));
            }
            WireError::BadVersion {
                got: input.get_u8(),
            }
        }
        11 => {
            if input.remaining() < 1 {
                return Err(malformed("truncated opcode byte"));
            }
            WireError::UnknownOpcode {
                got: input.get_u8(),
            }
        }
        12 => WireError::Malformed {
            context: get_string(input)?,
        },
        13 => WireError::FrameTooLarge {
            declared: get_u64(input, "truncated declared length")?,
            max: get_u64(input, "truncated max length")?,
        },
        14 => {
            if input.remaining() < 8 {
                return Err(malformed("truncated busy payload"));
            }
            WireError::Busy {
                active: input.get_u32_le(),
                max: input.get_u32_le(),
            }
        }
        15 => WireError::ShuttingDown,
        _ => return Err(malformed("unknown error tag")),
    })
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

/// Encodes a request into a complete frame payload (header + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(PROTO_VERSION);
    match req {
        Request::Ping => buf.put_u8(OP_PING),
        Request::Create { keys } => {
            buf.put_u8(OP_CREATE);
            put_keys(&mut buf, keys);
        }
        Request::InsertKeys { id, keys } => {
            buf.put_u8(OP_INSERT_KEYS);
            buf.put_u64_le(*id);
            put_keys(&mut buf, keys);
        }
        Request::RemoveKeys { id, keys } => {
            buf.put_u8(OP_REMOVE_KEYS);
            buf.put_u64_le(*id);
            put_keys(&mut buf, keys);
        }
        Request::DropSet { id } => {
            buf.put_u8(OP_DROP_SET);
            buf.put_u64_le(*id);
        }
        Request::OccInsert { key } => {
            buf.put_u8(OP_OCC_INSERT);
            buf.put_u64_le(*key);
        }
        Request::OccRemove { key } => {
            buf.put_u8(OP_OCC_REMOVE);
            buf.put_u64_le(*key);
        }
        Request::Get { id } => {
            buf.put_u8(OP_GET);
            buf.put_u64_le(*id);
        }
        Request::ListSets => buf.put_u8(OP_LIST_SETS),
        Request::Sample { target, seed } => {
            buf.put_u8(OP_SAMPLE);
            put_target(&mut buf, target);
            buf.put_u64_le(*seed);
        }
        Request::SampleMany { target, r, seed } => {
            buf.put_u8(OP_SAMPLE_MANY);
            put_target(&mut buf, target);
            buf.put_u32_le(*r);
            buf.put_u64_le(*seed);
        }
        Request::Reconstruct { target } => {
            buf.put_u8(OP_RECONSTRUCT);
            put_target(&mut buf, target);
        }
        Request::ReconstructRange { target, start, end } => {
            buf.put_u8(OP_RECONSTRUCT_RANGE);
            put_target(&mut buf, target);
            buf.put_u64_le(*start);
            buf.put_u64_le(*end);
        }
        Request::Batch { targets, seed } => {
            buf.put_u8(OP_BATCH);
            buf.put_u32_le(targets.len() as u32);
            for t in targets {
                put_target(&mut buf, t);
            }
            buf.put_u64_le(*seed);
        }
        Request::Save => buf.put_u8(OP_SAVE),
        Request::Load { bytes } => {
            buf.put_u8(OP_LOAD);
            put_bytes(&mut buf, bytes);
        }
        Request::Stats => buf.put_u8(OP_STATS),
        Request::Shutdown => buf.put_u8(OP_SHUTDOWN),
        Request::Metrics => buf.put_u8(OP_METRICS),
    }
    buf.to_vec()
}

/// Decodes a request frame payload (header + body), rejecting unknown
/// versions/opcodes, truncated bodies, and trailing bytes with a typed
/// [`WireError`] the server ships straight back.
pub fn decode_request(mut input: &[u8]) -> Result<Request, WireError> {
    if input.remaining() < 2 {
        return Err(malformed("frame shorter than the request header"));
    }
    let version = input.get_u8();
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let opcode = input.get_u8();
    let req = match opcode {
        OP_PING => Request::Ping,
        OP_CREATE => Request::Create {
            keys: get_keys(&mut input)?,
        },
        OP_INSERT_KEYS => Request::InsertKeys {
            id: get_u64(&mut input, "truncated set id")?,
            keys: get_keys(&mut input)?,
        },
        OP_REMOVE_KEYS => Request::RemoveKeys {
            id: get_u64(&mut input, "truncated set id")?,
            keys: get_keys(&mut input)?,
        },
        OP_DROP_SET => Request::DropSet {
            id: get_u64(&mut input, "truncated set id")?,
        },
        OP_OCC_INSERT => Request::OccInsert {
            key: get_u64(&mut input, "truncated key")?,
        },
        OP_OCC_REMOVE => Request::OccRemove {
            key: get_u64(&mut input, "truncated key")?,
        },
        OP_GET => Request::Get {
            id: get_u64(&mut input, "truncated set id")?,
        },
        OP_LIST_SETS => Request::ListSets,
        OP_SAMPLE => Request::Sample {
            target: get_target(&mut input)?,
            seed: get_u64(&mut input, "truncated seed")?,
        },
        OP_SAMPLE_MANY => {
            let target = get_target(&mut input)?;
            if input.remaining() < 4 {
                return Err(malformed("truncated sample count"));
            }
            let r = input.get_u32_le();
            Request::SampleMany {
                target,
                r,
                seed: get_u64(&mut input, "truncated seed")?,
            }
        }
        OP_RECONSTRUCT => Request::Reconstruct {
            target: get_target(&mut input)?,
        },
        OP_RECONSTRUCT_RANGE => Request::ReconstructRange {
            target: get_target(&mut input)?,
            start: get_u64(&mut input, "truncated range start")?,
            end: get_u64(&mut input, "truncated range end")?,
        },
        OP_BATCH => {
            if input.remaining() < 4 {
                return Err(malformed("truncated batch slot count"));
            }
            let count = input.get_u32_le() as usize;
            // A slot is at least 9 bytes; reject absurd counts before
            // allocating (persistence-style bounded with_capacity).
            let mut targets = Vec::with_capacity(count.min(input.remaining() / 9 + 1));
            for _ in 0..count {
                targets.push(get_target(&mut input)?);
            }
            Request::Batch {
                targets,
                seed: get_u64(&mut input, "truncated seed")?,
            }
        }
        OP_SAVE => Request::Save,
        OP_LOAD => Request::Load {
            bytes: get_bytes(&mut input)?,
        },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_METRICS => Request::Metrics,
        got => return Err(WireError::UnknownOpcode { got }),
    };
    if !input.is_empty() {
        return Err(malformed("trailing bytes after request body"));
    }
    Ok(req)
}

// ---------------------------------------------------------------------
// Response codec.
// ---------------------------------------------------------------------

fn put_latency_row(buf: &mut BytesMut, row: &OpLatencyRow) {
    buf.put_u8(row.op);
    buf.put_u64_le(row.count);
    buf.put_f64_le(row.p50_us);
    buf.put_f64_le(row.p95_us);
    buf.put_f64_le(row.p99_us);
}

fn get_latency_row(input: &mut &[u8]) -> Result<OpLatencyRow, WireError> {
    if input.remaining() < 1 + 8 + 3 * 8 {
        return Err(malformed("truncated latency row"));
    }
    Ok(OpLatencyRow {
        op: input.get_u8(),
        count: input.get_u64_le(),
        p50_us: input.get_f64_le(),
        p95_us: input.get_f64_le(),
        p99_us: input.get_f64_le(),
    })
}

/// Encodes a success response into a complete frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(PROTO_VERSION);
    buf.put_u8(STATUS_OK);
    match resp {
        Response::Ok => buf.put_u8(0),
        Response::Pong => buf.put_u8(1),
        Response::Created { id } => {
            buf.put_u8(2);
            buf.put_u64_le(*id);
        }
        Response::Generation { generation } => {
            buf.put_u8(3);
            buf.put_u64_le(*generation);
        }
        Response::Filter { bytes } => {
            buf.put_u8(4);
            put_bytes(&mut buf, bytes);
        }
        Response::Sets { ids } => {
            buf.put_u8(5);
            put_keys(&mut buf, ids);
        }
        Response::Sampled { key } => {
            buf.put_u8(6);
            buf.put_u64_le(*key);
        }
        Response::Keys { keys } => {
            buf.put_u8(7);
            put_keys(&mut buf, keys);
        }
        Response::Batch { results } => {
            buf.put_u8(8);
            buf.put_u32_le(results.len() as u32);
            for r in results {
                match r {
                    Ok(key) => {
                        buf.put_u8(0);
                        buf.put_u64_le(*key);
                    }
                    Err(e) => {
                        buf.put_u8(1);
                        put_wire_error(&mut buf, e);
                    }
                }
            }
        }
        Response::Snapshot { bytes } => {
            buf.put_u8(9);
            put_bytes(&mut buf, bytes);
        }
        Response::Stats(stats) => {
            buf.put_u8(10);
            buf.put_u64_le(stats.namespace);
            buf.put_u32_le(stats.shards);
            buf.put_u64_le(stats.sets);
            buf.put_u64_le(stats.occupied);
            buf.put_u64_le(stats.epoch);
            buf.put_u32_le(stats.active_connections);
            buf.put_u64_le(stats.sessions_served);
            buf.put_u64_le(stats.sessions_refused);
            buf.put_u64_le(stats.frames_served);
            buf.put_u64_le(stats.weight_cache_hits);
            buf.put_u64_le(stats.weight_cache_misses);
            buf.put_u64_le(stats.weight_cache_repairs);
            buf.put_u64_le(stats.engine_intersections);
            buf.put_u64_le(stats.engine_memberships);
            buf.put_u64_le(stats.engine_nodes_visited);
            buf.put_u64_le(stats.engine_backtracks);
            buf.put_u32_le(stats.ops.len() as u32);
            for row in &stats.ops {
                put_latency_row(&mut buf, row);
            }
            match &stats.total {
                Some(row) => {
                    buf.put_u8(1);
                    put_latency_row(&mut buf, row);
                }
                None => buf.put_u8(0),
            }
        }
        Response::Metrics { text } => {
            buf.put_u8(11);
            put_string(&mut buf, text);
        }
    }
    buf.to_vec()
}

/// Encodes an error response into a complete frame payload.
pub fn encode_error(e: &WireError) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u8(PROTO_VERSION);
    buf.put_u8(STATUS_ERR);
    put_wire_error(&mut buf, e);
    buf.to_vec()
}

/// Decodes a response frame payload: `Ok(Ok(_))` is a success body,
/// `Ok(Err(_))` a typed error frame the server sent deliberately, and
/// the outer `Err(_)` means the payload itself could not be decoded.
#[allow(clippy::type_complexity)]
pub fn decode_response(mut input: &[u8]) -> Result<Result<Response, WireError>, WireError> {
    if input.remaining() < 2 {
        return Err(malformed("frame shorter than the response header"));
    }
    let version = input.get_u8();
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    let status = input.get_u8();
    if status == STATUS_ERR {
        let e = get_wire_error(&mut input)?;
        if !input.is_empty() {
            return Err(malformed("trailing bytes after error body"));
        }
        return Ok(Err(e));
    }
    if status != STATUS_OK {
        return Err(malformed("unknown response status"));
    }
    if input.remaining() < 1 {
        return Err(malformed("truncated response tag"));
    }
    let resp = match input.get_u8() {
        0 => Response::Ok,
        1 => Response::Pong,
        2 => Response::Created {
            id: get_u64(&mut input, "truncated id")?,
        },
        3 => Response::Generation {
            generation: get_u64(&mut input, "truncated generation")?,
        },
        4 => Response::Filter {
            bytes: get_bytes(&mut input)?,
        },
        5 => Response::Sets {
            ids: get_keys(&mut input)?,
        },
        6 => Response::Sampled {
            key: get_u64(&mut input, "truncated key")?,
        },
        7 => Response::Keys {
            keys: get_keys(&mut input)?,
        },
        8 => {
            if input.remaining() < 4 {
                return Err(malformed("truncated batch result count"));
            }
            let count = input.get_u32_le() as usize;
            let mut results = Vec::with_capacity(count.min(input.remaining() / 2 + 1));
            for _ in 0..count {
                if input.remaining() < 1 {
                    return Err(malformed("truncated batch result tag"));
                }
                results.push(match input.get_u8() {
                    0 => Ok(get_u64(&mut input, "truncated batch key")?),
                    1 => Err(get_wire_error(&mut input)?),
                    _ => return Err(malformed("unknown batch result tag")),
                });
            }
            Response::Batch { results }
        }
        9 => Response::Snapshot {
            bytes: get_bytes(&mut input)?,
        },
        10 => {
            if input.remaining() < 8 + 4 + 8 * 3 + 4 + 8 * 5 + 8 * 4 + 4 {
                return Err(malformed("truncated stats body"));
            }
            let namespace = input.get_u64_le();
            let shards = input.get_u32_le();
            let sets = input.get_u64_le();
            let occupied = input.get_u64_le();
            let epoch = input.get_u64_le();
            let active_connections = input.get_u32_le();
            let sessions_served = input.get_u64_le();
            let sessions_refused = input.get_u64_le();
            let frames_served = input.get_u64_le();
            let weight_cache_hits = input.get_u64_le();
            let weight_cache_misses = input.get_u64_le();
            let weight_cache_repairs = input.get_u64_le();
            let engine_intersections = input.get_u64_le();
            let engine_memberships = input.get_u64_le();
            let engine_nodes_visited = input.get_u64_le();
            let engine_backtracks = input.get_u64_le();
            let rows = input.get_u32_le() as usize;
            let mut ops = Vec::with_capacity(rows.min(input.remaining() / 33 + 1));
            for _ in 0..rows {
                ops.push(get_latency_row(&mut input)?);
            }
            if input.remaining() < 1 {
                return Err(malformed("truncated stats total flag"));
            }
            let total = match input.get_u8() {
                0 => None,
                1 => Some(get_latency_row(&mut input)?),
                _ => return Err(malformed("unknown stats total flag")),
            };
            Response::Stats(StatsReply {
                namespace,
                shards,
                sets,
                occupied,
                epoch,
                active_connections,
                sessions_served,
                sessions_refused,
                frames_served,
                weight_cache_hits,
                weight_cache_misses,
                weight_cache_repairs,
                engine_intersections,
                engine_memberships,
                engine_nodes_visited,
                engine_backtracks,
                ops,
                total,
            })
        }
        11 => Response::Metrics {
            text: get_string(&mut input)?,
        },
        _ => return Err(malformed("unknown response tag")),
    };
    if !input.is_empty() {
        return Err(malformed("trailing bytes after response body"));
    }
    Ok(Ok(resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        // Deterministic: same value, same bytes.
        assert_eq!(encode_request(&req), bytes);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).unwrap().unwrap(), resp, "{resp:?}");
        assert_eq!(encode_response(&resp), bytes);
    }

    #[test]
    fn request_roundtrips_every_variant() {
        let adhoc = Target::Adhoc(vec![1, 2, 3, 4]);
        for req in [
            Request::Ping,
            Request::Create {
                keys: vec![1, 2, 3],
            },
            Request::Create { keys: vec![] },
            Request::InsertKeys {
                id: 7,
                keys: vec![9, 10],
            },
            Request::RemoveKeys {
                id: 7,
                keys: vec![11],
            },
            Request::DropSet { id: 3 },
            Request::OccInsert { key: 42 },
            Request::OccRemove { key: 43 },
            Request::Get { id: 0 },
            Request::ListSets,
            Request::Sample {
                target: Target::Stored(5),
                seed: 99,
            },
            Request::Sample {
                target: adhoc.clone(),
                seed: 0,
            },
            Request::SampleMany {
                target: Target::Stored(1),
                r: 64,
                seed: 3,
            },
            Request::Reconstruct {
                target: adhoc.clone(),
            },
            Request::ReconstructRange {
                target: Target::Stored(2),
                start: 10,
                end: 20,
            },
            Request::Batch {
                targets: vec![Target::Stored(1), adhoc, Target::Stored(2)],
                seed: 17,
            },
            Request::Save,
            Request::Load {
                bytes: vec![0xAB; 32],
            },
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
        ] {
            roundtrip_request(req);
        }
    }

    #[test]
    fn keys_reply_is_its_header_plus_eight_bytes_per_key() {
        for n in [0usize, 1, 5] {
            let reply = encode_response(&Response::Keys { keys: vec![7; n] });
            assert_eq!(reply.len() as u64, KEYS_REPLY_HEADER + 8 * n as u64);
        }
    }

    #[test]
    fn response_roundtrips_every_variant() {
        for resp in [
            Response::Ok,
            Response::Pong,
            Response::Created { id: 12 },
            Response::Generation { generation: 4 },
            Response::Filter { bytes: vec![9; 16] },
            Response::Sets { ids: vec![0, 1, 5] },
            Response::Sampled { key: 31 },
            Response::Keys {
                keys: vec![1, 2, 3],
            },
            Response::Batch {
                results: vec![
                    Ok(7),
                    Err(WireError::NoLiveLeaf),
                    Ok(9),
                    Err(WireError::UnknownFilterId { raw: 3 }),
                ],
            },
            Response::Snapshot {
                bytes: vec![0xCD; 64],
            },
            Response::Stats(StatsReply {
                namespace: 1 << 20,
                shards: 8,
                sets: 3,
                occupied: 12_345,
                epoch: 2,
                active_connections: 4,
                sessions_served: 100,
                sessions_refused: 2,
                frames_served: 5_000,
                weight_cache_hits: 10,
                weight_cache_misses: 20,
                weight_cache_repairs: 1,
                engine_intersections: 4_096,
                engine_memberships: 900,
                engine_nodes_visited: 5_000,
                engine_backtracks: 7,
                ops: vec![
                    OpLatencyRow {
                        op: 3,
                        count: 1000,
                        p50_us: 12.5,
                        p95_us: 80.0,
                        p99_us: 140.25,
                    },
                    OpLatencyRow {
                        op: 5,
                        count: 3,
                        p50_us: 900.0,
                        p95_us: 1200.0,
                        p99_us: 1200.0,
                    },
                ],
                total: Some(OpLatencyRow {
                    op: 255,
                    count: 1003,
                    p50_us: 13.0,
                    p95_us: 90.0,
                    p99_us: 1100.0,
                }),
            }),
            Response::Stats(StatsReply {
                namespace: 16,
                shards: 1,
                sets: 0,
                occupied: 0,
                epoch: 0,
                active_connections: 1,
                sessions_served: 1,
                sessions_refused: 0,
                frames_served: 1,
                weight_cache_hits: 0,
                weight_cache_misses: 0,
                weight_cache_repairs: 0,
                engine_intersections: 0,
                engine_memberships: 0,
                engine_nodes_visited: 0,
                engine_backtracks: 0,
                ops: vec![],
                total: None,
            }),
            Response::Metrics {
                text: "# TYPE bst_x counter\nbst_x 3\n".into(),
            },
        ] {
            roundtrip_response(resp);
        }
    }

    #[test]
    fn wire_error_roundtrips_every_variant() {
        for e in [
            WireError::EmptyFilter,
            WireError::IncompatibleFilter,
            WireError::EmptyTree,
            WireError::NoLiveLeaf,
            WireError::BudgetExhausted { attempts: 96 },
            WireError::InvalidConfig {
                message: "bad gamma".into(),
            },
            WireError::UnknownFilterId { raw: 77 },
            WireError::ImmutableBackend,
            WireError::KeyOutsideNamespace { key: 1 << 40 },
            WireError::Persist {
                message: "input truncated".into(),
            },
            WireError::BadVersion { got: 9 },
            WireError::UnknownOpcode { got: 200 },
            WireError::Malformed {
                context: "trailing bytes".into(),
            },
            WireError::FrameTooLarge {
                declared: 1 << 30,
                max: 1 << 23,
            },
            WireError::Busy {
                active: 64,
                max: 64,
            },
            WireError::ShuttingDown,
        ] {
            let bytes = encode_error(&e);
            assert_eq!(decode_response(&bytes).unwrap().unwrap_err(), e, "{e:?}");
        }
    }

    #[test]
    fn bst_errors_map_variant_by_variant() {
        use bst_core::persistence::PersistError;
        use bst_core::store::FilterId;
        assert_eq!(
            WireError::from(BstError::EmptyFilter),
            WireError::EmptyFilter
        );
        assert_eq!(
            WireError::from(BstError::BudgetExhausted { attempts: 5 }),
            WireError::BudgetExhausted { attempts: 5 }
        );
        assert_eq!(
            WireError::from(BstError::UnknownFilterId(FilterId::from_raw(9))),
            WireError::UnknownFilterId { raw: 9 }
        );
        assert_eq!(
            WireError::from(BstError::KeyOutsideNamespace(123)),
            WireError::KeyOutsideNamespace { key: 123 }
        );
        let persist = WireError::from(BstError::Persist(PersistError::BadMagic));
        assert!(matches!(persist, WireError::Persist { ref message } if message.contains("magic")));
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        // Wrong version.
        let mut bad = encode_request(&Request::Ping);
        bad[0] = 99;
        assert_eq!(
            decode_request(&bad).unwrap_err(),
            WireError::BadVersion { got: 99 }
        );
        // Unknown opcode.
        let mut bad = encode_request(&Request::Ping);
        bad[1] = 250;
        assert_eq!(
            decode_request(&bad).unwrap_err(),
            WireError::UnknownOpcode { got: 250 }
        );
        // Truncated body.
        let good = encode_request(&Request::Create {
            keys: vec![1, 2, 3],
        });
        for cut in 2..good.len() {
            assert!(
                matches!(
                    decode_request(&good[..cut]).unwrap_err(),
                    WireError::Malformed { .. }
                ),
                "cut at {cut}"
            );
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            decode_request(&long).unwrap_err(),
            WireError::Malformed { .. }
        ));
        // Empty and one-byte payloads.
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[PROTO_VERSION]).is_err());
    }

    #[test]
    fn response_decode_rejects_garbage() {
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[PROTO_VERSION, 7]).is_err());
        let good = encode_response(&Response::Keys {
            keys: vec![5, 6, 7],
        });
        for cut in 2..good.len() {
            assert!(decode_response(&good[..cut]).is_err(), "cut at {cut}");
        }
    }
}
