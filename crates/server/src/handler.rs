//! Request dispatch: one decoded [`Request`] in, one typed reply out.
//!
//! The handler owns the mapping from wire commands onto the server's
//! one engine owner — the `DurableBstSystem` store, with or without a
//! WAL — whose engine also owns the warm-handle pool every stored-set
//! query arm draws from. Each opcode has one arm.
//! Determinism contract: every sampling command carries a client
//! `seed`, and the server draws from a fresh `StdRng::seed_from_u64`
//! per request — so the same request against the same engine state
//! returns the same keys whether the handle was warm or cold, which the
//! e2e tests pin bit-for-bit against in-process draws.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use bst_core::error::BstError;
use bst_core::store::FilterId;
use bst_shard::{DurableError, ShardedBstSystem};

use crate::protocol::{Request, Response, StatsReply, Target, WireError, KEYS_REPLY_HEADER};
use crate::server::ServerState;
use crate::session::Session;

/// The handler's verdict: a reply frame body, plus whether the server
/// should stop accepting after this reply is flushed.
pub struct Outcome {
    /// What to send back.
    pub reply: Result<Response, WireError>,
    /// True only for a served `SHUTDOWN`.
    pub shutdown_after: bool,
}

impl Outcome {
    fn reply(reply: Result<Response, WireError>) -> Self {
        Outcome {
            reply,
            shutdown_after: false,
        }
    }
}

/// Maps a durability failure onto the wire: engine rejections keep
/// their own typed variants; disk and replay trouble surfaces as
/// [`WireError::Persist`].
fn wire_durable(e: DurableError) -> WireError {
    match e {
        DurableError::Engine(e) => WireError::from(e),
        other => WireError::Persist {
            message: other.to_string(),
        },
    }
}

/// Serves one request against the shared state. The session is the
/// connection's (stateless) slot in the call. Never panics on
/// adversarial input: decode failures arrive pre-typed, and engine
/// errors map through `WireError::from`.
pub fn handle(state: &ServerState, _session: &mut Session, req: Request) -> Outcome {
    let engine = state.engine.read();
    let store = &state.store;
    // Taken under the epoch read guard: a LOAD cannot swap the engine
    // while this request runs.
    let sys = store.system();
    match req {
        Request::Ping => Outcome::reply(Ok(Response::Pong)),
        // Mutations go through the store: applied (and, with a WAL,
        // logged) before the reply frame is written, so with a log every
        // acked mutation survives a crash.
        Request::Create { keys } => Outcome::reply(
            store
                .create(keys)
                .map(|id| Response::Created { id: id.raw() })
                .map_err(wire_durable),
        ),
        Request::InsertKeys { id, keys } => Outcome::reply(
            store
                .insert_keys(FilterId::from_raw(id), keys)
                .map(|()| Response::Ok)
                .map_err(wire_durable),
        ),
        Request::RemoveKeys { id, keys } => Outcome::reply(
            store
                .remove_keys(FilterId::from_raw(id), keys)
                .map(|()| Response::Ok)
                .map_err(wire_durable),
        ),
        Request::DropSet { id } => Outcome::reply(
            store
                .drop_set(FilterId::from_raw(id))
                .map(|()| Response::Ok)
                .map_err(wire_durable),
        ),
        Request::OccInsert { key } => Outcome::reply(
            store
                .insert_occupied(key)
                .map(|generation| Response::Generation { generation })
                .map_err(wire_durable),
        ),
        Request::OccRemove { key } => Outcome::reply(
            store
                .remove_occupied(key)
                .map(|generation| Response::Generation { generation })
                .map_err(wire_durable),
        ),
        Request::Get { id } => Outcome::reply(
            sys.get(FilterId::from_raw(id))
                .map(|f| Response::Filter {
                    bytes: bst_bloom::codec::encode(&f).to_vec(),
                })
                .map_err(WireError::from),
        ),
        Request::ListSets => {
            let mut ids: Vec<u64> = sys.ids().iter().map(|id| id.raw()).collect();
            ids.sort_unstable();
            Outcome::reply(Ok(Response::Sets { ids }))
        }
        Request::Sample { target, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            Outcome::reply(
                with_handle(state, &sys, &target, |q| q.sample(&mut rng))
                    .map(|key| Response::Sampled { key }),
            )
        }
        Request::SampleMany { target, r, seed } => {
            // Refuse a reply that could never be framed before opening a
            // handle: the sampler reserves room for all `r` keys up front.
            let reply_len = KEYS_REPLY_HEADER + 8 * u64::from(r);
            if reply_len > state.cfg.max_frame {
                return Outcome::reply(Err(WireError::FrameTooLarge {
                    declared: reply_len,
                    max: state.cfg.max_frame,
                }));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            Outcome::reply(
                with_handle(state, &sys, &target, |q| {
                    q.sample_many(r as usize, &mut rng)
                })
                .map(|keys| Response::Keys { keys }),
            )
        }
        Request::Reconstruct { target } => Outcome::reply(
            with_handle(state, &sys, &target, |q| q.reconstruct())
                .map(|keys| Response::Keys { keys }),
        ),
        Request::ReconstructRange { target, start, end } => Outcome::reply(
            with_handle(state, &sys, &target, |q| q.reconstruct_range(start..end))
                .map(|keys| Response::Keys { keys }),
        ),
        Request::Batch { targets, seed } => Outcome::reply(batch(state, &sys, &targets, seed)),
        // With a WAL, SAVE is "checkpoint + truncate": the snapshot is
        // published atomically on disk and the log's covered tail drops.
        // Without one the checkpoint is a no-op. The reply carries the
        // snapshot bytes either way.
        Request::Save => Outcome::reply(
            store
                .checkpoint()
                .map(|()| Response::Snapshot {
                    bytes: sys.to_bytes(),
                })
                .map_err(wire_durable),
        ),
        Request::Load { bytes } => {
            // Release the epoch read lock: `load` takes it for write.
            drop(engine);
            Outcome::reply(load(state, &bytes))
        }
        Request::Stats => {
            let (ops, total) = state.stats.rows();
            // The three weight-cache fields keep their wire layout: hits
            // and misses count handle-pool lookups, repairs reads 0.
            let pool = sys.handle_pool_stats();
            Outcome::reply(Ok(Response::Stats(StatsReply {
                namespace: sys.namespace(),
                shards: sys.shard_count() as u32,
                sets: sys.len() as u64,
                occupied: sys.occupied_count(),
                epoch: engine.epoch,
                active_connections: state.active_connections(),
                sessions_served: state.sessions_served(),
                sessions_refused: state.sessions_refused(),
                frames_served: state.frames_served(),
                weight_cache_hits: pool.hits,
                weight_cache_misses: pool.misses,
                weight_cache_repairs: 0,
                engine_intersections: state.engine_ops.intersections.get(),
                engine_memberships: state.engine_ops.memberships.get(),
                engine_nodes_visited: state.engine_ops.nodes_visited.get(),
                engine_backtracks: state.engine_ops.backtracks.get(),
                ops,
                total,
            })))
        }
        Request::Metrics => {
            // Release the epoch read lock first: scrape-time callbacks
            // re-enter it to read the epoch.
            drop(engine);
            Outcome::reply(Ok(Response::Metrics {
                text: bst_obs::expo::render(&state.metrics),
            }))
        }
        Request::Shutdown => Outcome {
            reply: Ok(Response::Ok),
            shutdown_after: true,
        },
    }
}

/// Swaps the served engine: an empty body recovers from disk (newest
/// checkpoint + log-tail replay; a typed `Persist` error without a WAL),
/// a snapshot body is adopted (and, with a WAL, checkpointed). The body
/// decodes outside any lock; the swap runs under the epoch write lock,
/// so no request — mutations included — runs against either engine
/// while it happens. The old engine's handle pool goes with it.
fn load(state: &ServerState, bytes: &[u8]) -> Result<Response, WireError> {
    let decoded = if bytes.is_empty() {
        None
    } else {
        Some(ShardedBstSystem::from_bytes(bytes)?)
    };
    let mut engine = state.engine.write();
    let system = match decoded {
        None => state.store.recover_from_disk(),
        Some(system) => state.store.adopt(system.clone()).map(|()| system),
    }
    .map_err(wire_durable)?;
    // The replacement engine reports into the same trace ring and batch
    // histograms as the one it replaces.
    state.instrument_engine(&system);
    engine.epoch += 1;
    Ok(Response::Ok)
}

/// Resolves a target to a handle — a stored set's pooled one, or a
/// detached one for an ad-hoc filter — and runs `f` on it, then drains
/// the handle's per-call [`bst_core::OpStats`] into the server's
/// cumulative engine totals.
fn with_handle<T>(
    state: &ServerState,
    sys: &ShardedBstSystem,
    target: &Target,
    f: impl FnOnce(&bst_shard::ShardQuery) -> Result<T, BstError>,
) -> Result<T, WireError> {
    let handle = match target {
        Target::Stored(raw) => sys.pooled_query_id(FilterId::from_raw(*raw)),
        Target::Adhoc(bytes) => {
            let filter = bst_bloom::codec::decode(bytes).map_err(|e| WireError::Malformed {
                context: format!("ad-hoc filter: {e}"),
            })?;
            Ok(Arc::new(sys.query(&filter)))
        }
    };
    handle
        .and_then(|q| {
            let out = f(&q);
            state.note_engine_stats(q.take_stats());
            out
        })
        .map_err(WireError::from)
}

/// Serves a mixed batch: id-addressed slots ride the engine's
/// `query_batch_ids` scatter (on pooled handles), ad-hoc slots ride
/// `query_batch`, both with the same client seed, and the answers
/// are put back in request order by slot. A slot whose filter bytes fail
/// to decode fails alone — the rest of the batch still runs. Batch
/// OpStats feed the server's cumulative engine totals.
fn batch(
    state: &ServerState,
    sys: &ShardedBstSystem,
    targets: &[Target],
    seed: u64,
) -> Result<Response, WireError> {
    let mut answered: Vec<(usize, Result<u64, WireError>)> = Vec::new();
    let (mut id_slots, mut ids) = (Vec::new(), Vec::new());
    let (mut filter_slots, mut filters) = (Vec::new(), Vec::new());
    for (slot, target) in targets.iter().enumerate() {
        match target {
            Target::Stored(raw) => {
                id_slots.push(slot);
                ids.push(FilterId::from_raw(*raw));
            }
            Target::Adhoc(bytes) => match bst_bloom::codec::decode(bytes) {
                Ok(f) => {
                    filter_slots.push(slot);
                    filters.push(f);
                }
                Err(e) => answered.push((
                    slot,
                    Err(WireError::Malformed {
                        context: format!("ad-hoc filter in batch slot {slot}: {e}"),
                    }),
                )),
            },
        }
    }
    if !ids.is_empty() {
        let (answers, stats) = sys.query_batch_ids(&ids, seed, 0);
        state.note_engine_stats(stats);
        answered.extend(id_slots.into_iter().zip(answers.into_iter().map(wire)));
    }
    if !filters.is_empty() {
        let (answers, stats) = sys.query_batch(&filters, seed, 0);
        state.note_engine_stats(stats);
        answered.extend(filter_slots.into_iter().zip(answers.into_iter().map(wire)));
    }
    answered.sort_unstable_by_key(|(slot, _)| *slot);
    Ok(Response::Batch {
        results: answered.into_iter().map(|(_, answer)| answer).collect(),
    })
}

/// One engine answer in wire terms.
fn wire(answer: Result<u64, BstError>) -> Result<u64, WireError> {
    answer.map_err(WireError::from)
}
