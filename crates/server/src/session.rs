//! Per-connection session state — none, today.
//!
//! Warm per-set state (open [`bst_shard::ShardQuery`] handles on stored
//! sets, with their memoized weights and descent state) has one owner:
//! the engine's handle pool ([`bst_shard::pool`]), which every
//! connection and the id-batch entry point share. So a warm handle is
//! reused across connections, warm-state memory does not grow with the
//! connection count, and a wire `LOAD` needs no flush: the pool dies
//! with the engine it belongs to. Ad-hoc filters are one-shot: each
//! request opens its own handle.

/// One connection's session: the per-connection argument of
/// [`crate::handler::handle`]. It carries no state.
#[derive(Debug)]
pub struct Session;

impl Session {
    /// A session against the engine at `epoch`. The epoch is not kept:
    /// nothing in a session depends on which engine is served.
    pub fn new(_epoch: u64) -> Self {
        Session
    }
}
