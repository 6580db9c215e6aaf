//! Per-connection session state — none, today.
//!
//! Warm per-filter state (open [`bst_shard::ShardQuery`] handles with
//! their memoized weights and descent state) has one owner: the
//! engine's handle pool ([`bst_shard::pool`]), which every connection
//! and both batch entry points share. So a warm handle is reused across
//! connections, warm-state memory does not grow with the connection
//! count, and a wire `LOAD` needs no flush: the pool dies with the
//! engine it belongs to.

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
