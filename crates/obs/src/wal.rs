//! Durability (write-ahead log) instrumentation: one pre-wired bundle
//! of handles for the WAL hot path.
//!
//! The durable engine appends a record per acked mutation, so the
//! recording side must stay as cheap as the rest of the stack: every
//! handle here is an `Arc`-of-atomic clone from [`crate::metrics`].
//! The server registers the bundle's series on its METRICS page via
//! [`WalObs::register`]; embedders without a registry can still read
//! the handles directly.

use crate::metrics::{Counter, Gauge, MetricsRegistry};

/// Instrumentation handles for one write-ahead log: appended records,
/// fsyncs, replay length, checkpoint activity, current log size, and
/// whether the durable facade is wedged.
///
/// Cloning shares the underlying atomics, so the durable engine and the
/// metrics page observe the same counters.
#[derive(Clone, Default)]
pub struct WalObs {
    /// Records appended (and acked) to the log since open.
    pub appended: Counter,
    /// `fsync` calls issued by the append path (policy-dependent).
    pub fsyncs: Counter,
    /// Records replayed from the log tail during the last recovery.
    pub replayed: Gauge,
    /// Bytes of torn tail dropped during the last recovery.
    pub torn_bytes: Gauge,
    /// Checkpoints written since open.
    pub checkpoints: Counter,
    /// Wall-clock duration of the last checkpoint, in microseconds.
    pub last_checkpoint_us: Gauge,
    /// How long the last checkpoint held the log mutex — the writers'
    /// stall: log rotation plus the snapshot encode — in microseconds.
    pub last_checkpoint_stall_us: Gauge,
    /// Current byte length of the log file.
    pub log_bytes: Gauge,
    /// 1 while the durable facade is wedged — an append failed after its
    /// mutation applied, so mutations are refused until a checkpoint or
    /// disk recovery reconciles log and engine — else 0.
    pub wedged: Gauge,
}

impl WalObs {
    /// A fresh bundle with every series at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the bundle's series under the conventional
    /// `bst_wal_*` names. Call once per registry; the handles keep
    /// working unregistered (they just render nowhere).
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "bst_wal_records_total",
            "WAL records appended (acked mutations)",
            &[],
            self.appended.clone(),
        );
        registry.register_counter(
            "bst_wal_fsyncs_total",
            "fsync calls issued by the WAL append path",
            &[],
            self.fsyncs.clone(),
        );
        registry.register_gauge(
            "bst_wal_replayed_records",
            "records replayed from the WAL tail at last recovery",
            &[],
            self.replayed.clone(),
        );
        registry.register_gauge(
            "bst_wal_torn_tail_bytes",
            "torn-tail bytes truncated at last recovery",
            &[],
            self.torn_bytes.clone(),
        );
        registry.register_counter(
            "bst_wal_checkpoints_total",
            "checkpoints written since the log was opened",
            &[],
            self.checkpoints.clone(),
        );
        registry.register_gauge(
            "bst_wal_last_checkpoint_us",
            "wall-clock duration of the last checkpoint (µs)",
            &[],
            self.last_checkpoint_us.clone(),
        );
        registry.register_gauge(
            "bst_wal_last_checkpoint_stall_us",
            "time the last checkpoint held the log mutex, stalling writers (µs)",
            &[],
            self.last_checkpoint_stall_us.clone(),
        );
        registry.register_gauge(
            "bst_wal_log_bytes",
            "current byte length of the WAL file",
            &[],
            self.log_bytes.clone(),
        );
        registry.register_gauge(
            "bst_wal_wedged",
            "1 while mutations are refused until a checkpoint reconciles log and engine",
            &[],
            self.wedged.clone(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_every_series() {
        let registry = MetricsRegistry::new();
        let obs = WalObs::new();
        obs.register(&registry);
        obs.appended.add(3);
        obs.fsyncs.inc();
        obs.replayed.set(7);
        obs.log_bytes.set(4096);
        obs.wedged.set(1);
        obs.last_checkpoint_us.set(900);
        obs.last_checkpoint_stall_us.set(120);
        let page = crate::expo::render(&registry);
        crate::expo::validate(&page).expect("well-formed page");
        for series in [
            "bst_wal_records_total 3",
            "bst_wal_fsyncs_total 1",
            "bst_wal_replayed_records 7",
            "bst_wal_torn_tail_bytes 0",
            "bst_wal_checkpoints_total 0",
            "bst_wal_last_checkpoint_us 900",
            "bst_wal_last_checkpoint_stall_us 120",
            "bst_wal_log_bytes 4096",
            "bst_wal_wedged 1",
        ] {
            assert!(page.contains(series), "missing `{series}` in:\n{page}");
        }
    }
}
