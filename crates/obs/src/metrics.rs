//! The metrics half: lock-free recording handles and the registry that
//! names them.
//!
//! Handles are `Arc`-of-atomics: cloning one is a refcount bump, and
//! recording touches no lock — a [`Counter`] increment is one relaxed
//! `fetch_add`, an [`AtomicHistogram`] observation is two. The
//! [`MetricsRegistry`] holds one entry per series; its lock is taken
//! only at registration and at collection/render time, never on the
//! serving path.
//!
//! Series names follow Prometheus conventions
//! (`bst_<layer>_<noun>_<unit>[_total]`); [`MetricsRegistry`]
//! sanitises names at registration (invalid characters become `_`) so
//! a typo can never produce an unscrapable page.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use bst_stats::histogram::Histogram;
use parking_lot::RwLock;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter, not yet attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (live connections, cached handles).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh zeroed gauge, not yet attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (which may be negative).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// The concurrent histogram core: the same equal-width binning as
/// [`bst_stats::histogram::Histogram`], held in atomics.
#[derive(Debug)]
struct HistCore {
    lo: f64,
    hi: f64,
    bins: Vec<AtomicU64>,
    /// Observations outside `[lo, hi)`.
    outliers: AtomicU64,
    /// Sum of all observations (in-range and outliers), fixed-point
    /// milli-units (`value × 1000` rounded) so it can live in a `u64`
    /// atomic. Negative observations contribute zero.
    sum_milli: AtomicU64,
    /// All observations, in-range and outliers.
    count: AtomicU64,
}

/// A thread-safe histogram recording with two relaxed atomic ops and
/// snapshotting into a [`bst_stats::histogram::Histogram`] for
/// quantiles. Bin `i` means exactly what the sequential histogram's bin
/// `i` means, so a snapshot is bit-identical to having recorded the
/// same observations sequentially.
#[derive(Clone, Debug)]
pub struct AtomicHistogram {
    core: Arc<HistCore>,
}

impl AtomicHistogram {
    /// A histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi` (same contract as
    /// [`bst_stats::histogram::Histogram::new`]).
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let mut v = Vec::with_capacity(bins);
        v.resize_with(bins, AtomicU64::default);
        AtomicHistogram {
            core: Arc::new(HistCore {
                lo,
                hi,
                bins: v,
                outliers: AtomicU64::new(0),
                sum_milli: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn record(&self, x: f64) {
        let core = &*self.core;
        core.count.fetch_add(1, Ordering::Relaxed);
        if x > 0.0 && x.is_finite() {
            core.sum_milli
                .fetch_add((x * 1000.0).round() as u64, Ordering::Relaxed);
        }
        if x < core.lo || x >= core.hi || x.is_nan() {
            core.outliers.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Mirrors Histogram::record's binning exactly.
        let frac = (x - core.lo) / (core.hi - core.lo);
        let idx = ((frac * core.bins.len() as f64) as usize).min(core.bins.len() - 1);
        core.bins[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Materialises the current counts as a queryable sequential
    /// histogram (`O(bins)`).
    pub fn snapshot(&self) -> Histogram {
        let core = &*self.core;
        let counts: Vec<u64> = core
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Histogram::from_counts(
            core.lo,
            core.hi,
            counts,
            core.outliers.load(Ordering::Relaxed),
        )
    }

    /// Sum of every observation (in-range and outliers; negative
    /// observations contribute zero).
    pub fn sum(&self) -> f64 {
        self.core.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Number of observations, in-range and outliers.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// The `[lo, hi)` range the bins cover.
    pub fn range(&self) -> (f64, f64) {
        (self.core.lo, self.core.hi)
    }
}

/// What one series reports at collection time.
#[derive(Clone, Debug)]
pub enum Observation {
    /// A monotone count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A latency/size distribution, pre-digested into summary rows.
    Summary {
        /// `(q, value)` pairs; `NaN` value when no in-range observation.
        quantiles: Vec<(f64, f64)>,
        /// Sum of all observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// One collected series: family name, help text, label pairs, value.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The metric family name (shared by labeled variants).
    pub family: String,
    /// One-line help text (first registration of the family wins).
    pub help: String,
    /// Label `(key, value)` pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// The value read at collection time.
    pub value: Observation,
}

/// Where an entry's value comes from at collection time.
enum Source {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(AtomicHistogram),
    /// Reads a live counter value at scrape time — for series whose
    /// backing object can be replaced wholesale (e.g. engine swap on a
    /// wire `LOAD`): the closure chases the current owner instead of
    /// pinning a dead handle.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Gauge analogue of `CounterFn`.
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
}

struct Entry {
    family: String,
    help: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// The process-wide name → series table. Registration hands back (or
/// accepts) lock-free recording handles; the internal lock is touched
/// only when registering and when collecting.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: RwLock<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} series)", self.entries.read().len())
    }
}

/// Maps a proposed name onto the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, and an
/// invalid (or missing) first character gets a `_` prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (sanitize(k), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, family: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        self.entries.write().push(Entry {
            family: sanitize(family),
            help: help.to_string(),
            labels: own_labels(labels),
            source,
        });
    }

    /// Creates, registers, and returns a fresh counter.
    pub fn counter(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let handle = Counter::new();
        self.register_counter(family, help, labels, handle.clone());
        handle
    }

    /// Registers an existing counter handle (one the owning subsystem
    /// already holds, e.g. a batch-phase counter).
    pub fn register_counter(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        handle: Counter,
    ) {
        self.push(family, help, labels, Source::Counter(handle));
    }

    /// Creates, registers, and returns a fresh gauge.
    pub fn gauge(&self, family: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let handle = Gauge::new();
        self.register_gauge(family, help, labels, handle.clone());
        handle
    }

    /// Registers an existing gauge handle.
    pub fn register_gauge(&self, family: &str, help: &str, labels: &[(&str, &str)], handle: Gauge) {
        self.push(family, help, labels, Source::Gauge(handle));
    }

    /// Creates, registers, and returns a fresh atomic histogram with
    /// `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn histogram(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> AtomicHistogram {
        let handle = AtomicHistogram::new(lo, hi, bins);
        self.register_histogram(family, help, labels, handle.clone());
        handle
    }

    /// Registers an existing histogram handle.
    pub fn register_histogram(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        handle: AtomicHistogram,
    ) {
        self.push(family, help, labels, Source::Histogram(handle));
    }

    /// Registers a counter whose value is read by `f` at scrape time —
    /// the engine-swap-safe registration form.
    pub fn counter_fn(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(family, help, labels, Source::CounterFn(Box::new(f)));
    }

    /// Registers a gauge whose value is read by `f` at scrape time.
    pub fn gauge_fn(
        &self,
        family: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push(family, help, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Quantiles every histogram series digests into at collection.
    pub const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

    /// Reads every series once, in registration order.
    pub fn collect(&self) -> Vec<Sample> {
        let entries = self.entries.read();
        entries
            .iter()
            .map(|e| Sample {
                family: e.family.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.source {
                    Source::Counter(c) => Observation::Counter(c.get()),
                    Source::Gauge(g) => Observation::Gauge(g.get() as f64),
                    Source::Histogram(h) => {
                        let snap = h.snapshot();
                        Observation::Summary {
                            quantiles: Self::SUMMARY_QUANTILES
                                .iter()
                                .map(|&q| (q, snap.quantile(q).unwrap_or(f64::NAN)))
                                .collect(),
                            sum: h.sum(),
                            count: h.count(),
                        }
                    }
                    Source::CounterFn(f) => Observation::Counter(f()),
                    Source::GaugeFn(f) => Observation::Gauge(f()),
                },
            })
            .collect()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether no series is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 6, "clones share the cell");

        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.add(2);
        assert_eq!(g.clone().get(), 6);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_sequential() {
        let a = AtomicHistogram::new(0.0, 10.0, 5);
        let mut s = bst_stats::histogram::Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.99, -1.0, 12.0, 5.5, 5.5] {
            a.record(v);
            s.record(v);
        }
        let snap = a.snapshot();
        assert_eq!(snap.counts(), s.counts());
        assert_eq!(snap.outliers(), s.outliers());
        assert_eq!(snap.p50(), s.p50());
        assert_eq!(a.count(), 8);
        // 0 + 1.9 + 2 + 9.99 + 12 + 5.5 + 5.5 (negatives contribute 0)
        assert!((a.sum() - 36.89).abs() < 1e-9, "sum = {}", a.sum());
        assert_eq!(a.range(), (0.0, 10.0));
    }

    #[test]
    fn atomic_histogram_is_shared_across_clones_and_threads() {
        let h = AtomicHistogram::new(0.0, 100.0, 10);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record((i % 100) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().total(), 4000);
    }

    #[test]
    fn registry_collects_in_registration_order() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("bst_test_ops_total", "ops", &[]);
        let g = reg.gauge("bst_test_live", "live", &[("kind", "a")]);
        let h = reg.histogram("bst_test_lat_us", "latency", &[], 0.0, 100.0, 10);
        c.add(3);
        g.set(-2);
        h.record(50.0);
        h.record(250.0); // outlier: counted, not binned
        let samples = reg.collect();
        assert_eq!(samples.len(), 3);
        assert!(matches!(samples[0].value, Observation::Counter(3)));
        assert_eq!(samples[1].labels, vec![("kind".into(), "a".into())]);
        assert!(matches!(samples[1].value, Observation::Gauge(v) if v == -2.0));
        match &samples[2].value {
            Observation::Summary {
                quantiles,
                sum,
                count,
            } => {
                assert_eq!(*count, 2);
                assert!((sum - 300.0).abs() < 1e-9);
                assert_eq!(quantiles.len(), 3);
                assert!(quantiles.iter().all(|(_, v)| v.is_finite()));
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn callback_series_read_live_values() {
        let reg = MetricsRegistry::new();
        let shared = Arc::new(AtomicU64::new(0));
        let reader = Arc::clone(&shared);
        reg.counter_fn("bst_test_cb_total", "cb", &[], move || {
            reader.load(Ordering::Relaxed)
        });
        reg.gauge_fn("bst_test_cb_gauge", "cbg", &[], || 1.5);
        shared.store(42, Ordering::Relaxed);
        let samples = reg.collect();
        assert!(matches!(samples[0].value, Observation::Counter(42)));
        assert!(matches!(samples[1].value, Observation::Gauge(v) if v == 1.5));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("bst_ok_total"), "bst_ok_total");
        assert_eq!(sanitize("bad name-1"), "bad_name_1");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
        let reg = MetricsRegistry::new();
        reg.counter("weird name!", "x", &[("bad key", "kept value")]);
        let s = &reg.collect()[0];
        assert_eq!(s.family, "weird_name_");
        assert_eq!(s.labels[0].0, "bad_key");
        assert_eq!(s.labels[0].1, "kept value");
    }

    #[test]
    fn summary_quantiles_are_nan_when_outlier_only() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("bst_test_h", "h", &[], 0.0, 1.0, 2);
        h.record(5.0);
        match &reg.collect()[0].value {
            Observation::Summary {
                quantiles, count, ..
            } => {
                assert_eq!(*count, 1);
                assert!(quantiles.iter().all(|(_, v)| v.is_nan()));
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }
}
