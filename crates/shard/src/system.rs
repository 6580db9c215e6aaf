//! [`ShardedBstSystem`]: the partitioned engine and its builder.

use std::sync::Arc;

use bst_bloom::filter::BloomFilter;
use bst_bloom::hash::HashKind;
use bst_bloom::params::m_for_accuracy;
use bst_core::backend::TreeBackend;
use bst_core::costmodel;
use bst_core::error::BstError;
use bst_core::metrics::OpStats;
use bst_core::persistence::{self, PersistError};
use bst_core::query::Query;
use bst_core::store::{BstStore, FilterId};
use bst_core::system::{BstConfig, BstSystem};
use bst_core::tree::QueryChunk;
use bst_obs::{AtomicHistogram, Counter, Recorder, Tracer};
use bytes::{Buf, BufMut, BytesMut};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::pool::{HandlePool, HandlePoolStats};
use crate::query::{merge_weights, pick_shard, ShardQuery};

/// Magic bytes of a sharded-system snapshot.
const SHARD_MAGIC: &[u8; 4] = b"BSTH";

/// Shard boundaries for `shards` contiguous partitions of `[0, namespace)`:
/// `shards + 1` values, first 0, last `namespace`, widths within one of
/// each other. Every key belongs to exactly one `[b[s], b[s+1])` — the
/// routing rule [`ShardedBstSystem::shard_of`] implements (property-
/// tested in `tests/proptests.rs`).
///
/// # Panics
/// Panics unless `1 ≤ shards ≤ namespace` (the builder reports the same
/// condition as [`BstError::InvalidConfig`] instead).
pub fn shard_boundaries(namespace: u64, shards: usize) -> Vec<u64> {
    assert!(
        shards >= 1 && shards as u64 <= namespace,
        "shard count must satisfy 1 <= S <= namespace"
    );
    (0..=shards)
        .map(|i| ((i as u128 * namespace as u128) / shards as u128) as u64)
        .collect()
}

/// The RNG seed of batch slot `slot` under batch seed `seed`. Each slot
/// draws from its own generator, so a slot's sample depends only on
/// `(seed, slot)` and its filter — never on how slots are split across
/// worker threads. The sharded engine mixes its shard index into the
/// same seed for its per-(shard, slot) cells.
pub fn slot_seed(seed: u64, slot: u64) -> u64 {
    seed ^ slot.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Mixes a batch seed with per-(shard, filter) coordinates so worker
/// scheduling cannot change which RNG stream serves which cell: the
/// per-slot seed with the shard index folded in.
fn cell_seed(seed: u64, shard: u64, slot: u64) -> u64 {
    slot_seed(seed, slot) ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builder for a [`ShardedBstSystem`] — the same knobs as
/// [`bst_core::system::BstSystemBuilder`], plus the shard count. Every
/// shard is built from one shared plan, so filters stay interchangeable
/// across shards.
pub struct ShardedBstSystemBuilder {
    namespace: u64,
    shards: usize,
    accuracy: f64,
    expected_set_size: u64,
    k: usize,
    kind: HashKind,
    seed: u64,
    cfg: BstConfig,
    depth_override: Option<u32>,
    occupied: Option<Vec<u64>>,
}

impl ShardedBstSystemBuilder {
    fn new(namespace: u64) -> Self {
        ShardedBstSystemBuilder {
            namespace,
            shards: 4,
            accuracy: 0.9,
            expected_set_size: 1000,
            k: bst_bloom::params::DEFAULT_K,
            kind: HashKind::Murmur3,
            seed: 0,
            cfg: BstConfig::default(),
            depth_override: None,
            occupied: None,
        }
    }

    /// Number of shards `S` (default 4; must satisfy `1 ≤ S ≤ M`).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Target sampling accuracy in `(0, 1]` (drives the filter size `m`).
    pub fn accuracy(mut self, accuracy: f64) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Typical stored-set size the accuracy target refers to.
    pub fn expected_set_size(mut self, n: u64) -> Self {
        self.expected_set_size = n;
        self
    }

    /// Number of hash functions (paper default: 3).
    pub fn hash_count(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Hash family shared by every shard.
    pub fn hash_kind(mut self, kind: HashKind) -> Self {
        self.kind = kind;
        self
    }

    /// Seed for the shared hash family.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The full behaviour configuration (sampler + reconstructor).
    pub fn config(mut self, cfg: BstConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Pins the tree depth. Otherwise it is derived once from every
    /// shard's occupancy ([`bst_core::costmodel::default_pruned_depth`]).
    pub fn depth(mut self, depth: u32) -> Self {
        self.depth_override = Some(depth);
        self
    }

    /// Restricts the initial occupancy to `occupied` (any order,
    /// duplicates allowed). Without this call every namespace id starts
    /// occupied. Occupancy keeps evolving later through
    /// [`ShardedBstSystem::insert_occupied`] /
    /// [`ShardedBstSystem::remove_occupied`].
    pub fn occupied<I: IntoIterator<Item = u64>>(mut self, occupied: I) -> Self {
        self.occupied = Some(occupied.into_iter().collect());
        self
    }

    /// Resolves the plan and constructs every shard.
    ///
    /// # Panics
    /// Panics on an invalid configuration; [`Self::try_build`] returns the
    /// typed error instead.
    pub fn build(self) -> ShardedBstSystem {
        match self.try_build() {
            Ok(system) => system,
            // bst-lint: allow(L001) — documented `# Panics` contract; try_build is the fallible API
            Err(e) => panic!("invalid ShardedBstSystem configuration: {e}"),
        }
    }

    /// [`Self::build`], reporting configuration problems as
    /// [`BstError::InvalidConfig`] instead of panicking.
    pub fn try_build(self) -> Result<ShardedBstSystem, BstError> {
        if self.namespace == 0 {
            return Err(BstError::InvalidConfig("namespace must be non-empty"));
        }
        if self.shards == 0 || self.shards as u64 > self.namespace {
            return Err(BstError::InvalidConfig(
                "shard count must satisfy 1 <= S <= namespace",
            ));
        }
        let boundaries = shard_boundaries(self.namespace, self.shards);
        let occupied = match self.occupied {
            Some(occ) => {
                let mut occ = occ;
                occ.sort_unstable();
                occ.dedup();
                if occ.last().is_some_and(|&last| last >= self.namespace) {
                    return Err(BstError::InvalidConfig("occupied id outside the namespace"));
                }
                occ
            }
            None => (0..self.namespace).collect(),
        };
        // Index walk over the intact sorted vec: draining per shard would
        // memmove the tail once per shard, O(M·S).
        let mut slices: Vec<&[u64]> = Vec::with_capacity(self.shards);
        let mut rest = occupied.as_slice();
        for &end in &boundaries[1..] {
            let (mine, tail) = rest.split_at(rest.partition_point(|&x| x < end));
            slices.push(mine);
            rest = tail;
        }
        // Every shard shares one plan, so the depth is derived once, from
        // every shard's occupancy.
        let depth = self.depth_override.unwrap_or_else(|| {
            let m = m_for_accuracy(
                self.accuracy,
                self.expected_set_size,
                self.namespace,
                self.k,
            );
            costmodel::default_pruned_depth(self.namespace, m, &slices)
        });
        let store = Arc::new(BstStore::new(boundaries));
        let mut shards = Vec::with_capacity(self.shards);
        for (slice, mine) in slices.into_iter().enumerate() {
            let tree = BstSystem::builder(self.namespace)
                .accuracy(self.accuracy)
                .expected_set_size(self.expected_set_size)
                .hash_count(self.k)
                .hash_kind(self.kind)
                .seed(self.seed)
                .config(self.cfg)
                .depth(depth)
                .pruned(mine.iter().copied())
                .try_build_tree()?;
            shards.push(BstSystem::from_parts(
                tree,
                self.cfg,
                Arc::clone(&store),
                slice,
            )?);
        }
        Ok(ShardedBstSystem::assemble(store, shards))
    }
}

/// Metrics handles the two-phase batch path reports into once a serving
/// layer installs them ([`ShardedBstSystem::set_batch_obs`]). The
/// handles are plain `bst-obs` clones, so the installer keeps its own
/// copies registered on a [`bst_obs::MetricsRegistry`] — and can
/// re-install the same `Arc` into a replacement engine (a wire `LOAD`)
/// without losing continuity.
#[derive(Debug)]
pub struct BatchObs {
    /// Batches served through the two-phase scatter-gather.
    pub batches: Counter,
    /// Phase-1 (weighing) wall time per batch, microseconds. A warm
    /// batch over an unchanged filter population records ~0 here.
    pub weigh_us: AtomicHistogram,
    /// Phase-2 (sampling) wall time per batch, microseconds.
    pub sample_us: AtomicHistogram,
}

impl BatchObs {
    /// The `[lo, hi)` microsecond range and bin count of the phase
    /// histograms (1 s ceiling at µs resolution ÷ 10).
    pub const PHASE_US: (f64, f64, usize) = (0.0, 1_000_000.0, 100_000);

    /// Fresh handles not yet registered anywhere (the installer
    /// registers clones under its own naming).
    pub fn unregistered() -> Self {
        let (lo, hi, bins) = Self::PHASE_US;
        BatchObs {
            batches: Counter::new(),
            weigh_us: AtomicHistogram::new(lo, hi, bins),
            sample_us: AtomicHistogram::new(lo, hi, bins),
        }
    }
}

struct Shared {
    /// The engine's one store, partitioned at the shard boundaries
    /// (`S + 1` ascending values; shard `s` owns `[b[s], b[s+1])`).
    /// Every shard system reads its own slice of it.
    store: Arc<BstStore>,
    shards: Vec<BstSystem>,
    /// The warm-handle pool every repeated query draws from (see
    /// [`crate::pool`]).
    pool: HandlePool,
    /// Engine-level tracing facade: batch spans go here; per-op spans go
    /// through each shard's own tracer (kept in lockstep by
    /// [`ShardedBstSystem::set_recorder`]).
    tracer: Tracer,
    /// Batch phase metrics, absent until a serving layer installs them.
    batch_obs: RwLock<Option<Arc<BatchObs>>>,
}

/// A sharded BloomSampleTree engine over one namespace: `S` contiguous
/// shards, each a pruned-backend [`BstSystem`] sharing one plan, served
/// through scatter-gather queries whose merged results match a
/// single-tree system.
///
/// Cloning is an `Arc` bump; the handle is `Send + Sync`. Registered sets
/// span shards transparently: the engine owns one [`BstStore`], a set's
/// [`FilterId`] is its store id, and its keys are held once; each shard
/// reads the run of keys inside its boundaries.
#[derive(Clone)]
pub struct ShardedBstSystem {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ShardedBstSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedBstSystem(M={}, shards={}, sets={})",
            self.namespace(),
            self.shard_count(),
            self.len()
        )
    }
}

impl ShardedBstSystem {
    /// Starts building a sharded system over `[0, namespace)`.
    pub fn builder(namespace: u64) -> ShardedBstSystemBuilder {
        ShardedBstSystemBuilder::new(namespace)
    }

    /// An engine over `store` whose shard `s` is `shards[s]`, reading
    /// slice `s`; warm handles and observability wiring start empty.
    fn assemble(store: Arc<BstStore>, shards: Vec<BstSystem>) -> Self {
        ShardedBstSystem {
            shared: Arc::new(Shared {
                store,
                shards,
                pool: HandlePool::default(),
                tracer: Tracer::disabled(),
                batch_obs: RwLock::new(None),
            }),
        }
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Shard boundaries: `S + 1` ascending values, first 0, last `M`.
    pub fn boundaries(&self) -> &[u64] {
        self.shared.store.boundaries()
    }

    /// Namespace size `M`.
    pub fn namespace(&self) -> u64 {
        self.shared.store.namespace()
    }

    /// The shard owning `key`.
    ///
    /// # Panics
    /// Panics if `key` lies outside the namespace.
    pub fn shard_of(&self, key: u64) -> usize {
        assert!(key < self.namespace(), "key {key} outside the namespace");
        self.route(key)
    }

    /// The routing rule behind every key-addressed operation; callers
    /// validate `key < M` first.
    fn route(&self, key: u64) -> usize {
        self.boundaries().partition_point(|&b| b <= key) - 1
    }

    /// The per-shard systems, in shard order (for introspection and
    /// benchmarks; all facade operations route automatically). Each one's
    /// [`BstSystem::filters`] is the engine's store, so a set created or
    /// dropped through a shard system is an engine set.
    pub fn shard_systems(&self) -> &[BstSystem] {
        &self.shared.shards
    }

    /// The behaviour configuration every shard runs.
    pub fn config(&self) -> BstConfig {
        self.shared.shards[0].config()
    }

    /// Stores a key set as a query Bloom filter valid against **every**
    /// shard (all shards share one plan and hash family).
    pub fn store<I: IntoIterator<Item = u64>>(&self, keys: I) -> BloomFilter {
        self.shared.shards[0].store(keys)
    }

    // ------------------------------------------------------------------
    // The store facade: one id and one key list per set.
    // ------------------------------------------------------------------

    /// Registers a mutable set over `keys`, addressed by one stable
    /// [`FilterId`] across every shard. Keys outside the namespace are
    /// rejected atomically.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, BstError> {
        self.shared.store.create(keys)
    }

    /// Inserts `keys` into the stored set. The store generation of each
    /// shard the batch has a key in bumps, so open handles go stale on
    /// those shards only. Rejects the whole batch if any key lies outside
    /// the namespace.
    pub fn insert_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<(), BstError> {
        self.shared.store.insert_keys(id, keys).map(|_| ())
    }

    /// Removes one occurrence of each of `keys` from the stored set (keys
    /// it does not hold are skipped), stamped like [`Self::insert_keys`].
    pub fn remove_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<(), BstError> {
        self.shared.store.remove_keys(id, keys).map(|_| ())
    }

    /// Projects the whole stored set to one plain [`BloomFilter`]
    /// snapshot, valid against every shard.
    pub fn get(&self, id: FilterId) -> Result<BloomFilter, BstError> {
        let hasher = self.shared.shards[0].tree().hasher();
        self.shared.store.get(id, hasher)
    }

    /// Unregisters a stored set; its id is retired and open handles
    /// report [`BstError::UnknownFilterId`] from their next operation.
    /// The set leaves the store first and the pool second, so a handle
    /// pooled meanwhile is either removed here or by the
    /// [`Self::pooled_query_id`] call that pooled it.
    pub fn drop_set(&self, id: FilterId) -> Result<(), BstError> {
        self.shared.store.drop_set(id)?;
        self.shared.pool.remove(id.raw());
        Ok(())
    }

    /// Number of registered sets.
    pub fn len(&self) -> usize {
        self.shared.store.len()
    }

    /// Whether no sets are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live ids, ascending.
    pub fn ids(&self) -> Vec<FilterId> {
        self.shared.store.ids()
    }

    // ------------------------------------------------------------------
    // The warm-handle pool.
    // ------------------------------------------------------------------

    /// The pooled handle on stored set `id`, opened with
    /// [`Self::query_id`] and pooled on a miss. Every repeated query on a
    /// stored set should come through here, so it finds the handle some
    /// earlier caller warmed. Once [`Self::drop_set`] has returned, the
    /// pool holds no handle on the set and never pools one again, so no
    /// caller has to evict one.
    pub fn pooled_query_id(&self, id: FilterId) -> Result<Arc<ShardQuery>, BstError> {
        let pool = &self.shared.pool;
        if let Some(handle) = pool.get(id.raw()) {
            return Ok(handle);
        }
        let handle = pool.insert(id.raw(), self.query_id(id)?);
        if self.shared.store.generation(id).is_err() {
            // Dropped while it was being opened: `drop_set` may have
            // cleared the pool before the insert.
            pool.remove(id.raw());
        }
        Ok(handle)
    }

    /// Drops every pooled handle, so the next queries open cold ones —
    /// for measurement and tests; correctness never needs it, because a
    /// handle tracks its own staleness.
    pub fn clear_handle_pool(&self) {
        self.shared.pool.clear();
    }

    /// Pool lookups since the engine was built, and the handles resident
    /// now.
    pub fn handle_pool_stats(&self) -> HandlePoolStats {
        self.shared.pool.stats()
    }

    // ------------------------------------------------------------------
    // Observability (the `bst-obs` wiring).
    // ------------------------------------------------------------------

    /// The engine-level tracing facade (batch spans). Disabled by
    /// default; install a recorder with [`Self::set_recorder`].
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Installs (or with `None`, removes) one span recorder everywhere:
    /// the engine's own batch spans and every shard's per-op core spans
    /// report into it.
    pub fn set_recorder(&self, recorder: Option<Arc<dyn Recorder>>) {
        for sys in &self.shared.shards {
            sys.set_recorder(recorder.clone());
        }
        self.shared.tracer.set_recorder(recorder);
    }

    /// Installs (or with `None`, removes) the batch phase metrics sink
    /// the two-phase scatter reports into. The installer keeps its own
    /// clones of the handles (they are `Arc`-backed), so the same
    /// [`BatchObs`] can be re-installed into a replacement engine.
    pub fn set_batch_obs(&self, obs: Option<Arc<BatchObs>>) {
        *self.shared.batch_obs.write() = obs;
    }

    /// The installed batch phase metrics sink, if any.
    pub fn batch_obs(&self) -> Option<Arc<BatchObs>> {
        self.shared.batch_obs.read().clone()
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Opens a scatter-gather handle on a detached filter: every shard
    /// receives the same filter (valid everywhere — shared plan), and
    /// per-shard descent state accumulates independently.
    pub fn query(&self, filter: &BloomFilter) -> ShardQuery {
        let handles = self
            .shared
            .shards
            .iter()
            .map(|sys| sys.query(filter))
            .collect();
        ShardQuery::new(None, self.boundaries().to_vec(), handles)
    }

    /// Opens a scatter-gather handle on a stored set: one generation-
    /// stamped per-shard handle each, on the shard's slice of the keys, so
    /// both store-churn and occupancy-churn staleness protocols apply per
    /// shard.
    pub fn query_id(&self, id: FilterId) -> Result<ShardQuery, BstError> {
        let handles = self
            .shared
            .shards
            .iter()
            .map(|sys| sys.query_id(id))
            .collect::<Result<_, _>>()?;
        Ok(ShardQuery::new(
            Some(id),
            self.boundaries().to_vec(),
            handles,
        ))
    }

    /// Draws one sample per query filter via a **two-phase** scatter over
    /// a crossbeam worker pool (`threads` workers; 0 = one per CPU,
    /// capped at the number of passes). Phase 1 weighs every filter on
    /// every shard. A filter is the same on every shard, so the batch is
    /// cut into chunks of up to [`QueryChunk::WIDTH`] filters, each
    /// bit-sliced once and shared by all shards, and each (shard, chunk)
    /// is one index pass on a worker ([`BstSystem::query_chunk`]); the
    /// chunks are sized evenly, and cut finer when there are fewer
    /// (shard, chunk) passes than workers. Each filter's count on a shard
    /// is then a list read on a batch-local detached handle, never
    /// pooled: an ad-hoc filter is the one-shot case. A filter that is
    /// empty or of another hash family weighs on cold handles
    /// ([`Self::query`]), which fail its slot with the typed error. The
    /// gather step picks one shard per filter proportionally to the
    /// weights; phase 2 then samples **only the chosen cells**, on the
    /// same handles — ~S× less sampling work than sampling speculatively
    /// on every shard. Phase 2 runs on the calling thread; under the
    /// sound default a phase-2 draw is an exact prefix-sum lookup over
    /// the lists phase 1 filled. Results and summed stats equal weighing
    /// every (shard, filter) cell on its own cold handle; they align with
    /// `filters`, and per-cell RNG seeding keeps them deterministic for a
    /// fixed `seed` regardless of `threads`.
    pub fn query_batch(
        &self,
        filters: &[BloomFilter],
        seed: u64,
        threads: usize,
    ) -> (Vec<Result<u64, BstError>>, OpStats) {
        self.scatter_gather(filters.len(), seed, threads, |workers| {
            self.weigh_filters(filters, workers)
        })
    }

    /// [`Self::query_batch`] addressed by sharded store id, on the
    /// pooled handles of [`Self::pooled_query_id`]: phase 1 weighs every
    /// (shard, slot) cell on its handle, the workers chunked over the
    /// flattened cell list, so even an S=1 engine parallelises a wide
    /// cold batch; a warm handle's weight is an O(1) memo read, and
    /// results are bit-identical whether the handles were warm or cold.
    /// An unknown/dropped id yields `Err(UnknownFilterId)` for its slot
    /// without failing the rest of the batch.
    pub fn query_batch_ids(
        &self,
        ids: &[FilterId],
        seed: u64,
        threads: usize,
    ) -> (Vec<Result<u64, BstError>>, OpStats) {
        let handles: Vec<_> = ids.iter().map(|&id| self.pooled_query_id(id)).collect();
        self.scatter_gather(ids.len(), seed, threads, |workers| {
            weigh_cells(handles, workers)
        })
    }

    /// Phase 1 of [`Self::query_batch`]: one bit-sliced index pass per
    /// (shard, chunk) for the filters of the engine's hash family that
    /// set a bit, cold handles for the rest.
    fn weigh_filters(
        &self,
        filters: &[BloomFilter],
        workers: usize,
    ) -> Vec<Result<Weighed, BstError>> {
        let shards = &self.shared.shards;
        let family = shards[0].tree().hasher();
        let fused: Vec<bool> = filters
            .iter()
            .map(|f| !f.is_empty() && (Arc::ptr_eq(f.hasher(), family) || f.hasher() == family))
            .collect();
        let members: Vec<&BloomFilter> = filters
            .iter()
            .zip(&fused)
            .filter(|(_, &fused)| fused)
            .map(|(f, _)| f)
            .collect();
        let n = members.len();
        let count = n
            .div_ceil(QueryChunk::WIDTH)
            .max(workers.div_ceil(shards.len()))
            .min(n);
        let bounds: Vec<(usize, usize)> = (0..count)
            .map(|c| (c * n / count, (c + 1) * n / count))
            .collect();
        let chunks = par_map(&bounds, workers, |&(lo, hi)| {
            QueryChunk::new(&members[lo..hi])
        });
        let passes: Vec<(usize, usize)> = (0..count)
            .flat_map(|c| (0..shards.len()).map(move |s| (c, s)))
            .collect();
        let weighed = par_map(&passes, workers, |&(c, s)| {
            let handles = shards[s].query_chunk(&chunks[c]).into_iter();
            handles
                .map(|q| {
                    let weight = q.live_weight();
                    let stats = q.take_stats();
                    (q, (weight, stats))
                })
                .collect::<Vec<_>>()
        });
        // Regroup the (chunk, shard) passes into one row per filter.
        let mut weighed = weighed.into_iter();
        let mut rows = Vec::with_capacity(n);
        for &(lo, hi) in &bounds {
            let mut columns: Vec<_> = weighed
                .by_ref()
                .take(shards.len())
                .map(Vec::into_iter)
                .collect();
            for _ in lo..hi {
                let (handles, row): (Vec<Query>, Vec<_>) =
                    columns.iter_mut().filter_map(Iterator::next).unzip();
                let q = ShardQuery::new(None, self.boundaries().to_vec(), handles);
                rows.push((Arc::new(q), row));
            }
        }
        let mut rows = rows.into_iter();
        filters
            .iter()
            .zip(fused)
            .filter_map(|(f, fused)| match fused {
                true => rows.next(),
                false => Some(weigh_cold(Arc::new(self.query(f)))),
            })
            .map(Ok)
            .collect()
    }

    /// The shared **two-phase** scatter behind both batch entry points,
    /// over `slots` slots that `weigh` runs phase 1 for on the workers it
    /// is given (an `Err` slot fails alone).
    ///
    /// The gather step merges each live slot's row and picks one shard,
    /// through the same two helpers as the [`ShardQuery`] handle path;
    /// phase 2 samples only the chosen cells, on the calling thread.
    /// Per-cell seeding makes the result independent of worker placement
    /// and of how warm the handles were.
    fn scatter_gather(
        &self,
        slots: usize,
        seed: u64,
        threads: usize,
        weigh: impl FnOnce(usize) -> Vec<Result<Weighed, BstError>>,
    ) -> (Vec<Result<u64, BstError>>, OpStats) {
        if slots == 0 {
            return (Vec::new(), OpStats::new());
        }
        // Observability: both reads are one uncontended lock/atomic each
        // and resolve to `None` until a serving layer installs sinks.
        let obs = self.shared.batch_obs.read().clone();
        let span = self.shared.tracer.start();
        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };

        // Phase 1: weigh every live slot on every shard.
        let weigh_started = obs.as_ref().map(|_| std::time::Instant::now());
        let weighed = weigh(workers);
        if let (Some(obs), Some(t0)) = (obs.as_ref(), weigh_started) {
            obs.weigh_us.record(t0.elapsed().as_secs_f64() * 1e6);
        }

        // Gather: per live slot, merge the row and pick a shard. A dead
        // slot's error is final; a live slot's placeholder is
        // overwritten by phase 2.
        let mut stats = OpStats::new();
        let mut results = Vec::with_capacity(slots);
        let mut chosen: Vec<(usize, usize, &Query)> = Vec::new();
        let mut weighed_cells = 0;
        for (slot, cell) in weighed.iter().enumerate() {
            let (q, row) = match cell {
                Ok(cell) => cell,
                Err(e) => {
                    results.push(Err(*e));
                    continue;
                }
            };
            weighed_cells += row.len();
            for (_, cell_stats) in row {
                stats += *cell_stats;
            }
            let picked = merge_weights(row.iter().map(|(w, _)| *w)).and_then(|weights| {
                let mut rng = StdRng::seed_from_u64(cell_seed(seed, u64::MAX, slot as u64));
                pick_shard(&weights, &mut rng).ok_or(BstError::NoLiveLeaf)
            });
            results.push(picked.map(|shard| {
                chosen.push((slot, shard, &q.shard_handles()[shard]));
                0
            }));
        }

        // Phase 2: sample only the chosen cells, on this thread. Under the
        // sound rule every shard draws exactly from the leaf lists phase 1
        // left in its memo (a binary search per draw), and one draw per
        // cell never pays for a worker's start-up. Each cell's RNG stream
        // depends on its (shard, slot) coordinates alone, so results do
        // not depend on `threads`.
        let sample_started = obs.as_ref().map(|_| std::time::Instant::now());
        for &(slot, shard, q) in &chosen {
            let mut rng = StdRng::seed_from_u64(cell_seed(seed, shard as u64, slot as u64));
            results[slot] = q.sample(&mut rng);
            stats += q.take_stats();
        }
        if let Some(obs) = obs.as_ref() {
            if let Some(t0) = sample_started {
                obs.sample_us.record(t0.elapsed().as_secs_f64() * 1e6);
            }
            obs.batches.inc();
        }
        self.shared.tracer.record(
            "bst.shard.batch",
            span,
            &[
                ("slots", slots as u64),
                ("weighed_cells", weighed_cells as u64),
                ("sampled_cells", chosen.len() as u64),
                ("intersections", stats.intersections),
                ("memberships", stats.memberships),
            ],
        );
        (results, stats)
    }

    // ------------------------------------------------------------------
    // Namespace occupancy (§5.2), routed to the owning shard.
    // ------------------------------------------------------------------

    /// Marks `key` occupied in its owning shard (bumping that shard's
    /// tree generation when the occupancy actually changed). Returns the
    /// owning shard's resulting tree generation.
    pub fn insert_occupied(&self, key: u64) -> Result<u64, BstError> {
        if key >= self.namespace() {
            return Err(BstError::KeyOutsideNamespace(key));
        }
        self.shared.shards[self.route(key)].insert_occupied(key)
    }

    /// Removes `key` from its owning shard's occupied set. Returns the
    /// owning shard's resulting tree generation.
    pub fn remove_occupied(&self, key: u64) -> Result<u64, BstError> {
        if key >= self.namespace() {
            return Err(BstError::KeyOutsideNamespace(key));
        }
        self.shared.shards[self.route(key)].remove_occupied(key)
    }

    /// Whether `key` is an occupied namespace element.
    pub fn contains_occupied(&self, key: u64) -> bool {
        key < self.namespace() && self.shared.shards[self.route(key)].contains_occupied(key)
    }

    /// Total occupied ids across all shards.
    pub fn occupied_count(&self) -> u64 {
        self.shared.shards.iter().map(|s| s.occupied_count()).sum()
    }

    /// All occupied ids, ascending (shards are range-ordered, so this is
    /// a concatenation).
    pub fn occupied_ids(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.occupied_count() as usize);
        for sys in &self.shared.shards {
            out.extend(sys.occupied_ids());
        }
        out
    }

    // ------------------------------------------------------------------
    // Whole-engine persistence.
    // ------------------------------------------------------------------

    /// Serializes the entire sharded engine — boundaries, configuration,
    /// the store, and every shard's tree — into one buffer.
    /// Byte-deterministic for a given engine state.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with_header(&[])
    }

    /// [`Self::to_bytes`] behind `header`, in one buffer sized up front
    /// from the store ([`BstStore::encoded_len_hint`], the bulk of the
    /// bytes): the store and each shard's tree are written straight into
    /// it, so every stored key is copied once. The layout is
    /// `"BSTH" v | boundaries | config | store | S × tree backend`.
    /// A durable checkpoint is this call with the checkpoint header.
    pub fn to_bytes_with_header(&self, header: &[u8]) -> Vec<u8> {
        let store = &self.shared.store;
        let mut buf = BytesMut::with_capacity(header.len() + store.encoded_len_hint());
        buf.put_slice(header);
        buf.put_slice(SHARD_MAGIC);
        buf.put_u8(persistence::VERSION);
        persistence::put_boundaries(&mut buf, store.boundaries());
        persistence::put_config(&mut buf, &self.config());
        store.put_bytes(&mut buf);
        for sys in &self.shared.shards {
            sys.tree().put_bytes(&mut buf);
        }
        buf.into()
    }

    /// Restores an engine serialized with [`Self::to_bytes`]: the same
    /// boundaries, configuration, stored sets, ids and shard trees, so
    /// scatter-gather results match the original for the same RNG state.
    /// Every shard tree must be pruned (a dense tag is refused before
    /// its payload is decoded), share one plan over the namespace, and
    /// occupy only its own range.
    pub fn from_bytes(input: &[u8]) -> Result<Self, BstError> {
        let corrupt = |what| Err(BstError::Persist(PersistError::Corrupt(what)));
        let mut input = input;
        persistence::check_header(&mut input, SHARD_MAGIC)?;
        let boundaries = persistence::get_boundaries(&mut input)?;
        let cfg = persistence::get_config(&mut input)?;
        let store = Arc::new(BstStore::get_bytes(&mut input, boundaries)?);
        let bounds = store.boundaries();
        let shard_count = bounds.len() - 1;
        // A tree backend takes at least its tag and length bytes.
        let mut shards: Vec<BstSystem> = Vec::with_capacity(shard_count.min(input.remaining() / 9));
        for slice in 0..shard_count {
            let tree = TreeBackend::get_bytes(&mut input, true)?;
            if tree.namespace() != store.namespace() {
                return corrupt("shard tree does not match the partition");
            }
            if shards
                .first()
                .is_some_and(|first| first.tree().plan() != tree.plan())
            {
                return corrupt("shards disagree on the tree plan");
            }
            // Routing invariant: a shard may only occupy its own range
            // (occupied_ids is ascending, so the extremes suffice) — a
            // snapshot violating it would mis-route every key-addressed
            // operation after restore.
            let occ = tree.occupied_ids();
            if occ
                .first()
                .zip(occ.last())
                .is_some_and(|(&lo, &hi)| lo < bounds[slice] || hi >= bounds[slice + 1])
            {
                return corrupt("shard occupancy outside its boundary range");
            }
            shards.push(BstSystem::from_parts(tree, cfg, Arc::clone(&store), slice)?);
        }
        if !input.is_empty() {
            return corrupt("trailing bytes after sharded snapshot");
        }
        // Warm handles are derived state and never persisted, and
        // observability wiring is process state: a restored engine starts
        // cold and unobserved until its installer re-attaches.
        Ok(ShardedBstSystem::assemble(store, shards))
    }
}

/// A live batch slot after phase 1: its handle and, in shard order,
/// each shard's weight with the work weighing it took.
type Weighed = (Arc<ShardQuery>, Vec<(Result<u64, BstError>, OpStats)>);

/// Phase 1 of [`ShardedBstSystem::query_batch_ids`]: every (shard, slot)
/// cell of the live slots weighed on its own handle, the workers chunked
/// over the flattened cell list.
fn weigh_cells(
    handles: Vec<Result<Arc<ShardQuery>, BstError>>,
    workers: usize,
) -> Vec<Result<Weighed, BstError>> {
    let cells: Vec<&Query> = handles
        .iter()
        .flatten()
        .flat_map(|q| q.shard_handles())
        .collect();
    let weighed = par_map(&cells, workers, |q| (q.live_weight(), q.take_stats()));
    let mut rows = weighed.into_iter();
    handles
        .into_iter()
        .map(|h| {
            h.map(|q| {
                let row = rows.by_ref().take(q.shard_handles().len()).collect();
                (q, row)
            })
        })
        .collect()
}

/// One slot weighed on its own handles, shard by shard, on this thread.
fn weigh_cold(q: Arc<ShardQuery>) -> Weighed {
    let row = q
        .shard_handles()
        .iter()
        .map(|h| (h.live_weight(), h.take_stats()))
        .collect();
    (q, row)
}

/// Maps `f` over `items` in up to `workers` contiguous chunks, with
/// results in item order: the first chunk runs on the calling thread,
/// each other chunk on a scoped thread of its own.
fn par_map<T: Sync, U: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    if chunk >= items.len() {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let (first, rest) = items.split_at(chunk);
    crossbeam::scope(|scope| {
        let parts: Vec<_> = rest
            .chunks(chunk)
            .map(|part| scope.spawn(move |_| part.iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out: Vec<U> = Vec::with_capacity(items.len());
        out.extend(first.iter().map(f));
        for part in parts {
            // bst-lint: allow(L001) — a worker panic must propagate, not be swallowed
            out.extend(part.join().expect("batch worker panicked"));
        }
        out
    })
    // bst-lint: allow(L001) — scope fails only if a child panicked; propagate
    .expect("crossbeam scope failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::HANDLE_POOL_CAP;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(shards: usize) -> ShardedBstSystem {
        ShardedBstSystem::builder(8_192)
            .shards(shards)
            .expected_set_size(200)
            .seed(9)
            .build()
    }

    #[test]
    fn boundaries_partition_the_namespace() {
        for (namespace, shards) in [(8_192u64, 4usize), (1_000, 7), (5, 5), (1, 1)] {
            let b = shard_boundaries(namespace, shards);
            assert_eq!(b.len(), shards + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), namespace);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "{namespace}/{shards}");
        }
    }

    #[test]
    fn shard_of_is_total_and_consistent() {
        let sys = ShardedBstSystem::builder(1_000)
            .shards(7)
            .expected_set_size(50)
            .build();
        let b = sys.boundaries().to_vec();
        for key in 0..1_000u64 {
            let s = sys.shard_of(key);
            assert!(b[s] <= key && key < b[s + 1], "key {key} shard {s}");
        }
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            ShardedBstSystem::builder(100).shards(0).try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBstSystem::builder(4).shards(5).try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBstSystem::builder(0).try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedBstSystem::builder(100)
                .shards(2)
                .occupied([100u64])
                .try_build(),
            Err(BstError::InvalidConfig(_))
        ));
        // No u64 prime reaches this namespace: the Simple family has no
        // modulus, so the shards' builder refuses it.
        assert!(matches!(
            ShardedBstSystem::builder(u64::MAX)
                .shards(2)
                .hash_kind(HashKind::Simple)
                .occupied([1u64, 2])
                .try_build(),
            Err(BstError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shards_share_one_plan_and_split_occupancy() {
        let occ: Vec<u64> = (0..8_192u64).step_by(3).collect();
        let sys = ShardedBstSystem::builder(8_192)
            .shards(4)
            .expected_set_size(200)
            .seed(9)
            .occupied(occ.iter().copied())
            .build();
        let plan = sys.shard_systems()[0].tree().plan().clone();
        let mut total = 0;
        for (s, shard) in sys.shard_systems().iter().enumerate() {
            assert_eq!(shard.tree().plan(), &plan, "shard {s}");
            assert!(shard.tree().is_pruned());
            let ids = shard.occupied_ids();
            for id in &ids {
                assert_eq!(sys.shard_of(*id), s, "id {id} in wrong shard");
            }
            total += ids.len();
        }
        assert_eq!(total, occ.len());
        assert_eq!(sys.occupied_ids(), occ);
        assert_eq!(sys.occupied_count(), occ.len() as u64);
    }

    #[test]
    fn store_lifecycle_spans_shards() {
        let sys = engine(4);
        let keys: Vec<u64> = (0..300u64).map(|i| i * 27 % 8_192).collect();
        let id = sys.create(keys.iter().copied()).expect("create");
        assert_eq!(sys.len(), 1);
        assert_eq!(sys.ids(), vec![id]);
        let merged = sys.get(id).expect("get");
        for k in &keys {
            assert!(merged.contains(*k));
        }
        sys.insert_keys(id, [8_191u64]).expect("insert");
        sys.remove_keys(id, [0u64]).expect("remove");
        let rec = sys.query_id(id).expect("open").reconstruct().expect("rec");
        assert!(rec.binary_search(&8_191).is_ok());
        assert!(rec.binary_search(&0).is_err());
        // Atomic namespace validation.
        assert_eq!(
            sys.insert_keys(id, [5u64, 9_000]),
            Err(BstError::KeyOutsideNamespace(9_000))
        );
        sys.drop_set(id).expect("drop");
        assert_eq!(sys.get(id).unwrap_err(), BstError::UnknownFilterId(id));
        assert_eq!(sys.query_id(id).err(), Some(BstError::UnknownFilterId(id)));
        assert!(sys.is_empty());
        // Sharded ids are never reused.
        let id2 = sys.create([1u64]).expect("create");
        assert!(id2.raw() > id.raw());
    }

    #[test]
    fn detached_query_samples_and_reconstructs_across_shards() {
        let sys = engine(4);
        // Keys deliberately clustered into two shards.
        let keys: Vec<u64> = (100..200u64).chain(6_000..6_080).collect();
        let filter = sys.store(keys.iter().copied());
        let q = sys.query(&filter);
        // Full default occupancy: the positive set is the stored keys
        // plus Bloom false positives, exactly as on a dense single tree.
        let rec = q.reconstruct().expect("rec");
        assert!(rec.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        for k in &keys {
            assert!(rec.binary_search(k).is_ok(), "missing key {k}");
        }
        for x in &rec {
            assert!(filter.contains(*x), "non-positive {x}");
        }
        assert_eq!(q.live_weight(), Ok(rec.len() as u64));
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..200 {
            let s = q.sample(&mut rng).expect("sample");
            assert!(rec.binary_search(&s).is_ok(), "non-positive {s}");
            seen_low |= s < 4_096;
            seen_high |= s >= 4_096;
        }
        assert!(seen_low && seen_high, "both shards must serve samples");
        let many = q.sample_many(100, &mut rng).expect("many");
        assert!(!many.is_empty());
        for s in &many {
            assert!(rec.binary_search(s).is_ok());
        }
        // Range reconstruction clips to shard windows.
        assert_eq!(
            q.reconstruct_range(150..6_040).expect("range"),
            rec.iter()
                .copied()
                .filter(|&k| (150..6_040).contains(&k))
                .collect::<Vec<_>>()
        );
        assert_eq!(q.reconstruct_range(10..10).expect("empty"), vec![]);
    }

    #[test]
    fn empty_filters_and_unknown_ids_are_typed() {
        let sys = engine(2);
        let empty = sys.store(std::iter::empty());
        let q = sys.query(&empty);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(q.sample(&mut rng), Err(BstError::EmptyFilter));
        assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter));
        assert_eq!(q.live_weight(), Err(BstError::EmptyFilter));
        let ghost = FilterId::from_raw(77);
        assert_eq!(
            sys.query_id(ghost).err(),
            Some(BstError::UnknownFilterId(ghost))
        );
        assert_eq!(sys.drop_set(ghost), Err(BstError::UnknownFilterId(ghost)));
    }

    #[test]
    fn query_batch_aligns_and_is_thread_deterministic() {
        let sys = engine(4);
        let filters: Vec<BloomFilter> = (0..9)
            .map(|i| sys.store((0..60u64).map(|j| (i * 997 + j * 13) % 8_192)))
            .collect();
        let (r1, stats) = sys.query_batch(&filters, 11, 1);
        let (r2, _) = sys.query_batch(&filters, 11, 4);
        assert_eq!(r1, r2, "thread count must not change results");
        assert_eq!(r1.len(), filters.len());
        for (f, r) in filters.iter().zip(&r1) {
            assert!(f.contains(r.expect("sample")));
        }
        assert!(stats.total_ops() > 0);
        // Different seeds reroute.
        let (r3, _) = sys.query_batch(&filters, 12, 2);
        assert_ne!(r1, r3, "a different seed should change some draws");
    }

    #[test]
    fn query_batch_ids_reports_unknown_slots() {
        let sys = engine(3);
        let ids: Vec<FilterId> = (0..5)
            .map(|i| {
                sys.create((0..50u64).map(|j| (i * 911 + j * 17) % 8_192))
                    .expect("create")
            })
            .collect();
        let dropped = ids[1];
        sys.drop_set(dropped).expect("drop");
        let (results, stats) = sys.query_batch_ids(&ids, 5, 2);
        assert_eq!(results.len(), ids.len());
        for (id, r) in ids.iter().zip(&results) {
            if *id == dropped {
                assert_eq!(*r, Err(BstError::UnknownFilterId(dropped)));
            } else {
                assert!(sys.get(*id).expect("get").contains(r.expect("sample")));
            }
        }
        assert!(stats.total_ops() > 0);
    }

    #[test]
    fn empty_batch_returns_nothing_and_costs_nothing() {
        let sys = engine(2);
        assert_eq!(sys.query_batch(&[], 3, 0), (Vec::new(), OpStats::new()));
        assert_eq!(sys.query_batch_ids(&[], 3, 0), (Vec::new(), OpStats::new()));
    }

    /// A filter from another hash family (same `m` and `k`, another
    /// seed) or with no bits set fails its own slot with a typed error;
    /// every other slot still samples.
    #[test]
    fn bad_filters_fail_only_their_own_slots() {
        for shards in [1, 4] {
            let sys = engine(shards);
            let mut filters: Vec<BloomFilter> = (0..4)
                .map(|i| sys.store((0..40u64).map(|j| (i * 331 + j * 7) % 8_192)))
                .collect();
            let plan = sys.shard_systems()[0].tree().plan();
            let foreign = BloomFilter::with_params(plan.kind, plan.k, plan.m, 8_192, 999);
            filters.insert(1, foreign);
            filters.insert(3, sys.store(std::iter::empty()));
            let (results, _) = sys.query_batch(&filters, 3, 2);
            assert_eq!(results.len(), 6);
            assert_eq!(
                results[1],
                Err(BstError::IncompatibleFilter),
                "S = {shards}"
            );
            assert_eq!(results[3], Err(BstError::EmptyFilter), "S = {shards}");
            for i in [0, 2, 4, 5] {
                let s = results[i].expect("a sound filter samples");
                assert!(filters[i].contains(s), "S = {shards}, slot {i}");
            }
        }
    }

    /// Cold batch draws and their operation counts are a function of
    /// `(seed, slot, filter)` alone: one worker, three workers and one
    /// per host CPU answer identically (and so do hosts with different
    /// CPU counts).
    #[test]
    fn cold_batch_draws_and_stats_do_not_depend_on_thread_count() {
        for shards in [1, 4] {
            let sys = engine(shards);
            let filters: Vec<BloomFilter> = (0..17)
                .map(|i| sys.store((0..60u64).map(|j| (i * 331 + j * 7) % 8_192)))
                .collect();
            let (one, one_stats) = sys.query_batch(&filters, 21, 1);
            assert!(one_stats.total_ops() > 0);
            for threads in [3, 0] {
                sys.clear_handle_pool();
                let (many, many_stats) = sys.query_batch(&filters, 21, threads);
                assert_eq!(one, many, "S = {shards}, threads = {threads}");
                assert_eq!(one_stats, many_stats, "S = {shards}, threads = {threads}");
            }
        }
    }

    /// The oracle for the fused phase 1: `query_batch` answers, and
    /// sums its stats, exactly as weighing every (shard, slot) cell on a
    /// cold handle of its own (`ShardedBstSystem::query`) does, for every batch
    /// width around the 16-filter chunk, at every thread count, on both
    /// layouts, with an empty filter and a filter of another `m` each
    /// keeping its own error.
    #[test]
    fn fused_batch_equals_per_cell_weighing() {
        for kind in [HashKind::Murmur3, HashKind::DeltaBlocked] {
            let sys = ShardedBstSystem::builder(16_384)
                .shards(4)
                .expected_set_size(200)
                .hash_kind(kind)
                .seed(13)
                .occupied((0..16_384u64).filter(|x| x % 3 != 1))
                .build();
            let plan = sys.shard_systems()[0].tree().plan().clone();
            let other_m = BloomFilter::from_keys(
                Arc::new(bst_bloom::hash::BloomHasher::new(
                    plan.kind,
                    plan.k,
                    plan.m + 512,
                    plan.namespace,
                    plan.seed,
                )),
                0..50u64,
            );
            let all: Vec<BloomFilter> = (0..40u64)
                .map(|i| match i {
                    16 => sys.store(std::iter::empty()),
                    30 => other_m.clone(),
                    _ => sys.store((0..20 + 7 * i).map(|j| (i * 3_181 + j * 37) % 16_384)),
                })
                .collect();
            for width in [1, 15, 16, 17, 40] {
                let filters = &all[..width];
                let cold = |threads| {
                    sys.scatter_gather(width, 77, threads, |workers| {
                        let handles = filters.iter().map(|f| Ok(Arc::new(sys.query(f))));
                        weigh_cells(handles.collect(), workers)
                    })
                };
                let (want, want_stats) = cold(1);
                assert!(want_stats.memberships > 0);
                if width > 16 {
                    assert_eq!(want[16], Err(BstError::EmptyFilter));
                }
                if width > 30 {
                    assert_eq!(want[30], Err(BstError::IncompatibleFilter));
                }
                for threads in [0, 1, 2, 3, 16] {
                    let (got, got_stats) = sys.query_batch(filters, 77, threads);
                    let at = format!("{}, {width} filters, {threads} threads", kind.name());
                    assert_eq!(got, want, "{at}");
                    assert_eq!(got_stats, want_stats, "{at}");
                    assert_eq!(cold(threads), (want.clone(), want_stats), "{at}");
                }
            }
        }
    }

    #[test]
    fn occupancy_routes_to_owning_shard() {
        let sys = ShardedBstSystem::builder(8_192)
            .shards(4)
            .expected_set_size(100)
            .occupied((0..8_192u64).step_by(2))
            .build();
        assert!(!sys.contains_occupied(4_097));
        sys.insert_occupied(4_097).expect("insert");
        assert!(sys.contains_occupied(4_097));
        let owner = sys.shard_of(4_097);
        assert_eq!(sys.shard_systems()[owner].tree_generation(), 1);
        for (s, shard) in sys.shard_systems().iter().enumerate() {
            if s != owner {
                assert_eq!(shard.tree_generation(), 0, "shard {s} untouched");
            }
        }
        sys.remove_occupied(4_097).expect("remove");
        assert!(!sys.contains_occupied(4_097));
        assert_eq!(
            sys.insert_occupied(8_192),
            Err(BstError::KeyOutsideNamespace(8_192))
        );
    }

    #[test]
    fn snapshot_roundtrips_deterministically() {
        let sys = engine(4);
        let a = sys
            .create((0..200u64).map(|i| i * 41 % 8_192))
            .expect("create");
        let b = sys
            .create((0..50u64).map(|i| i * 163 % 8_192))
            .expect("create");
        sys.insert_keys(a, [4_242u64]).expect("insert");
        sys.drop_set(b).expect("drop");
        sys.insert_occupied(1).ok();
        sys.remove_occupied(2).ok();

        let bytes = sys.to_bytes();
        let restored = ShardedBstSystem::from_bytes(&bytes).expect("restore");
        assert_eq!(restored.boundaries(), sys.boundaries());
        assert_eq!(restored.ids(), sys.ids());
        assert_eq!(restored.occupied_ids(), sys.occupied_ids());
        assert_eq!(bytes, restored.to_bytes(), "byte-deterministic");

        // Same samples for the same RNG state, same reconstruction.
        let q1 = sys.query_id(a).expect("open");
        let q2 = restored.query_id(a).expect("open");
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            assert_eq!(q1.sample(&mut r1), q2.sample(&mut r2));
        }
        assert_eq!(q1.reconstruct(), q2.reconstruct());

        // Sharded ids keep allocating past the restored next_id.
        let c = restored.create([3u64]).expect("create");
        assert!(c.raw() > a.raw());
    }

    #[test]
    fn restored_sets_lose_every_key_they_are_told_to_remove() {
        let sys = engine(4);
        let sets: Vec<Vec<u64>> = (0..3u64)
            .map(|i| (0..120u64).map(|j| (i * 131 + j * 67) % 8_192).collect())
            .collect();
        for keys in &sets {
            let id = sys.create(keys.iter().copied()).expect("create");
            let rec = sys.query_id(id).expect("open").reconstruct().expect("rec");
            for b in sys.boundaries().windows(2) {
                assert!(rec.iter().any(|k| (b[0]..b[1]).contains(k)), "spans {b:?}");
            }
        }
        let restored = ShardedBstSystem::from_bytes(&sys.to_bytes()).expect("restore");
        for (id, keys) in restored.ids().into_iter().zip(&sets) {
            restored
                .remove_keys(id, keys.iter().copied())
                .expect("remove");
            assert_eq!(restored.get(id).expect("get").count_ones(), 0);
            let q = restored.query_id(id).expect("open");
            for handle in q.shard_handles() {
                assert_eq!(handle.filter().count_ones(), 0, "{id}");
            }
            assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter), "{id}");
        }
    }

    #[test]
    fn shard_systems_read_and_write_the_engine_store() {
        let sys = engine(4);
        for shard in sys.shard_systems() {
            assert!(std::ptr::eq(shard.filters(), &*sys.shared.store));
        }
        let keys = [10u64, 2_500, 8_000];
        let id = sys.shard_systems()[1]
            .create(keys)
            .expect("create through a shard");
        assert_eq!(sys.ids(), vec![id]);
        let whole = sys.get(id).expect("engine get");
        assert_eq!(whole.bits(), sys.store(keys).bits());
        // Each shard reads its own slice of the one key list.
        for (s, shard) in sys.shard_systems().iter().enumerate() {
            let mine = keys.iter().copied().filter(|&k| sys.shard_of(k) == s);
            assert_eq!(
                shard.get(id).expect("shard get").bits(),
                sys.store(mine).bits()
            );
        }
        sys.shard_systems()[2]
            .drop_set(id)
            .expect("drop through a shard");
        assert!(sys.is_empty());
        assert_eq!(sys.get(id).unwrap_err(), BstError::UnknownFilterId(id));
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let sys = engine(2);
        let bytes = sys.to_bytes();
        assert!(ShardedBstSystem::from_bytes(&bytes[..10]).is_err());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            ShardedBstSystem::from_bytes(&wrong).err(),
            Some(BstError::Persist(PersistError::BadMagic))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            ShardedBstSystem::from_bytes(&trailing).err(),
            Some(BstError::Persist(PersistError::Corrupt(_)))
        ));
    }

    #[test]
    fn snapshot_refuses_dense_and_oversized_shard_trees() {
        // One shard holding one id: the snapshot ends with its tree
        // backend, `tag u8 | len u64 | "BSTP" v | plan | version u64 |
        // count u64 | id u64`, whose tree is the last 76 bytes.
        let sys = ShardedBstSystem::builder(1 << 20)
            .shards(1)
            .expected_set_size(50)
            .occupied([12_345u64])
            .build();
        let bytes = sys.to_bytes();
        let tree = bytes.len() - 76;
        assert_eq!(&bytes[tree..tree + 4], b"BSTP");
        let refused = |what| Some(BstError::Persist(PersistError::Corrupt(what)));
        // A dense tag over a garbage payload: the tag is refused before
        // the payload is read.
        let mut dense = bytes.clone();
        dense[tree - 9] = 0;
        dense[tree..].fill(0xA5);
        assert_eq!(
            ShardedBstSystem::from_bytes(&dense).err(),
            refused("tree backend is not pruned")
        );
        // m = 2^32 at full depth: 21 filters of 512 MiB for the one id,
        // refused before any is sized. Plan offsets: m [13..21], depth
        // [32..36].
        let mut oversized = bytes.clone();
        oversized[tree + 13..tree + 21].copy_from_slice(&(1u64 << 32).to_le_bytes());
        oversized[tree + 32..tree + 36].copy_from_slice(&20u32.to_le_bytes());
        assert_eq!(
            ShardedBstSystem::from_bytes(&oversized).err(),
            refused("node filters exceed the 1 GiB tree budget")
        );
    }

    #[test]
    fn empty_shard_trees_report_empty_tree_on_both_paths() {
        // An engine with no occupancy anywhere: the handle path and the
        // batch path must report the same typed error for a non-empty
        // filter (EmptyTree, exactly like a single-tree system).
        let sys = ShardedBstSystem::builder(4_096)
            .shards(4)
            .expected_set_size(50)
            .occupied(std::iter::empty())
            .build();
        let filter = sys.store([1u64, 2, 3]);
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(
            sys.query(&filter).sample(&mut rng),
            Err(BstError::EmptyTree)
        );
        let (results, _) = sys.query_batch(&[filter], 9, 2);
        assert_eq!(results, vec![Err(BstError::EmptyTree)]);
        // An empty filter on an empty engine also reports EmptyTree on
        // both paths (core checks the tree before the filter, and a
        // single-tree system answers the same way).
        let empty = sys.store(std::iter::empty());
        assert_eq!(sys.query(&empty).sample(&mut rng), Err(BstError::EmptyTree));
        let (results, _) = sys.query_batch(&[empty], 9, 2);
        assert_eq!(results, vec![Err(BstError::EmptyTree)]);
    }

    #[test]
    fn weight_cache_tracks_interleaved_operations() {
        // Interleave weight-consuming ops with mutations through other
        // entry points of the SAME handle: the cached weights must never
        // outlive the state they were computed from.
        let sys = engine(4);
        let id = sys
            .create((0..120u64).map(|i| i * 61 % 8_192))
            .expect("create");
        let q = sys.query_id(id).expect("open");
        let w0 = q.live_weight().expect("weight");
        // Mutate, then touch the handle via reconstruct (which syncs the
        // per-shard handles past the cached stamps) before sampling.
        sys.insert_keys(id, [8_000u64, 8_001, 8_002])
            .expect("insert");
        let rec = q.reconstruct().expect("reconstruct");
        assert_eq!(
            q.live_weight().expect("weight"),
            rec.len() as u64,
            "weight must match the post-mutation reconstruction"
        );
        assert!(rec.len() as u64 >= w0, "members were added");
        sys.remove_keys(id, (0..120u64).map(|i| i * 61 % 8_192))
            .expect("remove");
        let rec = q.reconstruct().expect("reconstruct");
        assert_eq!(q.live_weight().expect("weight"), rec.len() as u64);
    }

    #[test]
    fn empty_filter_on_partially_occupied_engine_reports_empty_filter() {
        // Occupancy only in shard 0's range: shard 1's tree is empty.
        // An empty filter must classify as EmptyFilter (a single pruned
        // tree over the same occupancy has a root, so the filter is
        // what failed) — not as EmptyTree just because SOME shard is
        // tree-empty.
        let sys = ShardedBstSystem::builder(4_096)
            .shards(2)
            .expected_set_size(50)
            .occupied((0..1_000u64).step_by(2))
            .build();
        let empty = sys.store(std::iter::empty());
        let mut rng = StdRng::seed_from_u64(6);
        let q = sys.query(&empty);
        assert_eq!(q.sample(&mut rng), Err(BstError::EmptyFilter));
        assert_eq!(q.live_weight(), Err(BstError::EmptyFilter));
        assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter));
        let (results, _) = sys.query_batch(&[empty], 9, 2);
        assert_eq!(results, vec![Err(BstError::EmptyFilter)]);
        // A window over the empty shard on a live engine is Ok(vec![]),
        // exactly like a single tree whose occupancy lives elsewhere.
        let live = sys.store([0u64, 2, 4]);
        assert_eq!(sys.query(&live).reconstruct_range(3_000..4_000), Ok(vec![]));
    }

    #[test]
    fn snapshot_rejects_misrouted_occupancy() {
        // Occupancy entirely in the upper half: shard 0 empty, shard 1
        // full. Swapping the two shard payloads yields structurally
        // valid systems whose occupancy violates the routing invariant;
        // from_bytes must reject it as corrupt.
        let sys = ShardedBstSystem::builder(4_096)
            .shards(2)
            .expected_set_size(50)
            .occupied((2_048..4_096u64).step_by(2))
            .build();
        let bytes = sys.to_bytes();
        // Layout: "BSTH" v | boundaries (4 + 3*8) | config | store (no
        // sets: 8 + 4) | tag0 u8, len0 u64, tree0 | tag1 u8, len1 u64,
        // tree1.
        let mut config = BytesMut::new();
        persistence::put_config(&mut config, &sys.config());
        let trees_at = 5 + 28 + config.len() + 12;
        let tree = |at: usize| {
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            &bytes[at..at + 9 + len]
        };
        let t0 = tree(trees_at);
        let t1 = tree(trees_at + t0.len());
        assert_eq!(trees_at + t0.len() + t1.len(), bytes.len());
        let swapped = [&bytes[..trees_at], t1, t0].concat();
        assert_eq!(
            ShardedBstSystem::from_bytes(&swapped).err(),
            Some(BstError::Persist(PersistError::Corrupt(
                "shard occupancy outside its boundary range"
            )))
        );
        // The untouched snapshot still restores.
        assert!(ShardedBstSystem::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn warm_repeated_batch_skips_phase_one() {
        let sys = engine(4);
        let ids: Vec<FilterId> = (0..8)
            .map(|i| {
                sys.create((0..60u64).map(|j| (i * 997 + j * 13) % 8_192))
                    .expect("create")
            })
            .collect();
        let (r1, cold_stats) = sys.query_batch_ids(&ids, 11, 2);
        let after_cold = sys.handle_pool_stats();
        assert_eq!(after_cold.hits, 0, "first batch opens every handle");
        assert_eq!(after_cold.misses, ids.len() as u64);
        assert_eq!(after_cold.handles, ids.len());
        let (r2, warm_stats) = sys.query_batch_ids(&ids, 11, 2);
        let after_warm = sys.handle_pool_stats();
        assert_eq!(r1, r2, "warm handles must not change results");
        assert_eq!(after_warm.misses, after_cold.misses, "no new opens");
        assert_eq!(after_warm.hits, ids.len() as u64);
        assert!(
            warm_stats.total_ops() < cold_stats.total_ops() / 2,
            "a warm batch skips the phase-1 weighing ({} vs {})",
            warm_stats.total_ops(),
            cold_stats.total_ops()
        );
    }

    #[test]
    fn batch_results_identical_warm_and_cleared() {
        let sys = engine(4);
        let ids: Vec<FilterId> = (0..5)
            .map(|i| {
                sys.create((0..50u64).map(|j| (i * 911 + j * 17) % 8_192))
                    .expect("create")
            })
            .collect();
        let filters: Vec<BloomFilter> = (0..6)
            .map(|i| sys.store((0..40u64).map(|j| (i * 389 + j * 23) % 8_192)))
            .collect();
        // Warm the pool, then compare against batches on cold handles —
        // on the same engine and on a fresh restored twin — outputs must
        // be bit-identical.
        let (warm_f, _) = sys.query_batch(&filters, 7, 2);
        let (warm_f2, _) = sys.query_batch(&filters, 7, 2);
        let (warm_i, _) = sys.query_batch_ids(&ids, 9, 2);
        let (warm_i2, _) = sys.query_batch_ids(&ids, 9, 2);
        let twin = ShardedBstSystem::from_bytes(&sys.to_bytes()).expect("restore");
        sys.clear_handle_pool();
        let misses = sys.handle_pool_stats().misses;
        let (cold_f, _) = sys.query_batch(&filters, 7, 2);
        let (cold_i, _) = sys.query_batch_ids(&ids, 9, 2);
        assert_eq!(
            sys.handle_pool_stats().misses - misses,
            ids.len() as u64,
            "every stored handle reopened"
        );
        for (warm, cold) in [(&warm_f, &cold_f), (&warm_f2, &cold_f)] {
            assert_eq!(warm, cold);
        }
        assert_eq!(warm_i, cold_i);
        assert_eq!(warm_i2, cold_i);
        assert_eq!(twin.query_batch(&filters, 7, 1).0, cold_f);
        assert_eq!(twin.query_batch_ids(&ids, 9, 1).0, cold_i);
    }

    #[test]
    fn store_churn_invalidates_only_the_mutated_cells() {
        let sys = engine(4);
        let ids: Vec<FilterId> = (0..3)
            .map(|i| {
                sys.create((0..60u64).map(|j| (i * 701 + j * 29) % 8_192))
                    .expect("create")
            })
            .collect();
        sys.query_batch_ids(&ids, 3, 2);
        // Mutate one set with a key landing in exactly one shard: only
        // that (set, shard) handle goes stale.
        sys.insert_keys(ids[1], [10u64]).expect("insert");
        let owner = sys.shard_of(10);
        for (slot, id) in ids.iter().enumerate() {
            let pooled = sys.pooled_query_id(*id).expect("pooled");
            for (shard, handle) in pooled.shard_handles().iter().enumerate() {
                let expect = slot == 1 && shard == owner;
                assert_eq!(handle.is_stale(), Ok(expect), "set {slot} shard {shard}");
            }
        }
        let (results, _) = sys.query_batch_ids(&ids, 3, 2);
        for r in &results {
            r.expect("all slots live");
        }
        let pooled = sys.pooled_query_id(ids[1]).expect("pooled");
        assert_eq!(pooled.is_stale(), Ok(false), "the batch re-weighed it");
        assert_eq!(
            pooled.shard_handles()[owner].live_weight(),
            sys.query_id(ids[1]).expect("open").shard_handles()[owner].live_weight()
        );
    }

    #[test]
    fn occupancy_churn_repairs_cached_weights_by_delta() {
        let sys = ShardedBstSystem::builder(8_192)
            .shards(4)
            .expected_set_size(200)
            .seed(9)
            .occupied((0..8_192u64).step_by(2))
            .build();
        let ids: Vec<FilterId> = (0..4)
            .map(|i| {
                sys.create((0..60u64).map(|j| (i * 997 + j * 26) % 8_192))
                    .expect("create")
            })
            .collect();
        let (_, cold) = sys.query_batch_ids(&ids, 13, 2);
        // Toggle an odd id: the owning shard's tree generation moves by
        // 2 and the journal covers the gap, so the pooled handles repair
        // their memos instead of re-weighing.
        sys.insert_occupied(4_097).expect("insert");
        sys.remove_occupied(4_097).expect("remove");
        let (r, repaired) = sys.query_batch_ids(&ids, 13, 2);
        assert!(
            repaired.memberships < cold.memberships / 2,
            "no cell re-scans ({} vs {})",
            repaired.memberships,
            cold.memberships
        );
        // Repaired weights must equal recomputed ones.
        sys.clear_handle_pool();
        let (fresh, _) = sys.query_batch_ids(&ids, 13, 2);
        assert_eq!(r, fresh);
    }

    #[test]
    fn cached_weights_match_recomputation() {
        let sys = engine(4);
        let id = sys
            .create((0..200u64).map(|i| i * 37 % 8_192))
            .expect("create");
        let filter = sys.store((0..80u64).map(|i| i * 53 % 8_192));
        sys.query_batch_ids(&[id], 5, 2);
        sys.query_batch(std::slice::from_ref(&filter), 5, 2);
        let stored = sys.pooled_query_id(id).expect("pooled");
        let adhoc = sys.query(&filter);
        assert_eq!(sys.handle_pool_stats().handles, 1, "ad-hoc is not pooled");
        for (shard, sys_shard) in sys.shard_systems().iter().enumerate() {
            assert_eq!(
                stored.shard_handles()[shard].live_weight(),
                sys.query_id(id).expect("open").shard_handles()[shard].live_weight(),
                "shard {shard}"
            );
            assert_eq!(
                adhoc.shard_handles()[shard].live_weight(),
                sys_shard.query(&filter).live_weight(),
                "shard {shard}"
            );
        }
        // Dropping the set removes its pooled handle.
        sys.drop_set(id).expect("drop");
        assert_eq!(sys.handle_pool_stats().handles, 0);
        assert_eq!(
            sys.pooled_query_id(id).err(),
            Some(BstError::UnknownFilterId(id))
        );
        assert_eq!(sys.handle_pool_stats().handles, 0, "errors are not pooled");
    }

    #[test]
    fn batch_obs_and_spans_track_scatter_gather_phases() {
        use bst_obs::RingRecorder;
        let sys = engine(4);
        let obs = std::sync::Arc::new(BatchObs::unregistered());
        sys.set_batch_obs(Some(obs.clone()));
        let ring = std::sync::Arc::new(RingRecorder::new(64));
        sys.set_recorder(Some(ring.clone()));

        let ids: Vec<_> = (0..3u64)
            .map(|f| {
                sys.create((0..80u64).map(move |i| (i * 131 + f * 7) % 8_192))
                    .expect("create")
            })
            .collect();
        let (results, _) = sys.query_batch_ids(&ids, 5, 2);
        assert!(results.iter().all(|r| r.is_ok()));

        assert_eq!(obs.batches.get(), 1);
        // Both phase histograms record once per batch.
        assert_eq!(obs.weigh_us.count(), 1);
        assert_eq!(obs.sample_us.count(), 1);

        let batch_attr = |name: &str| {
            let spans = ring.recent();
            let batch = spans
                .iter()
                .rfind(|s| s.name == "bst.shard.batch")
                .expect("batch span");
            batch
                .attrs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .expect("attr")
        };
        assert_eq!(batch_attr("slots"), 3);
        assert_eq!(batch_attr("weighed_cells"), 12, "4 shards x 3 filters");
        assert_eq!(batch_attr("sampled_cells"), 3, "one chosen shard per slot");
        // A cold weighing reads the index pass's hit lists, with no
        // child test: its work is the pass's memberships.
        let cold_memberships = batch_attr("memberships");

        // Warm repeat: every weight is a memo read on a pooled handle,
        // but the phase histogram still records the (near-zero) phase
        // time and the batch counter advances.
        let (results, _) = sys.query_batch_ids(&ids, 6, 2);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(obs.batches.get(), 2);
        assert_eq!(obs.weigh_us.count(), 2);
        assert!(
            batch_attr("memberships") < cold_memberships / 2,
            "warm batch weighs from the handle memos"
        );

        // Detaching both sinks stops all emission and recording.
        sys.set_recorder(None);
        sys.set_batch_obs(None);
        let before = ring.recorded_total();
        let _ = sys.query_batch_ids(&ids, 7, 2);
        assert_eq!(ring.recorded_total(), before);
        assert_eq!(obs.batches.get(), 2);
    }

    #[test]
    fn handle_pool_is_bounded_and_shared_by_both_paths() {
        let sys = engine(2);
        let ids: Vec<FilterId> = (0..HANDLE_POOL_CAP as u64 + 6)
            .map(|i| sys.create([i * 5, i * 5 + 1]).expect("create"))
            .collect();
        let (wide, _) = sys.query_batch_ids(&ids, 4, 2);
        assert!(wide.iter().all(|r| r.is_ok()));
        assert_eq!(sys.handle_pool_stats().handles, HANDLE_POOL_CAP);
        // The newest ids stay pooled: a single query reuses the handle
        // the batch warmed.
        let last = *ids.last().expect("ids");
        let before = sys.handle_pool_stats();
        let q = sys.pooled_query_id(last).expect("pooled");
        assert_eq!(sys.handle_pool_stats().hits, before.hits + 1);
        assert!(std::sync::Arc::ptr_eq(
            &q,
            &sys.pooled_query_id(last).expect("pooled")
        ));
        // A dropped id's slot fails alone and leaves nothing pooled.
        sys.drop_set(last).expect("drop");
        let (results, _) = sys.query_batch_ids(&ids[ids.len() - 2..], 4, 1);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(BstError::UnknownFilterId(last)));
        assert_eq!(sys.handle_pool_stats().handles, HANDLE_POOL_CAP - 1);
    }

    #[test]
    fn engine_is_cheap_to_clone_and_threadsafe() {
        fn assert_traits<T: Clone + Send + Sync + 'static>() {}
        assert_traits::<ShardedBstSystem>();
        fn assert_handle<T: Send + Sync + 'static>() {}
        assert_handle::<ShardQuery>();
    }

    #[test]
    fn single_shard_engine_matches_single_system_results() {
        // S = 1 is the degenerate case: one shard owning the whole
        // namespace must reconstruct exactly what a standalone pruned
        // system does.
        let occ: Vec<u64> = (0..4_096u64).step_by(3).collect();
        let sharded = ShardedBstSystem::builder(4_096)
            .shards(1)
            .expected_set_size(100)
            .seed(21)
            .occupied(occ.iter().copied())
            .build();
        let single = BstSystem::builder(4_096)
            .expected_set_size(100)
            .seed(21)
            .pruned(occ.iter().copied())
            .build();
        let keys: Vec<u64> = occ.iter().copied().step_by(5).collect();
        let f = sharded.store(keys.iter().copied());
        assert_eq!(
            sharded.query(&f).reconstruct().expect("sharded"),
            single.query(&f).reconstruct().expect("single"),
        );
    }
}
