//! The per-filter query handle: captured filter + amortized descent state,
//! generation-stamped against the mutable store *and* the mutable tree.
//!
//! The paper's framework (§3.2) stores millions of sets as Bloom filters
//! and serves *repeated* sampling/reconstruction requests against each of
//! them from one shared tree. Treating every call as stateless — as the
//! old `BstSystem::sample`/`reconstruct` facade did — rebuilds the same
//! per-query information over and over: every descent re-intersects the
//! query with the same node filters, every leaf visit re-scans the same
//! candidates, and corrected sampling rebuilds its frontier weight cache
//! from scratch each call.
//!
//! [`Query`] fixes the shape: [`crate::system::BstSystem::query`] captures
//! the filter once, and each operation lazily grows a [`QueryMemo`] — the
//! live-node frontier discovered by the first tree descents — so later
//! operations on the same handle turn `O(m/64)`-word Bloom intersections
//! into hash-map hits. The handle holds an `Arc` of the system, so it is
//! `'static`, `Send + Sync`, and can be shared across worker threads or
//! kept in a pool of warm handles.
//!
//! ## Mutation safety: two generation stamps
//!
//! Two things can change under an open handle, and each has its own
//! invalidation path:
//!
//! * **The stored set** (handles opened by id via
//!   [`crate::system::BstSystem::query_id`]): `insert_keys`/`remove_keys`
//!   bump the set's generation in the store. A stale handle re-projects
//!   the filter and discards the memo — a cold re-descent.
//! * **The tree's occupancy** (pruned backends):
//!   [`crate::system::BstSystem::insert_occupied`] /
//!   [`crate::system::BstSystem::remove_occupied`] bump the backend's
//!   *tree generation* (see [`crate::backend::TreeBackend`]). A stale
//!   handle replays the tree's bounded mutation journal and **repairs**
//!   its memo along just the mutated root-to-leaf paths (`O(depth)` per
//!   mutation) — the filter itself is still valid, it never depended on
//!   the tree — so occupancy churn costs a path re-evaluation, not a
//!   full cold re-descent. Only when the journal no longer covers the
//!   generation gap is the memo discarded wholesale. Either way the
//!   repaired state is bit-identical to a cold walk's, so
//!   warm-equals-cold holds across occupancy churn. This applies to
//!   *detached* handles too.
//!
//! Every operation acquires the tree view first, then checks both stamps
//! under the state lock, so results are never computed against a
//! superseded set or a reshaped tree; the warm-equals-cold guarantee
//! holds across both mutation paths (`e2e_store.rs`, `e2e_shard.rs`).
//!
//! Caching never changes results: cached values are pure functions of
//! `(tree, filter, config)`, and the walk consumes randomness identically
//! on hits and misses, so a warm handle returns exactly what a cold one
//! would for the same RNG state (`e2e_query_handle.rs` pins this).

use std::ops::Range;

use bst_bloom::filter::BloomFilter;
use parking_lot::Mutex;
use rand::Rng;

use crate::backend::TreeView;
use crate::error::BstError;
use crate::metrics::OpStats;
use crate::reconstruct::BstReconstructor;
use crate::sampler::{BstSampler, QueryMemo};
use crate::store::FilterId;
use crate::system::BstSystem;
use crate::tree::SampleTree;

/// Where a handle's filter came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum QuerySource {
    /// A caller-supplied filter, captured once, never refreshed.
    Detached,
    /// A set registered in the system's store, re-projected whenever the
    /// generation of the system's slice moves past the handle's stamp.
    Stored(FilterId),
}

/// The mutable half of a handle: the projected filter, its compatibility
/// verdict, the two generation stamps it was computed at, and the memo —
/// refreshed together so they can never disagree.
struct QueryState {
    filter: BloomFilter,
    compatible: bool,
    /// Generation of the system's slice at the last projection (0,
    /// constant, detached).
    generation: u64,
    /// Tree generation the memo was built against.
    tree_generation: u64,
    memo: QueryMemo,
}

/// A handle binding one query filter to a [`BstSystem`], with cached
/// descent state and accumulated operation accounting.
///
/// Construct with [`BstSystem::query`] (detached filter) or
/// [`BstSystem::query_id`] (store-registered set; mutation-safe via
/// generation stamps). All operations take `&self`; the internal caches
/// are mutex-guarded, so a `Query` can be shared across threads
/// (operations on *one* handle serialize on the cache lock — clone the
/// system and open one handle per worker for parallel serving of the
/// same filter).
pub struct Query {
    system: BstSystem,
    source: QuerySource,
    state: Mutex<QueryState>,
    stats: Mutex<OpStats>,
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        write!(
            f,
            "Query(source={:?}, bits={}, generation={}, tree_generation={}, compatible={}, cached_evals={}, cached_leaves={})",
            self.source,
            state.filter.count_ones(),
            state.generation,
            state.tree_generation,
            state.compatible,
            state.memo.cached_evals(),
            state.memo.cached_leaves()
        )
    }
}

impl Query {
    pub(crate) fn new(system: BstSystem, filter: BloomFilter) -> Self {
        Self::build(system, QuerySource::Detached, filter, 0)
    }

    pub(crate) fn new_stored(
        system: BstSystem,
        id: FilterId,
        filter: BloomFilter,
        generation: u64,
    ) -> Self {
        Self::build(system, QuerySource::Stored(id), filter, generation)
    }

    fn build(system: BstSystem, source: QuerySource, filter: BloomFilter, generation: u64) -> Self {
        let view = system.tree().read();
        let compatible = Self::compatible(&view, &filter);
        let tree_generation = view.generation();
        drop(view);
        Query {
            system,
            source,
            state: Mutex::new(QueryState {
                filter,
                compatible,
                generation,
                tree_generation,
                memo: QueryMemo::new(),
            }),
            stats: Mutex::new(OpStats::new()),
        }
    }

    fn compatible(view: &TreeView<'_>, filter: &BloomFilter) -> bool {
        match view.root() {
            Some(root) => filter.compatible_with(view.filter(root)),
            None => true,
        }
    }

    /// The query filter the handle currently holds (a snapshot clone; for
    /// store-backed handles this is the projection as of the last
    /// refresh).
    pub fn filter(&self) -> BloomFilter {
        self.state.lock().filter.clone()
    }

    /// The store id this handle reads, for handles opened with
    /// [`BstSystem::query_id`]; `None` for detached handles.
    pub fn filter_id(&self) -> Option<FilterId> {
        match self.source {
            QuerySource::Detached => None,
            QuerySource::Stored(id) => Some(id),
        }
    }

    /// The store-generation stamp of the last projection (0 and constant
    /// for detached handles).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// The tree-generation stamp of the handle's cached descent state
    /// (0 and constant on a dense backend).
    pub fn tree_generation(&self) -> u64 {
        self.state.lock().tree_generation
    }

    /// Whether the stored set *or* the tree's occupancy has moved past
    /// this handle's stamps (the next operation will re-descend cold).
    /// Errors if the set was dropped.
    pub fn is_stale(&self) -> Result<bool, BstError> {
        Ok(self.staleness()?.2)
    }

    /// One-shot staleness probe: the handle's `(set generation, tree
    /// generation)` stamps plus whether anything has moved past them,
    /// with a single state-lock acquisition — the hot-path form of
    /// [`Self::generation`] + [`Self::tree_generation`] +
    /// [`Self::is_stale`]. Errors if the backing set was dropped.
    pub fn staleness(&self) -> Result<(u64, u64, bool), BstError> {
        let (seen_set, seen_tree) = {
            let state = self.state.lock();
            (state.generation, state.tree_generation)
        };
        let set_stale = match self.source {
            QuerySource::Detached => false,
            QuerySource::Stored(id) => {
                let system = &self.system;
                system.filters().slice_generation(id, system.slice())? != seen_set
            }
        };
        let stale = set_stale || self.system.tree().generation() != seen_tree;
        Ok((seen_set, seen_tree, stale))
    }

    /// The system this handle queries (an `Arc` clone away from the one
    /// that created it).
    pub fn system(&self) -> &BstSystem {
        &self.system
    }

    /// Estimated cardinality of the stored set, from the filter alone.
    /// Store-backed handles refresh their projection first, so the
    /// estimate tracks mutations; if the set was dropped (or the filter
    /// is incompatible), the last successful projection is reported.
    pub fn estimated_cardinality(&self) -> f64 {
        let view = self.system.tree().read();
        let mut guard = self.state.lock();
        let _ = self.sync(&mut guard, &view);
        guard.filter.estimate_cardinality()
    }

    /// Operation counts accumulated by every call through this handle.
    /// Cached work performs no filter operations, so a warming handle
    /// shows falling per-call deltas here.
    pub fn stats(&self) -> OpStats {
        *self.stats.lock()
    }

    /// Returns the accumulated stats and resets the counters.
    pub fn take_stats(&self) -> OpStats {
        let mut guard = self.stats.lock();
        let out = *guard;
        guard.reset();
        out
    }

    /// Number of tree nodes whose liveness/descent evaluation is cached.
    pub fn cached_evals(&self) -> usize {
        self.state.lock().memo.cached_evals()
    }

    /// Number of leaves whose match lists are cached.
    pub fn cached_leaves(&self) -> usize {
        self.state.lock().memo.cached_leaves()
    }

    /// Brings `state` up to date with the store (stale set stamp →
    /// re-project filter, reset memo) and the tree (stale tree stamp →
    /// repair the memo from the mutation journal, or reset it when the
    /// journal no longer reaches back), then enforces the compatibility
    /// guard. Called at the
    /// top of every operation, under the state lock, with the view the
    /// operation will run against — the view holds the tree read lock, so
    /// neither stamp can move between this check and the operation.
    fn sync(&self, state: &mut QueryState, view: &TreeView<'_>) -> Result<(), BstError> {
        // Store staleness first: a re-projection replaces the filter and
        // discards the memo wholesale, which also covers any pending
        // tree-generation gap — running the journal repair before would
        // be work thrown straight away.
        let mut reprojected = false;
        if let QuerySource::Stored(id) = self.source {
            let system = &self.system;
            if let Some((filter, generation)) = system.filters().snapshot_if_newer(
                id,
                system.slice(),
                state.generation,
                system.tree().hasher(),
            )? {
                state.compatible = Self::compatible(view, &filter);
                state.filter = filter;
                state.generation = generation;
                state.memo = QueryMemo::new();
                state.tree_generation = view.generation();
                reprojected = true;
            }
        }
        if !reprojected && view.generation() != state.tree_generation {
            // The tree's occupancy changed. Replay the mutation journal
            // to repair the memo along just the mutated root-to-leaf
            // paths (O(depth) per mutation, leaf lists patched in place);
            // only when the handle is so stale that the journal no
            // longer covers the gap is the memo discarded wholesale. The
            // filter itself is unaffected either way (it never depended
            // on the tree).
            if !view.repair_memo(state.tree_generation, &mut state.memo, &state.filter) {
                state.memo = QueryMemo::new();
            }
            state.tree_generation = view.generation();
            state.compatible = Self::compatible(view, &state.filter);
        }
        if state.compatible {
            Ok(())
        } else {
            Err(BstError::IncompatibleFilter)
        }
    }

    /// Emits one tracing span carrying this operation's `OpStats` delta
    /// (the paper's §7.1 units) as attributes. While tracing is
    /// disabled (`span == None`) this is a single branch.
    fn record_span(&self, name: &'static str, span: Option<std::time::Instant>, local: &OpStats) {
        self.system.tracer().record(
            name,
            span,
            &[
                ("intersections", local.intersections),
                ("memberships", local.memberships),
                ("nodes_visited", local.nodes_visited),
                ("backtracks", local.backtracks),
            ],
        );
    }

    /// Draws one sample from the stored set: exactly uniform over
    /// [`Self::reconstruct`]'s output when the sampler and reconstructor
    /// both run the sound rule on a pruned tree (the sampler's exact
    /// path), near-uniform BSTSample otherwise.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<u64, BstError> {
        let span = self.system.tracer().start();
        let view = self.system.tree().read();
        let mut guard = self.state.lock();
        self.sync(&mut guard, &view)?;
        let cfg = self.system.config();
        let sampler = BstSampler::with_config(&view, cfg.sampler).exact_draws(&cfg.reconstruct);
        let state = &mut *guard;
        let mut local = OpStats::new();
        let out = sampler.try_sample_memo(&state.filter, &mut state.memo, rng, &mut local);
        drop(guard);
        *self.stats.lock() += local;
        self.record_span("bst.core.sample", span, &local);
        out
    }

    /// Draws `r` samples: `r` exact draws on the sampler's exact path,
    /// otherwise one tree pass (§5.3), which may return fewer than `r`
    /// when descent paths die on false-positive routes.
    pub fn sample_many<R: Rng + ?Sized>(
        &self,
        r: usize,
        rng: &mut R,
    ) -> Result<Vec<u64>, BstError> {
        let span = self.system.tracer().start();
        let view = self.system.tree().read();
        let mut guard = self.state.lock();
        self.sync(&mut guard, &view)?;
        let cfg = self.system.config();
        let sampler = BstSampler::with_config(&view, cfg.sampler).exact_draws(&cfg.reconstruct);
        let state = &mut *guard;
        let mut local = OpStats::new();
        let out = sampler.try_sample_many_memo(&state.filter, r, &mut state.memo, rng, &mut local);
        drop(guard);
        *self.stats.lock() += local;
        self.record_span("bst.core.sample_many", span, &local);
        out
    }

    /// Reconstructs the stored set (`S ∪ S(B)`), sorted ascending.
    pub fn reconstruct(&self) -> Result<Vec<u64>, BstError> {
        let span = self.system.tracer().start();
        let view = self.system.tree().read();
        let mut guard = self.state.lock();
        self.sync(&mut guard, &view)?;
        let recon = BstReconstructor::with_config(&view, self.system.config().reconstruct);
        let state = &mut *guard;
        let mut local = OpStats::new();
        let out = recon.try_reconstruct_memo(&state.filter, &mut state.memo, &mut local);
        drop(guard);
        *self.stats.lock() += local;
        self.record_span("bst.core.reconstruct", span, &local);
        out
    }

    /// The number of elements [`Self::reconstruct`] would return — the
    /// handle's **live-leaf weight**: matching candidates summed over all
    /// live leaves. Exact (the same count as reconstruction, without
    /// materialising the set) and amortized by the memo, so repeated
    /// calls on a warm handle do no filter work. The sharded engine uses
    /// this to weight shard selection so merged sampling stays uniform.
    pub fn live_weight(&self) -> Result<u64, BstError> {
        self.live_weight_stamped().0
    }

    /// [`Self::live_weight`] plus the `(set generation, tree generation)`
    /// stamps the outcome was computed at, read under the same state lock
    /// as the computation — so a caller caching the weight can key it to
    /// *exactly* the state it reflects, even while other threads operate
    /// on the same handle. On hard errors (dropped set, incompatible
    /// filter) the stamps are the handle's current ones and should not
    /// be used for caching.
    pub fn live_weight_stamped(&self) -> (Result<u64, BstError>, u64, u64) {
        let span = self.system.tracer().start();
        let view = self.system.tree().read();
        let mut guard = self.state.lock();
        let synced = self.sync(&mut guard, &view);
        let (set_gen, tree_gen) = (guard.generation, guard.tree_generation);
        if let Err(e) = synced {
            return (Err(e), set_gen, tree_gen);
        }
        // A weight served from the memo does no filter work, so it
        // records no stats and no span: a sharded sample reads one per
        // shard, which would otherwise flood the trace ring.
        let counts = guard.memo.cached_count().is_none();
        let recon = BstReconstructor::with_config(&view, self.system.config().reconstruct);
        let state = &mut *guard;
        let mut local = OpStats::new();
        let out = recon.try_count_memo(&state.filter, &mut state.memo, &mut local);
        drop(guard);
        if counts {
            *self.stats.lock() += local;
            self.record_span("bst.core.live_weight", span, &local);
        }
        (out, set_gen, tree_gen)
    }

    /// Range-restricted reconstruction: elements of `S ∪ S(B)` inside
    /// `window`, sorted. Subtrees disjoint from the window are never
    /// visited. An empty window yields `Ok(vec![])`.
    pub fn reconstruct_range(&self, window: Range<u64>) -> Result<Vec<u64>, BstError> {
        let span = self.system.tracer().start();
        let view = self.system.tree().read();
        let mut guard = self.state.lock();
        self.sync(&mut guard, &view)?;
        let recon = BstReconstructor::with_config(&view, self.system.config().reconstruct);
        let state = &mut *guard;
        let mut local = OpStats::new();
        let out =
            recon.try_reconstruct_range_memo(&state.filter, window, &mut state.memo, &mut local);
        drop(guard);
        *self.stats.lock() += local;
        self.record_span("bst.core.reconstruct_range", span, &local);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn system() -> BstSystem {
        BstSystem::builder(20_000)
            .expected_set_size(200)
            .seed(5)
            .build()
    }

    #[test]
    fn handle_is_send_sync_static() {
        fn assert_traits<T: Send + Sync + 'static>() {}
        assert_traits::<Query>();
    }

    #[test]
    fn repeated_sampling_amortizes_ops() {
        let sys = system();
        let f = sys.store((0..200u64).map(|i| i * 83 % 20_000));
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(1);
        q.sample(&mut rng).expect("first sample");
        let cold = q.take_stats();
        for _ in 0..100 {
            q.sample(&mut rng).expect("warm sample");
        }
        let warm = q.take_stats();
        assert!(
            warm.total_ops() < 100 * cold.total_ops(),
            "100 warm samples ({} ops) should amortize vs 100x cold cost ({} ops)",
            warm.total_ops(),
            100 * cold.total_ops()
        );
        assert!(q.cached_evals() > 0);
    }

    #[test]
    fn reconstruct_twice_second_pass_is_free() {
        let sys = system();
        let keys: Vec<u64> = (0..150u64).map(|i| i * 131 % 20_000).collect();
        let f = sys.store(keys.iter().copied());
        let q = sys.query(&f);
        let first = q.reconstruct().expect("reconstruct");
        let ops_first = q.take_stats().total_ops();
        let second = q.reconstruct().expect("reconstruct again");
        let ops_second = q.take_stats().total_ops();
        assert_eq!(first, second);
        assert_eq!(
            ops_second, 0,
            "fully-warm reconstruction re-does no filter work"
        );
        assert!(ops_first > 0);
    }

    #[test]
    fn live_weight_counts_the_reconstruction() {
        let sys = system();
        let keys: Vec<u64> = (0..150u64).map(|i| i * 97 % 20_000).collect();
        let f = sys.store(keys.iter().copied());
        let q = sys.query(&f);
        let rec = q.reconstruct().expect("reconstruct");
        assert_eq!(q.live_weight(), Ok(rec.len() as u64));
        // Warm: counting re-does no filter work.
        q.take_stats();
        assert_eq!(q.live_weight(), Ok(rec.len() as u64));
        assert_eq!(q.take_stats().total_ops(), 0);
    }

    #[test]
    fn incompatible_filter_is_rejected() {
        let sys = system();
        // A filter built with a different seed: same m/k but a different
        // hash family — intersecting it with tree nodes is meaningless.
        let other = BstSystem::builder(20_000)
            .expected_set_size(200)
            .seed(77)
            .build();
        let foreign = other.store([1u64, 2, 3]);
        let q = sys.query(&foreign);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(q.sample(&mut rng), Err(BstError::IncompatibleFilter));
        assert_eq!(q.reconstruct(), Err(BstError::IncompatibleFilter));
        assert_eq!(
            q.sample_many(5, &mut rng),
            Err(BstError::IncompatibleFilter)
        );
        assert_eq!(q.live_weight(), Err(BstError::IncompatibleFilter));
    }

    #[test]
    fn empty_filter_reports_empty() {
        let sys = system();
        let f = sys.store(std::iter::empty());
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(q.sample(&mut rng), Err(BstError::EmptyFilter));
        assert_eq!(q.reconstruct(), Err(BstError::EmptyFilter));
        assert_eq!(q.live_weight(), Err(BstError::EmptyFilter));
    }

    #[test]
    fn range_reconstruction_windows() {
        let sys = system();
        let keys: Vec<u64> = (100..160u64).collect();
        let f = sys.store(keys.iter().copied());
        let q = sys.query(&f);
        let full = q.reconstruct().expect("full");
        let window = q.reconstruct_range(120..140).expect("window");
        let expect: Vec<u64> = full
            .iter()
            .copied()
            .filter(|&x| (120..140).contains(&x))
            .collect();
        assert_eq!(window, expect);
        assert_eq!(q.reconstruct_range(50..50).expect("empty window"), vec![]);
    }

    #[test]
    fn query_ops_emit_spans_with_opstats_attrs() {
        let sys = system();
        let f = sys.store((0..100u64).map(|i| i * 3));
        let ring = std::sync::Arc::new(bst_obs::RingRecorder::new(16));
        sys.set_recorder(Some(ring.clone()));
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(9);
        q.sample(&mut rng).expect("sample");
        let delta = q.take_stats();
        let spans = ring.recent();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.name, "bst.core.sample");
        let attr = |k: &str| {
            s.attrs
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| *v)
                .expect("attr present")
        };
        assert_eq!(attr("intersections"), delta.intersections);
        assert_eq!(attr("memberships"), delta.memberships);
        assert_eq!(attr("nodes_visited"), delta.nodes_visited);
        assert_eq!(attr("backtracks"), delta.backtracks);
        q.reconstruct().expect("reconstruct");
        let names: Vec<&str> = ring.recent().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["bst.core.sample", "bst.core.reconstruct"]);
        // A live weight served from the memo (the reconstruction above
        // cached it) emits nothing; a cold one counts and emits its span.
        q.live_weight().expect("warm weight");
        sys.query(&f).live_weight().expect("cold weight");
        let names: Vec<&str> = ring.recent().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "bst.core.sample",
                "bst.core.reconstruct",
                "bst.core.live_weight"
            ]
        );
        // Removing the recorder stops emission entirely.
        sys.set_recorder(None);
        q.sample(&mut rng).expect("sample");
        assert_eq!(ring.recorded_total(), 3);
    }

    #[test]
    fn stats_accumulate_across_ops() {
        let sys = system();
        let f = sys.store((0..50u64).map(|i| i * 31));
        let q = sys.query(&f);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(q.stats(), OpStats::new());
        q.sample(&mut rng).expect("sample");
        let after_sample = q.stats();
        assert!(after_sample.total_ops() > 0);
        q.reconstruct().expect("reconstruct");
        assert!(q.stats().total_ops() >= after_sample.total_ops());
    }

    #[test]
    fn detached_handles_never_go_stale_on_dense_backends() {
        let sys = system();
        let f = sys.store((0..50u64).map(|i| i * 7));
        let q = sys.query(&f);
        assert_eq!(q.filter_id(), None);
        assert_eq!(q.is_stale(), Ok(false));
        assert_eq!(q.generation(), 0);
        assert_eq!(q.tree_generation(), 0);
    }

    #[test]
    fn detached_handles_track_tree_mutations_on_pruned_backends() {
        let occ: Vec<u64> = (0..20_000u64).step_by(5).collect();
        let sys = BstSystem::builder(20_000)
            .expected_set_size(200)
            .seed(5)
            .pruned(occ.iter().copied())
            .build();
        let keys: Vec<u64> = occ.iter().copied().take(60).collect();
        let f = sys.store(keys.iter().copied());
        let q = sys.query(&f);
        let rec = q.reconstruct().expect("reconstruct");
        assert!(q.cached_leaves() > 0);
        assert_eq!(q.is_stale(), Ok(false));

        // Occupy a namespace id that the filter already stores: the
        // element becomes sampleable, so the handle must re-descend.
        let newcomer = 3; // 3 % 5 != 0, so it was unoccupied
        assert!(!rec.contains(&newcomer));
        let f2 = sys.store(keys.iter().copied().chain([newcomer]));
        let q2 = sys.query(&f2);
        let before = q2.reconstruct().expect("reconstruct");
        assert!(!before.contains(&newcomer), "unoccupied id invisible");

        sys.insert_occupied(newcomer).expect("insert_occupied");
        assert_eq!(q.is_stale(), Ok(true));
        assert_eq!(q2.is_stale(), Ok(true));
        let after = q2.reconstruct().expect("reconstruct after occupy");
        assert!(after.contains(&newcomer), "occupied id now visible");
        assert_eq!(q2.tree_generation(), 1);
        assert_eq!(q2.is_stale(), Ok(false));

        // Removal invalidates again and hides the id.
        sys.remove_occupied(newcomer).expect("remove_occupied");
        let gone = q2.reconstruct().expect("reconstruct after removal");
        assert!(!gone.contains(&newcomer));
        assert_eq!(q2.tree_generation(), 2);
    }

    #[test]
    fn estimated_cardinality_tracks_mutations() {
        let sys = system();
        let id = sys.create(0..50u64).expect("create");
        let q = sys.query_id(id).expect("open");
        let before = q.estimated_cardinality();
        sys.insert_keys(id, 50..500u64).expect("insert");
        let after = q.estimated_cardinality();
        assert!(
            after > 2.0 * before,
            "estimate must refresh with the store: {before} -> {after}"
        );
    }

    #[test]
    fn stored_handle_refreshes_on_mutation() {
        let sys = system();
        let id = sys.create((0..100u64).map(|i| i * 3)).expect("create");
        let q = sys.query_id(id).expect("open");
        assert_eq!(q.filter_id(), Some(id));
        let mut rng = StdRng::seed_from_u64(6);
        q.sample(&mut rng).expect("sample");
        let warm_evals = q.cached_evals();
        assert!(warm_evals > 0);
        assert_eq!(q.is_stale(), Ok(false));

        // Mutate: handle turns stale, next op re-projects + resets memo.
        sys.insert_keys(id, [9_999u64]).expect("insert");
        assert_eq!(q.is_stale(), Ok(true));
        assert_eq!(q.generation(), 0, "stamp moves only on next op");
        q.reconstruct().expect("reconstruct");
        assert_eq!(q.generation(), 1);
        assert_eq!(q.is_stale(), Ok(false));
        let rec = q.reconstruct().expect("reconstruct warm");
        assert!(rec.binary_search(&9_999).is_ok(), "new key visible");

        // Dropping the set turns every later op into UnknownFilterId.
        sys.drop_set(id).expect("drop");
        assert_eq!(q.sample(&mut rng), Err(BstError::UnknownFilterId(id)));
        assert_eq!(q.is_stale(), Err(BstError::UnknownFilterId(id)));
    }
}
