//! BSTSample (Algorithm 1), the one-pass multi-sampler (§5.3), and the
//! exact draw path that replaces both under the sound rule on pruned
//! trees.
//!
//! Traversal: at each internal node, estimate the size of the query's
//! intersection with each child's filter. Children deemed empty are pruned
//! (§5.6); when both survive, descend into one with probability
//! proportional to the estimates, backtracking into the sibling when the
//! chosen subtree turns out to be a false-positive path. At a leaf,
//! brute-force membership over the candidates and pick uniformly.
//!
//! ## Configuration space (and why it exists)
//!
//! One [`BstConfig`] drives this module and the `reconstruct` module:
//! its liveness rule prunes for both, and its ratio estimator and
//! correction steer BSTSample. The paper leaves two decisions
//! under-specified, and both matter:
//!
//! * **Liveness** (when is a branch "empty"?). [`Liveness::EstimateThreshold`]
//!   is the paper's §5.6 rule: prune when the estimated intersection size is
//!   below a threshold τ. At the paper's own parameters the estimate's noise
//!   is of the same order as a 1-element signal, so this rule *silently
//!   discards* true elements with non-trivial probability (the §5.6 caveat).
//!   [`Liveness::BitOverlap`] is the sound primitive implicit in the paper's
//!   Claim 5.4 ("the intersection Bloom filter has at least k bits set"):
//!   any true element contributes all `k` of its bits to both filters, so
//!   `t∧ < k` proves emptiness and no element can ever be lost. It prunes
//!   less aggressively; soundness is the price the default pays.
//! * **Descent ratio estimator.** [`RatioEstimator::AndCardinality`]
//!   (`n̂ = ln(ẑ∧/m)/(k ln(1−1/m))` on the AND — the estimator used in the
//!   paper's Proposition 5.2 proof) degrades gracefully toward a 50/50 split
//!   when chance bits swamp the signal. [`RatioEstimator::Papapetrou`]
//!   (the §5.3 display formula) is mean-corrected but *amplifies* frozen
//!   chance noise at exactly the levels where counts are small.
//!
//! The estimators' `t₂` input (read by the threshold estimate,
//! Papapetrou ratios and the mean-corrected chance term) is the query's
//! popcount, as in the paper's §5.3 and §5.6 formulas, counted once per
//! [`QueryMemo`]. The walks never build the filter the paper's descent
//! carries: node filters are laminar (each child ⊆ its parent), so
//! `query ∧ n₁ ∧ … ∧ n_d = query ∧ n_d` bit-for-bit and every AND count
//! is taken against the query itself.
//!
//! ## Exact uniformity: rejection correction
//!
//! Even with the best estimator, descent probabilities carry frozen noise,
//! and at the published parameter points raw BSTSample output is measurably
//! non-uniform (see EXPERIMENTS.md, Table 5 discussion). The
//! [`Correction::Rejection`] extension tracks the proposal probability
//! `P(path)` of the walk and accepts a leaf's sample with probability
//! `c_leaf / (P(path) · n̂ · γ)`, which cancels the proposal distribution
//! exactly (up to clipping, controlled by γ): accepted samples are uniform
//! over all positives *regardless of estimate noise*. Expected cost: γ
//! walks per sample.
//!
//! ## Exact draws: the leaves' lists
//!
//! Under [`Liveness::BitOverlap`] on a tree that keeps a first-probe
//! index and a census (every pruned tree), a sound count and a
//! reconstruction read the leaves' match lists without a walk (see the
//! `reconstruct` module docs), so the memo already holds every element
//! a draw can return, and a query handle ([`crate::query::Query`],
//! which keeps its memo) draws exactly: the first draw walks the leaves
//! with the same traversal the count uses (a census-only leaf counts
//! only when its root path is live) and keeps the non-empty lists with
//! the prefix sums of their lengths in the memo; each draw is one
//! `gen_range(0..total)`, one binary search and one list read. A draw
//! is therefore element `i` of `reconstruct()`'s output for a uniform
//! `i`, `sample_many(r)` returns `r` draws, and warm and cold memos
//! consume randomness identically. The descent estimator and the
//! correction do not apply on this path. The paper's threshold rule,
//! complete trees, and a bare sampler (whose memo-less draws would
//! rebuild the table each call) keep BSTSample.
//!
//! ## Amortization: [`QueryMemo`]
//!
//! One tree serves many query filters, and one *filter* is often queried
//! many times (the §3.2 framework's whole point). Every per-node decision
//! this module makes — child liveness, descent weight, a leaf's matching
//! elements, the corrected sampler's frontier weight cache — is a pure
//! function of `(tree, query, config)`, because each tree node is reached
//! by exactly one root path. A [`QueryMemo`] caches those decisions keyed
//! by node id; the `*_memo` entry points consult it before touching a
//! filter, so repeated operations on the same filter replace `O(m/64)`-word
//! Bloom intersections and full leaf membership scans with hash-map hits.
//! The high-level [`crate::query::Query`] handle owns one memo per filter;
//! one-shot entry points use a throwaway memo and behave exactly as before.

use std::collections::HashMap;
use std::sync::Arc;

use bst_bloom::estimate::{cardinality_from_ones, intersection_estimate};
use bst_bloom::filter::BloomFilter;
use rand::Rng;

use crate::error::BstError;
use crate::metrics::OpStats;
use crate::reconstruct::BstReconstructor;
use crate::tree::{IndexPass, NodeId, SampleTree};

/// Default emptiness threshold τ for the paper's §5.6 pruning rule.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// When is a child branch considered non-empty?
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Liveness {
    /// Sound rule: live iff the AND has at least `k` set bits (no true
    /// element can be pruned away).
    BitOverlap,
    /// The paper's §5.6 rule: live iff the estimated intersection size
    /// exceeds the threshold. Faster, but can lose elements.
    EstimateThreshold(f64),
}

/// Which estimator drives the descent probabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RatioEstimator {
    /// Mean-corrected bit overlap: `max(t∧ − t₁t₂/m, noise floor)`. The
    /// `t₁t₂/m` term is the expected chance overlap under independence, so
    /// the weight tracks the *signal* bits; the floor (one standard
    /// deviation of the chance overlap, at least `k`) keeps weights
    /// positive so no live branch can starve, and when both children sit
    /// at the noise floor the split degrades to 50/50. No regime mixing:
    /// at saturated nodes both children cancel to the floor.
    MeanCorrectedBits,
    /// Cardinality of the AND bitmap (Swamidass–Baldi form used in the
    /// Prop. 5.2 proof). Self-regularising but *flattens* ratios wherever
    /// chance bits dominate, which under-proposes clustered sets badly.
    AndCardinality,
    /// The Papapetrou et al. cross-term estimator (§5.3 display formula).
    /// Sharp when signal dominates, but mixes saturated-fallback and
    /// cross-term regimes across levels and can freeze near-zero
    /// probability onto a live branch.
    Papapetrou,
}

/// Post-hoc correction toward exact uniformity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Correction {
    /// Raw BSTSample (the paper's algorithm).
    None,
    /// Rejection correction with oversampling factor γ (≈ γ walks per
    /// sample). Larger γ ⇒ less clipping ⇒ closer to exactly uniform.
    Rejection {
        /// Oversampling factor.
        gamma: f64,
    },
    /// Rejection with γ chosen from the tree shape and the query's
    /// estimated cardinality.
    RejectionAuto,
}

/// The one behaviour configuration of both algorithms, set once per
/// system (or per bare sampler or reconstructor). The liveness rule
/// prunes for sampling and reconstruction alike, so a system's counts,
/// shard weights, reconstructions and draws follow one rule; the ratio
/// estimator and the correction steer BSTSample only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BstConfig {
    /// Branch-emptiness rule.
    pub liveness: Liveness,
    /// Descent-ratio estimator.
    pub ratio: RatioEstimator,
    /// Uniformity correction.
    pub correction: Correction,
}

impl Default for BstConfig {
    /// Sound and fast: bit-overlap liveness, mean-corrected bit-overlap
    /// descent ratios, no correction (exact draws on pruned trees, where
    /// the ratio and correction do not apply).
    fn default() -> Self {
        BstConfig {
            liveness: Liveness::BitOverlap,
            ratio: RatioEstimator::MeanCorrectedBits,
            correction: Correction::None,
        }
    }
}

impl BstConfig {
    /// Both algorithms exactly as the paper describes them: §5.6
    /// threshold pruning, §5.3 Papapetrou estimates, no correction. Use
    /// for reproducing the paper's operation counts.
    pub fn paper() -> Self {
        BstConfig {
            liveness: Liveness::EstimateThreshold(DEFAULT_THRESHOLD),
            ratio: RatioEstimator::Papapetrou,
            correction: Correction::None,
        }
    }

    /// Provably near-uniform output (χ²-passing at the paper's Table 5
    /// operating points): defaults plus auto-tuned rejection correction,
    /// at ~γ walks per sample. On pruned trees the sound rule draws
    /// exactly (module docs), so the correction applies to complete
    /// trees only.
    pub fn corrected() -> Self {
        BstConfig {
            correction: Correction::RejectionAuto,
            ..Self::default()
        }
    }

    /// Checks the configuration's numeric invariants, naming the broken
    /// one. [`BstSampler::with_config`] and
    /// [`BstReconstructor::with_config`] assert the same invariants.
    pub fn validate(&self) -> Result<(), BstError> {
        if let Liveness::EstimateThreshold(tau) = self.liveness {
            if !(tau.is_finite() && tau >= 0.0) {
                return Err(BstError::InvalidConfig(
                    "liveness threshold must be finite and non-negative",
                ));
            }
        }
        if let Correction::Rejection { gamma } = self.correction {
            if !(gamma.is_finite() && gamma >= 1.0) {
                return Err(BstError::InvalidConfig(
                    "rejection gamma must be finite and at least 1",
                ));
            }
        }
        Ok(())
    }
}

/// Outcome of evaluating one child branch.
#[derive(Clone, Copy)]
struct ChildEval {
    live: bool,
    ratio_weight: f64,
}

impl ChildEval {
    /// An absent child.
    const ABSENT: ChildEval = ChildEval {
        live: false,
        ratio_weight: 0.0,
    };
}

/// Frontier/correction state shared by all corrected samples of one query.
struct PreparedState {
    n_hat: f64,
    gamma: f64,
    /// Aggregated mean-corrected weights for the saturated upper region
    /// (see [`BstSampler::build_blind_cache`]). Shared behind `Arc` so a
    /// proposal walk can read it while the memo is mutably borrowed.
    blind: Arc<HashMap<NodeId, f64>>,
}

/// Memoized per-query evaluation state.
///
/// Every entry is a pure function of `(tree, query filter, config)`:
/// a node's liveness and weight read only `query ∧ filter(node)`, the
/// node's own filter and the query's popcount, which makes node-keyed
/// caching sound. A memo must only ever be reused
/// with the *same* tree, filter and config it was first used with; the
/// [`crate::query::Query`] handle enforces that pairing.
///
/// Cached work is **not** re-counted in [`OpStats`]: stats report actual
/// filter operations performed, so the amortization is directly visible
/// as falling per-call op counts.
#[derive(Default)]
pub struct QueryMemo {
    evals: HashMap<NodeId, ChildEval>,
    /// Matching elements per leaf, over its whole range; shared with the
    /// reconstructor (the membership test is config-independent). Filled
    /// for every materialised leaf at once by an index pass, or leaf by
    /// leaf by table scans (see [`QueryMemo::leaf_matches`]).
    leaves: HashMap<NodeId, Arc<Vec<u64>>>,
    /// Reconstruction liveness per node (the walk's test needs no
    /// descent weight, so it gets its own map). Filled by the walk, and
    /// by the root-path tests of a walk-free sound count.
    pub(crate) recon_live: HashMap<NodeId, bool>,
    /// The full-range live-leaf weight of the last count or full
    /// reconstruction: repeated `live_weight` calls are O(1) until a
    /// replayed mutation drops it.
    pub(crate) cached_count: Option<u64>,
    /// The exact draw path's prefix sums over the leaves' lists (see the
    /// module docs): built on the first exact draw, dropped with
    /// `cached_count`.
    pub(crate) draws: Option<DrawTable>,
    /// The query's popcount: the estimators' `t₂`, counted once per
    /// memo.
    query_ones: Option<usize>,
    prepared: Option<PreparedState>,
}

impl QueryMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached node evaluations (liveness + descent weight).
    pub fn cached_evals(&self) -> usize {
        self.evals.len()
    }

    /// Number of leaves whose match lists are cached.
    pub fn cached_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the corrected-sampling frontier state has been built.
    pub fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }

    /// The estimated cardinality of the query, if corrected-sampling
    /// state has been built.
    pub fn estimated_cardinality(&self) -> Option<f64> {
        self.prepared.as_ref().map(|p| p.n_hat)
    }

    /// The cached full-range live-leaf weight, if a count or a full
    /// reconstruction has run since the last invalidation.
    pub fn cached_count(&self) -> Option<u64> {
        self.cached_count
    }

    /// A leaf's matches over its whole range, from the memo when it holds
    /// them. Otherwise the tree answers: a walk over the full range
    /// (`full_walk`: a sampling descent, or the paper rule's
    /// reconstruction walk) on a memo that holds no leaf list yet fills
    /// every materialised leaf from the tree's index pass
    /// ([`Self::fill_from_index`]); any
    /// other miss — a windowed walk, a leaf materialised since the memo
    /// was filled, a tree without an index — scans just this leaf ([`SampleTree::scan_leaf`]). Both count the
    /// candidates they test as memberships and give equal lists. Sound
    /// full-range counts and reconstructions read their leaves through
    /// here too, after filling the memo themselves (see the
    /// `reconstruct` module docs).
    pub(crate) fn leaf_matches<T: SampleTree>(
        &mut self,
        tree: &T,
        node: NodeId,
        query: &BloomFilter,
        full_walk: bool,
        stats: &mut OpStats,
    ) -> Arc<Vec<u64>> {
        if full_walk && self.leaves.is_empty() {
            self.fill_from_index(tree, query, stats);
        }
        if let Some(cached) = self.leaves.get(&node) {
            return Arc::clone(cached);
        }
        let mut matches = Vec::new();
        let whole_leaf = tree.range(node);
        stats.memberships += tree.scan_leaf(node, query, &whole_leaf, |x| matches.push(x));
        let matches = Arc::new(matches);
        self.leaves.insert(node, Arc::clone(&matches));
        matches
    }

    /// Whether the memo holds any leaf's match list.
    pub(crate) fn holds_leaves(&self) -> bool {
        !self.leaves.is_empty()
    }

    /// Stores every materialised leaf's matches from one index pass
    /// ([`SampleTree::index_pass`]), counting its tested candidates as
    /// memberships. Returns `false`, storing nothing, when the tree
    /// keeps no index for `query`.
    pub(crate) fn fill_from_index<T: SampleTree>(
        &mut self,
        tree: &T,
        query: &BloomFilter,
        stats: &mut OpStats,
    ) -> bool {
        let Some(pass) = tree.index_pass(query) else {
            return false;
        };
        self.fill_from_pass(pass, stats);
        true
    }

    /// Stores every leaf's matches from a pass already run (one filter's
    /// share of a chunk's pass, [`SampleTree::index_passes`]), counting
    /// its tested candidates as memberships.
    pub(crate) fn fill_from_pass(&mut self, pass: IndexPass, stats: &mut OpStats) {
        stats.memberships += pass.tested;
        let lists = pass.leaves.into_iter();
        self.leaves
            .extend(lists.map(|(leaf, matches)| (leaf, Arc::new(matches))));
    }

    /// The query's popcount, the estimators' `t₂`: counted on first use,
    /// then kept.
    pub(crate) fn query_ones(&mut self, query: &BloomFilter) -> usize {
        *self.query_ones.get_or_insert_with(|| query.count_ones())
    }

    /// Repairs the memo after one occupancy mutation at `id` (`inserted`
    /// false = removal), replayed from the tree's journal against the
    /// current tree.
    ///
    /// What changes when `id` is inserted/removed: the filters of the
    /// nodes on `id`'s root-to-leaf path, and that leaf's occupied ids.
    /// A node's liveness and weight read only `query ∧ own filter`, its
    /// own filter and the query's popcount, so an entry off the path is
    /// untouched; the path's own `evals` and `recon_live` entries are
    /// dropped and recomputed on demand. The path leaf's stored match
    /// list is patched instead: a removed id leaves it, and an inserted
    /// id enters it, in sorted position, iff `query.contains(id)` — the
    /// table scan's own predicate, so the patched list equals a cold
    /// scan element for element, and patches of one id compose in
    /// journal order. A leaf the memo holds no list for is skipped.
    ///
    /// The cached count, the exact draw table and the corrected
    /// sampler's frontier cache aggregate over the whole tree, so all
    /// three are dropped (the table first: it shares the lists patched
    /// below); the next count or exact draw sums the patched lists
    /// (under `BitOverlap`) or walks.
    ///
    /// Nodes unlinked by removals keep stale entries, but they are
    /// unreachable (their parent's entry is dropped and recomputed
    /// against the new links, and a re-created leaf gets a new id), so
    /// no operation consults them.
    pub fn repair_after_mutation<T: SampleTree>(
        &mut self,
        tree: &T,
        id: u64,
        inserted: bool,
        query: &BloomFilter,
    ) {
        self.prepared = None;
        self.cached_count = None;
        self.draws = None;
        let Some(mut node) = tree.root() else {
            return;
        };
        loop {
            self.evals.remove(&node);
            self.recon_live.remove(&node);
            if tree.is_leaf(node) {
                break;
            }
            let (l, r) = tree.children(node);
            // Descend toward the mutated id; a missing child means the
            // (sub)path was never materialised or has been unlinked —
            // nothing below it can be cached under a reachable key.
            match [l, r]
                .into_iter()
                .flatten()
                .find(|&c| tree.range(c).contains(&id))
            {
                Some(next) => node = next,
                None => return,
            }
        }
        let Some(list) = self.leaves.get_mut(&node) else {
            return;
        };
        let list = Arc::make_mut(list);
        match (list.binary_search(&id), inserted) {
            (Err(pos), true) if query.contains(id) => list.insert(pos, id),
            (Ok(pos), false) => {
                list.remove(pos);
            }
            _ => {}
        }
    }
}

/// What an exact draw reads: the non-empty lists of a full-range sound
/// answer, left to right, and the prefix sums of their lengths. Element
/// `x` of the answer sits in the first list whose end exceeds `x`.
#[derive(Default)]
pub(crate) struct DrawTable {
    /// `ends[i]` is the number of elements in `lists[..=i]`.
    ends: Vec<u64>,
    lists: Vec<Arc<Vec<u64>>>,
}

impl DrawTable {
    /// Appends one leaf's list; an empty one adds nothing.
    pub(crate) fn push(&mut self, list: &Arc<Vec<u64>>) {
        if list.is_empty() {
            return;
        }
        self.ends.push(self.total() + list.len() as u64);
        self.lists.push(Arc::clone(list));
    }

    fn total(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// One uniform element: one `gen_range`, one binary search, one list
    /// read. `None`, drawing nothing, when the answer is empty.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let x = rng.gen_range(0..total);
        let i = self.ends.partition_point(|&end| end <= x);
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        Some(self.lists[i][(x - start) as usize])
    }
}

/// Sampler bound to a tree.
pub struct BstSampler<'t, T: SampleTree> {
    tree: &'t T,
    cfg: BstConfig,
    /// Whether the exact draw path (module docs) is on; see
    /// [`Self::exact_draws`].
    exact: bool,
}

impl<'t, T: SampleTree> BstSampler<'t, T> {
    /// Creates a sampler with the default (sound) configuration.
    pub fn new(tree: &'t T) -> Self {
        Self::with_config(tree, BstConfig::default())
    }

    /// Creates a sampler with explicit configuration.
    ///
    /// # Panics
    /// Panics when [`BstConfig::validate`] rejects `cfg`.
    pub fn with_config(tree: &'t T, cfg: BstConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "sampler config");
        BstSampler {
            tree,
            cfg,
            exact: false,
        }
    }

    /// Turns the exact draw path (module docs) on for a caller that keeps
    /// its memo across draws. It applies under the sound rule, where
    /// counts, shard weights, reconstructions and draws all read the same
    /// leaf lists.
    pub(crate) fn exact_draws(mut self) -> Self {
        self.exact = self.cfg.liveness == Liveness::BitOverlap;
        self
    }

    /// Evaluates one child: liveness + descent weight. One intersection op
    /// on a memo miss, a hash lookup on a hit.
    fn eval_child(
        &self,
        child: Option<NodeId>,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> ChildEval {
        let Some(c) = child else {
            return ChildEval::ABSENT;
        };
        if let Some(&e) = memo.evals.get(&c) {
            return e;
        }
        let t2 = memo.query_ones(query);
        stats.intersections += 1;
        let f = self.tree.filter(c);
        let k = f.k();
        let m = f.m();
        let t_and = f.and_count(query);
        let live = match self.cfg.liveness {
            Liveness::BitOverlap => t_and >= k,
            Liveness::EstimateThreshold(tau) => {
                intersection_estimate(m, k, f.count_ones(), t2, t_and) > tau
            }
        };
        let ratio_weight = match self.cfg.ratio {
            RatioEstimator::MeanCorrectedBits => {
                let chance = f.count_ones() as f64 * t2 as f64 / m as f64;
                let floor = chance.sqrt().max(k as f64);
                (t_and as f64 - chance).max(floor)
            }
            RatioEstimator::AndCardinality => cardinality_from_ones(m, k, t_and),
            RatioEstimator::Papapetrou => intersection_estimate(m, k, f.count_ones(), t2, t_and),
        }
        .max(1e-12);
        let e = ChildEval { live, ratio_weight };
        memo.evals.insert(c, e);
        e
    }

    /// Draws one sample from the set stored in `query`, or `None` when the
    /// filter is empty or every path dies in pruning. See
    /// [`Self::try_sample`] for the variant that reports *why*.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        query: &BloomFilter,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Option<u64> {
        self.try_sample(query, rng, stats).ok()
    }

    /// Draws one sample, reporting the failure reason on a miss.
    pub fn try_sample<R: Rng + ?Sized>(
        &self,
        query: &BloomFilter,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Result<u64, BstError> {
        let mut memo = QueryMemo::new();
        self.try_sample_memo(query, &mut memo, rng, stats)
    }

    /// [`Self::try_sample`] against a persistent [`QueryMemo`], amortizing
    /// per-node evaluations and leaf scans across repeated samples of the
    /// same filter.
    pub fn try_sample_memo<R: Rng + ?Sized>(
        &self,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Result<u64, BstError> {
        let root = self.tree.root().ok_or(BstError::EmptyTree)?;
        if query.is_empty() {
            return Err(BstError::EmptyFilter);
        }
        if let Some(table) = self.exact_table(query, memo, stats) {
            return table.draw(rng).ok_or(BstError::NoLiveLeaf);
        }
        match self.cfg.correction {
            Correction::None => self
                .sample_at(root, query, memo, rng, stats)
                .ok_or(BstError::NoLiveLeaf),
            Correction::Rejection { gamma } => {
                self.sample_corrected(query, Some(gamma), memo, rng, stats)
            }
            Correction::RejectionAuto => self.sample_corrected(query, None, memo, rng, stats),
        }
    }

    /// γ heuristic: proposal skew grows as sets get sparse relative to the
    /// leaf count; clamp to a sane work budget.
    fn auto_gamma(&self, query: &BloomFilter) -> f64 {
        let n_hat = query.estimate_cardinality().max(1.0);
        let leaves = match self.tree.root() {
            Some(root) => {
                // Leaves = 2^depth; the depth is the length of any
                // root-to-leaf path. Cheap: depth steps.
                let mut node = root;
                let mut depth = 0u32;
                while !self.tree.is_leaf(node) {
                    let (l, r) = self.tree.children(node);
                    match l.or(r) {
                        Some(child) => node = child,
                        // A childless internal node cannot exist in a
                        // well-formed tree; stop descending and use the
                        // depth reached.
                        None => break,
                    }
                    depth += 1;
                }
                (1u64 << depth.min(40)) as f64
            }
            None => 1.0,
        };
        (12.0 * (2.0 * leaves / n_hat).sqrt()).clamp(6.0, 48.0)
    }

    /// Ensures the memo carries corrected-sampling state (cardinality
    /// estimate, γ, frontier weight cache), building it on first use.
    fn ensure_prepared(
        &self,
        query: &BloomFilter,
        gamma_override: Option<f64>,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> (f64, f64, Arc<HashMap<NodeId, f64>>) {
        let query_ones = memo.query_ones(query);
        let p = memo.prepared.get_or_insert_with(|| {
            let gamma = gamma_override.unwrap_or_else(|| self.auto_gamma(query));
            let blind = match self.tree.root() {
                Some(root) => self.build_blind_cache(root, query, query_ones, stats),
                None => HashMap::new(),
            };
            PreparedState {
                n_hat: query.estimate_cardinality().max(1.0),
                gamma,
                blind: Arc::new(blind),
            }
        });
        (p.n_hat, p.gamma, Arc::clone(&p.blind))
    }

    /// Rejection-corrected sampling: repeat proposal walks, accepting a
    /// leaf's uniform pick with probability `c_leaf / (P(path)·n̂·γ)`.
    ///
    /// Before walking, a *frontier weight cache* is built: node filters in
    /// the upper tree are saturated (all-ones) at realistic parameters, so
    /// their AND with the query carries no signal and a naive walk splits
    /// 50/50 there — blind to where the set's mass actually lives, which
    /// is catastrophic for clustered sets. The cache evaluates the
    /// mean-corrected weight at the first *unsaturated* descendants and
    /// aggregates the sums upward, giving the blind levels informed
    /// routing probabilities. It is built once per memo.
    fn sample_corrected<R: Rng + ?Sized>(
        &self,
        query: &BloomFilter,
        gamma_override: Option<f64>,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Result<u64, BstError> {
        let root = self.tree.root().ok_or(BstError::EmptyTree)?;
        let (n_hat, gamma, blind) = self.ensure_prepared(query, gamma_override, memo, stats);
        let max_attempts = (64.0 * gamma) as usize;
        let mut fallback = None;
        let mut reached_leaf = false;
        for _ in 0..max_attempts {
            let Some((leaf, p_path)) = self.propose(root, query, &blind, memo, rng, stats) else {
                continue;
            };
            reached_leaf = true;
            let matches = self.leaf_matches(leaf, query, memo, stats);
            if matches.is_empty() {
                continue;
            }
            let pick = matches[rng.gen_range(0..matches.len())];
            let alpha = matches.len() as f64 / (p_path * n_hat * gamma);
            if rng.gen::<f64>() < alpha {
                return Ok(pick);
            }
            fallback = Some(pick);
        }
        match fallback {
            // Budget exhausted: return the last viable pick (slightly
            // biased) rather than failing.
            Some(pick) => Ok(pick),
            None if reached_leaf => Err(BstError::BudgetExhausted {
                attempts: max_attempts,
            }),
            None => Err(BstError::NoLiveLeaf),
        }
    }

    /// Fill ratio above which a node filter is considered informationless.
    const SATURATION_FILL: f64 = 0.98;

    /// Cap on cache size: stop deepening past this many frontier nodes.
    const BLIND_CACHE_CAP: usize = 4096;

    /// Computes subtree weights for the saturated upper region of the tree
    /// (see [`Self::sample_corrected`]). Keys: every node in the saturated
    /// region and its frontier. Values: aggregated mean-corrected weights.
    fn build_blind_cache(
        &self,
        root: NodeId,
        query: &BloomFilter,
        query_ones: usize,
        stats: &mut OpStats,
    ) -> HashMap<NodeId, f64> {
        let mut cache = HashMap::new();
        self.blind_weight(root, query, query_ones, &mut cache, stats);
        cache
    }

    fn blind_weight(
        &self,
        node: NodeId,
        query: &BloomFilter,
        query_ones: usize,
        cache: &mut HashMap<NodeId, f64>,
        stats: &mut OpStats,
    ) -> f64 {
        let f = self.tree.filter(node);
        let saturated = f.count_ones() as f64 > Self::SATURATION_FILL * f.m() as f64;
        let w = if saturated && !self.tree.is_leaf(node) && cache.len() < Self::BLIND_CACHE_CAP {
            let (lc, rc) = self.tree.children(node);
            let mut sum = 0.0;
            for child in [lc, rc].into_iter().flatten() {
                sum += self.blind_weight(child, query, query_ones, cache, stats);
            }
            sum
        } else {
            stats.intersections += 1;
            let m = f.m();
            let t_and = f.and_count(query);
            let chance = f.count_ones() as f64 * query_ones as f64 / m as f64;
            let floor = chance.sqrt().max(f.k() as f64);
            (t_and as f64 - chance).max(floor)
        };
        cache.insert(node, w);
        w
    }

    /// One proposal walk (no backtracking): returns the reached leaf and
    /// the path probability. Nodes present in the blind cache route by the
    /// cached aggregated weights; below the frontier the per-node
    /// estimators take over (memoized).
    fn propose<R: Rng + ?Sized>(
        &self,
        root: NodeId,
        query: &BloomFilter,
        blind: &HashMap<NodeId, f64>,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Option<(NodeId, f64)> {
        let mut node = root;
        let mut p_path = 1.0f64;
        loop {
            stats.nodes_visited += 1;
            if self.tree.is_leaf(node) {
                return Some((node, p_path));
            }
            let (lc, rc) = self.tree.children(node);
            // Cached (blind-region) weights take priority; otherwise
            // evaluate the child estimators through the memo.
            let weight_of =
                |child: Option<NodeId>, memo: &mut QueryMemo, stats: &mut OpStats| match child {
                    None => (false, 0.0),
                    Some(c) => match blind.get(&c) {
                        Some(&w) => (w > 0.0, w),
                        None => {
                            let e = self.eval_child(Some(c), query, memo, stats);
                            (e.live, e.ratio_weight)
                        }
                    },
                };
            let (l_live, lw) = weight_of(lc, memo, stats);
            let (r_live, rw) = weight_of(rc, memo, stats);
            // Mask dead children out so the match below carries the
            // liveness proof in the type.
            let lc = if l_live { lc } else { None };
            let rc = if r_live { rc } else { None };
            let (next, prob) = match (lc, rc) {
                (None, None) => return None,
                (Some(c), None) | (None, Some(c)) => (c, 1.0),
                (Some(cl), Some(cr)) => {
                    let p_left = lw / (lw + rw);
                    if rng.gen::<f64>() < p_left {
                        (cl, p_left)
                    } else {
                        (cr, 1.0 - p_left)
                    }
                }
            };
            p_path *= prob;
            node = next;
        }
    }

    fn sample_at<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Option<u64> {
        stats.nodes_visited += 1;
        if self.tree.is_leaf(node) {
            return self.sample_leaf(node, query, memo, rng, stats);
        }
        let (lc, rc) = self.tree.children(node);
        let le = self.eval_child(lc, query, memo, stats);
        let re = self.eval_child(rc, query, memo, stats);
        // Mask dead children out so the match below carries the
        // liveness proof in the type.
        let lc = if le.live { lc } else { None };
        let rc = if re.live { rc } else { None };
        match (lc, rc) {
            (None, None) => None,
            (Some(c), None) | (None, Some(c)) => self.sample_at(c, query, memo, rng, stats),
            (Some(cl), Some(cr)) => {
                let p_left = le.ratio_weight / (le.ratio_weight + re.ratio_weight);
                let (c1, c2) = if rng.gen::<f64>() < p_left {
                    (cl, cr)
                } else {
                    (cr, cl)
                };
                let picked = self.sample_at(c1, query, memo, rng, stats);
                if picked.is_some() {
                    picked
                } else {
                    // False-positive path: backtrack into the sibling.
                    stats.backtracks += 1;
                    self.sample_at(c2, query, memo, rng, stats)
                }
            }
        }
    }

    /// Uniform pick among leaf candidates passing the membership test
    /// against the *original* query filter.
    fn sample_leaf<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Option<u64> {
        let matches = self.leaf_matches(node, query, memo, stats);
        if matches.is_empty() {
            None
        } else {
            Some(matches[rng.gen_range(0..matches.len())])
        }
    }

    /// Collects all leaf candidates passing the membership test
    /// ([`QueryMemo::leaf_matches`]; every sampling walk covers the full
    /// range).
    fn leaf_matches(
        &self,
        node: NodeId,
        query: &BloomFilter,
        memo: &mut QueryMemo,
        stats: &mut OpStats,
    ) -> Arc<Vec<u64>> {
        memo.leaf_matches(self.tree, node, query, true, stats)
    }

    /// One-pass multi-sampling (§5.3): sends `r` independent search paths
    /// down the tree together, splitting them at each node with a binomial
    /// draw biased by the children's weights. Paths reaching the same leaf
    /// share one brute-force scan; leaf draws are with replacement. On the
    /// exact path (module docs) it is `r` exact draws instead.
    ///
    /// Fewer than `r` samples are returned only when paths die on
    /// false-positive routes with no live sibling. Correction is not
    /// applied here (the split *is* the proposal distribution).
    pub fn sample_many<R: Rng + ?Sized>(
        &self,
        query: &BloomFilter,
        r: usize,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Vec<u64> {
        let mut memo = QueryMemo::new();
        self.try_sample_many_memo(query, r, &mut memo, rng, stats)
            .unwrap_or_default()
    }

    /// [`Self::sample_many`] with typed errors and a persistent memo.
    pub fn try_sample_many_memo<R: Rng + ?Sized>(
        &self,
        query: &BloomFilter,
        r: usize,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
    ) -> Result<Vec<u64>, BstError> {
        let root = self.tree.root().ok_or(BstError::EmptyTree)?;
        if query.is_empty() {
            return Err(BstError::EmptyFilter);
        }
        if r == 0 {
            return Ok(Vec::new());
        }
        if let Some(table) = self.exact_table(query, memo, stats) {
            return Ok((0..r).map_while(|_| table.draw(rng)).collect());
        }
        let mut out = Vec::with_capacity(r);
        self.many_at(root, query, r, memo, rng, stats, &mut out);
        Ok(out)
    }

    /// The exact path's table (see the module docs), built on first use:
    /// `Some` when [`Self::exact_draws`] turned the path on and the
    /// tree's leaves' lists answer a sound count — a tree with a census,
    /// and for a cold memo a first-probe index — and `None` otherwise,
    /// where BSTSample runs. The table is read off the same leaf walk as
    /// a count or a reconstruction, so it holds exactly the elements
    /// those return.
    fn exact_table<'m>(
        &self,
        query: &BloomFilter,
        memo: &'m mut QueryMemo,
        stats: &mut OpStats,
    ) -> Option<&'m DrawTable> {
        if !self.exact {
            return None;
        }
        if memo.draws.is_none() {
            memo.draws = BstReconstructor::new(self.tree).draw_table(query, memo, stats);
        }
        memo.draws.as_ref()
    }

    #[allow(clippy::too_many_arguments)]
    fn many_at<R: Rng + ?Sized>(
        &self,
        node: NodeId,
        query: &BloomFilter,
        r: usize,
        memo: &mut QueryMemo,
        rng: &mut R,
        stats: &mut OpStats,
        out: &mut Vec<u64>,
    ) -> usize {
        if r == 0 {
            return 0;
        }
        stats.nodes_visited += 1;
        if self.tree.is_leaf(node) {
            let matches = self.leaf_matches(node, query, memo, stats);
            if matches.is_empty() {
                return 0;
            }
            for _ in 0..r {
                out.push(matches[rng.gen_range(0..matches.len())]);
            }
            return r;
        }
        let (lc, rc) = self.tree.children(node);
        let le = self.eval_child(lc, query, memo, stats);
        let re = self.eval_child(rc, query, memo, stats);
        // Mask dead children out so the match below carries the
        // liveness proof in the type.
        let lc = if le.live { lc } else { None };
        let rc = if re.live { rc } else { None };
        match (lc, rc) {
            (None, None) => 0,
            (Some(c), None) | (None, Some(c)) => self.many_at(c, query, r, memo, rng, stats, out),
            (Some(cl), Some(cr)) => {
                let p_left = le.ratio_weight / (le.ratio_weight + re.ratio_weight);
                let r_left = bst_stats::binomial::sample_binomial(rng, r as u64, p_left) as usize;
                let mut got = self.many_at(cl, query, r_left, memo, rng, stats, out);
                got += self.many_at(cr, query, r - r_left, memo, rng, stats, out);
                // Deficit rounds: paths that died on false-positive routes
                // are re-split until resolved or no further progress (the
                // multi-path analogue of single-sample backtracking).
                let mut rounds = 0;
                while got < r && rounds < 16 {
                    stats.backtracks += 1;
                    rounds += 1;
                    let deficit = r - got;
                    let r_left =
                        bst_stats::binomial::sample_binomial(rng, deficit as u64, p_left) as usize;
                    let mut extra = self.many_at(cl, query, r_left, memo, rng, stats, out);
                    extra += self.many_at(cr, query, deficit - r_left, memo, rng, stats, out);
                    if extra == 0 && deficit == r {
                        break; // neither side can deliver anything
                    }
                    got += extra;
                }
                got.min(r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BloomSampleTree;
    use bst_bloom::hash::HashKind;
    use bst_bloom::params::TreePlan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree(m: usize) -> BloomSampleTree {
        BloomSampleTree::build(&TreePlan {
            namespace: 4096,
            m,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 3,
            depth: 5,
            leaf_capacity: 128,
            target_accuracy: 0.9,
        })
    }

    #[test]
    fn sample_returns_positive_of_query() {
        let t = tree(1 << 16);
        let keys: Vec<u64> = (0..200u64).map(|i| i * 19 + 5).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(1);
        let mut stats = OpStats::new();
        for _ in 0..50 {
            let s = sampler.sample(&q, &mut rng, &mut stats).expect("sample");
            assert!(q.contains(s));
        }
        assert!(stats.memberships > 0);
        assert!(stats.intersections > 0);
    }

    #[test]
    fn large_filter_samples_only_true_elements() {
        let t = tree(1 << 18);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 37 + 11).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(2);
        let mut stats = OpStats::new();
        for _ in 0..100 {
            let s = sampler.sample(&q, &mut rng, &mut stats).expect("sample");
            assert!(keys.binary_search(&s).is_ok(), "sampled non-element {s}");
        }
    }

    #[test]
    fn empty_filter_yields_typed_error() {
        let t = tree(1 << 16);
        let q = t.query_filter(std::iter::empty());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = OpStats::new();
        assert_eq!(sampler.sample(&q, &mut rng, &mut stats), None);
        assert_eq!(
            sampler.try_sample(&q, &mut rng, &mut stats),
            Err(BstError::EmptyFilter)
        );
        assert_eq!(stats.nodes_visited, 0);
    }

    #[test]
    fn singleton_set_always_found() {
        let t = tree(1 << 16);
        let q = t.query_filter([2025u64]);
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(4);
        let mut stats = OpStats::new();
        for _ in 0..20 {
            assert_eq!(sampler.sample(&q, &mut rng, &mut stats), Some(2025));
        }
    }

    #[test]
    fn bit_overlap_liveness_never_loses_elements() {
        // Every key must be reachable: draw many samples and check that
        // every key is eventually produced (sound liveness guarantees a
        // nonzero probability for each).
        let t = tree(1 << 17);
        let keys: Vec<u64> = (0..50u64).map(|i| i * 80 + 3).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(5);
        let mut stats = OpStats::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3000 {
            if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                seen.insert(s);
            }
        }
        for k in &keys {
            assert!(seen.contains(k), "key {k} never sampled");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
    fn corrected_sampling_is_uniform_chi2() {
        let t = tree(1 << 17);
        let n = 40usize;
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 101 + 7).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::with_config(&t, BstConfig::corrected());
        let mut rng = StdRng::seed_from_u64(6);
        let mut stats = OpStats::new();
        let rounds = bst_stats::chi2::PAPER_ROUNDS_PER_ELEMENT * n;
        let mut counts = vec![0u64; n];
        for _ in 0..rounds {
            let s = sampler.sample(&q, &mut rng, &mut stats).expect("sample");
            let idx = keys.binary_search(&s).expect("true element");
            counts[idx] += 1;
        }
        let res = bst_stats::chi2_uniform_test(&counts);
        // Assert at 1%: p-values of a correct sampler are Uniform(0,1), so
        // the paper's 0.08 level would flake by construction; genuine
        // non-uniformity lands at p < 1e-10.
        assert!(
            res.is_uniform_at(0.01),
            "chi2 rejected uniformity: p = {}",
            res.p_value
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow: run under --release")]
    fn memoized_corrected_sampling_is_uniform_chi2() {
        // The same uniformity bar as the one-shot path, but through one
        // persistent memo — caching must not change the distribution.
        let t = tree(1 << 17);
        let n = 40usize;
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 101 + 7).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::with_config(&t, BstConfig::corrected());
        let mut rng = StdRng::seed_from_u64(61);
        let mut stats = OpStats::new();
        let mut memo = QueryMemo::new();
        let rounds = bst_stats::chi2::PAPER_ROUNDS_PER_ELEMENT * n;
        let mut counts = vec![0u64; n];
        for _ in 0..rounds {
            let s = sampler
                .try_sample_memo(&q, &mut memo, &mut rng, &mut stats)
                .expect("sample");
            let idx = keys.binary_search(&s).expect("true element");
            counts[idx] += 1;
        }
        let res = bst_stats::chi2_uniform_test(&counts);
        assert!(
            res.is_uniform_at(0.01),
            "chi2 rejected uniformity through memo: p = {}",
            res.p_value
        );
    }

    #[test]
    fn paper_config_matches_paper_op_shape() {
        // Paper-literal mode: 2 intersections per internal node on the
        // descent path, leaf memberships = leaf width.
        let t = tree(1 << 16);
        let keys: Vec<u64> = (100..120u64).collect(); // one tight cluster
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::with_config(&t, BstConfig::paper());
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = OpStats::new();
        let s = sampler.sample(&q, &mut rng, &mut stats).expect("sample");
        assert!(q.contains(s));
        // Depth 5, no backtracks for a clean cluster: exactly 10
        // intersections and 128 memberships.
        assert_eq!(stats.intersections, 10, "{stats}");
        assert_eq!(stats.memberships, 128, "{stats}");
    }

    #[test]
    fn memo_amortizes_repeated_samples() {
        let t = tree(1 << 16);
        let keys: Vec<u64> = (100..120u64).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(71);
        let mut memo = QueryMemo::new();
        let mut first = OpStats::new();
        sampler
            .try_sample_memo(&q, &mut memo, &mut rng, &mut first)
            .expect("sample");
        assert!(memo.cached_evals() > 0);
        assert!(memo.cached_leaves() > 0);
        // Repeats along the already-walked path do no filter work at all.
        let mut repeat = OpStats::new();
        for _ in 0..50 {
            sampler
                .try_sample_memo(&q, &mut memo, &mut rng, &mut repeat)
                .expect("sample");
        }
        assert!(
            repeat.total_ops() < first.total_ops(),
            "50 memoized samples ({} ops) should cost less than 1 cold sample ({} ops)",
            repeat.total_ops(),
            first.total_ops()
        );
    }

    #[test]
    fn tiny_m_forces_backtracking_but_stays_sound() {
        let t = tree(256);
        let keys: Vec<u64> = (0..30u64).map(|i| i * 131 + 1).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(7);
        let mut stats = OpStats::new();
        let mut got = 0;
        for _ in 0..100 {
            if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                assert!(q.contains(s));
                got += 1;
            }
        }
        assert!(got > 0, "should find samples despite noise");
    }

    #[test]
    fn sample_many_returns_requested_count() {
        let t = tree(1 << 17);
        let keys: Vec<u64> = (0..25u64).map(|i| i * 163 + 13).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(8);
        let mut stats = OpStats::new();
        let samples = sampler.sample_many(&q, 500, &mut rng, &mut stats);
        assert_eq!(samples.len(), 500);
        for s in &samples {
            assert!(keys.binary_search(s).is_ok());
        }
        // All keys appear across 500 draws of 25 keys (whp).
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(distinct.len() >= 20, "only {} distinct", distinct.len());
    }

    #[test]
    fn sample_many_is_cheaper_than_repeated_singles() {
        let t = tree(1 << 16);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 41).collect();
        let q = t.query_filter(keys.iter().copied());
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(9);
        let r = 200;
        let mut stats_many = OpStats::new();
        let got = sampler.sample_many(&q, r, &mut rng, &mut stats_many);
        assert!(!got.is_empty());
        let mut stats_single = OpStats::new();
        for _ in 0..r {
            let _ = sampler.sample(&q, &mut rng, &mut stats_single);
        }
        assert!(
            stats_many.total_ops() < stats_single.total_ops(),
            "one-pass {} ops vs repeated {} ops",
            stats_many.total_ops(),
            stats_single.total_ops()
        );
    }

    #[test]
    fn sample_many_zero_requests() {
        let t = tree(1 << 16);
        let q = t.query_filter([1u64]);
        let sampler = BstSampler::new(&t);
        let mut rng = StdRng::seed_from_u64(10);
        let mut stats = OpStats::new();
        assert!(sampler.sample_many(&q, 0, &mut rng, &mut stats).is_empty());
    }

    #[test]
    fn huge_threshold_prunes_everything() {
        let t = tree(1 << 16);
        let q = t.query_filter([5u64, 6, 7]);
        let sampler = BstSampler::with_config(
            &t,
            BstConfig {
                liveness: Liveness::EstimateThreshold(1e9),
                ..BstConfig::paper()
            },
        );
        let mut rng = StdRng::seed_from_u64(12);
        let mut stats = OpStats::new();
        assert_eq!(
            sampler.try_sample(&q, &mut rng, &mut stats),
            Err(BstError::NoLiveLeaf)
        );
    }

    #[test]
    fn all_config_combinations_sample_soundly() {
        let t = tree(1 << 16);
        let keys: Vec<u64> = (0..80u64).map(|i| i * 51).collect();
        let q = t.query_filter(keys.iter().copied());
        let mut rng = StdRng::seed_from_u64(13);
        for liveness in [
            Liveness::BitOverlap,
            Liveness::EstimateThreshold(DEFAULT_THRESHOLD),
        ] {
            for ratio in [RatioEstimator::AndCardinality, RatioEstimator::Papapetrou] {
                for correction in [
                    Correction::None,
                    Correction::Rejection { gamma: 4.0 },
                    Correction::RejectionAuto,
                ] {
                    let cfg = BstConfig {
                        liveness,
                        ratio,
                        correction,
                    };
                    let sampler = BstSampler::with_config(&t, cfg);
                    let mut stats = OpStats::new();
                    if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                        assert!(q.contains(s), "cfg {cfg:?} returned non-positive");
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_results_match_fresh_memo_results() {
        // Determinism: walking with a warm memo consumes the RNG stream
        // identically to a cold memo, so the sample sequences agree.
        let t = tree(1 << 16);
        let keys: Vec<u64> = (0..120u64).map(|i| i * 31 + 2).collect();
        let q = t.query_filter(keys.iter().copied());
        for cfg in [BstConfig::default(), BstConfig::corrected()] {
            let sampler = BstSampler::with_config(&t, cfg);
            let mut warm_memo = QueryMemo::new();
            let mut warm_rng = StdRng::seed_from_u64(14);
            let mut cold_rng = StdRng::seed_from_u64(14);
            let mut stats = OpStats::new();
            for _ in 0..40 {
                let warm = sampler.try_sample_memo(&q, &mut warm_memo, &mut warm_rng, &mut stats);
                let mut cold_memo = QueryMemo::new();
                let cold = sampler.try_sample_memo(&q, &mut cold_memo, &mut cold_rng, &mut stats);
                assert_eq!(warm, cold, "cfg {cfg:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "liveness threshold must be finite")]
    fn with_config_rejects_infinite_threshold() {
        let t = tree(1 << 12);
        let _ = BstSampler::with_config(
            &t,
            BstConfig {
                liveness: Liveness::EstimateThreshold(f64::INFINITY),
                ..BstConfig::paper()
            },
        );
    }

    #[test]
    #[should_panic(expected = "rejection gamma must be finite")]
    fn with_config_rejects_infinite_gamma() {
        let t = tree(1 << 12);
        let _ = BstSampler::with_config(
            &t,
            BstConfig {
                correction: Correction::Rejection {
                    gamma: f64::INFINITY,
                },
                ..BstConfig::default()
            },
        );
    }
}
