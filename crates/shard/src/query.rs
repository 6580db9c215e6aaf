//! [`ShardQuery`]: the scatter-gather query handle.

use std::ops::Range;

use bst_core::error::BstError;
use bst_core::metrics::OpStats;
use bst_core::query::Query;
use bst_core::store::FilterId;
use rand::Rng;

/// A query handle spanning every shard of a
/// [`crate::system::ShardedBstSystem`]: one per-shard
/// [`bst_core::query::Query`] each — for a stored set, each reading its
/// shard's slice of the one key list under the same id — so descent
/// state accumulates and invalidates per shard (slice generations *and*
/// tree generations), and the scatter-gather algebra lives here.
///
/// Uniformity: [`Self::sample`] draws a shard with probability
/// proportional to its **live-leaf weight** — the exact count of
/// elements the shard would reconstruct for this filter — then samples
/// inside the shard. With exact weights the merged distribution equals a
/// single tree's over the same positives (pinned by the `bst-stats`
/// conformance harness in `tests/e2e_shard.rs`). Weights come from
/// [`bst_core::query::Query::live_weight`], which is cached in the
/// handle's memo: O(1) when warm, and after occupancy churn the handle
/// replays the tree's mutation journal — O(depth) memo repair per
/// mutation, the mutated leaf's list patched in place — and the count
/// sums the leaf lists instead of rescanning the shard; set churn still
/// re-projects and recounts on the next call.
pub struct ShardQuery {
    /// The stored set this handle reads (`None` for detached filters).
    id: Option<FilterId>,
    /// `S + 1` ascending boundaries (for range clipping).
    boundaries: Vec<u64>,
    /// One core handle per shard, shard order.
    handles: Vec<Query>,
}

impl std::fmt::Debug for ShardQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardQuery(id={:?}, shards={})",
            self.id,
            self.handles.len()
        )
    }
}

impl ShardQuery {
    pub(crate) fn new(id: Option<FilterId>, boundaries: Vec<u64>, handles: Vec<Query>) -> Self {
        ShardQuery {
            id,
            boundaries,
            handles,
        }
    }

    /// The store id this handle reads, for handles opened with
    /// [`crate::system::ShardedBstSystem::query_id`]; `None` for
    /// detached handles.
    pub fn filter_id(&self) -> Option<FilterId> {
        self.id
    }

    /// The per-shard core handles, shard order (for introspection).
    pub fn shard_handles(&self) -> &[Query] {
        &self.handles
    }

    /// Per-shard live-leaf weights for the current filter/tree state,
    /// merged by [`merge_weights`]. Each weight is the shard handle's
    /// memo-cached [`Query::live_weight`], so a warm call costs one
    /// O(1) memo read per shard.
    fn weights(&self) -> Result<Vec<u64>, BstError> {
        merge_weights(self.handles.iter().map(Query::live_weight))
    }

    /// The classification of a reconstruction no shard contributed to:
    /// `Ok(vec![])` when some shard evaluated the filter (including the
    /// transient case where a mutation landed between the two loops),
    /// the merged soft error or first hard error otherwise.
    fn empty_reconstruction(&self) -> Result<Vec<u64>, BstError> {
        match self.weights() {
            Ok(_) | Err(BstError::NoLiveLeaf) => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// The total live-leaf weight across shards: exactly the number of
    /// elements [`Self::reconstruct`] would return.
    pub fn live_weight(&self) -> Result<u64, BstError> {
        match self.weights() {
            Ok(weights) => Ok(weights.iter().sum()),
            Err(BstError::NoLiveLeaf) => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Draws one sample from the stored span: a shard proportional to its
    /// live-leaf weight, then a sample within it — exactly uniform over
    /// [`Self::reconstruct`]'s output under the sound rule, where each
    /// shard draws exactly.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<u64, BstError> {
        let weights = self.weights()?;
        let shard = pick_shard(&weights, rng).ok_or(BstError::NoLiveLeaf)?;
        self.handles[shard].sample(rng)
    }

    /// Draws `r` samples, splitting the request across shards with
    /// successive binomial draws over the live-leaf weights (the §5.3
    /// multi-path split lifted one level up), then one per-shard
    /// `sample_many` each. Results are grouped by shard, not shuffled.
    /// Under the sound rule each shard's draws are exact and the call
    /// returns `r`; otherwise it may return fewer when shard-internal
    /// paths die on false-positive routes.
    pub fn sample_many<R: Rng + ?Sized>(
        &self,
        r: usize,
        rng: &mut R,
    ) -> Result<Vec<u64>, BstError> {
        let weights = self.weights()?;
        let total: u64 = weights.iter().sum();
        let mut out = Vec::with_capacity(r);
        let mut remaining = r;
        let mut weight_left = total;
        for (handle, &w) in self.handles.iter().zip(&weights) {
            if remaining == 0 || weight_left == 0 {
                break;
            }
            let take = if w == weight_left {
                remaining
            } else {
                bst_stats::binomial::sample_binomial(
                    rng,
                    remaining as u64,
                    w as f64 / weight_left as f64,
                ) as usize
            };
            weight_left -= w;
            if take > 0 {
                out.extend(handle.sample_many(take, rng)?);
                remaining -= take.min(remaining);
            }
        }
        Ok(out)
    }

    /// Reconstructs the stored span (`S ∪ S(B)` restricted to occupied
    /// ids), sorted ascending — per-shard answers are disjoint and
    /// range-ordered, so gathering is concatenation.
    pub fn reconstruct(&self) -> Result<Vec<u64>, BstError> {
        let mut out = Vec::new();
        let mut saw_ok = false;
        for handle in &self.handles {
            match handle.reconstruct() {
                Ok(part) => {
                    saw_ok = true;
                    out.extend(part);
                }
                Err(BstError::EmptyFilter) | Err(BstError::EmptyTree) => {}
                Err(e) => return Err(e),
            }
        }
        if !saw_ok {
            return self.empty_reconstruction();
        }
        Ok(out)
    }

    /// Range-restricted reconstruction: shards disjoint from `window`
    /// are never consulted. An empty window yields `Ok(vec![])`.
    pub fn reconstruct_range(&self, window: Range<u64>) -> Result<Vec<u64>, BstError> {
        if window.start >= window.end {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let mut saw_ok = false;
        for (s, handle) in self.handles.iter().enumerate() {
            let clipped =
                window.start.max(self.boundaries[s])..window.end.min(self.boundaries[s + 1]);
            if clipped.start >= clipped.end {
                continue;
            }
            match handle.reconstruct_range(clipped) {
                Ok(part) => {
                    saw_ok = true;
                    out.extend(part);
                }
                Err(BstError::EmptyFilter) | Err(BstError::EmptyTree) => {}
                Err(e) => return Err(e),
            }
        }
        if !saw_ok {
            // Classified over the WHOLE engine: a window over empty
            // shards on a live engine is Ok(vec![]), exactly like a
            // single tree whose root exists elsewhere.
            return self.empty_reconstruction();
        }
        Ok(out)
    }

    /// Whether any shard's handle is stale (set churn or occupancy churn
    /// past its stamps). Errors if the span was dropped.
    pub fn is_stale(&self) -> Result<bool, BstError> {
        let mut stale = false;
        for handle in &self.handles {
            stale |= handle.is_stale()?;
        }
        Ok(stale)
    }

    /// Operation counts accumulated across every shard handle.
    pub fn stats(&self) -> OpStats {
        let mut total = OpStats::new();
        for handle in &self.handles {
            total += handle.stats();
        }
        total
    }

    /// Returns the accumulated cross-shard stats and resets all shard
    /// counters.
    pub fn take_stats(&self) -> OpStats {
        let mut total = OpStats::new();
        for handle in &self.handles {
            total += handle.take_stats();
        }
        total
    }
}

/// Merges one row of per-shard weight outcomes, in shard order, into the
/// shard weights — the one soft-error merge policy of the handle path
/// ([`ShardQuery`]) and the batch gather step. Empty per-shard
/// projections (`EmptyFilter`) and empty shard trees (`EmptyTree`) weigh
/// 0. Any other error is hard and the first one in shard order is
/// returned; the row is consumed lazily, so later shards are not
/// evaluated. When **no** shard produced a usable evaluation the error is
/// classified the way a single-tree system would: `EmptyTree` only when
/// **every** shard's tree is empty (the engine holds no occupancy at all
/// — a single tree would have no root), `EmptyFilter` otherwise. A row
/// whose weights total 0 is `NoLiveLeaf`, so `Ok` weights always have a
/// positive total.
pub(crate) fn merge_weights(
    row: impl IntoIterator<Item = Result<u64, BstError>>,
) -> Result<Vec<u64>, BstError> {
    let mut weights = Vec::new();
    let mut saw_ok = false;
    let mut all_empty_trees = true;
    for outcome in row {
        match outcome {
            Ok(w) => {
                saw_ok = true;
                all_empty_trees = false;
                weights.push(w);
            }
            Err(BstError::EmptyFilter) => {
                all_empty_trees = false;
                weights.push(0);
            }
            Err(BstError::EmptyTree) => weights.push(0),
            Err(e) => return Err(e),
        }
    }
    if !saw_ok {
        return Err(if all_empty_trees {
            BstError::EmptyTree
        } else {
            BstError::EmptyFilter
        });
    }
    if weights.iter().sum::<u64>() == 0 {
        return Err(BstError::NoLiveLeaf);
    }
    Ok(weights)
}

/// Picks a shard with probability proportional to its weight, with a
/// single `rng.gen_range(0..total)` — the one weighted shard pick of the
/// handle path and the batch gather step. `None` when the weights total
/// 0 (no RNG call is made then).
pub(crate) fn pick_shard<R: Rng + ?Sized>(weights: &[u64], rng: &mut R) -> Option<usize> {
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return None;
    }
    let mut pick = rng.gen_range(0..total);
    for (shard, &w) in weights.iter().enumerate() {
        if pick < w {
            return Some(shard);
        }
        pick -= w;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn merge_weights_classifies_outcome_rows() {
        use BstError::{EmptyFilter, EmptyTree, IncompatibleFilter, NoLiveLeaf};
        let unknown = BstError::UnknownFilterId(FilterId::from_raw(3));
        /// An outcome row and the merge it must produce.
        type Row<'a> = (&'a [Result<u64, BstError>], Result<Vec<u64>, BstError>);
        let rows: [Row<'_>; 9] = [
            (&[Err(EmptyTree), Err(EmptyTree)], Err(EmptyTree)),
            (&[Err(EmptyTree), Err(EmptyFilter)], Err(EmptyFilter)),
            (&[Err(EmptyFilter), Err(EmptyTree)], Err(EmptyFilter)),
            (&[Ok(0), Ok(0)], Err(NoLiveLeaf)),
            (&[Ok(0), Err(EmptyTree)], Err(NoLiveLeaf)),
            (&[Err(EmptyFilter), Err(unknown)], Err(unknown)),
            (
                &[Err(EmptyTree), Err(IncompatibleFilter), Ok(5)],
                Err(IncompatibleFilter),
            ),
            (
                &[Err(IncompatibleFilter), Err(unknown)],
                Err(IncompatibleFilter),
            ),
            (
                &[Ok(2), Err(EmptyFilter), Err(EmptyTree), Ok(3)],
                Ok(vec![2, 0, 0, 3]),
            ),
        ];
        for (row, expect) in rows {
            assert_eq!(merge_weights(row.iter().copied()), expect, "row {row:?}");
        }
    }

    #[test]
    fn merge_weights_stops_at_the_first_hard_error() {
        let mut consumed = 0;
        let row = [Ok(1), Err(BstError::IncompatibleFilter), Ok(2)]
            .into_iter()
            .inspect(|_| consumed += 1);
        assert_eq!(merge_weights(row), Err(BstError::IncompatibleFilter));
        assert_eq!(consumed, 2, "shards after a hard error are not evaluated");
    }

    /// The linear scan the handle and batch paths each carried before
    /// they shared [`pick_shard`].
    fn reference_pick(weights: &[u64], rng: &mut StdRng) -> Option<usize> {
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return None;
        }
        let mut pick = rng.gen_range(0..total);
        let mut fallback = None;
        for (shard, &w) in weights.iter().enumerate() {
            if pick < w {
                return Some(shard);
            }
            if w > 0 {
                fallback = Some(shard);
            }
            pick -= w;
        }
        fallback
    }

    #[test]
    fn pick_shard_matches_the_linear_scan() {
        let rows: [&[u64]; 5] = [
            &[7],
            &[0, 3, 0, 1],
            &[5, 5, 5, 5],
            &[0, 0, 9],
            &[1, 1000, 0, 2],
        ];
        for seed in 0..64u64 {
            for weights in rows {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = StdRng::seed_from_u64(seed);
                assert_eq!(
                    pick_shard(weights, &mut a),
                    reference_pick(weights, &mut b),
                    "seed {seed}, weights {weights:?}"
                );
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same RNG consumption");
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pick_shard(&[0, 0], &mut rng), None);
    }
}
