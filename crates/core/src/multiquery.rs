//! Batched sampling across many query filters.
//!
//! The framework (§3.2) is a database `D̄` of millions of sets, each a
//! Bloom filter, all sharing the tree's `(m, H)`. One BloomSampleTree
//! serves them all ("this search tree needs to be constructed only once
//! and will be repeatedly used for different query Bloom filters"), and
//! queries are independent, so batch work parallelises trivially across
//! worker threads (crossbeam scoped threads, aggregated stats behind a
//! parking_lot mutex). The facade exposes this as
//! [`crate::system::BstSystem::query_batch`].

use bst_bloom::filter::BloomFilter;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::BstError;
use crate::metrics::OpStats;
use crate::sampler::{BstSampler, SamplerConfig};
use crate::tree::SampleTree;

/// The RNG seed of batch slot `slot` under batch seed `seed`. Each slot
/// draws from its own generator, so a slot's sample depends only on
/// `(seed, slot)` and its filter — never on how slots are split across
/// worker threads. The sharded engine mixes its shard index into the
/// same seed for its per-(shard, slot) cells.
pub fn slot_seed(seed: u64, slot: u64) -> u64 {
    seed ^ slot.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Draws one sample per query filter, in parallel over `threads` workers
/// (0 = one per CPU). Returns per-query results (aligned with `queries`,
/// each carrying its own typed failure reason) plus aggregated operation
/// counts. Deterministic for a fixed `seed` and query order, whatever
/// the thread count.
pub fn sample_each<T: SampleTree + Sync>(
    tree: &T,
    queries: &[BloomFilter],
    cfg: SamplerConfig,
    seed: u64,
    threads: usize,
) -> (Vec<Result<u64, BstError>>, OpStats) {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if queries.is_empty() {
        return (Vec::new(), OpStats::new());
    }
    let chunk = queries.len().div_ceil(threads);
    let results: Mutex<Vec<Result<u64, BstError>>> =
        Mutex::new(vec![Err(BstError::NoLiveLeaf); queries.len()]);
    let total: Mutex<OpStats> = Mutex::new(OpStats::new());
    crossbeam::scope(|scope| {
        for (w, qchunk) in queries.chunks(chunk).enumerate() {
            let results = &results;
            let total = &total;
            scope.spawn(move |_| {
                let sampler = BstSampler::with_config(tree, cfg);
                let root_filter = tree.root().map(|r| tree.filter(r));
                let base = w * chunk;
                let mut stats = OpStats::new();
                let mut local = Vec::with_capacity(qchunk.len());
                for (i, q) in qchunk.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(slot_seed(seed, (base + i) as u64));
                    // Same guard the single-query handle enforces: a filter
                    // from a different hash family is a config bug, not an
                    // empty set.
                    local.push(match root_filter {
                        Some(rf) if !q.compatible_with(rf) => Err(BstError::IncompatibleFilter),
                        _ => sampler.try_sample(q, &mut rng, &mut stats),
                    });
                }
                let mut res = results.lock();
                res[base..base + local.len()].copy_from_slice(&local);
                *total.lock() += stats;
            });
        }
    })
    // bst-lint: allow(L001) — a worker panic must propagate, not be swallowed
    .expect("worker panicked");
    (results.into_inner(), total.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BloomSampleTree;
    use bst_bloom::hash::HashKind;
    use bst_bloom::params::TreePlan;

    fn tree() -> BloomSampleTree {
        BloomSampleTree::build(&TreePlan {
            namespace: 4096,
            m: 1 << 16,
            k: 3,
            kind: HashKind::Murmur3,
            seed: 11,
            depth: 5,
            leaf_capacity: 128,
            target_accuracy: 0.9,
        })
    }

    fn queries(t: &BloomSampleTree, n: usize) -> Vec<BloomFilter> {
        (0..n)
            .map(|i| {
                let base = (i as u64 * 37) % 2000;
                t.query_filter((0..30).map(|j| base + j * 2))
            })
            .collect()
    }

    #[test]
    fn every_query_gets_a_sound_sample() {
        let t = tree();
        let qs = queries(&t, 64);
        let (res, stats) = sample_each(&t, &qs, SamplerConfig::default(), 5, 4);
        assert_eq!(res.len(), 64);
        for (q, r) in qs.iter().zip(&res) {
            let s = r.expect("sample for every non-empty query");
            assert!(q.contains(s));
        }
        assert!(stats.memberships > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed_whatever_the_thread_count() {
        let t = tree();
        let qs = queries(&t, 32);
        let (a, sa) = sample_each(&t, &qs, SamplerConfig::default(), 9, 4);
        for threads in [0, 1, 3, 4, 32] {
            let (b, sb) = sample_each(&t, &qs, SamplerConfig::default(), 9, threads);
            assert_eq!(a, b, "threads = {threads}");
            assert_eq!(sa, sb, "threads = {threads}");
        }
    }

    #[test]
    fn single_thread_matches_result_count() {
        let t = tree();
        let qs = queries(&t, 10);
        let (res, _) = sample_each(&t, &qs, SamplerConfig::default(), 1, 1);
        assert_eq!(res.iter().filter(|r| r.is_ok()).count(), 10);
    }

    #[test]
    fn empty_filters_carry_typed_errors() {
        let t = tree();
        let mut qs = queries(&t, 4);
        qs.insert(2, t.query_filter(std::iter::empty()));
        let (res, _) = sample_each(&t, &qs, SamplerConfig::default(), 3, 2);
        assert_eq!(res.len(), 5);
        assert_eq!(res[2], Err(BstError::EmptyFilter));
        for (i, r) in res.iter().enumerate() {
            if i != 2 {
                assert!(r.is_ok(), "query {i} should sample");
            }
        }
    }

    #[test]
    fn incompatible_filters_carry_typed_errors() {
        let t = tree();
        let mut qs = queries(&t, 3);
        // Same (m, k) but a different hash-family seed: meaningless to
        // intersect against this tree.
        let foreign = BloomFilter::with_params(HashKind::Murmur3, 3, 1 << 16, 4096, 999);
        qs.push(foreign);
        let (res, _) = sample_each(&t, &qs, SamplerConfig::default(), 3, 2);
        assert_eq!(res[3], Err(BstError::IncompatibleFilter));
        for r in &res[..3] {
            assert!(r.is_ok());
        }
    }

    #[test]
    fn empty_batch() {
        let t = tree();
        let (res, stats) = sample_each(&t, &[], SamplerConfig::default(), 0, 0);
        assert!(res.is_empty());
        assert_eq!(stats, OpStats::new());
    }
}
