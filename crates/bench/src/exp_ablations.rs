//! Ablations on the design choices DESIGN.md calls out: the emptiness
//! threshold τ (§5.6), the descent/pruning estimator, the depth/`M⊥`
//! trade-off, one-pass multi-sampling, and the rejection-correction γ.

use std::time::Instant;

use bst_bloom::hash::HashKind;
use bst_bloom::params::{leaf_size, TreePlan};
use bst_core::metrics::OpStats;
use bst_core::reconstruct::BstReconstructor;
use bst_core::sampler::{BstConfig, BstSampler, Correction, Liveness, RatioEstimator};
use bst_stats::chi2_uniform_test;

use crate::common::{build_query, build_tree, gen_set, plan_for, rng_for, SetKind};
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};

const NAMESPACE: u64 = 1_000_000;
const N: usize = 1000;

/// τ sweep: reconstruction recall vs work under §5.6 threshold pruning.
pub fn ablate_threshold(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation: emptiness threshold τ (reconstruction, M = 10^6, n = 10^3, acc 0.9)",
        &["tau", "recall", "memberships", "intersections", "nodes"],
    );
    let plan = plan_for(NAMESPACE, 0.9, HashKind::Murmur3, crate::common::SEED);
    let tree = build_tree(&plan);
    let mut rng = rng_for(900);
    let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, N);
    let q = build_query(&tree, &keys);
    let _ = scale;
    for tau in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let recon = BstReconstructor::with_config(
            &tree,
            BstConfig {
                liveness: Liveness::EstimateThreshold(tau),
                ..BstConfig::paper()
            },
        );
        let mut stats = OpStats::new();
        let rec = recon.reconstruct(&q, &mut stats);
        let hits = keys.iter().filter(|x| rec.binary_search(x).is_ok()).count();
        t.push_row(vec![
            format!("{tau}"),
            fmt_f64(hits as f64 / N as f64),
            stats.memberships.to_string(),
            stats.intersections.to_string(),
            stats.nodes_visited.to_string(),
        ]);
    }
    // Sound mode reference row.
    let mut stats = OpStats::new();
    let rec = BstReconstructor::new(&tree).reconstruct(&q, &mut stats);
    let hits = keys.iter().filter(|x| rec.binary_search(x).is_ok()).count();
    t.push_row(vec![
        "sound".into(),
        fmt_f64(hits as f64 / N as f64),
        stats.memberships.to_string(),
        stats.intersections.to_string(),
        stats.nodes_visited.to_string(),
    ]);
    t
}

/// Estimator × liveness matrix: sampling uniformity (χ² p-value), zero-hit
/// keys, and cost.
pub fn ablate_estimator(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation: descent estimator × liveness (sampling, M = 10^6, n = 10^3, acc 0.9)",
        &["ratio", "liveness", "p-value", "never-sampled", "ms/sample"],
    );
    let plan = plan_for(NAMESPACE, 0.9, HashKind::Murmur3, crate::common::SEED);
    let tree = build_tree(&plan);
    let mut rng = rng_for(910);
    let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, N);
    let q = build_query(&tree, &keys);
    let rounds = (130 * N).min(scale.chi2_cap).max(10 * N);
    for ratio in [
        RatioEstimator::MeanCorrectedBits,
        RatioEstimator::AndCardinality,
        RatioEstimator::Papapetrou,
    ] {
        for (lname, liveness) in [
            ("bit-overlap", Liveness::BitOverlap),
            ("tau=0.5", Liveness::EstimateThreshold(0.5)),
        ] {
            let cfg = BstConfig {
                liveness,
                ratio,
                correction: Correction::None,
            };
            let sampler = BstSampler::with_config(&tree, cfg);
            let mut counts = vec![0u64; N];
            let start = Instant::now();
            let mut stats = OpStats::new();
            for _ in 0..rounds {
                if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                    if let Ok(i) = keys.binary_search(&s) {
                        counts[i] += 1;
                    }
                }
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / rounds as f64;
            let p = chi2_uniform_test(&counts).p_value;
            let zeros = counts.iter().filter(|&&c| c == 0).count();
            let rname = match ratio {
                RatioEstimator::MeanCorrectedBits => "mean-corrected",
                RatioEstimator::AndCardinality => "S&B-on-AND",
                RatioEstimator::Papapetrou => "Papapetrou",
            };
            t.push_row(vec![
                rname.into(),
                lname.into(),
                fmt_f64(p),
                zeros.to_string(),
                fmt_f64(ms),
            ]);
        }
    }
    t
}

/// Depth sweep: sampling time vs tree memory (the §5.4 trade-off).
pub fn ablate_depth(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation: tree depth vs time and memory (M = 10^6, n = 10^3, acc 0.9)",
        &[
            "depth",
            "M_bot",
            "memory MB",
            "ms/sample",
            "memberships/sample",
        ],
    );
    let base = plan_for(NAMESPACE, 0.9, HashKind::Murmur3, crate::common::SEED);
    for depth in [5u32, 7, 9, 11, 13] {
        let plan = TreePlan {
            depth,
            leaf_capacity: leaf_size(NAMESPACE, depth),
            ..base.clone()
        };
        let tree = build_tree(&plan);
        let sampler = BstSampler::new(&tree);
        let mut rng = rng_for(920 + depth as u64);
        let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, N);
        let q = build_query(&tree, &keys);
        let rounds = scale.time_rounds.max(50);
        let mut stats = OpStats::new();
        let start = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(sampler.sample(&q, &mut rng, &mut stats));
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / rounds as f64;
        t.push_row(vec![
            depth.to_string(),
            plan.leaf_capacity.to_string(),
            fmt_f64(tree.memory_bytes() as f64 / 1e6),
            fmt_f64(ms),
            fmt_f64(stats.memberships as f64 / rounds as f64),
        ]);
    }
    t
}

/// One-pass multi-sampling vs repeated single samples (§5.3's claim).
pub fn ablate_multisample(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation: one-pass multi-sampling vs repeated singles (M = 10^6, n = 10^3)",
        &["r", "one-pass ops", "repeated ops", "speedup"],
    );
    let plan = plan_for(NAMESPACE, 0.9, HashKind::Murmur3, crate::common::SEED);
    let tree = build_tree(&plan);
    let sampler = BstSampler::new(&tree);
    let mut rng = rng_for(930);
    let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, N);
    let q = build_query(&tree, &keys);
    let _ = scale;
    for r in [1usize, 10, 100, 1000] {
        let mut many = OpStats::new();
        std::hint::black_box(sampler.sample_many(&q, r, &mut rng, &mut many));
        let mut single = OpStats::new();
        for _ in 0..r {
            std::hint::black_box(sampler.sample(&q, &mut rng, &mut single));
        }
        t.push_row(vec![
            r.to_string(),
            many.total_ops().to_string(),
            single.total_ops().to_string(),
            fmt_f64(single.total_ops() as f64 / many.total_ops().max(1) as f64),
        ]);
    }
    t
}

/// γ sweep for the rejection correction: uniformity vs work.
pub fn ablate_correction(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation: rejection-correction γ (M = 10^6, n = 10^3, acc 0.9)",
        &["gamma", "p-value", "ms/sample"],
    );
    let plan = plan_for(NAMESPACE, 0.9, HashKind::Murmur3, crate::common::SEED);
    let tree = build_tree(&plan);
    let mut rng = rng_for(940);
    let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, N);
    let q = build_query(&tree, &keys);
    let rounds = (130 * N).min(scale.chi2_cap).max(10 * N);
    for gamma in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let sampler = BstSampler::with_config(
            &tree,
            BstConfig {
                correction: Correction::Rejection { gamma },
                ..BstConfig::default()
            },
        );
        let mut counts = vec![0u64; N];
        let mut stats = OpStats::new();
        let start = Instant::now();
        for _ in 0..rounds {
            if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                if let Ok(i) = keys.binary_search(&s) {
                    counts[i] += 1;
                }
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / rounds as f64;
        t.push_row(vec![
            format!("{gamma}"),
            fmt_f64(chi2_uniform_test(&counts).p_value),
            fmt_f64(ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multisample_ablation_shows_speedup() {
        let t = ablate_multisample(&Scale::smoke());
        // r = 1000 should show a clear one-pass advantage.
        let last = t.rows.last().unwrap();
        let speedup: f64 = last[3].parse().unwrap();
        assert!(speedup > 1.4, "one-pass speedup only {speedup}x");
    }
}
