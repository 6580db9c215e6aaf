//! Figures 3–7: sampling operation counts, wall-clock timings and the
//! hash-family comparison.

use std::time::Instant;

use bst_bloom::hash::HashKind;
use bst_core::baselines::dictionary::da_sample;
use bst_core::metrics::OpStats;
use bst_core::sampler::{BstConfig, BstSampler};

use crate::common::{build_query, build_tree, gen_set, plan_for, rng_for, SetKind};
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};

/// Figures 3 (uniform) and 4 (clustered): average number of intersections
/// and membership operations per sample, BST vs DictionaryAttack, for one
/// namespace size.
pub fn fig_ops(namespace: u64, kind: SetKind, scale: &Scale) -> Table {
    let fig = if kind == SetKind::Uniform { "3" } else { "4" };
    let mut t = Table::new(
        format!(
            "Figure {fig} (M = {namespace}): ops per sample, {} query sets",
            kind.name()
        ),
        &[
            "accuracy",
            "n",
            "BST intersections",
            "BST memberships",
            "DA memberships",
        ],
    );
    for &acc in &scale.accuracies {
        let plan = plan_for(namespace, acc, HashKind::Murmur3, crate::common::SEED);
        let tree = build_tree(&plan);
        let sampler = BstSampler::with_config(&tree, BstConfig::paper());
        for &n in &scale.set_sizes {
            if n as u64 >= namespace {
                continue;
            }
            let mut rng = rng_for(30 + namespace + n as u64);
            let keys = gen_set(&mut rng, kind, namespace, n);
            let q = build_query(&tree, &keys);
            let mut stats = OpStats::new();
            let rounds = scale.op_rounds;
            for _ in 0..rounds {
                std::hint::black_box(sampler.sample(&q, &mut rng, &mut stats));
            }
            t.push_row(vec![
                format!("{acc}"),
                n.to_string(),
                fmt_f64(stats.intersections as f64 / rounds as f64),
                fmt_f64(stats.memberships as f64 / rounds as f64),
                namespace.to_string(), // DA scans the namespace, always
            ]);
        }
    }
    t
}

/// Figures 5 (M = 10⁷) and 6 (M = 10⁶): average wall-clock time per
/// sample, BST vs DictionaryAttack.
pub fn fig_time(namespace: u64, kind: SetKind, scale: &Scale) -> Table {
    let fig = if namespace >= 10_000_000 { "5" } else { "6" };
    let mut t = Table::new(
        format!(
            "Figure {fig} (M = {namespace}): avg sampling time (ms), {} query sets",
            kind.name()
        ),
        &["accuracy", "n", "BST ms", "DA ms"],
    );
    for &acc in &scale.accuracies {
        let plan = plan_for(namespace, acc, HashKind::Murmur3, crate::common::SEED);
        let tree = build_tree(&plan);
        let sampler = BstSampler::with_config(&tree, BstConfig::paper());
        for &n in &scale.set_sizes {
            if n as u64 >= namespace {
                continue;
            }
            let mut rng = rng_for(50 + namespace + n as u64);
            let keys = gen_set(&mut rng, kind, namespace, n);
            let q = build_query(&tree, &keys);

            let mut stats = OpStats::new();
            let start = Instant::now();
            for _ in 0..scale.time_rounds {
                std::hint::black_box(sampler.sample(&q, &mut rng, &mut stats));
            }
            let bst_ms = start.elapsed().as_secs_f64() * 1e3 / scale.time_rounds as f64;

            let start = Instant::now();
            for _ in 0..scale.da_time_rounds {
                std::hint::black_box(da_sample(&q, namespace, &mut rng, &mut stats));
            }
            let da_ms = start.elapsed().as_secs_f64() * 1e3 / scale.da_time_rounds as f64;

            t.push_row(vec![
                format!("{acc}"),
                n.to_string(),
                fmt_f64(bst_ms),
                fmt_f64(da_ms),
            ]);
        }
    }
    t
}

/// Figure 7: effect of the hash family (Simple, Murmur3, MD5) on sampling
/// time, BST vs DictionaryAttack, `M = 10⁶`, `n = 10³`.
pub fn fig7(scale: &Scale) -> Table {
    let namespace: u64 = 1_000_000;
    let n = 1000usize;
    let mut t = Table::new(
        "Figure 7: hash families, avg sampling time (ms), M = 10^6, n = 10^3",
        &["accuracy", "family", "BST ms", "DA ms"],
    );
    for &acc in &scale.accuracies {
        for kind in HashKind::ALL {
            let plan = plan_for(namespace, acc, kind, crate::common::SEED);
            let tree = build_tree(&plan);
            let sampler = BstSampler::with_config(&tree, BstConfig::paper());
            let mut rng = rng_for(70 + kind as u64);
            let keys = gen_set(&mut rng, SetKind::Uniform, namespace, n);
            let q = build_query(&tree, &keys);

            let mut stats = OpStats::new();
            let start = Instant::now();
            for _ in 0..scale.time_rounds {
                std::hint::black_box(sampler.sample(&q, &mut rng, &mut stats));
            }
            let bst_ms = start.elapsed().as_secs_f64() * 1e3 / scale.time_rounds as f64;

            let da_rounds = scale.da_time_rounds.max(1);
            let start = Instant::now();
            for _ in 0..da_rounds {
                std::hint::black_box(da_sample(&q, namespace, &mut rng, &mut stats));
            }
            let da_ms = start.elapsed().as_secs_f64() * 1e3 / da_rounds as f64;

            t.push_row(vec![
                format!("{acc}"),
                kind.name().to_string(),
                fmt_f64(bst_ms),
                fmt_f64(da_ms),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        let mut s = Scale::smoke();
        s.accuracies = vec![0.9];
        s.set_sizes = vec![100];
        s.op_rounds = 10;
        s.time_rounds = 5;
        s.da_time_rounds = 1;
        s
    }

    #[test]
    fn fig3_shape() {
        let t = fig_ops(100_000, SetKind::Uniform, &tiny_scale());
        assert_eq!(t.rows.len(), 1);
        let bst_mem: f64 = t.rows[0][3].parse().unwrap();
        let da_mem: f64 = t.rows[0][4].parse().unwrap();
        assert!(
            bst_mem < da_mem / 5.0,
            "BST should use far fewer memberships: {bst_mem} vs {da_mem}"
        );
    }

    #[test]
    fn fig6_bst_beats_da() {
        let t = fig_time(100_000, SetKind::Uniform, &tiny_scale());
        let bst: f64 = t.rows[0][2].parse().unwrap();
        let da: f64 = t.rows[0][3].parse().unwrap();
        assert!(bst < da, "BST {bst} ms should beat DA {da} ms");
    }
}
