//! Tables 2–6: parameter settings, creation time, chi-squared sample
//! quality, and measured accuracy.

use std::time::Instant;

use bst_bloom::hash::HashKind;
use bst_bloom::params::{paper_plan, TreePlan};
use bst_core::metrics::OpStats;
use bst_core::sampler::{BstConfig, BstSampler};
use bst_stats::chi2_uniform_test;

use crate::common::{build_query, build_tree, gen_set, plan_for, rng_for, SetKind};
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};

/// Tables 2 and 3: BST parameter settings for `n = 10³`.
///
/// Our `m` comes from the accuracy-sizing chain; our `depth`/`M⊥` from the
/// measured `icost/mcost` ratio. The published values are shown alongside.
pub fn table_params(namespace: u64, scale: &Scale) -> Table {
    let mut t = Table::new(
        format!(
            "Table {}: BloomSampleTree settings, M = {namespace}, n = 10^3",
            if namespace == 1_000_000 { "2" } else { "3" }
        ),
        &[
            "accuracy",
            "m",
            "depth",
            "M_bot",
            "mem MB (paper conv.)",
            "mem MB (all nodes)",
            "paper m",
            "paper depth",
            "paper M_bot",
        ],
    );
    for &acc in &scale.accuracies {
        let plan = TreePlan::for_accuracy(
            namespace,
            1000,
            acc,
            3,
            HashKind::Murmur3,
            crate::common::SEED,
            crate::common::measured_cost_ratio(),
        );
        let paper = paper_plan(namespace, acc, HashKind::Murmur3, 0);
        t.push_row(vec![
            format!("{acc}"),
            plan.m.to_string(),
            plan.depth.to_string(),
            plan.leaf_capacity.to_string(),
            fmt_f64(plan.memory_bytes_paper_convention() as f64 / 1e6),
            fmt_f64(plan.memory_bytes() as f64 / 1e6),
            paper.as_ref().map_or("-".into(), |p| p.m.to_string()),
            paper.as_ref().map_or("-".into(), |p| p.depth.to_string()),
            paper
                .as_ref()
                .map_or("-".into(), |p| p.leaf_capacity.to_string()),
        ]);
    }
    t
}

/// Table 4: BloomSampleTree creation time.
pub fn table4(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Table 4: creation time (ms), parallel build with all cores",
        &["M", "accuracy", "m", "depth", "build ms"],
    );
    for &m_ns in &scale.namespaces {
        for &acc in &scale.accuracies {
            if acc >= 1.0 {
                continue; // Table 4 sweeps 0.5..0.9
            }
            let plan = plan_for(m_ns, acc, HashKind::Murmur3, crate::common::SEED);
            let start = Instant::now();
            let tree = build_tree(&plan);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(tree.node_count());
            t.push_row(vec![
                m_ns.to_string(),
                format!("{acc}"),
                plan.m.to_string(),
                plan.depth.to_string(),
                fmt_f64(elapsed),
            ]);
        }
    }
    t
}

/// Table 5: chi-squared p-values for sample uniformity at `M = 10⁶`
/// (`T = 130·n` rounds, significance 0.08).
///
/// Reported for both the corrected sampler (our recommended mode — matches
/// the paper's conclusion that samples are near-uniform) and the
/// paper-literal estimator descent (see EXPERIMENTS.md for why the latter
/// fails at small `n`).
pub fn table5(scale: &Scale) -> Table {
    let namespace: u64 = 1_000_000;
    let mut t = Table::new(
        "Table 5: chi-squared p-values, M = 10^6 (corrected / paper-literal sampler)",
        &[
            "accuracy",
            "n",
            "T",
            "p (corrected)",
            "p (paper)",
            "acc measured",
        ],
    );
    for &acc in &scale.accuracies {
        let plan = plan_for(namespace, acc, HashKind::Murmur3, crate::common::SEED);
        let tree = build_tree(&plan);
        for &n in &scale.set_sizes {
            let mut rng = rng_for(500 + n as u64);
            let keys = gen_set(&mut rng, SetKind::Uniform, namespace, n);
            let q = build_query(&tree, &keys);
            let rounds = (130 * n).min(scale.chi2_cap);
            let mut row_p = Vec::new();
            let mut measured_acc = 0.0;
            for cfg in [BstConfig::corrected(), BstConfig::paper()] {
                let sampler = BstSampler::with_config(&tree, cfg);
                let mut counts = vec![0u64; n];
                let mut fp = 0u64;
                let mut stats = OpStats::new();
                for _ in 0..rounds {
                    if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                        match keys.binary_search(&s) {
                            Ok(i) => counts[i] += 1,
                            Err(_) => fp += 1,
                        }
                    }
                }
                let res = chi2_uniform_test(&counts);
                row_p.push(res.p_value);
                let trues: u64 = counts.iter().sum();
                measured_acc = trues as f64 / (trues + fp).max(1) as f64;
            }
            t.push_row(vec![
                format!("{acc}"),
                n.to_string(),
                rounds.to_string(),
                fmt_f64(row_p[0]),
                fmt_f64(row_p[1]),
                fmt_f64(measured_acc),
            ]);
        }
    }
    t
}

/// Table 6: measured accuracy for uniform query sets of `n = 10³`.
pub fn table6(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Table 6: measured accuracy, uniform query sets, n = 10^3",
        &["accuracy", "M", "measured"],
    );
    for &acc in &scale.accuracies {
        for &m_ns in &scale.namespaces {
            let plan = plan_for(m_ns, acc, HashKind::Murmur3, crate::common::SEED);
            let tree = build_tree(&plan);
            let mut rng = rng_for(600 + m_ns);
            let keys = gen_set(&mut rng, SetKind::Uniform, m_ns, 1000);
            let q = build_query(&tree, &keys);
            let sampler = BstSampler::new(&tree);
            let mut stats = OpStats::new();
            let rounds = scale.op_rounds.max(500);
            let (mut trues, mut total) = (0u64, 0u64);
            for _ in 0..rounds {
                if let Some(s) = sampler.sample(&q, &mut rng, &mut stats) {
                    total += 1;
                    if keys.binary_search(&s).is_ok() {
                        trues += 1;
                    }
                }
            }
            t.push_row(vec![
                format!("{acc}"),
                m_ns.to_string(),
                fmt_f64(trues as f64 / total.max(1) as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_smoke() {
        let mut scale = Scale::smoke();
        scale.accuracies = vec![0.9];
        let t = table_params(1_000_000, &scale);
        assert_eq!(t.rows.len(), 1);
        // Pinned column shows the published 60870.
        assert_eq!(t.rows[0][6], "60870");
    }

    #[test]
    fn table4_smoke() {
        let scale = Scale::smoke();
        let t = table4(&scale);
        assert_eq!(t.rows.len(), scale.namespaces.len() * 2);
        for row in &t.rows {
            assert!(row[4].parse::<f64>().unwrap() > 0.0);
        }
    }

    #[test]
    fn table6_smoke() {
        let mut scale = Scale::smoke();
        scale.accuracies = vec![0.9];
        scale.namespaces = vec![100_000];
        scale.op_rounds = 100;
        let t = table6(&scale);
        assert_eq!(t.rows.len(), 1);
        let measured: f64 = t.rows[0][2].parse().unwrap();
        assert!(measured > 0.5, "measured accuracy {measured}");
    }
}
