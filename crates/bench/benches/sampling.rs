//! Criterion benches for the sampling experiments (Figures 3–6, Tables
//! 5–6): BSTSample vs DictionaryAttack per-sample cost, plus the one-pass
//! multi-sampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bench::common::{build_query, build_tree, gen_set, plan_for, rng_for, SetKind};
use bst_bloom::hash::HashKind;
use bst_core::baselines::dictionary::da_sample;
use bst_core::metrics::OpStats;
use bst_core::sampler::{BstConfig, BstSampler};

const NAMESPACE: u64 = 100_000;

fn bench_sampling(c: &mut Criterion) {
    let plan = plan_for(NAMESPACE, 0.9, HashKind::Murmur3, 1);
    let tree = build_tree(&plan);
    let mut rng = rng_for(1);

    let mut group = c.benchmark_group("sample");
    for n in [100usize, 1000, 10_000] {
        let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, n);
        let q = build_query(&tree, &keys);

        group.bench_with_input(BenchmarkId::new("bst", n), &n, |b, _| {
            let sampler = BstSampler::new(&tree);
            let mut stats = OpStats::new();
            b.iter(|| sampler.sample(&q, &mut rng, &mut stats))
        });
        group.bench_with_input(BenchmarkId::new("bst-paper", n), &n, |b, _| {
            let sampler = BstSampler::with_config(&tree, BstConfig::paper());
            let mut stats = OpStats::new();
            b.iter(|| sampler.sample(&q, &mut rng, &mut stats))
        });
        group.bench_with_input(BenchmarkId::new("bst-corrected", n), &n, |b, _| {
            let sampler = BstSampler::with_config(&tree, BstConfig::corrected());
            let mut stats = OpStats::new();
            b.iter(|| sampler.sample(&q, &mut rng, &mut stats))
        });
        if n == 1000 {
            group.sample_size(10);
            group.bench_function("dictionary-attack", |b| {
                let mut stats = OpStats::new();
                b.iter(|| da_sample(&q, NAMESPACE, &mut rng, &mut stats))
            });
            group.sample_size(100);
        }
    }
    group.finish();

    let mut group = c.benchmark_group("sample-many");
    let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, 1000);
    let q = build_query(&tree, &keys);
    for r in [10usize, 100] {
        group.bench_with_input(BenchmarkId::new("one-pass", r), &r, |b, &r| {
            let sampler = BstSampler::new(&tree);
            let mut stats = OpStats::new();
            b.iter(|| sampler.sample_many(&q, r, &mut rng, &mut stats))
        });
        group.bench_with_input(BenchmarkId::new("repeated", r), &r, |b, &r| {
            let sampler = BstSampler::new(&tree);
            let mut stats = OpStats::new();
            b.iter(|| {
                for _ in 0..r {
                    std::hint::black_box(sampler.sample(&q, &mut rng, &mut stats));
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sampling
}
criterion_main!(benches);
