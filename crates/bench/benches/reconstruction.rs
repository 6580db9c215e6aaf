//! Criterion benches for the reconstruction experiments (Figures 8–12):
//! BloomSampleTree vs HashInvert vs DictionaryAttack.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bench::common::{build_query, build_tree, gen_set, plan_for, rng_for, SetKind};
use bst_bloom::hash::HashKind;
use bst_core::baselines::dictionary::da_reconstruct;
use bst_core::baselines::hashinvert::hi_reconstruct;
use bst_core::metrics::OpStats;
use bst_core::reconstruct::BstReconstructor;
use bst_core::sampler::BstConfig;

const NAMESPACE: u64 = 100_000;

fn bench_reconstruction(c: &mut Criterion) {
    let plan = plan_for(NAMESPACE, 0.9, HashKind::Simple, 1);
    let tree = build_tree(&plan);
    let mut rng = rng_for(2);

    let mut group = c.benchmark_group("reconstruct");
    group.sample_size(10);
    for n in [100usize, 1000] {
        let keys = gen_set(&mut rng, SetKind::Uniform, NAMESPACE, n);
        let q = build_query(&tree, &keys);

        group.bench_with_input(BenchmarkId::new("bst-sound", n), &n, |b, _| {
            let recon = BstReconstructor::new(&tree);
            let mut stats = OpStats::new();
            b.iter(|| recon.reconstruct(&q, &mut stats))
        });
        group.bench_with_input(BenchmarkId::new("bst-paper", n), &n, |b, _| {
            let recon = BstReconstructor::with_config(&tree, BstConfig::paper());
            let mut stats = OpStats::new();
            b.iter(|| recon.reconstruct(&q, &mut stats))
        });
        group.bench_with_input(BenchmarkId::new("hashinvert", n), &n, |b, _| {
            let mut stats = OpStats::new();
            b.iter(|| hi_reconstruct(&q, &mut stats))
        });
        group.bench_with_input(BenchmarkId::new("dictionary-attack", n), &n, |b, _| {
            let mut stats = OpStats::new();
            b.iter(|| da_reconstruct(&q, NAMESPACE, &mut stats))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_reconstruction
}
criterion_main!(benches);
