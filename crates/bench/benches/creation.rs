//! Criterion benches for tree construction (Tables 2–4): complete
//! BloomSampleTree builds (leaves on one worker per CPU) and pruned-tree
//! builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bench::common::plan_for;
use bst_bloom::hash::HashKind;
use bst_core::pruned::PrunedBloomSampleTree;
use bst_core::tree::BloomSampleTree;
use bst_workloads::querysets::uniform_set;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_creation(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree-build");
    group.sample_size(10);
    for m_ns in [100_000u64, 1_000_000] {
        let plan = plan_for(m_ns, 0.9, HashKind::Murmur3, 1);
        group.bench_with_input(BenchmarkId::new("dense", m_ns), &plan, |b, plan| {
            b.iter(|| BloomSampleTree::build(plan))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("pruned-build");
    group.sample_size(10);
    let plan = plan_for(1_000_000, 0.9, HashKind::Murmur3, 1);
    let mut rng = StdRng::seed_from_u64(3);
    for occupied_n in [1000usize, 10_000] {
        let occupied = uniform_set(&mut rng, 1_000_000, occupied_n);
        group.bench_with_input(
            BenchmarkId::new("batch", occupied_n),
            &occupied,
            |b, occ| b.iter(|| PrunedBloomSampleTree::build(&plan, occ)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_creation
}
criterion_main!(benches);
