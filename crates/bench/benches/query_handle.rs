//! Query-handle amortization: N repeated samples on one filter via the
//! old stateless per-call path vs. the cached `Query` handle.
//!
//! The per-call path re-evaluates child intersections on every descent
//! and re-scans leaf candidates on every arrival; the handle memoizes
//! both after the first walk, and (for the corrected sampler) builds the
//! frontier weight cache once instead of once per call. The printed
//! `ops-ratio` lines report the same comparison in the paper's own units
//! (intersections + memberships).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bst_bench::common::rng_for;
use bst_core::metrics::OpStats;
use bst_core::sampler::BstSampler;
use bst_core::system::{BstConfig, BstSystem};
use bst_workloads::querysets::uniform_set;

const NAMESPACE: u64 = 100_000;
const OPS_PROBE_SAMPLES: usize = 1000;

fn build_system(cfg: BstConfig) -> BstSystem {
    BstSystem::builder(NAMESPACE)
        .accuracy(0.9)
        .expected_set_size(1000)
        .seed(1)
        .config(cfg)
        .build()
}

/// Paper-units comparison, printed once per configuration: total ops for
/// `OPS_PROBE_SAMPLES` samples, per-call vs. handle.
fn print_ops_ratio(label: &str, system: &BstSystem, filter: &bst_bloom::filter::BloomFilter) {
    let mut rng = rng_for(99);
    let mut per_call = OpStats::new();
    let view = system.tree().read();
    let sampler = BstSampler::with_config(&view, system.config());
    for _ in 0..OPS_PROBE_SAMPLES {
        let _ = sampler.sample(filter, &mut rng, &mut per_call);
    }
    let query = system.query(filter);
    for _ in 0..OPS_PROBE_SAMPLES {
        let _ = query.sample(&mut rng);
    }
    let handle = query.stats();
    println!(
        "ops-ratio/{label}: per-call {} ops, handle {} ops ({:.1}x fewer) over {OPS_PROBE_SAMPLES} samples",
        per_call.total_ops(),
        handle.total_ops(),
        per_call.total_ops() as f64 / handle.total_ops().max(1) as f64,
    );
}

fn bench_query_handle(c: &mut Criterion) {
    for (label, cfg) in [
        ("default", BstConfig::default()),
        ("corrected", BstConfig::corrected()),
    ] {
        let system = build_system(cfg);
        let mut rng = rng_for(3);
        let mut group = c.benchmark_group(format!("repeated-sample/{label}"));
        for n in [100usize, 1000] {
            let keys = uniform_set(&mut rng, NAMESPACE, n);
            let filter = system.store(keys.iter().copied());

            group.bench_with_input(BenchmarkId::new("per-call", n), &n, |b, _| {
                // The old facade shape: a stateless sampler invocation per
                // request, no reusable per-filter state.
                let view = system.tree().read();
                let sampler = BstSampler::with_config(&view, system.config());
                let mut rng = rng_for(7);
                let mut stats = OpStats::new();
                b.iter(|| sampler.sample(&filter, &mut rng, &mut stats))
            });
            group.bench_with_input(BenchmarkId::new("query-handle", n), &n, |b, _| {
                let query = system.query(&filter);
                let mut rng = rng_for(7);
                b.iter(|| query.sample(&mut rng))
            });

            if n == 1000 {
                print_ops_ratio(label, &system, &filter);
            }
        }
        group.finish();
    }

    // Reconstruction through a handle: the second pass is pure traversal.
    let system = build_system(BstConfig::default());
    let mut rng = rng_for(5);
    let keys = uniform_set(&mut rng, NAMESPACE, 1000);
    let filter = system.store(keys.iter().copied());
    let mut group = c.benchmark_group("repeated-reconstruct");
    group.sample_size(10);
    group.bench_function("per-call", |b| {
        let view = system.tree().read();
        let recon = bst_core::reconstruct::BstReconstructor::with_config(&view, system.config());
        let mut stats = OpStats::new();
        b.iter(|| recon.reconstruct(&filter, &mut stats))
    });
    group.bench_function("query-handle", |b| {
        let query = system.query(&filter);
        b.iter(|| query.reconstruct())
    });
    group.finish();
}

criterion_group!(benches, bench_query_handle);
criterion_main!(benches);
