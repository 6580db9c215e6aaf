//! Observability overhead: the warm single-sample path and the warm
//! 32-slot batch path, measured three ways on the same engine state —
//! with tracing fully disabled (the default, and the cost every caller
//! pays), with a [`bst_obs::NoopRecorder`] installed (the facade's
//! dispatch cost alone), and with the server's real configuration (a
//! 1024-slot [`bst_obs::RingRecorder`] plus [`bst_shard::BatchObs`]
//! phase histograms).
//!
//! The acceptance bar is the *disabled* row: instrumented-but-off must
//! stay within 5% of the pre-instrumentation baseline, which here means
//! "disabled" and the other rows bracket a small, flat cost. Numbers
//! land in `results/obs_overhead.md`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use bst_bench::common::rng_for;
use bst_core::store::FilterId;
use bst_obs::{NoopRecorder, Recorder, RingRecorder};
use bst_shard::{BatchObs, ShardedBstSystem};
use bst_workloads::querysets::uniform_set;

const NAMESPACE: u64 = 65_536;
const SHARDS: usize = 4;
const SET_SIZE: u64 = 1_000;
const BATCH_SLOTS: usize = 32;

/// Dense-ish occupancy shared by every configuration.
fn build_engine() -> ShardedBstSystem {
    ShardedBstSystem::builder(NAMESPACE)
        .shards(SHARDS)
        .accuracy(0.9)
        .expected_set_size(SET_SIZE)
        .seed(1)
        .occupied((0..NAMESPACE).step_by(4).collect::<Vec<u64>>())
        .build()
}

fn stored_keys(tag: u64) -> Vec<u64> {
    let mut rng = rng_for(tag);
    uniform_set(&mut rng, NAMESPACE / 4, SET_SIZE as usize)
        .into_iter()
        .map(|i| i * 4)
        .collect()
}

/// The three sink configurations under test, applied to a live engine.
enum Sinks {
    Disabled,
    Noop,
    Ring,
}

impl Sinks {
    fn name(&self) -> &'static str {
        match self {
            Sinks::Disabled => "disabled",
            Sinks::Noop => "noop-recorder",
            Sinks::Ring => "ring+batch-obs",
        }
    }

    fn install(&self, sys: &ShardedBstSystem) {
        match self {
            Sinks::Disabled => {
                sys.set_recorder(None);
                sys.set_batch_obs(None);
            }
            Sinks::Noop => {
                sys.set_recorder(Some(Arc::new(NoopRecorder) as Arc<dyn Recorder>));
                sys.set_batch_obs(None);
            }
            Sinks::Ring => {
                sys.set_recorder(Some(Arc::new(RingRecorder::new(1_024)) as Arc<dyn Recorder>));
                sys.set_batch_obs(Some(Arc::new(BatchObs::unregistered())));
            }
        }
    }
}

const CONFIGS: [Sinks; 3] = [Sinks::Disabled, Sinks::Noop, Sinks::Ring];

/// Warm single-sample draws through a cached query handle — the hot
/// path the 5% acceptance bar is pinned to.
fn bench_warm_sample(c: &mut Criterion) {
    let sys = build_engine();
    let id = sys.create(stored_keys(2)).unwrap();
    let handle = sys.query_id(id).unwrap();
    let mut rng = rng_for(3);
    // Warm the handle's memoized weights before any timing.
    handle.sample(&mut rng).unwrap();

    let mut group = c.benchmark_group("obs-overhead-sample");
    for cfg in &CONFIGS {
        cfg.install(&sys);
        group.bench_function(cfg.name(), |b| {
            b.iter(|| {
                let key = handle.sample(&mut rng).unwrap();
                let _ = handle.take_stats();
                key
            })
        });
    }
    group.finish();
    sys.set_recorder(None);
    sys.set_batch_obs(None);
}

/// Warm 32-slot batches: the pooled handles are warm, so every
/// iteration is memoized weights, the phase-2 scatter, and the per-batch
/// span/histograms.
fn bench_warm_batch(c: &mut Criterion) {
    let sys = build_engine();
    let ids: Vec<FilterId> = (0..BATCH_SLOTS as u64)
        .map(|slot| sys.create(stored_keys(100 + slot)).unwrap())
        .collect();
    // Warm the engine's pooled handles before any timing.
    let (answers, _) = sys.query_batch_ids(&ids, 7, 0);
    assert!(answers.iter().all(Result::is_ok));

    let mut group = c.benchmark_group("obs-overhead-batch");
    for cfg in &CONFIGS {
        cfg.install(&sys);
        let mut seed = 0u64;
        group.bench_function(cfg.name(), |b| {
            b.iter(|| {
                seed += 1;
                sys.query_batch_ids(&ids, seed, 0)
            })
        });
    }
    group.finish();
    sys.set_recorder(None);
    sys.set_batch_obs(None);
}

criterion_group!(benches, bench_warm_sample, bench_warm_batch);
criterion_main!(benches);
