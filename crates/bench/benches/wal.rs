//! Durability overhead: the same acked mutation through the plain
//! sharded facade vs `DurableBstSystem` (log-before-ack) under both
//! fsync policies, plus the cost of a full checkpoint. The mutation
//! under test is an insert/remove key pair on one stored set — net
//! zero, so state stays constant across criterion's iterations and
//! the WAL is the only thing that grows.
//!
//! Numbers land in `results/wal.md`; the PR 9 acceptance bar is the
//! `--fsync never` durable path within 2× of the non-durable one.
//!
//! The `wal-checkpoint-stall` arm checkpoints a service-scale engine
//! (1,024 stored sets of 1,000 keys, M = 2^20, S = 4, a quarter of the
//! namespace occupied) and reports, per checkpoint, how long the log
//! mutex was held — the time writers stall — next to the whole
//! checkpoint's duration, from the `WalObs` gauges, under both fsync
//! policies.

use std::path::PathBuf;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use bst_core::wal::FsyncPolicy;
use bst_shard::{DurableBstSystem, DurableConfig, ShardedBstSystem};

const NAMESPACE: u64 = 65_536;
const SHARDS: usize = 4;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bst-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build() -> ShardedBstSystem {
    ShardedBstSystem::builder(NAMESPACE)
        .shards(SHARDS)
        .expected_set_size(64)
        .seed(17)
        .build()
}

fn open_durable(tag: &str, fsync: FsyncPolicy) -> (DurableBstSystem, PathBuf) {
    let dir = scratch_dir(tag);
    let durable = DurableBstSystem::open(
        &dir,
        DurableConfig {
            fsync,
            checkpoint_every: 0, // no compactor: measure the append alone
        },
        build,
    )
    .expect("open durable scratch dir");
    (durable, dir)
}

/// One stored set per engine; the benched op churns a key in and out.
fn seed_set_plain(sys: &ShardedBstSystem) -> bst_core::store::FilterId {
    sys.create((0..64u64).map(|j| j * 131 % NAMESPACE))
        .expect("create")
}

/// The mutation the serving layer actually logs: a multi-key insert
/// followed by the matching remove (cf. `loadgen` / the e2e traffic —
/// 20-key creates, batched key churn). Net zero per iteration.
const CHURN: [u64; 16] = [
    101, 202, 303, 404, 505, 606, 707, 808, 909, 1_010, 1_111, 1_212, 1_313, 1_414, 1_515, 1_616,
];

fn bench_mutation_ack(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal-mutation-ack");

    let plain = build();
    let id = seed_set_plain(&plain);
    group.bench_function("plain-16key-churn", |b| {
        b.iter(|| {
            plain.insert_keys(id, CHURN).expect("insert");
            plain.remove_keys(id, CHURN).expect("remove");
        })
    });
    group.bench_function("plain-1key-churn", |b| {
        b.iter(|| {
            plain.insert_keys(id, [4_242]).expect("insert");
            plain.remove_keys(id, [4_242]).expect("remove");
        })
    });
    group.bench_function("plain-create20-drop", |b| {
        b.iter(|| {
            let id = plain
                .create((0..20u64).map(|j| j * 257 % NAMESPACE))
                .expect("create");
            plain.drop_set(id).expect("drop");
        })
    });
    group.bench_function("plain-occ-churn", |b| {
        b.iter(|| {
            plain.remove_occupied(9_999).expect("occ remove");
            plain.insert_occupied(9_999).expect("occ insert");
        })
    });

    // Fresh WAL directory per benched case: criterion runs millions of
    // iterations, and letting one case's multi-hundred-MB log linger
    // into the next would measure page-writeback pressure, not the
    // append.
    {
        let (durable, dir) = open_durable("never-16", FsyncPolicy::Never);
        let id = durable
            .create((0..64u64).map(|j| j * 131 % NAMESPACE))
            .expect("create");
        group.bench_function("durable-16key-churn-fsync-never", |b| {
            b.iter(|| {
                durable.insert_keys(id, CHURN).expect("insert");
                durable.remove_keys(id, CHURN).expect("remove");
            })
        });
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let (durable, dir) = open_durable("never-1", FsyncPolicy::Never);
        let id = durable
            .create((0..64u64).map(|j| j * 131 % NAMESPACE))
            .expect("create");
        group.bench_function("durable-1key-churn-fsync-never", |b| {
            b.iter(|| {
                durable.insert_keys(id, [4_242]).expect("insert");
                durable.remove_keys(id, [4_242]).expect("remove");
            })
        });
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let (durable, dir) = open_durable("never-create", FsyncPolicy::Never);
        group.bench_function("durable-create20-drop-fsync-never", |b| {
            b.iter(|| {
                let id = durable
                    .create((0..20u64).map(|j| j * 257 % NAMESPACE))
                    .expect("create");
                durable.drop_set(id).expect("drop");
            })
        });
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let (durable, dir) = open_durable("never-occ", FsyncPolicy::Never);
        group.bench_function("durable-occ-churn-fsync-never", |b| {
            b.iter(|| {
                durable.remove_occupied(9_999).expect("occ remove");
                durable.insert_occupied(9_999).expect("occ insert");
            })
        });
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Per-record fsync is orders of magnitude slower; keep the sample
    // budget small so the run stays bounded.
    let (durable, dir) = open_durable("always", FsyncPolicy::Always);
    let id = durable
        .create((0..64u64).map(|j| j * 131 % NAMESPACE))
        .expect("create");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("durable-16key-churn-fsync-always", |b| {
        b.iter(|| {
            durable.insert_keys(id, CHURN).expect("insert");
            durable.remove_keys(id, CHURN).expect("remove");
        })
    });
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

/// A checkpoint = rotate to a fresh log segment + encode the whole
/// engine + tmp-write + rename + retire covered segments; benched over
/// a populated engine so the snapshot is not trivially empty.
fn bench_checkpoint(c: &mut Criterion) {
    let (durable, dir) = open_durable("checkpoint", FsyncPolicy::Never);
    for s in 0..64u64 {
        durable
            .create((0..64u64).map(|j| (s * 4_099 + j * 131) % NAMESPACE))
            .expect("create");
    }
    let mut group = c.benchmark_group("wal-checkpoint");
    group.sample_size(20);
    group.bench_function("checkpoint-64-sets", |b| {
        b.iter(|| durable.checkpoint().expect("checkpoint"))
    });
    group.finish();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The service engine's checkpoint: writers stall only while the log
/// mutex is held (rotate + encode); the write, fsync, rename and segment
/// retirement follow with it released. Prints the median and max of
/// both over a few checkpoints under each fsync policy, plus the
/// checkpoint's size. The engine is populated under `never`, then the
/// directory is reopened under `always`, whose rotation adds a
/// directory fsync to the stall.
fn bench_checkpoint_stall(_c: &mut Criterion) {
    use bst_workloads::sampling::sample_distinct;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const M: u64 = 1 << 20;
    const SETS: usize = 1_024;
    const KEYS: usize = 1_000;
    const CHECKPOINTS: usize = 7;
    let mut rng = StdRng::seed_from_u64(23);
    let occupied = sample_distinct(&mut rng, 0, M, (M / 4) as usize);
    let dir = scratch_dir("checkpoint-stall");
    let open = |fsync| {
        DurableBstSystem::open(
            &dir,
            DurableConfig {
                fsync,
                checkpoint_every: 0,
            },
            || {
                ShardedBstSystem::builder(M)
                    .shards(SHARDS)
                    .accuracy(0.9)
                    .expected_set_size(KEYS as u64)
                    .occupied(occupied.clone())
                    .build()
            },
        )
        .expect("open durable scratch dir")
    };
    let durable = open(FsyncPolicy::Never);
    for _ in 0..SETS {
        durable
            .create(sample_distinct(&mut rng, 0, M, KEYS))
            .expect("create");
    }
    let label = |what: &str| format!("wal-checkpoint-stall/{SETS}x{KEYS}-M2^20-S{SHARDS}/{what}");
    let mut durable = Some(durable);
    for (policy, fsync) in [
        ("never", FsyncPolicy::Never),
        ("always", FsyncPolicy::Always),
    ] {
        let durable = durable.take().unwrap_or_else(|| open(fsync));
        let obs = durable.obs();
        let (mut stall_us, mut full_us) = (Vec::new(), Vec::new());
        for _ in 0..CHECKPOINTS {
            durable.checkpoint().expect("checkpoint");
            stall_us.push(obs.last_checkpoint_stall_us.get());
            full_us.push(obs.last_checkpoint_us.get());
        }
        for (what, mut us) in [("log-mutex-held", stall_us), ("full-checkpoint", full_us)] {
            us.sort_unstable();
            println!(
                "{:<61} median {:>9.2} ms max {:>9.2} ms (n = {CHECKPOINTS})",
                label(&format!("{policy}/{what}")),
                us[CHECKPOINTS / 2] as f64 / 1e3,
                us[CHECKPOINTS - 1] as f64 / 1e3,
            );
        }
    }
    let bytes = std::fs::metadata(dir.join("checkpoint.bst")).map_or(0, |m| m.len());
    println!(
        "{:<61} {:.1} MB",
        label("checkpoint-size"),
        bytes as f64 / 1e6
    );
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_mutation_ack,
    bench_checkpoint,
    bench_checkpoint_stall
);
criterion_main!(benches);
