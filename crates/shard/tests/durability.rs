//! Durability tests: crash recovery is bit-identical to an uncrashed
//! twin up to the last acked record, checkpoints run concurrently with
//! live queries, and decoded engines continue their generation counters
//! so warm handles and cached weights never alias across a reload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bst_core::wal::FsyncPolicy;
use bst_shard::{DurableBstSystem, DurableConfig, ShardedBstSystem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A process/thread-unique scratch directory (no tempfile crate in the
/// offline vendor set). Removed up front so reruns start clean.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bst-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn no_compactor() -> DurableConfig {
    DurableConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
    }
}

fn build_base(namespace: u64, shards: usize) -> ShardedBstSystem {
    ShardedBstSystem::builder(namespace)
        .shards(shards)
        .expected_set_size(64)
        .seed(19)
        .build()
}

/// Every `wal.<seq>.log` segment in `dir`, ascending by name (the
/// zero-padded sequence makes lexicographic = numeric order here).
fn wal_segments(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal.") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments
}

/// The single live segment of a quiesced log directory.
fn only_segment(dir: &PathBuf) -> PathBuf {
    let segments = wal_segments(dir);
    assert_eq!(segments.len(), 1, "expected one segment, got {segments:?}");
    segments.into_iter().next().unwrap()
}

/// One replayable mutation, mirrored onto the durable engine and (for
/// the surviving prefix) onto the plain uncrashed twin.
#[derive(Clone, Debug)]
enum Op {
    Create(Vec<u64>),
    InsertKeys(usize, Vec<u64>),
    RemoveKeys(usize, Vec<u64>),
    OccRemove(u64),
    OccInsert(u64),
}

/// Turns the proptest raw tuples into ops that are guaranteed to
/// succeed (and therefore each append exactly one WAL record): key
/// churn only targets sets that exist, occupancy ops toggle against the
/// tracked live set, and removals only remove keys they first inserted.
fn materialize(raw: &[(u32, u64)], namespace: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut sets = 0usize;
    // Every id starts occupied (the base engine is fully occupied).
    let mut vacant: Vec<u64> = Vec::new();
    for (kind, x) in raw {
        let key = x % namespace;
        match kind % 5 {
            0 => {
                ops.push(Op::Create(
                    (0..6)
                        .map(|j| (x.wrapping_add(j * 131)) % namespace)
                        .collect(),
                ));
                sets += 1;
            }
            1 if sets > 0 => {
                ops.push(Op::InsertKeys(
                    (*x as usize) % sets,
                    vec![key, (key + 7) % namespace],
                ));
            }
            2 if sets > 0 => {
                // Insert-then-remove, so the remove always finds the
                // key (a remove of an absent key is skipped) whatever
                // the set held before.
                ops.push(Op::InsertKeys((*x as usize) % sets, vec![key]));
                ops.push(Op::RemoveKeys((*x as usize) % sets, vec![key]));
            }
            3 => {
                if let Some(pos) = vacant.iter().position(|v| *v == key) {
                    vacant.swap_remove(pos);
                    ops.push(Op::OccInsert(key));
                } else {
                    vacant.push(key);
                    ops.push(Op::OccRemove(key));
                }
            }
            _ => {
                ops.push(Op::Create(vec![key]));
                sets += 1;
            }
        }
    }
    ops
}

fn apply_durable(durable: &DurableBstSystem, ids: &mut Vec<bst_core::store::FilterId>, op: &Op) {
    match op {
        Op::Create(keys) => ids.push(durable.create(keys.iter().copied()).unwrap()),
        Op::InsertKeys(set, keys) => durable
            .insert_keys(ids[*set], keys.iter().copied())
            .unwrap(),
        Op::RemoveKeys(set, keys) => durable
            .remove_keys(ids[*set], keys.iter().copied())
            .unwrap(),
        Op::OccRemove(key) => {
            durable.remove_occupied(*key).unwrap();
        }
        Op::OccInsert(key) => {
            durable.insert_occupied(*key).unwrap();
        }
    }
}

fn apply_plain(system: &ShardedBstSystem, ids: &mut Vec<bst_core::store::FilterId>, op: &Op) {
    match op {
        Op::Create(keys) => ids.push(system.create(keys.iter().copied()).unwrap()),
        Op::InsertKeys(set, keys) => system.insert_keys(ids[*set], keys.iter().copied()).unwrap(),
        Op::RemoveKeys(set, keys) => system.remove_keys(ids[*set], keys.iter().copied()).unwrap(),
        Op::OccRemove(key) => {
            system.remove_occupied(*key).unwrap();
        }
        Op::OccInsert(key) => {
            system.insert_occupied(*key).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The crash drill: arbitrary interleaved mutations are logged, the
    /// process "dies" (drop), and the log is cut at a random byte
    /// offset — torn mid-frame more often than not. Recovery must
    /// produce an engine bit-identical to an uncrashed twin that
    /// executed exactly the acked records surviving the cut.
    #[test]
    fn recovery_after_random_cut_is_bit_identical_to_acked_prefix(
        raw in prop::collection::vec((any::<u32>(), any::<u64>()), 1..40),
        shards in 1usize..4,
        cut_fraction in 0.0f64..1.0,
    ) {
        const NAMESPACE: u64 = 512;
        let dir = scratch_dir("cut");
        let ops = materialize(&raw, NAMESPACE);
        {
            let durable = DurableBstSystem::open(&dir, no_compactor(), || {
                build_base(NAMESPACE, shards)
            }).unwrap();
            let mut ids = Vec::new();
            for op in &ops {
                apply_durable(&durable, &mut ids, op);
            }
        } // drop = crash after the last ack (compactor disabled)

        // Cut the log at a random byte offset.
        let log_path = only_segment(&dir);
        let full = std::fs::read(&log_path).unwrap();
        let cut = ((full.len() as f64) * cut_fraction) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // How many whole records survive the cut is exactly what the
        // torn-tail scan reports; the twin executes that acked prefix.
        let survived = bst_core::wal::recover(&log_path).unwrap().records.len();
        prop_assert!(survived <= ops.len());
        let twin = build_base(NAMESPACE, shards);
        let mut twin_ids = Vec::new();
        for op in &ops[..survived] {
            apply_plain(&twin, &mut twin_ids, op);
        }

        let recovered = DurableBstSystem::open(&dir, no_compactor(), || {
            panic!("checkpoint exists; the builder must not run")
        }).unwrap();
        prop_assert_eq!(recovered.system().to_bytes(), twin.to_bytes());
        prop_assert_eq!(recovered.obs().replayed.get(), survived as i64);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint (snapshot encode + atomic publish + log truncate) never
/// blocks the read path: samples drawn *while a checkpoint is in
/// flight* succeed and return positives, and at least one sample
/// provably overlaps a checkpoint.
#[test]
fn checkpoint_runs_concurrently_with_live_sampling() {
    let dir = scratch_dir("concurrent");
    let durable = DurableBstSystem::open(&dir, no_compactor(), || build_base(8_192, 4)).unwrap();
    let members: Vec<u64> = (0..600u64).map(|i| (i * 97 + 5) % 8_192).collect();
    let id = durable.create(members.iter().copied()).unwrap();
    let sys = durable.system();
    let expected = sys.query_id(id).unwrap().reconstruct().unwrap();

    let in_checkpoint = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let overlapped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..2_000 {
                if overlapped.load(Ordering::Acquire) {
                    break;
                }
                in_checkpoint.store(true, Ordering::Release);
                durable.checkpoint().unwrap();
                in_checkpoint.store(false, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        scope.spawn(|| {
            let q = sys.query_id(id).unwrap();
            let mut rng = StdRng::seed_from_u64(77);
            while !overlapped.load(Ordering::Acquire) && !done.load(Ordering::Acquire) {
                let started_inside = in_checkpoint.load(Ordering::Acquire);
                let got = q.sample(&mut rng).unwrap();
                assert!(
                    expected.binary_search(&got).is_ok(),
                    "sample {got} is not a positive"
                );
                if started_inside && in_checkpoint.load(Ordering::Acquire) {
                    overlapped.store(true, Ordering::Release);
                }
            }
        });
    });
    assert!(
        overlapped.load(Ordering::Acquire),
        "no sample overlapped any of 2000 checkpoints"
    );
    assert!(durable.obs().checkpoints.get() >= 1);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The background compactor checkpoints on its own once the append
/// cadence is crossed, truncating the log without losing state.
#[test]
fn background_compactor_checkpoints_at_the_configured_cadence() {
    let dir = scratch_dir("compactor");
    let cfg = DurableConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 8,
    };
    let durable = DurableBstSystem::open(&dir, cfg, || build_base(1_024, 2)).unwrap();
    for i in 0..32u64 {
        durable.create([(i * 37) % 1_024]).unwrap();
    }
    // The compactor runs asynchronously; wait for it to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while durable.obs().checkpoints.get() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(durable.obs().checkpoints.get() >= 1, "compactor never ran");
    assert_eq!(durable.last_checkpoint_error(), None);
    let state = durable.system().to_bytes();
    drop(durable);
    // Recovery from checkpoint + shortened tail equals the live state.
    let reopened = DurableBstSystem::open(&dir, cfg, || panic!("must recover")).unwrap();
    assert_eq!(reopened.system().to_bytes(), state);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints publish with the log mutex released, so only the
/// checkpoint mutex keeps two publishes — or a publish and a disk
/// recovery's segment listing — from interleaving. One thread looping
/// `checkpoint()` and one looping `recover_from_disk()` race each other
/// and the compactor (a checkpoint every 8 records) over a few hundred
/// writes: every write acks, the live engine stays equal to a twin that
/// applied exactly the acked writes, and a reopen of the directory
/// recovers the same state.
#[test]
fn checkpoints_and_recoveries_racing_the_compactor_lose_no_acked_record() {
    const NAMESPACE: u64 = 4_096;
    let dir = scratch_dir("checkpoint-race");
    let cfg = DurableConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 8,
    };
    let durable = DurableBstSystem::open(&dir, cfg, || build_base(NAMESPACE, 4)).unwrap();
    let twin = build_base(NAMESPACE, 4);
    let done = AtomicBool::new(false);
    // Loops `op` until the writer is done, pausing between rounds so
    // the writer gets the log mutex; the rounds run, or the first
    // failure.
    let race = |op: &dyn Fn() -> Result<(), bst_shard::DurableError>| {
        let mut rounds = 0u64;
        while !done.load(Ordering::Acquire) {
            op().map_err(|e| format!("round {rounds}: {e}"))?;
            rounds += 1;
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok::<u64, String>(rounds)
    };
    let (writer, racers) = std::thread::scope(|scope| {
        let racers = [
            scope.spawn(|| race(&|| durable.checkpoint())),
            scope.spawn(|| race(&|| durable.recover_from_disk().map(drop))),
        ];
        // The writer reports instead of panicking, so `done` is always
        // set and the racers always stop.
        let mut ids = Vec::new();
        let mut writer = Ok(());
        for i in 0..400u64 {
            let key = (i * 613 + 7) % NAMESPACE;
            let acked = if i % 4 == 0 {
                durable.create([key, key / 2]).map(|id| {
                    ids.push(id);
                    (id, twin.create([key, key / 2]).map_err(|e| e.to_string()))
                })
            } else {
                let id = ids[(i as usize * 7) % ids.len()];
                durable.insert_keys(id, [key]).map(|()| {
                    (
                        id,
                        twin.insert_keys(id, [key])
                            .map(|()| id)
                            .map_err(|e| e.to_string()),
                    )
                })
            };
            match acked {
                Ok((id, Ok(twin_id))) if id == twin_id => {}
                other => {
                    writer = Err(format!("write {i}: durable/twin answered {other:?}"));
                    break;
                }
            }
            // Spread the writes so checkpoints and recoveries land
            // between them.
            std::thread::sleep(Duration::from_micros(200));
        }
        done.store(true, Ordering::Release);
        (writer, racers.map(|racer| racer.join().unwrap()))
    });
    writer.unwrap();
    for (racer, rounds) in ["checkpoint", "recover_from_disk"].iter().zip(racers) {
        let rounds = rounds.unwrap_or_else(|e| panic!("{racer} failed: {e}"));
        assert!(rounds >= 1, "{racer} never completed a round");
    }
    assert_eq!(durable.last_checkpoint_error(), None);
    assert_eq!(durable.system().to_bytes(), twin.to_bytes());
    drop(durable);
    let reopened = DurableBstSystem::open(&dir, cfg, || panic!("must recover")).unwrap();
    assert_eq!(reopened.system().to_bytes(), twin.to_bytes());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generation continuity across a snapshot reload (the satellite-1
/// regression): a decoded engine resumes every shard's tree generation
/// instead of restarting at zero, keeps counting monotonically through
/// fresh mutations, and a handle opened warm on the restored engine —
/// with the handle pool populated — answers exactly like a cold one
/// after churn.
#[test]
fn decoded_engine_continues_generations_warm_equals_cold() {
    let engine = ShardedBstSystem::builder(2_048)
        .shards(3)
        .expected_set_size(64)
        .seed(9)
        .build();
    let keysets: Vec<Vec<u64>> = (0..3u64)
        .map(|i| (0..50u64).map(|j| (i * 709 + j * 31) % 2_048).collect())
        .collect();
    let ids: Vec<_> = keysets
        .iter()
        .map(|k| engine.create(k.iter().copied()).unwrap())
        .collect();
    // Pre-save occupancy churn, so the persisted generations are
    // non-zero — the reset-to-zero bug is visible, not vacuously absent.
    for key in [5u64, 700, 1_500] {
        engine.remove_occupied(key).unwrap();
        engine.insert_occupied(key).unwrap();
    }
    let before: Vec<u64> = engine
        .shard_systems()
        .iter()
        .map(|s| s.tree_generation())
        .collect();
    assert!(
        before.iter().any(|&g| g > 0),
        "churn must bump a generation"
    );

    let restored = ShardedBstSystem::from_bytes(&engine.to_bytes()).unwrap();
    let after: Vec<u64> = restored
        .shard_systems()
        .iter()
        .map(|s| s.tree_generation())
        .collect();
    // Continuity: the decoded engine resumes the persisted counters.
    assert_eq!(after, before);

    // Warm handle + populated handle pool on the restored engine,
    // *then* mutate: occupancy churn and key churn on every shard.
    let warm = restored.query_id(ids[0]).unwrap();
    let _ = warm.live_weight().unwrap();
    let (primed, _) = restored.query_batch_ids(&ids, 7, 2);
    assert!(primed.iter().all(Result::is_ok));
    restored.remove_occupied(31).unwrap();
    restored.insert_keys(ids[0], [123u64, 999]).unwrap();
    restored.remove_occupied(1_024).unwrap();
    restored.insert_occupied(31).unwrap();

    // Post-mutation generations continue past the persisted values.
    for (sys, &g0) in restored.shard_systems().iter().zip(&before) {
        assert!(
            sys.tree_generation() >= g0,
            "generation regressed: {} < {g0}",
            sys.tree_generation()
        );
    }
    assert!(restored
        .shard_systems()
        .iter()
        .zip(&before)
        .any(|(s, &g0)| s.tree_generation() > g0));

    // Warm ≡ cold, and repaired cached batches equal bypassed answers.
    let cold = restored.query_id(ids[0]).unwrap();
    assert_eq!(warm.live_weight().unwrap(), cold.live_weight().unwrap());
    assert_eq!(warm.reconstruct().unwrap(), cold.reconstruct().unwrap());
    let (warm_batch, _) = restored.query_batch_ids(&ids, 21, 2);
    let bypass = ShardedBstSystem::from_bytes(&restored.to_bytes()).unwrap();
    let bypass_ids: Vec<_> = ids.clone();
    let (cold_batch, _) = bypass.query_batch_ids(&bypass_ids, 21, 2);
    for (a, b) in warm_batch.iter().zip(&cold_batch) {
        assert_eq!(a.as_ref().ok(), b.as_ref().ok());
    }
}

/// The checkpoint crash window: a SIGKILL after the checkpoint's
/// `rename(2)` but before covered segments are unlinked leaves the new
/// checkpoint AND the complete old log side by side. The sequence
/// number embedded in the checkpoint must make recovery skip the
/// covered segment — replaying it would re-derive a diverging set id
/// (startup failure) and double-apply key churn (silent corruption).
#[test]
fn stale_covered_segment_next_to_a_fresh_checkpoint_is_not_replayed() {
    let dir = scratch_dir("crash-window");
    let durable = DurableBstSystem::open(&dir, no_compactor(), || build_base(1_024, 2)).unwrap();
    let id = durable.create([1u64, 2, 3]).unwrap();
    durable.insert_keys(id, [10u64, 11]).unwrap();
    durable.remove_occupied(77).unwrap();
    // Save the pre-checkpoint segment, checkpoint, then put the segment
    // back: exactly the disk state the crash window leaves behind.
    let covered = only_segment(&dir);
    let covered_bytes = std::fs::read(&covered).unwrap();
    assert!(!covered_bytes.is_empty());
    durable.checkpoint().unwrap();
    let state = durable.system().to_bytes();
    drop(durable);
    assert!(!covered.exists(), "a checkpoint unlinks covered segments");
    std::fs::write(&covered, &covered_bytes).unwrap();

    let reopened = DurableBstSystem::open(&dir, no_compactor(), || panic!("must recover")).unwrap();
    assert_eq!(
        reopened.obs().replayed.get(),
        0,
        "the covered segment must be skipped, not replayed"
    );
    assert_eq!(reopened.system().to_bytes(), state);
    assert!(!covered.exists(), "open sweeps stale covered segments");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that rotated but failed to publish leaves several
/// uncovered segments; recovery must replay them all, in sequence
/// order, and resume appending in the newest one.
#[test]
fn recovery_replays_multiple_uncovered_segments_in_order() {
    use bst_core::wal::{checkpoint_header, Wal, WalRecord};
    let dir = scratch_dir("multi-segment");
    std::fs::create_dir_all(&dir).unwrap();
    // What id does the engine hand out first? Learn it from a probe so
    // the hand-written log records the genuine allocation.
    let first_id = build_base(1_024, 2).create([1u64, 2, 3]).unwrap().raw();
    std::fs::write(
        dir.join("checkpoint.bst"),
        build_base(1_024, 2).to_bytes_with_header(&checkpoint_header(0)),
    )
    .unwrap();
    let mut seg1 = Wal::open(&dir.join("wal.00000001.log"), FsyncPolicy::Never, 0).unwrap();
    seg1.append(&WalRecord::Create {
        id: first_id,
        keys: vec![1, 2, 3],
    })
    .unwrap();
    drop(seg1);
    let mut seg2 = Wal::open(&dir.join("wal.00000002.log"), FsyncPolicy::Never, 0).unwrap();
    seg2.append(&WalRecord::InsertKeys {
        id: first_id,
        keys: vec![9],
    })
    .unwrap();
    seg2.append(&WalRecord::OccRemove { id: 55 }).unwrap();
    drop(seg2);

    let twin = build_base(1_024, 2);
    let tid = twin.create([1u64, 2, 3]).unwrap();
    twin.insert_keys(tid, [9u64]).unwrap();
    twin.remove_occupied(55).unwrap();

    let recovered =
        DurableBstSystem::open(&dir, no_compactor(), || panic!("must recover")).unwrap();
    assert_eq!(recovered.obs().replayed.get(), 3);
    assert_eq!(recovered.system().to_bytes(), twin.to_bytes());
    // Appends resume in the newest segment; another recovery still
    // replays the full uncovered history plus the new record.
    recovered.insert_occupied(55).unwrap();
    twin.insert_occupied(55).unwrap();
    drop(recovered);
    let reopened = DurableBstSystem::open(&dir, no_compactor(), || panic!("must recover")).unwrap();
    assert_eq!(reopened.obs().replayed.get(), 4);
    assert_eq!(reopened.system().to_bytes(), twin.to_bytes());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between staging `checkpoint.tmp` and renaming it strands the
/// temp file; reopening the directory sweeps it.
#[test]
fn open_sweeps_a_stale_checkpoint_tmp() {
    let dir = scratch_dir("tmp-sweep");
    {
        let durable =
            DurableBstSystem::open(&dir, no_compactor(), || build_base(1_024, 2)).unwrap();
        durable.create([4u64, 5]).unwrap();
    }
    let tmp = dir.join("checkpoint.tmp");
    std::fs::write(&tmp, b"half-written checkpoint junk").unwrap();
    let reopened = DurableBstSystem::open(&dir, no_compactor(), || panic!("must recover")).unwrap();
    assert!(!tmp.exists(), "open must sweep the stranded temp file");
    assert_eq!(reopened.obs().replayed.get(), 1);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SAVE-equivalent checkpoint + adopt round-trip: adopting a snapshot
/// resets the durable state to exactly those bytes.
#[test]
fn adopt_resets_durable_state_to_the_snapshot() {
    let dir = scratch_dir("adopt");
    let durable = DurableBstSystem::open(&dir, no_compactor(), || build_base(1_024, 2)).unwrap();
    durable.create([1u64, 2, 3]).unwrap();
    let snapshot = durable.system().to_bytes();
    durable.create([9u64, 10]).unwrap();
    let adopted = ShardedBstSystem::from_bytes(&snapshot).unwrap();
    durable.adopt(adopted).unwrap();
    assert_eq!(durable.system().to_bytes(), snapshot);
    drop(durable);
    let reopened = DurableBstSystem::open(&dir, no_compactor(), || panic!("must recover")).unwrap();
    assert_eq!(reopened.system().to_bytes(), snapshot);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
