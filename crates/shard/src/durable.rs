//! Crash-safe persistence for the sharded engine: WAL + background
//! checkpoints.
//!
//! [`DurableBstSystem`] wraps a [`ShardedBstSystem`] so that every
//! acked mutation is **logged before the ack**: the mutation applies to
//! the in-memory engine and appends one [`WalRecord`] to an append-only
//! log, both under one log mutex, so log order always equals
//! application order. Recovery is then deterministic: decode the newest
//! checkpoint (the ordinary byte-deterministic snapshot behind a small
//! header) and replay the uncovered log segments through the same
//! facade methods — set-id allocation is a deterministic function of
//! prior state, so replay re-derives every id and the recovered engine
//! answers queries bit-identically to the uncrashed one.
//!
//! The log is optional: [`DurableBstSystem::in_memory`] builds the same
//! facade with no log behind it, so a server owns its engine through one
//! type whether or not it persists. Mutations still serialize on the log
//! mutex; their append step, checkpoints and the compactor do nothing.
//!
//! ## Lock order and the read path
//!
//! Two locks exist here, acquired in a fixed order: the **log mutex**
//! first, then the **engine slot** (`RwLock<ShardedBstSystem>`, write
//! side only for engine swaps). Queries clone the engine handle through
//! the slot's read side and never touch the log mutex, so a checkpoint
//! — which holds the log mutex while encoding the engine through
//! per-shard *read* locks (copy-on-read of locked tree state) — never
//! blocks the read path. Writers stall for the duration of a
//! checkpoint's encode; readers do not. A caller that must keep its own
//! state consistent with engine swaps (the server's epoch) takes its
//! lock outside both.
//!
//! ## Checkpoints
//!
//! The log is a series of numbered segment files (`wal.<seq>.log`) and
//! the checkpoint embeds the sequence number of the newest segment it
//! covers ([`wal::encode_checkpoint`]); recovery replays only strictly
//! newer segments. That linkage makes the checkpoint transition atomic
//! with respect to crashes: appends first rotate into a fresh segment
//! the snapshot will not cover, the snapshot is staged and published
//! with `rename(2)` naming the rotated-away segment as covered, and
//! only then are covered segments unlinked. Dying between any two
//! steps recovers exactly — before the rename the old checkpoint still
//! replays every uncovered segment (the fresh one is empty), and after
//! it the old segments are stale *by sequence number*: skipped on
//! replay even when the crash kept them from being unlinked, and swept
//! at the next open. A background compactor thread runs this after
//! every [`DurableConfig::checkpoint_every`] appended records (and on
//! demand via [`DurableBstSystem::checkpoint`]).
//!
//! ## Append failures wedge the facade
//!
//! A failed append leaves the in-memory engine one mutation ahead of
//! the log; any later record would presuppose state the log never
//! captured, so the facade **fail-stops**: mutations are rejected with
//! [`DurableError::Wedged`] until a successful checkpoint — whose
//! snapshot includes the unlogged mutation — reconciles log and engine
//! (the compactor is kicked immediately; with the compactor disabled,
//! call [`DurableBstSystem::checkpoint`], or roll the engine back to
//! the acked state with [`DurableBstSystem::recover_from_disk`]).
//! Queries keep serving throughout.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bst_core::error::BstError;
use bst_core::store::FilterId;
use bst_core::wal::{self, FsyncPolicy, Wal, WalRecord};
use bst_obs::WalObs;
use parking_lot::{Mutex, RwLock};

use crate::system::ShardedBstSystem;

/// Checkpoint file name inside the WAL directory.
const CHECKPOINT_FILE: &str = "checkpoint.bst";
/// Temp file the checkpoint is staged in before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// The log segment with sequence `seq`: `wal.<seq>.log`, zero-padded
/// for readable listings but parsed numerically.
fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal.{seq:08}.log"))
}

/// Parses a segment file name back to its sequence number.
fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal.")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Every log segment in `dir`, ascending by sequence number.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(segment_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Durability knobs for a [`DurableBstSystem`].
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// When the log is flushed to stable storage (default: `Never` —
    /// survives SIGKILL; `Always` survives power loss).
    pub fsync: FsyncPolicy,
    /// Appended records between automatic background checkpoints;
    /// 0 disables the compactor (checkpoints happen only via
    /// [`DurableBstSystem::checkpoint`]).
    pub checkpoint_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 4096,
        }
    }
}

/// Failures of the durable layer: disk IO, the wrapped engine's own
/// typed errors, a replay that diverged from the recorded history, a
/// wedged facade awaiting its reconciling checkpoint, or a disk
/// operation asked of a facade without a log.
#[derive(Debug)]
pub enum DurableError {
    /// The log or checkpoint file could not be read or written.
    Io(io::Error),
    /// The wrapped engine rejected an operation (or a snapshot failed
    /// to decode).
    Engine(BstError),
    /// Replay re-derived a different set id than the log recorded —
    /// the checkpoint and log disagree (mixed-up files, manual edits).
    ReplayDiverged {
        /// The id the log recorded at ack time.
        expected: u64,
        /// The id replay allocated.
        got: u64,
    },
    /// A mutation applied in memory but its log append failed, so the
    /// engine is ahead of the log. Mutations are refused until a
    /// successful checkpoint (or [`DurableBstSystem::recover_from_disk`])
    /// reconciles them; queries keep serving.
    Wedged {
        /// The append failure that wedged the facade.
        reason: String,
    },
    /// [`DurableBstSystem::recover_from_disk`] on an in-memory facade:
    /// there is no checkpoint or log to recover from.
    NoLog,
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable io: {e}"),
            DurableError::Engine(e) => write!(f, "durable engine: {e}"),
            DurableError::ReplayDiverged { expected, got } => write!(
                f,
                "wal replay diverged: log recorded set id {expected}, replay allocated {got}"
            ),
            DurableError::Wedged { reason } => write!(
                f,
                "durable engine wedged until a checkpoint reconciles an unlogged mutation: {reason}"
            ),
            DurableError::NoLog => write!(f, "no write-ahead log to recover from"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<BstError> for DurableError {
    fn from(e: BstError) -> Self {
        DurableError::Engine(e)
    }
}

/// The open log plus its checkpoint bookkeeping, all behind one mutex.
struct LogState {
    /// The directory holding the checkpoint and log segments.
    dir: PathBuf,
    cfg: DurableConfig,
    wal: Wal,
    /// Sequence number of the active segment `wal` appends into.
    seq: u64,
    /// Valid bytes in uncovered segments *before* the active one —
    /// nonzero only after a checkpoint publish failed post-rotation or
    /// a multi-segment recovery; the `log_bytes` gauge reports this
    /// plus the active segment.
    prior_uncovered: u64,
    /// Records appended since the last checkpoint (drives the
    /// compactor's cadence).
    since_checkpoint: u64,
}

/// Message to the compactor thread.
enum Signal {
    /// The append path crossed the checkpoint cadence (or wedged and
    /// wants its reconciling checkpoint).
    Kick,
    /// The durable handle is dropping; exit after the current cycle.
    Stop,
}

struct DurableShared {
    /// The engine slot. Mutations and queries *read* it (cloning the
    /// `Arc`-backed handle); only engine swaps (recovery, adoption)
    /// write it. Always acquired after the log mutex, never before.
    engine: RwLock<ShardedBstSystem>,
    /// The log mutex: held across apply + append so log order equals
    /// application order, and across a whole checkpoint. `None` for an
    /// in-memory facade, whose mutations still serialize on it.
    log: Mutex<Option<LogState>>,
    obs: WalObs,
    /// Wake-up channel into the compactor thread (None when the
    /// compactor is disabled). `mpsc::Sender` predates `Sync` on some
    /// toolchains, so it sits behind a mutex; sends are rare and brief.
    signal: Mutex<Option<std::sync::mpsc::Sender<Signal>>>,
    /// The last background-checkpoint failure, if any (surfaced to
    /// embedders; a failed checkpoint leaves the previous one valid).
    checkpoint_error: Mutex<Option<String>>,
    /// Fail-stop latch: the reason the engine is ahead of the log, set
    /// when an append fails after its mutation applied. Mutations are
    /// rejected while set; a successful checkpoint or disk recovery
    /// clears it. Read and written only under the log mutex, so the
    /// check cannot race the reconciliation.
    wedged: Mutex<Option<String>>,
}

/// A [`ShardedBstSystem`] with crash-safe persistence: write-ahead
/// logging before every ack, background checkpoint compaction, and
/// recovery = newest checkpoint + uncovered-segment replay — or, built
/// with [`Self::in_memory`], the same facade with no log at all.
///
/// Not `Clone`: the value owns the compactor thread and the log file
/// handle. Share the wrapped engine for read-side work via
/// [`Self::system`] (a cheap `Arc`-bump clone).
pub struct DurableBstSystem {
    inner: Arc<DurableShared>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DurableBstSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.log.lock().as_ref() {
            Some(log) => write!(f, "DurableBstSystem({:?}, {:?})", log.dir, log.cfg),
            None => write!(f, "DurableBstSystem(in memory)"),
        }
    }
}

/// Writes `bytes` as the new checkpoint: temp file → fsync → atomic
/// rename → directory fsync. A crash at any point leaves either the old
/// or the new checkpoint fully intact, never a mix (a stranded temp
/// file is swept at the next open).
fn publish_checkpoint(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let dst = dir.join(CHECKPOINT_FILE);
    {
        let mut file = std::fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, &dst)?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// What disk recovery established beyond the engine itself.
struct DiskRecovery {
    /// Newest segment the checkpoint covers (0 with no checkpoint).
    covered_seq: u64,
    /// Replayed records across every uncovered segment.
    replayed: u64,
    /// Torn/corrupt bytes dropped after the last valid record.
    torn_bytes: u64,
    /// The segment appends continue into.
    tail_seq: u64,
    /// Valid byte length of that segment.
    tail_valid_len: u64,
    /// Valid bytes across replayed segments before the tail one.
    prior_uncovered: u64,
}

/// Decodes the checkpoint (if present) and replays every uncovered log
/// segment through the facade, in sequence order. Segments at or below
/// the checkpoint's covered sequence are stale leftovers of an
/// interrupted checkpoint and are skipped; a torn tail or a sequence
/// gap ends the trustworthy history (nothing after it is replayed).
fn recover_state(
    dir: &Path,
    fallback: Option<ShardedBstSystem>,
) -> Result<(ShardedBstSystem, DiskRecovery), DurableError> {
    let checkpoint = dir.join(CHECKPOINT_FILE);
    let (system, covered_seq) = match std::fs::read(&checkpoint) {
        Ok(bytes) => {
            let (covered, snapshot) = wal::decode_checkpoint(&bytes)?;
            (ShardedBstSystem::from_bytes(snapshot)?, covered)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => match fallback {
            Some(system) => (system, 0),
            None => return Err(DurableError::Io(e)),
        },
        Err(e) => return Err(DurableError::Io(e)),
    };
    let mut rec = DiskRecovery {
        covered_seq,
        replayed: 0,
        torn_bytes: 0,
        tail_seq: covered_seq + 1,
        tail_valid_len: 0,
        prior_uncovered: 0,
    };
    let mut next = covered_seq + 1;
    for (seq, path) in list_segments(dir)? {
        if seq <= covered_seq {
            continue; // covered by the checkpoint: stale, never replayed
        }
        if seq != next {
            break; // a gap: nothing after it is trustworthy
        }
        let recovery = wal::recover(&path)?;
        for record in &recovery.records {
            replay(&system, record)?;
        }
        rec.replayed += recovery.records.len() as u64;
        rec.torn_bytes += recovery.torn_bytes;
        rec.prior_uncovered += rec.tail_valid_len;
        rec.tail_seq = seq;
        rec.tail_valid_len = recovery.valid_len;
        next = seq + 1;
        if recovery.torn_bytes > 0 {
            break; // a tear ends the trustworthy history
        }
    }
    Ok((system, rec))
}

/// Applies one logged record through the ordinary facade, checking that
/// deterministic id allocation re-derives what the log recorded.
fn replay(system: &ShardedBstSystem, record: &WalRecord) -> Result<(), DurableError> {
    match record {
        WalRecord::Create { id, keys } => {
            let got = system.create(keys.iter().copied())?;
            if got.raw() != *id {
                return Err(DurableError::ReplayDiverged {
                    expected: *id,
                    got: got.raw(),
                });
            }
        }
        WalRecord::InsertKeys { id, keys } => {
            system.insert_keys(FilterId::from_raw(*id), keys.iter().copied())?;
        }
        WalRecord::RemoveKeys { id, keys } => {
            system.remove_keys(FilterId::from_raw(*id), keys.iter().copied())?;
        }
        WalRecord::DropSet { id } => {
            system.drop_set(FilterId::from_raw(*id))?;
        }
        WalRecord::OccInsert { id } => {
            system.insert_occupied(*id)?;
        }
        WalRecord::OccRemove { id } => {
            system.remove_occupied(*id)?;
        }
    }
    Ok(())
}

impl DurableBstSystem {
    /// Opens (or creates) a durable engine rooted at `dir`.
    ///
    /// With a checkpoint on disk, `build` is never called: the engine is
    /// the checkpoint plus the replayed uncovered segments, torn tail
    /// truncated. On a fresh directory `build` supplies the initial
    /// engine, which is checkpointed immediately — from then on the
    /// directory always holds a checkpoint, so recovery never needs the
    /// builder again.
    pub fn open(
        dir: &Path,
        cfg: DurableConfig,
        build: impl FnOnce() -> ShardedBstSystem,
    ) -> Result<DurableBstSystem, DurableError> {
        std::fs::create_dir_all(dir)?;
        // A crash between staging and renaming a checkpoint strands the
        // temp file; it is never read, so sweep it.
        let _ = std::fs::remove_file(dir.join(CHECKPOINT_TMP));
        let had_checkpoint = dir.join(CHECKPOINT_FILE).exists();
        let (system, mut rec) = recover_state(dir, (!had_checkpoint).then(build))?;
        if !had_checkpoint {
            // First open of this directory: checkpoint the initial
            // engine, covering anything replayed, and start fresh.
            publish_checkpoint(
                dir,
                &wal::encode_checkpoint(rec.tail_seq, &system.to_bytes()),
            )?;
            rec.covered_seq = rec.tail_seq;
            rec.tail_seq += 1;
            rec.tail_valid_len = 0;
            rec.prior_uncovered = 0;
            rec.replayed = 0;
        }
        let wal = Wal::open(
            &segment_path(dir, rec.tail_seq),
            cfg.fsync,
            rec.tail_valid_len,
        )?;
        // Sweep segments recovery will never read again: covered ones a
        // crash kept from being unlinked, and anything past a tear/gap.
        for (seq, path) in list_segments(dir)? {
            if seq <= rec.covered_seq || seq > rec.tail_seq {
                let _ = std::fs::remove_file(path);
            }
        }
        // The log-less facade, with the recovered log installed.
        let mut durable = DurableBstSystem::in_memory(system);
        let obs = &durable.inner.obs;
        obs.replayed.set(rec.replayed as i64);
        obs.torn_bytes.set(rec.torn_bytes as i64);
        obs.log_bytes
            .set((rec.prior_uncovered + rec.tail_valid_len) as i64);
        *durable.inner.log.lock() = Some(LogState {
            dir: dir.to_path_buf(),
            cfg,
            wal,
            seq: rec.tail_seq,
            prior_uncovered: rec.prior_uncovered,
            since_checkpoint: rec.replayed,
        });
        if cfg.checkpoint_every > 0 {
            let (tx, rx) = std::sync::mpsc::channel();
            *durable.inner.signal.lock() = Some(tx);
            let worker = Arc::clone(&durable.inner);
            let handle = std::thread::Builder::new()
                .name("bst-wal-compactor".into())
                .spawn(move || compactor_loop(&worker, &rx))
                .map_err(DurableError::Io)?;
            durable.compactor = Some(handle);
        }
        Ok(durable)
    }

    /// The facade with no log behind it: mutations serialize on the log
    /// mutex but append nothing, [`Self::checkpoint`] is a no-op,
    /// [`Self::adopt`] only swaps the engine, [`Self::recover_from_disk`]
    /// fails with [`DurableError::NoLog`], and no compactor runs.
    pub fn in_memory(system: ShardedBstSystem) -> DurableBstSystem {
        DurableBstSystem {
            inner: Arc::new(DurableShared {
                engine: RwLock::new(system),
                log: Mutex::new(None),
                obs: WalObs::new(),
                signal: Mutex::new(None),
                checkpoint_error: Mutex::new(None),
                wedged: Mutex::new(None),
            }),
            compactor: None,
        }
    }

    /// A handle to the wrapped engine for read-side work (queries,
    /// batches, stats). Mutating *through this handle* bypasses the log
    /// — always mutate through the durable facade instead.
    pub fn system(&self) -> ShardedBstSystem {
        self.inner.engine.read().clone()
    }

    /// Whether a write-ahead log backs this facade (false exactly for
    /// [`Self::in_memory`]).
    pub fn is_logged(&self) -> bool {
        self.inner.log.lock().is_some()
    }

    /// The WAL instrumentation bundle (cloned handles share atomics).
    pub fn obs(&self) -> WalObs {
        self.inner.obs.clone()
    }

    /// The last background-checkpoint failure, if any.
    pub fn last_checkpoint_error(&self) -> Option<String> {
        self.inner.checkpoint_error.lock().clone()
    }

    /// Rejects mutations while the engine is ahead of the log (see
    /// [`DurableError::Wedged`]). Called with the log mutex held, so
    /// the check cannot race a reconciling checkpoint.
    fn ensure_unwedged(&self) -> Result<(), DurableError> {
        match self.inner.wedged.lock().as_ref() {
            Some(reason) => Err(DurableError::Wedged {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The one mutation path: under the log mutex, applies `apply` to
    /// the engine and — with a log — appends the record it returns
    /// before the caller acks.
    fn mutate<T>(
        &self,
        apply: impl FnOnce(&ShardedBstSystem) -> Result<(T, WalRecord), BstError>,
    ) -> Result<T, DurableError> {
        let mut log = self.inner.log.lock();
        self.ensure_unwedged()?;
        let engine = self.inner.engine.read().clone();
        let (out, record) = apply(&engine)?;
        if let Some(log) = log.as_mut() {
            self.append(log, record)?;
        }
        Ok(out)
    }

    /// Registers a set durably: applies, logs, then acks with the id.
    pub fn create<I: IntoIterator<Item = u64>>(&self, keys: I) -> Result<FilterId, DurableError> {
        let keys: Vec<u64> = keys.into_iter().collect();
        self.mutate(|engine| {
            let id = engine.create(keys.iter().copied())?;
            Ok((id, WalRecord::Create { id: id.raw(), keys }))
        })
    }

    /// Durable [`ShardedBstSystem::insert_keys`].
    pub fn insert_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<(), DurableError> {
        let keys: Vec<u64> = keys.into_iter().collect();
        self.mutate(|engine| {
            engine.insert_keys(id, keys.iter().copied())?;
            Ok(((), WalRecord::InsertKeys { id: id.raw(), keys }))
        })
    }

    /// Durable [`ShardedBstSystem::remove_keys`].
    pub fn remove_keys<I: IntoIterator<Item = u64>>(
        &self,
        id: FilterId,
        keys: I,
    ) -> Result<(), DurableError> {
        let keys: Vec<u64> = keys.into_iter().collect();
        self.mutate(|engine| {
            engine.remove_keys(id, keys.iter().copied())?;
            Ok(((), WalRecord::RemoveKeys { id: id.raw(), keys }))
        })
    }

    /// Durable [`ShardedBstSystem::drop_set`].
    pub fn drop_set(&self, id: FilterId) -> Result<(), DurableError> {
        self.mutate(|engine| {
            engine.drop_set(id)?;
            Ok(((), WalRecord::DropSet { id: id.raw() }))
        })
    }

    /// Durable [`ShardedBstSystem::insert_occupied`]. Returns the
    /// resulting tree generation of the owning shard.
    pub fn insert_occupied(&self, key: u64) -> Result<u64, DurableError> {
        self.mutate(|engine| {
            let generation = engine.insert_occupied(key)?;
            Ok((generation, WalRecord::OccInsert { id: key }))
        })
    }

    /// Durable [`ShardedBstSystem::remove_occupied`].
    pub fn remove_occupied(&self, key: u64) -> Result<u64, DurableError> {
        self.mutate(|engine| {
            let generation = engine.remove_occupied(key)?;
            Ok((generation, WalRecord::OccRemove { id: key }))
        })
    }

    /// Logs `record` under the held log mutex and updates the metrics
    /// bundle. An append failure is surfaced without acking — and since
    /// the mutation already applied in memory, it wedges the facade
    /// (see [`DurableError::Wedged`]) and kicks the compactor for the
    /// reconciling checkpoint.
    fn append(&self, log: &mut LogState, record: WalRecord) -> Result<(), DurableError> {
        let fsyncs_before = log.wal.fsyncs();
        if let Err(e) = log.wal.append(&record) {
            *self.inner.wedged.lock() = Some(e.to_string());
            self.kick_compactor();
            return Err(DurableError::Io(e));
        }
        log.since_checkpoint += 1;
        let obs = &self.inner.obs;
        obs.appended.inc();
        obs.fsyncs.add(log.wal.fsyncs() - fsyncs_before);
        obs.log_bytes
            .set((log.prior_uncovered + log.wal.len()) as i64);
        if log.cfg.checkpoint_every > 0 && log.since_checkpoint >= log.cfg.checkpoint_every {
            self.kick_compactor();
        }
        Ok(())
    }

    /// Wakes the compactor thread, if one is running. A closed channel
    /// means it already exited (shutdown); nothing to wake.
    fn kick_compactor(&self) {
        if let Some(tx) = self.inner.signal.lock().as_ref() {
            let _ = tx.send(Signal::Kick);
        }
    }

    /// Checkpoints now: encodes the engine (per-shard read locks only —
    /// concurrent queries proceed), rotates the log, and publishes the
    /// snapshot atomically. SAVE-over-the-wire maps here. Without a log
    /// there is nothing to publish, and this returns `Ok`.
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        match self.inner.log.lock().as_mut() {
            Some(log) => checkpoint_locked(&self.inner, log),
            None => Ok(()),
        }
    }

    /// Replaces the engine with `system`, making it the new durable
    /// state: the adopted engine is checkpointed and prior log segments
    /// retired (wire `LOAD` with an explicit snapshot maps here).
    /// Without a log this is the engine swap alone.
    pub fn adopt(&self, system: ShardedBstSystem) -> Result<(), DurableError> {
        let mut log = self.inner.log.lock();
        // Swap first: if the publish then fails partway, the rename may
        // or may not have landed, so memory and disk could disagree —
        // wedge, and the next successful checkpoint (which snapshots
        // the adopted in-memory engine) republishes either way.
        *self.inner.engine.write() = system.clone();
        let Some(log) = log.as_mut() else {
            return Ok(());
        };
        if let Err(e) = publish_and_rotate(&self.inner, log, &system.to_bytes()) {
            *self.inner.wedged.lock() =
                Some(format!("adopt could not publish its checkpoint: {e}"));
            self.kick_compactor();
            return Err(e);
        }
        Ok(())
    }

    /// Re-runs recovery from disk — newest checkpoint + uncovered
    /// segment replay — and swaps the recovered engine in (wire `LOAD`
    /// with an empty body maps here). The log keeps its acked tail:
    /// recovery is read-only on disk state. Clears a wedge, if any: the
    /// swapped-in engine equals checkpoint + every logged record, so an
    /// unlogged (never acked) mutation is rolled back here. Without a
    /// log this fails with [`DurableError::NoLog`].
    pub fn recover_from_disk(&self) -> Result<ShardedBstSystem, DurableError> {
        let mut guard = self.inner.log.lock();
        let log = guard.as_mut().ok_or(DurableError::NoLog)?;
        // No fallback: open() guarantees a checkpoint exists from the
        // moment the directory is created, so a missing one is an error.
        let (system, rec) = recover_state(&log.dir, None)?;
        self.inner.obs.replayed.set(rec.replayed as i64);
        self.inner.obs.torn_bytes.set(rec.torn_bytes as i64);
        log.since_checkpoint = rec.replayed;
        *self.inner.wedged.lock() = None;
        *self.inner.engine.write() = system.clone();
        Ok(system)
    }
}

/// The shared checkpoint body: runs with the log mutex held, so no
/// mutation can ack between the snapshot encode and the rotation
/// (records covered by the checkpoint are exactly the records in the
/// rotated-away segments). On success a wedge is cleared — the snapshot
/// included any unlogged mutation, so log and engine agree again.
fn checkpoint_locked(shared: &DurableShared, log: &mut LogState) -> Result<(), DurableError> {
    let started = Instant::now();
    let engine = shared.engine.read().clone();
    let bytes = engine.to_bytes();
    publish_and_rotate(shared, log, &bytes)?;
    let obs = &shared.obs;
    obs.checkpoints.inc();
    obs.last_checkpoint_us
        .set(started.elapsed().as_micros().min(i64::MAX as u128) as i64);
    Ok(())
}

/// The atomic checkpoint transition, with the log mutex held:
///
/// 1. rotate — appends move to a fresh segment the snapshot does not
///    cover;
/// 2. publish — the checkpoint lands via `rename(2)`, naming the
///    rotated-away segment as covered (this is the commit point: from
///    here recovery ignores the old segments, unlinked or not);
/// 3. retire — covered segments are unlinked, best-effort (a crash or
///    failure here leaves stale files recovery skips by sequence and
///    the next open sweeps).
///
/// An error between steps is equally safe: after a failed publish the
/// old checkpoint still covers exactly the old segments and replaying
/// them (plus the fresh, possibly now-appended segment) reproduces the
/// snapshot state, so appends continue and the next checkpoint retries.
fn publish_and_rotate(
    shared: &DurableShared,
    log: &mut LogState,
    snapshot: &[u8],
) -> Result<(), DurableError> {
    let covered = log.seq;
    let next_wal = Wal::open(&segment_path(&log.dir, covered + 1), log.cfg.fsync, 0)?;
    log.prior_uncovered += log.wal.len();
    log.wal = next_wal;
    log.seq = covered + 1;
    publish_checkpoint(&log.dir, &wal::encode_checkpoint(covered, snapshot))?;
    log.prior_uncovered = 0;
    log.since_checkpoint = 0;
    *shared.wedged.lock() = None;
    if let Ok(segments) = list_segments(&log.dir) {
        for (seq, path) in segments {
            if seq <= covered {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    shared.obs.log_bytes.set(0);
    Ok(())
}

/// Background compactor: waits for kicks from the append path and
/// checkpoints when a kick finds the cadence due. Every append past
/// `checkpoint_every` queues a kick, so after a checkpoint the queue
/// can still hold several; they find `since_checkpoint` below the
/// cadence and skip cheaply instead of checkpointing again over the few
/// records that landed since. Failures leave the previous checkpoint
/// valid and are surfaced through
/// [`DurableBstSystem::last_checkpoint_error`].
fn compactor_loop(shared: &DurableShared, rx: &std::sync::mpsc::Receiver<Signal>) {
    loop {
        match rx.recv() {
            Ok(Signal::Kick) => {}
            // Stop, or every sender dropped: either way, shut down.
            Ok(Signal::Stop) | Err(_) => return,
        }
        let mut guard = shared.log.lock();
        // Only a logged facade starts a compactor; stay total anyway.
        let Some(log) = guard.as_mut() else {
            return;
        };
        // A checkpoint (an earlier kick's, or a manual one) may have
        // run since this kick was sent — but a wedged facade needs its
        // reconciling checkpoint regardless.
        if log.since_checkpoint < log.cfg.checkpoint_every && shared.wedged.lock().is_none() {
            continue;
        }
        let outcome = checkpoint_locked(shared, log);
        drop(guard);
        *shared.checkpoint_error.lock() = outcome.err().map(|e| e.to_string());
    }
}

impl Drop for DurableBstSystem {
    fn drop(&mut self) {
        if let Some(handle) = self.compactor.take() {
            if let Some(tx) = self.inner.signal.lock().take() {
                let _ = tx.send(Signal::Stop);
            }
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bst-durable-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn manual_only() -> DurableConfig {
        DurableConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        }
    }

    fn base() -> ShardedBstSystem {
        ShardedBstSystem::builder(1_024)
            .shards(2)
            .expected_set_size(16)
            .seed(3)
            .build()
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_seq("wal.00000001.log"), Some(1));
        assert_eq!(segment_seq("wal.12345678901.log"), Some(12_345_678_901));
        let path = segment_path(Path::new("/d"), 42);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap();
        assert_eq!(segment_seq(name), Some(42));
        assert_eq!(segment_seq("wal.log"), None);
        assert_eq!(segment_seq("checkpoint.bst"), None);
        assert_eq!(segment_seq("wal..log"), None);
    }

    /// The medium-severity review fix: once a mutation applies in
    /// memory but misses the log, the facade must refuse every further
    /// mutation (their records would presuppose unlogged state) until a
    /// checkpoint — whose snapshot includes the unlogged mutation —
    /// reconciles log and engine.
    #[test]
    fn wedged_facade_rejects_mutations_until_a_checkpoint_reconciles() {
        let dir = scratch("wedge-checkpoint");
        let durable = DurableBstSystem::open(&dir, manual_only(), base).unwrap();
        let id = durable.create([1u64, 2]).unwrap();
        // Engine-ahead-of-log, exactly what a failed append leaves
        // behind: the mutation is in memory, no record was written.
        durable.system().insert_keys(id, [7u64]).unwrap();
        *durable.inner.wedged.lock() = Some("injected: append failed".into());

        assert!(matches!(
            durable.insert_keys(id, [9u64]),
            Err(DurableError::Wedged { .. })
        ));
        assert!(matches!(
            durable.create([5u64]),
            Err(DurableError::Wedged { .. })
        ));
        assert!(matches!(
            durable.remove_occupied(3),
            Err(DurableError::Wedged { .. })
        ));
        // Queries keep serving while wedged.
        assert!(durable.system().query_id(id).is_ok());

        durable.checkpoint().unwrap();
        assert!(durable.inner.wedged.lock().is_none());
        durable.insert_keys(id, [9u64]).unwrap();

        // Recovery lands on the reconciled state, unlogged key included.
        let live = durable.system().to_bytes();
        drop(durable);
        let reopened =
            DurableBstSystem::open(&dir, manual_only(), || panic!("must recover")).unwrap();
        assert_eq!(reopened.system().to_bytes(), live);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The other way out of a wedge: disk recovery rolls the engine
    /// back to the acked history and unwedges.
    #[test]
    fn recover_from_disk_rolls_back_the_unlogged_mutation_and_unwedges() {
        let dir = scratch("wedge-recover");
        let durable = DurableBstSystem::open(&dir, manual_only(), base).unwrap();
        let id = durable.create([1u64, 2]).unwrap();
        let acked = durable.system().to_bytes();
        durable.system().insert_keys(id, [7u64]).unwrap();
        *durable.inner.wedged.lock() = Some("injected: append failed".into());

        let recovered = durable.recover_from_disk().unwrap();
        assert_eq!(recovered.to_bytes(), acked, "unlogged mutation rolled back");
        assert!(durable.inner.wedged.lock().is_none());
        durable.insert_keys(id, [9u64]).unwrap();
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint and segment files directly inside `dir`.
    fn wal_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("checkpoint.") || segment_seq(n).is_some())
            .collect()
    }

    /// Every append past the cadence queues a kick; the queued kicks
    /// left over after a checkpoint must not checkpoint again over the
    /// handful of records that landed since.
    #[test]
    fn compactor_checkpoints_once_per_cadence_not_once_per_queued_kick() {
        let dir = scratch("compactor-cadence");
        let every = 16u64;
        let cfg = DurableConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: every,
        };
        let durable = DurableBstSystem::open(&dir, cfg, base).unwrap();
        let id = durable.create([1u64]).unwrap();
        for key in 2..=3 * every {
            durable.insert_keys(id, [key]).unwrap();
        }
        let obs = durable.obs();
        assert_eq!(obs.appended.get(), 3 * every);
        let acked = durable.system().to_bytes();
        // Dropping stops the compactor after it drained every queued kick.
        drop(durable);
        let checkpoints = obs.checkpoints.get();
        assert!(
            checkpoints <= 3,
            "{checkpoints} checkpoints for {} records at cadence {every}",
            3 * every
        );
        let reopened = DurableBstSystem::open(&dir, cfg, || panic!("must recover")).unwrap();
        assert_eq!(reopened.system().to_bytes(), acked);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same bug, made deterministic: kicks the append path queued
    /// during a checkpoint arrive after it, with one record landed since.
    #[test]
    fn stale_kicks_after_a_checkpoint_do_not_checkpoint_again() {
        let dir = scratch("compactor-stale-kicks");
        let every = 4u64;
        let cfg = DurableConfig {
            fsync: FsyncPolicy::Never,
            checkpoint_every: every,
        };
        let durable = DurableBstSystem::open(&dir, cfg, base).unwrap();
        let id = durable.create([1u64]).unwrap();
        for key in 2..=every {
            durable.insert_keys(id, [key]).unwrap();
        }
        let obs = durable.obs();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while obs.checkpoints.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(obs.checkpoints.get(), 1, "the cadence checkpoint ran");
        durable.insert_keys(id, [100u64]).unwrap();
        durable.kick_compactor();
        durable.kick_compactor();
        let acked = durable.system().to_bytes();
        drop(durable);
        assert_eq!(obs.checkpoints.get(), 1, "stale kicks checkpointed again");
        let reopened = DurableBstSystem::open(&dir, cfg, || panic!("must recover")).unwrap();
        assert_eq!(reopened.system().to_bytes(), acked);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_checkpoint_is_ok_and_writes_nothing() {
        let dirs = [std::env::current_dir().unwrap(), std::env::temp_dir()];
        let before: Vec<_> = dirs.iter().map(|d| wal_files(d)).collect();
        let durable = DurableBstSystem::in_memory(base());
        assert!(!durable.is_logged());
        durable.create([1u64, 2]).unwrap();
        durable.checkpoint().unwrap();
        let after: Vec<_> = dirs.iter().map(|d| wal_files(d)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn in_memory_recover_from_disk_is_a_typed_error() {
        let durable = DurableBstSystem::in_memory(base());
        let id = durable.create([4u64]).unwrap();
        assert!(matches!(
            durable.recover_from_disk(),
            Err(DurableError::NoLog)
        ));
        // The engine is untouched by the refused recovery.
        assert_eq!(durable.system().ids(), vec![id]);
    }

    #[test]
    fn in_memory_adopt_swaps_the_engine() {
        let durable = DurableBstSystem::in_memory(base());
        durable.create([1u64, 2, 3]).unwrap();
        let fresh = base();
        let fresh_bytes = fresh.to_bytes();
        durable.adopt(fresh).unwrap();
        assert_eq!(durable.system().len(), 0);
        assert_eq!(durable.system().to_bytes(), fresh_bytes);
        // Mutations land in the adopted engine.
        let id = durable.create([9u64]).unwrap();
        assert_eq!(durable.system().ids(), vec![id]);
    }

    #[test]
    fn in_memory_mutations_never_wedge_and_obs_stays_zero() {
        let durable = DurableBstSystem::in_memory(base());
        let id = durable.create([1u64, 2]).unwrap();
        durable.insert_keys(id, [7u64]).unwrap();
        durable.remove_keys(id, [1u64]).unwrap();
        durable.remove_occupied(5).unwrap();
        durable.insert_occupied(5).unwrap();
        // An engine rejection stays an engine error and leaves the
        // facade serving mutations.
        let gone = FilterId::from_raw(999);
        assert!(matches!(
            durable.drop_set(gone),
            Err(DurableError::Engine(BstError::UnknownFilterId(_)))
        ));
        durable.drop_set(id).unwrap();
        durable.create([3u64]).unwrap();
        durable.checkpoint().unwrap();
        assert!(durable.inner.wedged.lock().is_none());
        let obs = durable.obs();
        assert_eq!(obs.appended.get(), 0);
        assert_eq!(obs.fsyncs.get(), 0);
        assert_eq!(obs.checkpoints.get(), 0);
        assert_eq!(obs.replayed.get(), 0);
        assert_eq!(obs.torn_bytes.get(), 0);
        assert_eq!(obs.last_checkpoint_us.get(), 0);
        assert_eq!(obs.log_bytes.get(), 0);
    }
}
