//! bst-wal: an append-only log of replayable mutation records.
//!
//! Snapshots ([`crate::persistence`]) are full-system and synchronous —
//! fine for a build artifact, hopeless for the §5.2 occupancy churn the
//! paper targets. The WAL closes the gap: every acked mutation appends
//! one small record *before* the ack, and recovery is the newest
//! checkpoint plus a tail replay of the log through the ordinary engine
//! API, landing on a state whose queries are bit-identical to the
//! uncrashed engine (the snapshot codec is byte-deterministic and the
//! engine's id allocation is a deterministic function of prior state).
//!
//! ## On-disk format
//!
//! Little-endian throughout, like every codec in the workspace:
//!
//! ```text
//! frame:  len u32 | checksum u64 (FNV-1a over payload) | payload
//! payload: op u8 | body
//!   1 Create     id u64 | key_count u32 | keys u64…
//!   2 InsertKeys id u64 | key_count u32 | keys u64…
//!   3 RemoveKeys id u64 | key_count u32 | keys u64…
//!   4 DropSet    id u64
//!   5 OccInsert  id u64
//!   6 OccRemove  id u64
//! ```
//!
//! A checkpoint file ([`checkpoint_header`] then the snapshot) is
//! `BSTCKPT1 | covered_seq u64 LE | snapshot`: the embedded sequence
//! number names the newest log segment the snapshot covers, so recovery
//! replays only strictly newer segments and a complete-but-stale
//! segment lying next to a fresh checkpoint is skipped, never
//! double-applied.
//!
//! A crash mid-append leaves a **torn tail**: a final frame whose
//! length, checksum, or payload is incomplete or inconsistent.
//! [`recover`] replays the longest valid prefix and reports where it
//! ends; the opener truncates the file there, so an un-acked torn write
//! disappears exactly as if it never happened. Nothing after a bad
//! frame is trusted — a corrupt length can desynchronise every later
//! frame boundary, so scanning past it would fabricate records.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy::Always`] pays one `fdatasync` per acked mutation,
//! plus one directory fsync when [`Wal::open`] creates a log file
//! (power-loss durable); [`FsyncPolicy::Never`] leaves flushing to the
//! OS page cache (process-crash durable, power-loss window). Both
//! policies survive SIGKILL of the process, which is what the CI smoke
//! test exercises.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};

/// When the log file is flushed to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Leave flushing to the OS: durable across process crashes
    /// (SIGKILL), a bounded loss window across power failure.
    #[default]
    Never,
    /// `fdatasync` before every ack: durable across power failure.
    Always,
}

/// One replayable mutation, exactly the engine's own mutation surface:
/// store set operations plus §5.2 occupancy deltas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// `create(keys)` acked with the allocated set id. Replay re-derives
    /// the same id (allocation is deterministic given prior state); the
    /// recorded id double-checks the replay didn't diverge.
    Create {
        /// The id the live engine allocated.
        id: u64,
        /// The created set's keys, in the order the engine saw them.
        keys: Vec<u64>,
    },
    /// `insert_keys(id, keys)`.
    InsertKeys {
        /// Target set id.
        id: u64,
        /// Inserted keys, in call order.
        keys: Vec<u64>,
    },
    /// `remove_keys(id, keys)`.
    RemoveKeys {
        /// Target set id.
        id: u64,
        /// Removed keys, in call order.
        keys: Vec<u64>,
    },
    /// `drop_set(id)`.
    DropSet {
        /// Dropped set id.
        id: u64,
    },
    /// `insert_occupied(id)` — §5.2 namespace occupancy insertion.
    OccInsert {
        /// Namespace id marked occupied.
        id: u64,
    },
    /// `remove_occupied(id)` — §5.2 occupancy removal.
    OccRemove {
        /// Namespace id removed from the occupancy.
        id: u64,
    },
}

/// Frame header size: `len u32 | checksum u64`.
const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on one payload (64 MiB): a length field beyond this is
/// treated as tail corruption, never as an allocation request.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// File-growth step (256 KiB): appends land inside preallocated space,
/// so the per-record `write(2)` does not also extend the file.
const PREALLOC_CHUNK: u64 = 256 << 10;

const OP_CREATE: u8 = 1;
const OP_INSERT_KEYS: u8 = 2;
const OP_REMOVE_KEYS: u8 = 3;
const OP_DROP_SET: u8 = 4;
const OP_OCC_INSERT: u8 = 5;
const OP_OCC_REMOVE: u8 = 6;

/// FNV-1a over `bytes` — tiny, dependency-free, and plenty to detect
/// torn or bit-rotted frames (this guards against accidents, not
/// adversaries; snapshots get the same trust level).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_keys(buf: &mut BytesMut, keys: &[u64]) -> io::Result<()> {
    let count = u32::try_from(keys.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many keys for one record"))?;
    buf.put_u32_le(count);
    for &k in keys {
        buf.put_u64_le(k);
    }
    Ok(())
}

fn get_keys(input: &mut &[u8]) -> Option<Vec<u64>> {
    if input.remaining() < 4 {
        return None;
    }
    let count = input.get_u32_le() as usize;
    if (input.remaining() as u64) < (count as u64) * 8 {
        return None;
    }
    let mut keys = Vec::with_capacity(count.min(input.remaining() / 8));
    for _ in 0..count {
        keys.push(input.get_u64_le());
    }
    Some(keys)
}

/// Serializes one record's payload (op byte + body) into `buf`.
pub fn encode_payload(buf: &mut BytesMut, record: &WalRecord) -> io::Result<()> {
    match record {
        WalRecord::Create { id, keys } => {
            buf.put_u8(OP_CREATE);
            buf.put_u64_le(*id);
            put_keys(buf, keys)?;
        }
        WalRecord::InsertKeys { id, keys } => {
            buf.put_u8(OP_INSERT_KEYS);
            buf.put_u64_le(*id);
            put_keys(buf, keys)?;
        }
        WalRecord::RemoveKeys { id, keys } => {
            buf.put_u8(OP_REMOVE_KEYS);
            buf.put_u64_le(*id);
            put_keys(buf, keys)?;
        }
        WalRecord::DropSet { id } => {
            buf.put_u8(OP_DROP_SET);
            buf.put_u64_le(*id);
        }
        WalRecord::OccInsert { id } => {
            buf.put_u8(OP_OCC_INSERT);
            buf.put_u64_le(*id);
        }
        WalRecord::OccRemove { id } => {
            buf.put_u8(OP_OCC_REMOVE);
            buf.put_u64_le(*id);
        }
    }
    Ok(())
}

/// Decodes one payload. `None` means the payload is not a well-formed
/// record (unknown op, short body, trailing bytes) — recovery treats
/// that as tail corruption.
pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut input = payload;
    if input.remaining() < 1 + 8 {
        return None;
    }
    let op = input.get_u8();
    let id = input.get_u64_le();
    let record = match op {
        OP_CREATE => WalRecord::Create {
            id,
            keys: get_keys(&mut input)?,
        },
        OP_INSERT_KEYS => WalRecord::InsertKeys {
            id,
            keys: get_keys(&mut input)?,
        },
        OP_REMOVE_KEYS => WalRecord::RemoveKeys {
            id,
            keys: get_keys(&mut input)?,
        },
        OP_DROP_SET => WalRecord::DropSet { id },
        OP_OCC_INSERT => WalRecord::OccInsert { id },
        OP_OCC_REMOVE => WalRecord::OccRemove { id },
        _ => return None,
    };
    if !input.is_empty() {
        return None;
    }
    Some(record)
}

/// Magic prefixing a checkpoint file: format identifier plus revision.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"BSTCKPT1";

/// Checkpoint header size: magic + covered segment sequence (`u64 LE`).
const CHECKPOINT_HEADER: usize = 8 + 8;

/// The header of a checkpoint file: the magic, then the sequence number
/// of the newest log segment the snapshot that follows covers (recovery
/// replays only strictly newer segments). The snapshot is encoded
/// straight after it into the same buffer
/// (`ShardedBstSystem::to_bytes_with_header`). The embedded sequence is
/// what makes checkpoint-plus-truncation a single atomic transition:
/// publishing the checkpoint *is* the truncation, because covered
/// segments stop being replayed the instant the rename lands, whether
/// or not their files have been unlinked yet.
pub fn checkpoint_header(covered_seq: u64) -> [u8; CHECKPOINT_HEADER] {
    let mut header = [0u8; CHECKPOINT_HEADER];
    header[..CHECKPOINT_MAGIC.len()].copy_from_slice(CHECKPOINT_MAGIC);
    header[CHECKPOINT_MAGIC.len()..].copy_from_slice(&covered_seq.to_le_bytes());
    header
}

/// Splits a checkpoint file into its covered-segment sequence number
/// and the snapshot bytes. Borrows the input — the decode path
/// allocates nothing; a short header or wrong magic is `InvalidData`.
pub fn decode_checkpoint(bytes: &[u8]) -> io::Result<(u64, &[u8])> {
    let mut input = bytes;
    if input.remaining() < CHECKPOINT_HEADER || &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a bst checkpoint file (short header or bad magic)",
        ));
    }
    input.advance(CHECKPOINT_MAGIC.len());
    let covered = input.get_u64_le();
    Ok((covered, input))
}

/// What [`recover`] found in a log file: the longest valid record
/// prefix, where it ends, and how many torn/corrupt bytes follow it.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset where the valid prefix ends — the opener truncates
    /// the file here before appending again.
    pub valid_len: u64,
    /// Bytes after `valid_len` (a torn or corrupt tail; 0 when clean).
    pub torn_bytes: u64,
}

/// Reads `path` and replays its longest valid prefix. A missing file is
/// an empty log, not an error; scanning stops at the first frame whose
/// length, checksum, or payload doesn't hold up.
pub fn recover(path: &Path) -> io::Result<Recovery> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(e),
    };
    let mut input: &[u8] = &bytes;
    let mut recovery = Recovery::default();
    while input.remaining() >= FRAME_HEADER {
        let mut frame = input;
        let len = frame.get_u32_le() as usize;
        if len == 0 || len > MAX_RECORD_BYTES || frame.remaining() < 8 + len {
            break;
        }
        let checksum = frame.get_u64_le();
        let payload = &frame[..len];
        if fnv1a64(payload) != checksum {
            break;
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        recovery.records.push(record);
        input.advance(FRAME_HEADER + len);
        recovery.valid_len += (FRAME_HEADER + len) as u64;
    }
    recovery.torn_bytes = bytes.len() as u64 - recovery.valid_len;
    Ok(recovery)
}

/// An open log file positioned for appending.
///
/// Not internally synchronised: the durable engine serialises appends
/// under its own lock so log order always equals application order
/// (replay determinism depends on it).
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync: FsyncPolicy,
    len: u64,
    appended: u64,
    fsyncs: u64,
    /// Reused payload/frame buffers: the append hot path does exactly
    /// one `write(2)` and zero steady-state allocations.
    payload_buf: BytesMut,
    frame_buf: BytesMut,
    /// Physical file size: the file is grown in [`PREALLOC_CHUNK`]
    /// steps so steady-state appends land inside already-allocated
    /// space instead of extending the file on every write. The zeroed
    /// slack past `len` is indistinguishable from a torn tail to
    /// [`recover`] (a zero length prefix can never carry the FNV of an
    /// empty payload), so it is dropped on reopen like any other tail.
    allocated: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Wal({:?}, {} bytes, {:?})",
            self.path, self.len, self.fsync
        )
    }
}

impl Wal {
    /// Opens (creating if needed) the log at `path`, truncated to
    /// `valid_len` — pass [`Recovery::valid_len`] so a torn tail is
    /// physically removed before the first new append lands after it.
    /// Under [`FsyncPolicy::Always`] a newly created log also has its
    /// directory fsynced before it is returned: an append's `fdatasync`
    /// flushes the file but not its directory entry, so without this a
    /// power failure could drop a fresh log with every record acked in
    /// it.
    pub fn open(path: &Path, fsync: FsyncPolicy, valid_len: u64) -> io::Result<Wal> {
        let created = !path.try_exists()?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if created && fsync == FsyncPolicy::Always {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            fsync,
            len: valid_len,
            appended: 0,
            fsyncs: 0,
            payload_buf: BytesMut::new(),
            frame_buf: BytesMut::new(),
            allocated: valid_len,
        })
    }

    /// Appends one record frame, flushing per the fsync policy. On
    /// success the record is durable (to the policy's level) and may be
    /// acked; on failure the caller must surface the error without
    /// acking — the tail is rewound so a partial frame can't linger as
    /// valid-looking garbage.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.payload_buf.clear();
        encode_payload(&mut self.payload_buf, record)?;
        let payload = &self.payload_buf;
        if payload.len() > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds MAX_RECORD_BYTES",
            ));
        }
        self.frame_buf.clear();
        let frame = &mut self.frame_buf;
        frame.put_u32_le(payload.len() as u32);
        frame.put_u64_le(fnv1a64(payload));
        frame.put_slice(payload);
        let end = self.len + self.frame_buf.len() as u64;
        if end > self.allocated {
            let grown = end.max(self.allocated + PREALLOC_CHUNK);
            self.file.set_len(grown)?;
            self.allocated = grown;
        }
        let frame = &self.frame_buf;
        if let Err(e) = self.file.write_all(frame) {
            // Best-effort rewind: recovery would drop a half-written
            // frame anyway (bad length/checksum), this just keeps the
            // in-process file position consistent.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            self.allocated = self.len;
            return Err(e);
        }
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
            self.fsyncs += 1;
        }
        self.len += frame.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Flushes the file to stable storage regardless of policy (used at
    /// checkpoint boundaries).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Empties the log — every record so far is covered by a checkpoint.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.len = 0;
        self.allocated = 0;
        Ok(())
    }

    /// Current byte length of the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records appended through this handle since open.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Fsyncs issued through this handle since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The log's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Wal {
    /// Best-effort trim of preallocated slack: a cleanly closed log is
    /// exactly its frames. A crash skips this — recovery treats the
    /// zeroed slack as a torn tail and the next open truncates it.
    fn drop(&mut self) {
        if self.allocated > self.len {
            let _ = self.file.set_len(self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "bst-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        path
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Create {
                id: 0,
                keys: vec![1, 5, 9],
            },
            WalRecord::InsertKeys {
                id: 0,
                keys: vec![42],
            },
            WalRecord::OccInsert { id: 7 },
            WalRecord::RemoveKeys {
                id: 0,
                keys: vec![5, 1],
            },
            WalRecord::OccRemove { id: 7 },
            WalRecord::Create {
                id: 1,
                keys: vec![],
            },
            WalRecord::DropSet { id: 0 },
        ]
    }

    #[test]
    fn append_recover_roundtrip() {
        let path = temp_log("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        assert_eq!(wal.appended(), 7);
        drop(wal);
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records, sample_records());
        assert_eq!(recovery.torn_bytes, 0);
        assert_eq!(
            recovery.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "clean log: every byte is part of a valid frame"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_log("missing");
        let _ = std::fs::remove_file(&path);
        let recovery = recover(&path).unwrap();
        assert!(recovery.records.is_empty());
        assert_eq!((recovery.valid_len, recovery.torn_bytes), (0, 0));
    }

    #[test]
    fn torn_tail_truncates_at_every_cut_point() {
        // Whatever byte the crash landed on, recovery keeps exactly the
        // records whose frames are fully intact and reports the rest as
        // torn — never an error, never a fabricated record.
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
        let records = sample_records();
        let mut ends = Vec::new();
        for r in &records {
            wal.append(r).unwrap();
            ends.push(wal.len());
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let recovery = recover(&path).unwrap();
            let intact = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(recovery.records, records[..intact], "cut at {cut}");
            assert_eq!(
                recovery.valid_len,
                ends.get(intact.wrapping_sub(1)).copied().unwrap_or(0)
            );
            assert_eq!(recovery.torn_bytes, cut as u64 - recovery.valid_len);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_or_opcode_stops_the_scan() {
        let path = temp_log("corrupt");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
        let records = sample_records();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Flip one payload byte in the third frame: frames 1–2 survive,
        // everything from the flip on is dropped.
        let mut bent = full.clone();
        let third_payload = {
            let mut off = 0usize;
            for _ in 0..2 {
                let len = u32::from_le_bytes(bent[off..off + 4].try_into().unwrap()) as usize;
                off += FRAME_HEADER + len;
            }
            off + FRAME_HEADER
        };
        bent[third_payload] ^= 0xFF;
        std::fs::write(&path, &bent).unwrap();
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records, records[..2]);
        assert_eq!(
            recovery.valid_len,
            third_payload as u64 - FRAME_HEADER as u64
        );
        // A zero/oversized length field is corruption, not an alloc.
        let mut zeroed = full.clone();
        zeroed[0..4].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &zeroed).unwrap();
        assert!(recover(&path).unwrap().records.is_empty());
        let mut huge = full;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(recover(&path).unwrap().records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_the_torn_tail_and_resumes() {
        let path = temp_log("resume");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Always, 0).unwrap();
        wal.append(&WalRecord::OccInsert { id: 3 }).unwrap();
        let clean = wal.len();
        assert!(wal.fsyncs() >= 1, "Always policy fsyncs per append");
        drop(wal);
        // Simulate a torn append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&path, &bytes).unwrap();
        let recovery = recover(&path).unwrap();
        assert_eq!((recovery.valid_len, recovery.torn_bytes), (clean, 5));
        let mut wal = Wal::open(&path, FsyncPolicy::Never, recovery.valid_len).unwrap();
        wal.append(&WalRecord::OccRemove { id: 3 }).unwrap();
        drop(wal);
        let recovery = recover(&path).unwrap();
        assert_eq!(
            recovery.records,
            vec![
                WalRecord::OccInsert { id: 3 },
                WalRecord::OccRemove { id: 3 }
            ]
        );
        assert_eq!(recovery.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_header_roundtrips_and_rejects_garbage() {
        let snapshot = b"engine snapshot bytes".to_vec();
        let encoded = [&checkpoint_header(41)[..], &snapshot].concat();
        let (covered, body) = decode_checkpoint(&encoded).unwrap();
        assert_eq!(covered, 41);
        assert_eq!(body, &snapshot[..]);
        // Empty snapshots are legal (header only).
        let header_only = checkpoint_header(0);
        let (covered, body) = decode_checkpoint(&header_only).unwrap();
        assert_eq!((covered, body.len()), (0, 0));
        // Short header, wrong magic, raw snapshot bytes: all rejected.
        assert!(decode_checkpoint(&encoded[..15]).is_err());
        assert!(decode_checkpoint(b"NOTCKPT0________body").is_err());
        assert!(decode_checkpoint(&snapshot).is_err());
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = temp_log("truncate");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never, 0).unwrap();
        wal.append(&WalRecord::DropSet { id: 9 }).unwrap();
        assert!(!wal.is_empty());
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // Appends keep working after a truncate.
        wal.append(&WalRecord::OccInsert { id: 1 }).unwrap();
        drop(wal);
        assert_eq!(
            recover(&path).unwrap().records,
            vec![WalRecord::OccInsert { id: 1 }]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
