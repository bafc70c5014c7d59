//! The write-ahead log: checksummed, length-prefixed records plus
//! dual-slot checkpoints, over the [`StorageMedium`] seam.
//!
//! Record format (one per committed operation):
//!
//! ```text
//! +----------+----------+---------------------------+
//! | len u32le| crc u32le| payload = ci u64le || op  |
//! +----------+----------+---------------------------+
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. Replay walks records from
//! the front and stops — without panicking — at the first record that
//! is short, torn, fails its checksum, or does not decode: everything
//! from there on is an unsynced tail a crash was allowed to destroy.
//!
//! Checkpoints use two slots written alternately: a new checkpoint is
//! written (truncate slot, append `magic || len || crc || snapshot`,
//! sync) to the slot *not* holding the last good checkpoint, and only
//! after that sync succeeds is the log truncated. A crash at any point
//! leaves at least one valid checkpoint on disk; recovery picks the
//! slot with the higher commit index and replays the log tail past it.
//! A checkpoint is due ([`Wal::checkpoint_due`]) once
//! [`WalConfig::checkpoint_every`] records *and* as many log bytes as
//! the previous checkpoint's snapshot have been appended since it, so
//! a steady store's checkpoints write no more than its log does and
//! recovery replays at most about one snapshot's worth of records. A
//! recovery that stopped at a torn tail leaves those bytes in the log:
//! until the next checkpoint truncates them, appended records are held
//! back (never written behind them, never reported durable).
//!
//! Durability tracking: [`Wal::append_batch`] encodes the records of
//! one cast into one buffer and tries to flush it (one medium append,
//! then fsync by group commit — the sync runs once
//! [`WalConfig::sync_every`] *records* sit unsynced, or on any forced
//! [`Wal::flush`]); [`Wal::append`] is its one-record case. The bytes
//! are the same however the records were grouped, so recovery never
//! sees a batch. The caller may only acknowledge a client once
//! [`Wal::durable_ci`] covers the operation's commit index — records
//! stuck behind an injected short write or fsync failure are retried on
//! the next flush, and a successful checkpoint also makes them durable
//! (the snapshot supersedes the log).

use crate::proto::{decode_op, encode_op, encoded_op_len, KvOp, MAX_FRAME};
use crate::storage::StorageMedium;
use crate::store::KvStore;
use std::collections::VecDeque;
use std::io::{Error, ErrorKind, Result};

/// Slot header magic: "KVCP".
const CKPT_MAGIC: u32 = 0x4B56_4350;
/// Record header: len + crc.
const REC_HDR: usize = 8;
/// Slot header: magic + len + crc.
const SLOT_HDR: usize = 12;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Eight steps of the bit-at-a-time CRC: the definition the tables
/// are built from.
const fn crc_shift_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after byte
/// `b` and then `k` zero bytes, so eight input bytes fold into the
/// register with eight independent look-ups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc_shift_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3), slice-by-8: dependency-free, and fast enough
/// that checksumming a checkpoint's whole snapshot is not what the
/// apply thread spends its time on.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][hi as u8 as usize]
            ^ t[2][(hi >> 8) as u8 as usize]
            ^ t[1][(hi >> 16) as u8 as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// WAL tuning.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Take a checkpoint after this many appended records — or later,
    /// once the log has also grown by the previous snapshot's size (see
    /// [`Wal::checkpoint_due`]).
    pub checkpoint_every: u64,
    /// Group commit: sync only once this many records are written but
    /// unsynced (1 = sync on every append). A forced [`Wal::flush`] —
    /// which the replica issues on idle ticks — syncs regardless, so
    /// batching bounds ack latency by the idle-tick period, not by
    /// traffic. Larger batches amortize fsync and leave a realistic
    /// unsynced tail for a crash to tear.
    pub sync_every: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            checkpoint_every: 256,
            sync_every: 1,
        }
    }
}

/// What recovery found.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The recovered state machine.
    pub store: KvStore,
    /// Commit index of the checkpoint recovery started from (0 = none).
    pub checkpoint_ci: u64,
    /// Log records replayed past the checkpoint.
    pub replayed: u64,
    /// Records skipped because the checkpoint already covered them
    /// (a crash raced the post-checkpoint log truncation).
    pub skipped: u64,
    /// Torn/short/corrupt tail records the replay stopped at (0 or 1
    /// per recovery; counted so the chaos harness can assert tearing
    /// actually happened).
    pub torn_tail_records: u64,
}

impl RecoveryReport {
    /// The commit index the replica resumes from.
    pub fn recovered_ci(&self) -> u64 {
        self.store.commit_index()
    }
}

/// The records of one [`Wal::append_batch`], back to back in one buffer:
/// what one `StorageMedium::append` receives, whole or not at all.
struct Run {
    /// Commit index of the last record in `bytes`.
    last_ci: u64,
    /// How many records `bytes` holds.
    records: u64,
    bytes: Vec<u8>,
}

/// A write-ahead log over three media: the record log and two
/// checkpoint slots.
pub struct Wal {
    log: Box<dyn StorageMedium>,
    slots: [Box<dyn StorageMedium>; 2],
    cfg: WalConfig,
    /// Record runs encoded but not yet written into the log medium.
    backlog: VecDeque<Run>,
    /// Highest ci written into the log medium (possibly unsynced).
    written_ci: u64,
    /// Highest ci known durable (synced log record or checkpoint).
    durable_ci: u64,
    /// Records written into the medium but not yet synced.
    unsynced: u64,
    /// Injected storage errors absorbed since the last harvest
    /// (short writes, failed fsyncs) — all retried, none fatal.
    io_errors: u64,
    /// Records and log bytes appended since the last checkpoint, and
    /// that checkpoint's snapshot length: what the schedule weighs.
    appended_since_ckpt: u64,
    bytes_since_ckpt: u64,
    last_snapshot_len: u64,
    /// After a failed checkpoint: not due again until
    /// `appended_since_ckpt` reaches this.
    retry_at: u64,
    /// Recovery stopped at a torn tail that is still in the log. A
    /// record written behind it would sync, be acknowledged and then be
    /// unreachable for the next recovery, so nothing is written until a
    /// checkpoint's truncation has cleared the log; one is due at once.
    log_torn: bool,
    /// Slot to write the next checkpoint into.
    next_slot: usize,
}

impl Wal {
    /// A WAL over `log` and two checkpoint slots. Call
    /// [`Wal::recover`] before appending.
    pub fn new(
        log: Box<dyn StorageMedium>,
        slot_a: Box<dyn StorageMedium>,
        slot_b: Box<dyn StorageMedium>,
        cfg: WalConfig,
    ) -> Wal {
        Wal {
            log,
            slots: [slot_a, slot_b],
            cfg,
            backlog: VecDeque::new(),
            written_ci: 0,
            durable_ci: 0,
            unsynced: 0,
            io_errors: 0,
            appended_since_ckpt: 0,
            bytes_since_ckpt: 0,
            last_snapshot_len: 0,
            retry_at: 0,
            log_torn: false,
            next_slot: 0,
        }
    }

    /// A WAL over three named files (`<prefix>.log`, `<prefix>.ckpt-a`,
    /// `<prefix>.ckpt-b`) on a shared in-memory disk — the chaos
    /// harness's backend, where a reincarnated replica reopens the same
    /// disk its predecessor crashed on.
    pub fn on_mem_disk(disk: &crate::storage::MemDisk, prefix: &str, cfg: WalConfig) -> Wal {
        Wal::new(
            Box::new(disk.open(&format!("{prefix}.log"))),
            Box::new(disk.open(&format!("{prefix}.ckpt-a"))),
            Box::new(disk.open(&format!("{prefix}.ckpt-b"))),
            cfg,
        )
    }

    /// A WAL over three real files in `dir` (created if absent).
    pub fn on_dir(dir: &std::path::Path, cfg: WalConfig) -> Result<Wal> {
        std::fs::create_dir_all(dir)?;
        Ok(Wal::new(
            Box::new(crate::storage::FileStorage::open(&dir.join("wal.log"))?),
            Box::new(crate::storage::FileStorage::open(&dir.join("wal.ckpt-a"))?),
            Box::new(crate::storage::FileStorage::open(&dir.join("wal.ckpt-b"))?),
            cfg,
        ))
    }

    /// Highest commit index whose record (or covering checkpoint) is
    /// durable — the ack frontier.
    pub fn durable_ci(&self) -> u64 {
        self.durable_ci
    }

    /// Whether appended records are still waiting to become durable
    /// (a flush retry is worthwhile).
    pub fn needs_flush(&self) -> bool {
        !self.backlog.is_empty() || self.unsynced > 0
    }

    /// Injected storage errors absorbed since the last call (short
    /// writes, failed fsyncs). All were retried; none lost a record.
    pub fn take_io_errors(&mut self) -> u64 {
        std::mem::take(&mut self.io_errors)
    }

    /// Whether a checkpoint is due: `checkpoint_every` records *and* at
    /// least the last snapshot's length in log bytes have been appended
    /// since the last checkpoint. A store whose snapshot is smaller than
    /// `checkpoint_every` records of log checkpoints by count alone; a
    /// larger one waits until the log has grown as much as the snapshot
    /// it rewrites, so checkpoints write no more than the log does once
    /// the store's size is steady (at most twice as much while it
    /// grows: a snapshot is at most the previous one plus the log
    /// since), and the tail recovery replays stays within the larger of
    /// `checkpoint_every` records and one snapshot's length.
    ///
    /// After a failed checkpoint the next attempt waits for an eighth
    /// of `checkpoint_every` more records: a slot that keeps failing
    /// costs a snapshot per retry, not one per commit. A torn log makes
    /// one due regardless — until it succeeds nothing can be
    /// acknowledged.
    pub fn checkpoint_due(&self) -> bool {
        let grown = self.appended_since_ckpt >= self.cfg.checkpoint_every.max(self.retry_at)
            && self.bytes_since_ckpt >= self.last_snapshot_len;
        grown || self.log_torn
    }

    /// Encodes and buffers the record for `(ci, op)`, then tries to
    /// flush: the one-record case of [`Wal::append_batch`]. Returns the
    /// durable frontier after the attempt; the record's encoded length
    /// is returned for byte accounting.
    pub fn append(&mut self, ci: u64, op: &KvOp) -> (u64, usize) {
        self.append_batch([(ci, op)])
    }

    /// Encodes one record per `(ci, op)` into one buffer — the bytes
    /// [`Wal::append`] would have written one by one — and tries to
    /// flush it with one `StorageMedium::append`. Group commit keeps
    /// counting records: the sync runs once `sync_every` of them sit
    /// unsynced, wherever batch boundaries fall. Returns the durable
    /// frontier after the attempt and the buffer's length.
    pub fn append_batch<'a>(
        &mut self,
        records: impl IntoIterator<Item = (u64, &'a KvOp)>,
    ) -> (u64, usize) {
        let mut run = Run {
            last_ci: 0,
            records: 0,
            bytes: Vec::new(),
        };
        for (ci, op) in records {
            let payload_len = 8 + encoded_op_len(op);
            let start = run.bytes.len();
            run.bytes.reserve(REC_HDR + payload_len);
            run.bytes
                .extend_from_slice(&(payload_len as u32).to_le_bytes());
            run.bytes.extend_from_slice(&[0; 4]); // crc, patched below
            run.bytes.extend_from_slice(&ci.to_le_bytes());
            encode_op(&mut run.bytes, op);
            debug_assert_eq!(run.bytes.len(), start + REC_HDR + payload_len);
            let crc = crc32(&run.bytes[start + REC_HDR..]);
            run.bytes[start + 4..start + REC_HDR].copy_from_slice(&crc.to_le_bytes());
            run.last_ci = ci;
            run.records += 1;
        }
        let len = run.bytes.len();
        if run.records > 0 {
            self.appended_since_ckpt += run.records;
            self.bytes_since_ckpt += len as u64;
            self.backlog.push_back(run);
            self.flush_inner(false);
        }
        (self.durable_ci, len)
    }

    /// Drives backlogged records into the medium and syncs. Safe to
    /// call any time; returns `true` when every appended record is
    /// durable.
    pub fn flush(&mut self) -> bool {
        self.flush_inner(true)
    }

    /// The flush engine. A non-forced flush (the append path) syncs
    /// only once `sync_every` records sit unsynced — group commit; a
    /// forced flush (idle tick, graceful shutdown) always syncs.
    fn flush_inner(&mut self, force: bool) -> bool {
        if self.log_torn {
            return false;
        }
        while let Some(run) = self.backlog.front() {
            if self.log.append(&run.bytes).is_err() {
                // Short write: the medium discarded the partial run;
                // keep all of it in the backlog and retry on the next
                // flush.
                self.io_errors += 1;
                return false;
            }
            self.written_ci = run.last_ci;
            self.unsynced += run.records;
            self.backlog.pop_front();
        }
        if self.unsynced > 0 && (force || self.unsynced >= self.cfg.sync_every.max(1)) {
            if self.log.sync().is_err() {
                self.io_errors += 1;
                return false;
            }
            self.unsynced = 0;
            self.durable_ci = self.written_ci;
        }
        self.unsynced == 0
    }

    /// Writes `snapshot` (taken at `ci`) to the alternate slot and, on
    /// success, truncates the log. Everything at or below `ci` becomes
    /// durable through the checkpoint.
    pub fn checkpoint(&mut self, ci: u64, snapshot: &[u8]) -> Result<()> {
        let mut image = Vec::with_capacity(SLOT_HDR + snapshot.len());
        image.resize(SLOT_HDR, 0);
        image.extend_from_slice(snapshot);
        self.write_slot(ci, image)
    }

    /// [`Wal::checkpoint`] of `store` as it stands, encoded straight
    /// into the buffer the slot receives. Returns the bytes written.
    pub(crate) fn checkpoint_store(&mut self, store: &KvStore) -> Result<usize> {
        let mut image = vec![0; SLOT_HDR];
        store.encode_snapshot(&mut image);
        let len = image.len();
        self.write_slot(store.commit_index(), image)?;
        Ok(len)
    }

    /// Completes `image` — `SLOT_HDR` reserved bytes, then the snapshot
    /// taken at `ci` — writes it to the alternate slot and, on success,
    /// truncates the log.
    fn write_slot(&mut self, ci: u64, mut image: Vec<u8>) -> Result<()> {
        let slot = &mut self.slots[self.next_slot];
        let written = seal_slot_image(&mut image).and_then(|snapshot_len| {
            slot.truncate()?;
            slot.append(&image)?;
            slot.sync()?;
            Ok(snapshot_len)
        });
        let snapshot_len = match written {
            Ok(len) => len,
            Err(e) => {
                let backoff = (self.cfg.checkpoint_every / 8).max(1);
                self.retry_at = self.appended_since_ckpt.saturating_add(backoff);
                return Err(e);
            }
        };
        // The checkpoint is durable: the log's history (and anything
        // stuck in the backlog at or below `ci`) is superseded.
        self.next_slot = 1 - self.next_slot;
        self.appended_since_ckpt = 0;
        self.bytes_since_ckpt = 0;
        self.last_snapshot_len = u64::from(snapshot_len);
        self.retry_at = 0;
        // (A run that straddles `ci` stays whole: replay skips the
        // records the checkpoint covers.)
        self.backlog.retain(|run| run.last_ci > ci);
        if self.durable_ci < ci {
            self.durable_ci = ci;
        }
        if self.written_ci < ci {
            self.written_ci = ci;
        }
        // A failed truncation is tolerable: replay skips records the
        // checkpoint covers, and the next checkpoint truncates again.
        if self.log.truncate().is_ok() {
            self.log_torn = false;
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Loads the best checkpoint and replays the log tail. Read-only
    /// with respect to the media (calling it twice yields byte-identical
    /// states); resets the writer frontier to what was recovered.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let mut store = KvStore::new();
        let mut best_slot: Option<usize> = None;
        let mut snapshot_len = 0;
        for i in 0..2 {
            let bytes = self.slots[i].read_all()?;
            if let Some((candidate, len)) = decode_checkpoint(&bytes) {
                let better = best_slot.is_none() || candidate.commit_index() > store.commit_index();
                if better {
                    store = candidate;
                    best_slot = Some(i);
                    snapshot_len = len as u64;
                }
            }
        }
        let checkpoint_ci = store.commit_index();
        let log = self.log.read_all()?;
        let mut at = 0usize;
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        let mut torn = 0u64;
        while at < log.len() {
            if log.len() - at < REC_HDR {
                torn += 1; // truncated length prefix / short header
                break;
            }
            let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(log[at + 4..at + 8].try_into().unwrap());
            if !(9..=MAX_FRAME).contains(&len) || log.len() - at - REC_HDR < len {
                torn += 1; // absurd length or torn payload
                break;
            }
            let payload = &log[at + REC_HDR..at + REC_HDR + len];
            if crc32(payload) != crc {
                torn += 1; // checksum mismatch: stop at last valid record
                break;
            }
            let ci = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let mut op_at = 8;
            let Some(op) = decode_op(payload, &mut op_at) else {
                torn += 1;
                break;
            };
            if op_at != payload.len() {
                torn += 1;
                break;
            }
            if ci <= store.commit_index() {
                // Covered by the checkpoint (truncation raced a crash).
                skipped += 1;
            } else if ci == store.commit_index() + 1 {
                store.apply(&op);
                replayed += 1;
            } else {
                // A gap: records here were never reachable from the
                // durable frontier, so they were never acknowledged.
                torn += 1;
                break;
            }
            at += REC_HDR + len;
        }
        self.written_ci = store.commit_index();
        self.durable_ci = store.commit_index();
        self.unsynced = 0;
        self.backlog.clear();
        // The schedule resumes where the crashed incarnation left it:
        // the valid log prefix is what was appended since the slot.
        self.appended_since_ckpt = replayed + skipped;
        self.bytes_since_ckpt = at as u64;
        self.last_snapshot_len = snapshot_len;
        self.retry_at = 0;
        self.log_torn = torn > 0;
        self.next_slot = best_slot.map(|i| 1 - i).unwrap_or(0);
        Ok(RecoveryReport {
            checkpoint_ci,
            replayed,
            skipped,
            torn_tail_records: torn,
            store,
        })
    }
}

/// Fills in the header of a slot image whose snapshot starts at
/// `SLOT_HDR`; returns the snapshot's length.
fn seal_slot_image(image: &mut [u8]) -> Result<u32> {
    let (header, snapshot) = image.split_at_mut(SLOT_HDR);
    let len = u32::try_from(snapshot.len())
        .map_err(|_| Error::new(ErrorKind::InvalidInput, "snapshot over 4 GiB"))?;
    header[..4].copy_from_slice(&CKPT_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..].copy_from_slice(&crc32(snapshot).to_le_bytes());
    Ok(len)
}

/// Decodes one checkpoint slot into the store and its snapshot's
/// length; `None` if empty, torn, or corrupt.
fn decode_checkpoint(bytes: &[u8]) -> Option<(KvStore, usize)> {
    if bytes.len() < SLOT_HDR {
        return None;
    }
    if u32::from_le_bytes(bytes[..4].try_into().unwrap()) != CKPT_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[8..SLOT_HDR].try_into().unwrap());
    if bytes.len() - SLOT_HDR < len {
        return None;
    }
    let snap = &bytes[SLOT_HDR..SLOT_HDR + len];
    if crc32(snap) != crc {
        return None;
    }
    let mut store = KvStore::new();
    if !store.restore(snap) {
        return None;
    }
    Some((store, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemDisk, StorageFaults};

    fn mem_wal(disk: &MemDisk, cfg: WalConfig) -> Wal {
        Wal::new(
            Box::new(disk.open("log")),
            Box::new(disk.open("ckpt-a")),
            Box::new(disk.open("ckpt-b")),
            cfg,
        )
    }

    fn set(k: &[u8], v: &[u8]) -> KvOp {
        KvOp::Set(k.to_vec(), v.to_vec())
    }

    /// The bit-at-a-time CRC this module shipped before the tables: the
    /// oracle for them.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_tables_agree_with_the_bitwise_oracle() {
        // Every head/tail split of the 8-byte stride, at every start
        // alignment, plus lengths that run the stride many times.
        let mut rng = ensemble_util::DetRng::new(0xC3C);
        let mut buf = vec![0u8; (1 << 20) + 3 + 8];
        rng.fill_bytes(&mut buf);
        let lens = (0..=67).chain([4096, (1 << 20) + 3]);
        for len in lens {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "len {len} at offset {start}"
                );
            }
        }
    }

    // A disk written by the code before the table CRC, the borrowed
    // snapshot encoder and the one-buffer records: two checkpoints
    // (ci 2 in slot A, ci 4 in slot B) and three log records past them.
    const GOLDEN_SLOT_A: [u8; 55] = [
        0x50, 0x43, 0x56, 0x4b, 0x2b, 0x00, 0x00, 0x00, 0xca, 0x6c, 0x2f, 0x1a, 0x02, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x05, 0x00, 0x00, 0x00, 0x61,
        0x6c, 0x70, 0x68, 0x61, 0x01, 0x00, 0x00, 0x00, 0x31, 0x02, 0x04, 0x00, 0x00, 0x00, 0x62,
        0x65, 0x74, 0x61, 0x03, 0x00, 0x00, 0x00, 0x74, 0x77, 0x6f,
    ];
    const GOLDEN_SLOT_B: [u8; 58] = [
        0x50, 0x43, 0x56, 0x4b, 0x2e, 0x00, 0x00, 0x00, 0x06, 0x8d, 0xca, 0x76, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x09,
        0x00, 0x00, 0x00, 0x65, 0x6d, 0x70, 0x74, 0x79, 0x20, 0x6b, 0x65, 0x79, 0x02, 0x04, 0x00,
        0x00, 0x00, 0x62, 0x65, 0x74, 0x61, 0x03, 0x00, 0x00, 0x00, 0x74, 0x77, 0x6f,
    ];
    const GOLDEN_LOG: [u8; 96] = [
        0x1e, 0x00, 0x00, 0x00, 0xeb, 0x3f, 0x44, 0x5d, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x04, 0x04, 0x00, 0x00, 0x00, 0x62, 0x65, 0x74, 0x61, 0x01, 0x03, 0x00, 0x00, 0x00,
        0x74, 0x77, 0x6f, 0x01, 0x00, 0x00, 0x00, 0x32, 0x11, 0x00, 0x00, 0x00, 0x73, 0x87, 0x3f,
        0x53, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x62,
        0x65, 0x74, 0x61, 0x19, 0x00, 0x00, 0x00, 0xee, 0xd1, 0xc6, 0xa8, 0x07, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x04, 0x05, 0x00, 0x00, 0x00, 0x67, 0x61, 0x6d, 0x6d, 0x61, 0x00,
        0x02, 0x00, 0x00, 0x00, 0xff, 0x00,
    ];

    /// The operations behind the golden disk; checkpoints followed the
    /// second and the fourth.
    fn golden_ops() -> Vec<KvOp> {
        vec![
            set(b"alpha", b"1"),
            set(b"beta", b"two"),
            set(b"", b"empty key"),
            KvOp::Del(b"alpha".to_vec()),
            KvOp::Cas {
                key: b"beta".to_vec(),
                expect: Some(b"two".to_vec()),
                new: b"2".to_vec(),
            },
            KvOp::Get(b"beta".to_vec()),
            KvOp::Cas {
                key: b"gamma".to_vec(),
                expect: None,
                new: vec![0xFF, 0x00],
            },
        ]
    }

    #[test]
    fn parent_format_disk_recovers_identically_twice() {
        let disk = MemDisk::new(18, StorageFaults::clean());
        for (name, bytes) in [
            ("ckpt-a", &GOLDEN_SLOT_A[..]),
            ("ckpt-b", &GOLDEN_SLOT_B[..]),
            ("log", &GOLDEN_LOG[..]),
        ] {
            let mut f = disk.open(name);
            f.append(bytes).unwrap();
            f.sync().unwrap();
        }
        let mut model = KvStore::new();
        for op in golden_ops() {
            model.apply(&op);
        }
        let rep = mem_wal(&disk, WalConfig::default()).recover().unwrap();
        assert_eq!(rep.checkpoint_ci, 4, "slot B is the newer one");
        assert_eq!(
            (rep.replayed, rep.skipped, rep.torn_tail_records),
            (3, 0, 0)
        );
        assert_eq!(rep.store, model);
        let again = mem_wal(&disk, WalConfig::default()).recover().unwrap();
        assert_eq!(again.store.snapshot(), rep.store.snapshot());
    }

    #[test]
    fn this_code_writes_the_parent_format_byte_for_byte() {
        // Both checkpoint entry points, so each is pinned to the format.
        let disk = MemDisk::new(18, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut store = KvStore::new();
        for (i, op) in golden_ops().iter().enumerate() {
            store.apply(op);
            wal.append(store.commit_index(), op);
            if i == 1 {
                wal.checkpoint(store.commit_index(), &store.snapshot())
                    .unwrap();
            } else if i == 3 {
                let written = wal.checkpoint_store(&store).unwrap();
                assert_eq!(written, GOLDEN_SLOT_B.len());
            }
        }
        assert_eq!(disk.open("ckpt-a").read_all().unwrap(), GOLDEN_SLOT_A);
        assert_eq!(disk.open("ckpt-b").read_all().unwrap(), GOLDEN_SLOT_B);
        assert_eq!(disk.open("log").read_all().unwrap(), GOLDEN_LOG);
    }

    /// `n` distinct Sets of uneven sizes, as `(ci, op)` from `first_ci`.
    fn numbered_sets(first_ci: u64, n: u64) -> Vec<(u64, KvOp)> {
        (first_ci..first_ci + n)
            .map(|ci| (ci, set(&ci.to_le_bytes(), &vec![ci as u8; ci as usize % 7])))
            .collect()
    }

    fn by_ref(records: &[(u64, KvOp)]) -> impl Iterator<Item = (u64, &KvOp)> {
        records.iter().map(|(ci, op)| (*ci, op))
    }

    #[test]
    fn a_batch_writes_the_bytes_of_its_records_appended_one_by_one() {
        // The golden log again, its three records as one batch.
        let disk = MemDisk::new(19, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let ops = golden_ops();
        let (durable, len) = wal.append_batch((5..).zip(&ops[4..]));
        assert_eq!((durable, len), (7, GOLDEN_LOG.len()));
        assert_eq!(disk.open("log").read_all().unwrap(), GOLDEN_LOG);

        // Any grouping, with group commit on: same bytes, and the same
        // frontier wherever both have synced everything.
        let cfg = WalConfig {
            sync_every: 4,
            ..WalConfig::default()
        };
        let (singly, batched) = (
            MemDisk::new(20, StorageFaults::clean()),
            MemDisk::new(21, StorageFaults::clean()),
        );
        let (mut one, mut many) = (mem_wal(&singly, cfg), mem_wal(&batched, cfg));
        one.recover().unwrap();
        many.recover().unwrap();
        let mut next = 1;
        for size in [1, 3, 4, 5, 2, 9, 1] {
            let records = numbered_sets(next, size);
            next += size;
            let mut bytes = 0;
            for (ci, op) in &records {
                bytes += one.append(*ci, op).1;
            }
            let (durable, len) = many.append_batch(by_ref(&records));
            assert_eq!(len, bytes);
            // `sync_every` counts records: the batch syncs at the latest
            // where the single appends did.
            assert!(durable >= one.durable_ci(), "batch of {size}");
            assert!(next - 1 - durable < 4, "a full group left unsynced");
        }
        assert!(one.flush() && many.flush());
        assert_eq!(one.durable_ci(), many.durable_ci());
        assert_eq!(
            singly.open("log").read_all().unwrap(),
            batched.open("log").read_all().unwrap()
        );
        assert_eq!(many.append_batch(by_ref(&[])), (next - 1, 0), "empty batch");
    }

    #[test]
    fn a_short_write_keeps_the_whole_batch_and_the_retry_writes_it_once() {
        let faults = StorageFaults {
            short_write_p: 0.5,
            ..StorageFaults::clean()
        };
        let disk = MemDisk::new(22, faults);
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        let mut absorbed = 0;
        for batch in 0..40 {
            let records = numbered_sets(batch * 5 + 1, 5);
            for (_, op) in &records {
                model.apply(op);
            }
            let (durable, _) = wal.append_batch(by_ref(&records));
            // All of a batch or none of it: the frontier only ever rests
            // on a batch boundary.
            assert_eq!(durable % 5, 0, "frontier inside batch {batch}");
            absorbed += wal.take_io_errors();
        }
        while !wal.flush() {
            absorbed += wal.take_io_errors();
        }
        assert!(absorbed > 0, "the fault plan never fired");
        assert_eq!(wal.durable_ci(), 200);
        // Every ci once, in order: replay counts a duplicate as skipped
        // and stops at a gap.
        let rep = mem_wal(&disk, WalConfig::default()).recover().unwrap();
        assert_eq!(
            (rep.replayed, rep.skipped, rep.torn_tail_records),
            (200, 0, 0)
        );
        assert_eq!(rep.store, model);
    }

    #[test]
    fn a_crash_inside_a_batch_keeps_a_prefix_and_every_durable_record() {
        let faults = StorageFaults {
            torn_tail_p: 1.0,
            bit_flip_p: 0.3,
            fsync_fail_p: 0.2,
            ..StorageFaults::clean()
        };
        let cfg = WalConfig {
            sync_every: 8,
            ..WalConfig::default()
        };
        let mut torn_inside = 0;
        for seed in 0..48u64 {
            let disk = MemDisk::new(seed, faults);
            let mut wal = mem_wal(&disk, cfg);
            wal.recover().unwrap();
            let mut prefixes = vec![KvStore::new()];
            let mut durable = 0;
            for batch in 0..6 {
                let records = numbered_sets(batch * 5 + 1, 5);
                for (_, op) in &records {
                    let mut next = prefixes.last().unwrap().clone();
                    next.apply(op);
                    prefixes.push(next);
                }
                durable = wal.append_batch(by_ref(&records)).0;
            }
            disk.crash();
            let rep = mem_wal(&disk, cfg).recover().unwrap();
            let ci = rep.recovered_ci();
            assert!(
                ci >= durable,
                "seed {seed}: recovered {ci} < durable {durable}"
            );
            assert_eq!(
                rep.store, prefixes[ci as usize],
                "seed {seed}: not a prefix"
            );
            torn_inside += u64::from(!ci.is_multiple_of(5));
        }
        assert!(torn_inside > 0, "no crash landed inside a batch's run");
    }

    #[test]
    fn empty_log_recovers_to_an_empty_store() {
        let disk = MemDisk::new(1, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.recovered_ci(), 0);
        assert_eq!(rep.checkpoint_ci, 0);
        assert_eq!(rep.replayed, 0);
        assert_eq!(rep.torn_tail_records, 0);
        assert!(rep.store.is_empty());
    }

    #[test]
    fn appended_records_replay_across_a_crash() {
        let disk = MemDisk::new(2, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        for i in 0..20u8 {
            let op = set(&[i], &[i, i]);
            let ci = model.apply(&op);
            let ci = match ci {
                crate::proto::KvResult::Applied { ci } => ci,
                _ => unreachable!(),
            };
            let (durable, _) = wal.append(ci, &op);
            assert_eq!(durable, ci, "clean medium must be durable at once");
        }
        disk.crash();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.replayed, 20);
        assert_eq!(rep.store.snapshot(), model.snapshot());
    }

    #[test]
    fn checkpoint_with_no_tail_recovers_from_the_slot_alone() {
        let disk = MemDisk::new(3, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        for i in 0..5u8 {
            let op = set(&[i], b"v");
            model.apply(&op);
            wal.append(model.commit_index(), &op);
        }
        wal.checkpoint(model.commit_index(), &model.snapshot())
            .unwrap();
        disk.crash();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.checkpoint_ci, 5);
        assert_eq!(rep.replayed, 0);
        assert_eq!(rep.skipped, 0, "log was truncated");
        assert_eq!(rep.store.snapshot(), model.snapshot());
    }

    #[test]
    fn torn_final_record_is_dropped_and_counted() {
        let disk = MemDisk::new(4, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        wal.append(1, &set(b"a", b"1"));
        wal.append(2, &set(b"b", b"2"));
        // Tear the last record by hand: chop bytes off the durable log.
        let mut log = disk.open("log");
        let bytes = log.read_all().unwrap();
        log.truncate().unwrap();
        log.append(&bytes[..bytes.len() - 3]).unwrap();
        log.sync().unwrap();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.torn_tail_records, 1);
        assert_eq!(rep.recovered_ci(), 1);
        assert_eq!(rep.store.peek(b"a"), Some(b"1".as_slice()));
        assert_eq!(rep.store.peek(b"b"), None);
    }

    #[test]
    fn records_after_a_torn_tail_wait_for_the_checkpoint_that_clears_it() {
        let disk = MemDisk::new(16, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        for (k, v) in [(b"a", b"1"), (b"b", b"2")] {
            let op = set(k, v);
            model.apply(&op);
            wal.append(model.commit_index(), &op);
        }
        let mut log = disk.open("log");
        let bytes = log.read_all().unwrap();
        log.truncate().unwrap();
        log.append(&bytes[..bytes.len() - 3]).unwrap();
        log.sync().unwrap();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!((rep.recovered_ci(), rep.torn_tail_records), (1, 1));
        // Written behind the torn bytes these would sync and then be
        // lost to the next recovery: they are held, a checkpoint is due.
        let mut store = rep.store;
        for (k, v) in [(b"b", b"2"), (b"c", b"3")] {
            let op = set(k, v);
            store.apply(&op);
            let (durable, _) = wal.append(store.commit_index(), &op);
            assert_eq!(durable, 1, "not durable behind a torn tail");
            assert!(wal.checkpoint_due());
        }
        wal.checkpoint_store(&store).unwrap();
        assert_eq!(wal.durable_ci(), 3);
        assert!(!wal.needs_flush() && !wal.checkpoint_due());
        // The log is clean again: the next record goes through it.
        let op = set(b"d", b"4");
        store.apply(&op);
        assert_eq!(wal.append(4, &op).0, 4);
        disk.crash();
        let rep = mem_wal(&disk, WalConfig::default()).recover().unwrap();
        assert_eq!((rep.checkpoint_ci, rep.replayed), (3, 1));
        assert_eq!(rep.torn_tail_records, 0);
        assert_eq!(rep.store, store);
    }

    #[test]
    fn truncated_length_prefix_is_dropped_and_counted() {
        let disk = MemDisk::new(5, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        wal.append(1, &set(b"a", b"1"));
        let mut log = disk.open("log");
        log.append(&[0x05, 0x00, 0x00]).unwrap(); // 3 bytes of header
        log.sync().unwrap();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.torn_tail_records, 1);
    }

    #[test]
    fn checksum_mismatch_mid_log_stops_at_last_valid_record() {
        let disk = MemDisk::new(6, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        wal.append(1, &set(b"a", b"1"));
        let (_, rec2_len) = wal.append(2, &set(b"b", b"2"));
        wal.append(3, &set(b"c", b"3"));
        // Flip a payload bit inside record 2 (mid-log).
        let mut log = disk.open("log");
        let mut bytes = log.read_all().unwrap();
        let rec1_end = bytes.len() - 2 * rec2_len; // all three records are the same size
        bytes[rec1_end + REC_HDR + 9] ^= 0x40;
        log.truncate().unwrap();
        log.append(&bytes).unwrap();
        log.sync().unwrap();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.replayed, 1, "stop at the last valid record");
        assert_eq!(rep.torn_tail_records, 1);
        assert_eq!(rep.recovered_ci(), 1);
    }

    #[test]
    fn double_crash_during_checkpoint_falls_back_to_the_other_slot() {
        let disk = MemDisk::new(7, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        for i in 0..4u8 {
            let op = set(&[i], b"x");
            model.apply(&op);
            wal.append(model.commit_index(), &op);
        }
        wal.checkpoint(model.commit_index(), &model.snapshot())
            .unwrap();
        let at_first_ckpt = model.snapshot();
        for i in 4..8u8 {
            let op = set(&[i], b"y");
            model.apply(&op);
            wal.append(model.commit_index(), &op);
        }
        // Simulate a crash in the middle of writing the second
        // checkpoint: slot B gets a torn header and the log survives.
        let mut slot_b = disk.open("ckpt-b");
        slot_b.truncate().unwrap();
        slot_b.append(&CKPT_MAGIC.to_le_bytes()).unwrap();
        slot_b.append(&[0xFF, 0x00]).unwrap();
        slot_b.sync().unwrap();
        disk.crash();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.checkpoint_ci, 4, "fell back to slot A");
        assert_eq!(rep.replayed, 4, "tail past the good checkpoint");
        assert_eq!(rep.store.snapshot(), model.snapshot());
        assert_ne!(rep.store.snapshot(), at_first_ckpt);
        // And a second crash before any repair keeps recovering the same
        // state, byte for byte.
        disk.crash();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep2 = wal.recover().unwrap();
        assert_eq!(rep2.store.snapshot(), model.snapshot());
    }

    #[test]
    fn failed_log_truncation_after_checkpoint_is_skipped_on_replay() {
        let disk = MemDisk::new(8, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        for i in 0..3u8 {
            let op = set(&[i], b"z");
            model.apply(&op);
            wal.append(model.commit_index(), &op);
        }
        // Checkpoint, then put the pre-checkpoint records *back* into
        // the log as if truncation never happened.
        let old_log = disk.open("log").read_all().unwrap();
        wal.checkpoint(model.commit_index(), &model.snapshot())
            .unwrap();
        let mut log = disk.open("log");
        log.truncate().unwrap();
        log.append(&old_log).unwrap();
        log.sync().unwrap();
        // New traffic lands after the stale records.
        let op = set(b"post", b"1");
        model.apply(&op);
        wal.append(model.commit_index(), &op);
        disk.crash();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.skipped, 3, "stale records skipped, not replayed");
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.store.snapshot(), model.snapshot());
    }

    #[test]
    fn append_failures_hold_the_ack_frontier_until_repair() {
        let faults = StorageFaults {
            fsync_fail_p: 1.0,
            ..StorageFaults::clean()
        };
        let disk = MemDisk::new(9, faults);
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let (durable, _) = wal.append(1, &set(b"a", b"1"));
        assert_eq!(durable, 0, "fsync failed: nothing is durable");
        // A checkpoint (whose slot writes bypass the broken fsync here
        // only because we repair the plan) advances the frontier.
        let disk2 = MemDisk::new(9, StorageFaults::clean());
        let mut wal = mem_wal(&disk2, WalConfig::default());
        wal.recover().unwrap();
        let mut model = KvStore::new();
        let op = set(b"a", b"1");
        model.apply(&op);
        // Force every log append to fail by tearing the log medium's
        // sync path: emulate by appending through a faulty wal below.
        let faulty = MemDisk::new(9, faults);
        let mut wal = Wal::new(
            Box::new(faulty.open("log")),
            Box::new(disk2.open("ckpt-a")),
            Box::new(disk2.open("ckpt-b")),
            WalConfig::default(),
        );
        wal.recover().unwrap();
        let (durable, _) = wal.append(1, &op);
        assert_eq!(durable, 0);
        wal.checkpoint(1, &model.snapshot()).unwrap();
        assert_eq!(wal.durable_ci(), 1, "checkpoint supersedes the log");
    }

    #[test]
    fn group_commit_defers_the_sync_until_the_batch_fills() {
        let disk = MemDisk::new(11, StorageFaults::clean());
        let cfg = WalConfig {
            sync_every: 4,
            ..WalConfig::default()
        };
        let mut wal = mem_wal(&disk, cfg);
        wal.recover().unwrap();
        for ci in 1..=3u64 {
            let (durable, _) = wal.append(ci, &set(&[ci as u8], b"v"));
            assert_eq!(durable, 0, "batch not full: nothing synced yet");
        }
        // The fourth record fills the batch and syncs all four.
        let (durable, _) = wal.append(4, &set(&[4], b"v"));
        assert_eq!(durable, 4);
        // A partial batch stays volatile until a forced flush.
        let (durable, _) = wal.append(5, &set(&[5], b"v"));
        assert_eq!(durable, 4);
        assert!(wal.needs_flush());
        assert!(wal.flush());
        assert_eq!(wal.durable_ci(), 5);
        // An unsynced partial batch is what a crash may tear.
        let (durable, _) = wal.append(6, &set(&[6], b"v"));
        assert_eq!(durable, 5);
        disk.crash();
        let mut wal = mem_wal(&disk, WalConfig::default());
        let rep = wal.recover().unwrap();
        assert_eq!(rep.recovered_ci(), 5, "clean crash drops the tail whole");
    }

    /// Appends `Set(key i % keys, value_len bytes)` for `i` in `range`,
    /// checkpointing whenever due; returns (checkpoints, checkpoint
    /// bytes, log bytes).
    fn drive(
        wal: &mut Wal,
        store: &mut KvStore,
        range: std::ops::Range<u64>,
        keys: u64,
        value_len: usize,
    ) -> (u64, u64, u64) {
        let (mut ckpts, mut ckpt_bytes, mut log_bytes) = (0, 0, 0);
        for i in range {
            let op = set(&(i % keys).to_le_bytes(), &vec![i as u8; value_len]);
            store.apply(&op);
            log_bytes += wal.append(store.commit_index(), &op).1 as u64;
            if wal.checkpoint_due() {
                ckpts += 1;
                ckpt_bytes += wal.checkpoint_store(store).unwrap() as u64;
            }
        }
        (ckpts, ckpt_bytes, log_bytes)
    }

    #[test]
    fn a_large_store_checkpoints_by_log_bytes() {
        // 1024 keys x 512 B: a ~530 KiB snapshot, twice what 256
        // records put in the log (256 x ~540 B).
        let disk = MemDisk::new(12, StorageFaults::clean());
        let mut wal = mem_wal(&disk, WalConfig::default());
        wal.recover().unwrap();
        let mut store = KvStore::new();
        let load = drive(&mut wal, &mut store, 0..1024, 1024, 512);
        let run = drive(&mut wal, &mut store, 1024..11_024, 1024, 512);
        let snapshot_len = store.snapshot().len() as u64;
        assert!(
            snapshot_len > 2 * 256 * 540,
            "the byte rule must be the binding one"
        );
        // Steady state: one checkpoint per snapshot's worth of log —
        // not one per 256 records (39 of them) and not none.
        assert!(run.0 > 0, "the log grew by many snapshots");
        assert!(
            run.0 <= run.2 / snapshot_len + 1,
            "{} checkpoints over {} log bytes, snapshot {snapshot_len}",
            run.0,
            run.2
        );
        assert!(run.1 <= run.2, "checkpoints wrote more than the log did");
        // While the store grows a snapshot can be the previous one plus
        // the log since: still within twice the log.
        assert!(load.0 > 0);
        assert!(load.1 <= 2 * load.2, "{load:?}");
    }

    #[test]
    fn a_small_store_checkpoints_at_exactly_checkpoint_every() {
        let disk = MemDisk::new(13, StorageFaults::clean());
        let cfg = WalConfig {
            checkpoint_every: 8,
            ..WalConfig::default()
        };
        let mut wal = mem_wal(&disk, cfg);
        wal.recover().unwrap();
        let mut store = KvStore::new();
        for i in 1..=64u64 {
            let op = set(&[i as u8 % 4], b"v");
            store.apply(&op);
            wal.append(i, &op);
            assert_eq!(wal.checkpoint_due(), i % 8 == 0, "after record {i}");
            if wal.checkpoint_due() {
                wal.checkpoint_store(&store).unwrap();
            }
        }
    }

    #[test]
    fn a_restarted_wal_inherits_the_checkpoint_schedule() {
        // The record at which the next checkpoint falls due must not
        // depend on whether the process restarted in between.
        let due_at = |restart_after: Option<u64>| {
            let disk = MemDisk::new(14, StorageFaults::clean());
            let mut wal = mem_wal(&disk, WalConfig::default());
            wal.recover().unwrap();
            let mut store = KvStore::new();
            let (ckpts, ..) = drive(&mut wal, &mut store, 0..256, 256, 1024);
            assert_eq!(ckpts, 1, "the first checkpoint goes by count");
            for i in 256u64.. {
                if Some(i) == restart_after {
                    disk.crash();
                    wal = mem_wal(&disk, WalConfig::default());
                    let rep = wal.recover().unwrap();
                    assert_eq!(rep.store, store, "sync_every 1: nothing to lose");
                }
                let op = set(&(i % 256).to_le_bytes(), b"small");
                store.apply(&op);
                wal.append(store.commit_index(), &op);
                if wal.checkpoint_due() {
                    return i;
                }
            }
            unreachable!()
        };
        let uninterrupted = due_at(None);
        assert!(
            uninterrupted > 256 + 256,
            "a 256 KiB snapshot outweighs 256 small records (due at {uninterrupted})"
        );
        assert_eq!(due_at(Some(300)), uninterrupted);
        assert_eq!(due_at(Some(uninterrupted)), uninterrupted);
    }

    #[test]
    fn a_failing_slot_costs_a_snapshot_per_backoff_not_per_commit() {
        // The log is healthy; every slot write fails (MemStorage fails
        // `truncate` with the fsync plan).
        let clean = MemDisk::new(15, StorageFaults::clean());
        let broken = MemDisk::new(
            15,
            StorageFaults {
                fsync_fail_p: 1.0,
                ..StorageFaults::clean()
            },
        );
        let cfg = WalConfig {
            checkpoint_every: 64,
            ..WalConfig::default()
        };
        let mut wal = Wal::new(
            Box::new(clean.open("log")),
            Box::new(broken.open("ckpt-a")),
            Box::new(broken.open("ckpt-b")),
            cfg,
        );
        wal.recover().unwrap();
        let mut store = KvStore::new();
        let mut encodes = 0;
        for i in 1..=144u64 {
            let op = set(&[i as u8], b"v");
            store.apply(&op);
            let (durable, _) = wal.append(i, &op);
            assert_eq!(durable, i, "acks ride the log, not the slot");
            if wal.checkpoint_due() {
                encodes += 1;
                assert!(wal.checkpoint_store(&store).is_err());
            }
        }
        // Due at record 64, then every 64 / 8 records: 64, 72, .. 144.
        assert_eq!(encodes, 11, "not one per commit (81)");
        // Nothing was lost to the failed attempts.
        let mut wal = Wal::new(
            Box::new(clean.open("log")),
            Box::new(broken.open("ckpt-a")),
            Box::new(broken.open("ckpt-b")),
            cfg,
        );
        assert_eq!(wal.recover().unwrap().store, store);
    }

    #[test]
    fn seeded_torn_crashes_never_lose_a_durable_record() {
        // The chaos gate in miniature: across many seeds, crash with
        // torn tails + bit flips and check every record that reported
        // durable is recovered.
        let faults = StorageFaults {
            torn_tail_p: 0.8,
            bit_flip_p: 0.5,
            fsync_fail_p: 0.2,
            short_write_p: 0.1,
        };
        for seed in 0..24u64 {
            let disk = MemDisk::new(seed, faults);
            let mut wal = mem_wal(
                &disk,
                WalConfig {
                    checkpoint_every: 7,
                    ..WalConfig::default()
                },
            );
            wal.recover().unwrap();
            let mut model = KvStore::new();
            let mut durable_frontier = 0u64;
            for i in 0..40u8 {
                let op = set(&[i], &[seed as u8, i]);
                model.apply(&op);
                let (durable, _) = wal.append(model.commit_index(), &op);
                durable_frontier = durable;
                if wal.checkpoint_due() {
                    let _ = wal.checkpoint(model.commit_index(), &model.snapshot());
                    durable_frontier = wal.durable_ci();
                }
            }
            disk.crash();
            let mut wal = mem_wal(&disk, WalConfig::default());
            let rep = wal.recover().unwrap();
            assert!(
                rep.recovered_ci() >= durable_frontier,
                "seed {seed}: recovered {} < durable frontier {durable_frontier}",
                rep.recovered_ci(),
            );
            // Determinism: recovering again yields the same bytes.
            let mut wal2 = mem_wal(&disk, WalConfig::default());
            let rep2 = wal2.recover().unwrap();
            assert_eq!(rep.store.snapshot(), rep2.store.snapshot());
        }
    }
}
