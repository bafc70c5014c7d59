//! The storage seam under the write-ahead log.
//!
//! The WAL never touches files directly; it writes through a
//! [`StorageMedium`], which models the durability contract of a real
//! disk: bytes appended are *volatile* until a [`sync`] succeeds, and a
//! crash may surface any prefix of the unsynced tail — torn mid-record,
//! bit-flipped, or gone entirely. Two backends implement the seam:
//!
//! * [`MemStorage`] — handles into a shared in-memory [`MemDisk`] whose
//!   [`crash`] operation materializes a seeded crash outcome (modeled on
//!   the loopback transport's `FaultPlan`): each file keeps its durable
//!   bytes plus a random prefix of its unsynced tail, optionally with a
//!   flipped bit inside that torn region. Faults never touch bytes that
//!   a successful `sync` already made durable — exactly the guarantee
//!   `fsync` gives — so "no acknowledged write is lost" is checkable.
//! * [`FileStorage`] — a real file (`write` + `sync_data` +
//!   `set_len`), for running the same recovery path against an actual
//!   filesystem.
//!
//! [`sync`]: StorageMedium::sync
//! [`crash`]: MemDisk::crash

use ensemble_util::DetRng;
use std::collections::BTreeMap;
use std::io::{Error, ErrorKind, Read, Result, Seek, SeekFrom, Write};
use std::sync::{Arc, Mutex};

/// The durability contract the WAL writes through.
///
/// `append` buffers bytes that become durable only once `sync` returns
/// `Ok`; `read_all` returns the durable image (what a restart would
/// see); `truncate` discards everything, durably.
pub trait StorageMedium: Send {
    /// The durable contents, start to end.
    fn read_all(&mut self) -> Result<Vec<u8>>;
    /// Buffers `bytes` at the end. Not durable until [`sync`] succeeds.
    ///
    /// [`sync`]: StorageMedium::sync
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Makes every buffered byte durable (fsync).
    fn sync(&mut self) -> Result<()>;
    /// Durably discards all contents.
    fn truncate(&mut self) -> Result<()>;
    /// Durable length in bytes.
    fn durable_len(&mut self) -> Result<u64>;
}

/// Seeded storage-fault plan (the disk analog of the loopback
/// transport's `FaultPlan`).
#[derive(Clone, Copy, Debug)]
pub struct StorageFaults {
    /// Probability an `append` fails after buffering only a prefix of
    /// the record (short write). The partial bytes are discarded from
    /// the buffer — but an earlier unsynced tail still tears on crash.
    pub short_write_p: f64,
    /// Probability a `sync` fails, leaving the buffered tail volatile.
    pub fsync_fail_p: f64,
    /// Probability a crash keeps a non-empty prefix of the unsynced
    /// tail (a torn tail) instead of dropping it whole.
    pub torn_tail_p: f64,
    /// Probability one bit inside a surviving torn tail is flipped.
    pub bit_flip_p: f64,
}

impl StorageFaults {
    /// No faults: appends and syncs succeed, crashes drop the unsynced
    /// tail cleanly.
    pub fn clean() -> StorageFaults {
        StorageFaults {
            short_write_p: 0.0,
            fsync_fail_p: 0.0,
            torn_tail_p: 0.0,
            bit_flip_p: 0.0,
        }
    }

    /// The chaos-harness default: occasional short writes and fsync
    /// failures, with crashes that usually tear and sometimes flip.
    pub fn lossy() -> StorageFaults {
        StorageFaults {
            short_write_p: 0.05,
            fsync_fail_p: 0.05,
            torn_tail_p: 0.7,
            bit_flip_p: 0.25,
        }
    }
}

/// One file's bytes, of which the first `durable` survive any crash;
/// the rest were appended since the last successful sync.
#[derive(Default)]
struct MemFile {
    bytes: Vec<u8>,
    durable: usize,
}

struct MemDiskInner {
    files: BTreeMap<String, MemFile>,
    faults: StorageFaults,
    rng: DetRng,
    crashes: u64,
}

/// A shared in-memory "disk" holding named files; cloning the handle is
/// cheap and every [`MemStorage`] opened from it sees the same bytes,
/// so a crashed replica's reincarnation reopens the same state.
#[derive(Clone)]
pub struct MemDisk {
    inner: Arc<Mutex<MemDiskInner>>,
}

impl MemDisk {
    /// A fresh disk with a seeded fault plan.
    pub fn new(seed: u64, faults: StorageFaults) -> MemDisk {
        MemDisk {
            inner: Arc::new(Mutex::new(MemDiskInner {
                files: BTreeMap::new(),
                faults,
                rng: DetRng::new(seed ^ 0x5707_AC3D_15C0_FEED),
                crashes: 0,
            })),
        }
    }

    /// Opens (creating if absent) a named file on this disk.
    pub fn open(&self, name: &str) -> MemStorage {
        self.inner
            .lock()
            .expect("mem disk mutex poisoned")
            .files
            .entry(name.to_string())
            .or_default();
        MemStorage {
            disk: self.clone(),
            name: name.to_string(),
        }
    }

    /// Simulates a power-cut: for every file, the unsynced tail either
    /// vanishes or survives as a seeded prefix (torn), possibly with one
    /// bit flipped inside the surviving torn bytes. Durable bytes are
    /// never touched.
    pub fn crash(&self) {
        let mut inner = self.inner.lock().expect("mem disk mutex poisoned");
        inner.crashes += 1;
        let mut rng = inner.rng.fork();
        let faults = inner.faults;
        for file in inner.files.values_mut() {
            let pending = file.bytes.len() - file.durable;
            if pending == 0 {
                continue;
            }
            if faults.torn_tail_p > 0.0 && rng.chance(faults.torn_tail_p) {
                // Keep a strict prefix so the tail record is torn.
                let keep = rng.below(pending as u64 + 1) as usize;
                if keep > 0 && faults.bit_flip_p > 0.0 && rng.chance(faults.bit_flip_p) {
                    let at = file.durable + rng.below(keep as u64) as usize;
                    file.bytes[at] ^= 1 << rng.below(8);
                }
                file.durable += keep;
            }
            file.bytes.truncate(file.durable);
        }
    }

    /// How many crashes this disk has absorbed.
    pub fn crash_count(&self) -> u64 {
        self.inner.lock().expect("mem disk mutex poisoned").crashes
    }

    /// Total volatile (appended-but-unsynced) bytes across every file —
    /// what the next crash is allowed to destroy or tear.
    pub fn pending_len(&self) -> u64 {
        let inner = self.inner.lock().expect("mem disk mutex poisoned");
        inner
            .files
            .values()
            .map(|f| (f.bytes.len() - f.durable) as u64)
            .sum()
    }
}

/// One named file on a [`MemDisk`].
pub struct MemStorage {
    disk: MemDisk,
    name: String,
}

impl MemStorage {
    fn with<T>(&self, f: impl FnOnce(&mut MemFile, &mut DetRng, StorageFaults) -> T) -> T {
        let mut inner = self.disk.inner.lock().expect("mem disk mutex poisoned");
        let mut rng = inner.rng.fork();
        let faults = inner.faults;
        let file = inner
            .files
            .get_mut(&self.name)
            .expect("mem file opened but missing");
        f(file, &mut rng, faults)
    }
}

impl StorageMedium for MemStorage {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.with(|f, _, _| f.bytes[..f.durable].to_vec()))
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.with(|f, rng, faults| {
            if faults.short_write_p > 0.0 && rng.chance(faults.short_write_p) {
                // The write syscall failed partway; the buffered partial
                // record is discarded, but the caller must treat the
                // record as not durable and retry or fail upward.
                return Err(Error::new(ErrorKind::WriteZero, "injected short write"));
            }
            f.bytes.extend_from_slice(bytes);
            Ok(())
        })
    }

    fn sync(&mut self) -> Result<()> {
        self.with(|f, rng, faults| {
            if faults.fsync_fail_p > 0.0 && rng.chance(faults.fsync_fail_p) {
                // The tail stays volatile; a crash now can still tear it.
                return Err(Error::other("injected fsync failure"));
            }
            f.durable = f.bytes.len();
            Ok(())
        })
    }

    fn truncate(&mut self) -> Result<()> {
        self.with(|f, rng, faults| {
            if faults.fsync_fail_p > 0.0 && rng.chance(faults.fsync_fail_p) {
                return Err(Error::other("injected truncate failure"));
            }
            f.bytes.clear();
            f.durable = 0;
            Ok(())
        })
    }

    fn durable_len(&mut self) -> Result<u64> {
        Ok(self.with(|f, _, _| f.durable as u64))
    }
}

/// A real file implementing the seam (`write` + `sync_data`).
pub struct FileStorage {
    file: std::fs::File,
}

impl FileStorage {
    /// Opens (creating if absent) `path` for append-and-read.
    pub fn open(path: &std::path::Path) -> Result<FileStorage> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        Ok(FileStorage { file })
    }
}

impl StorageMedium for FileStorage {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()
    }

    fn durable_len(&mut self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_bytes_survive_a_crash_unsynced_bytes_may_not() {
        let disk = MemDisk::new(7, StorageFaults::clean());
        let mut f = disk.open("wal");
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b"volatile").unwrap();
        disk.crash();
        let mut f = disk.open("wal");
        // Clean faults: the unsynced tail vanishes whole.
        assert_eq!(f.read_all().unwrap(), b"durable");
        assert_eq!(disk.crash_count(), 1);
    }

    #[test]
    fn torn_crash_keeps_only_a_prefix_of_the_unsynced_tail() {
        let faults = StorageFaults {
            torn_tail_p: 1.0,
            ..StorageFaults::clean()
        };
        for seed in 0..32 {
            let disk = MemDisk::new(seed, faults);
            let mut f = disk.open("wal");
            f.append(b"durable!").unwrap();
            f.sync().unwrap();
            f.append(b"0123456789").unwrap();
            disk.crash();
            let bytes = disk.open("wal").read_all().unwrap();
            assert!(bytes.len() >= 8, "durable prefix lost");
            assert_eq!(&bytes[..8], b"durable!");
            assert!(bytes.len() <= 18, "crash grew the file");
            assert_eq!(&bytes[8..], &b"0123456789"[..bytes.len() - 8]);
        }
    }

    #[test]
    fn bit_flips_stay_inside_the_torn_region() {
        let faults = StorageFaults {
            torn_tail_p: 1.0,
            bit_flip_p: 1.0,
            ..StorageFaults::clean()
        };
        for seed in 0..64 {
            let disk = MemDisk::new(seed, faults);
            let mut f = disk.open("wal");
            f.append(b"durable!").unwrap();
            f.sync().unwrap();
            f.append(b"0123456789").unwrap();
            disk.crash();
            let bytes = disk.open("wal").read_all().unwrap();
            // The synced prefix is sacred even under maximal flipping.
            assert_eq!(&bytes[..8], b"durable!");
        }
    }

    #[test]
    fn injected_append_and_sync_failures_surface_as_errors() {
        let faults = StorageFaults {
            short_write_p: 1.0,
            ..StorageFaults::clean()
        };
        let disk = MemDisk::new(3, faults);
        let mut f = disk.open("wal");
        assert!(f.append(b"x").is_err());
        assert_eq!(f.read_all().unwrap(), b"");

        let faults = StorageFaults {
            fsync_fail_p: 1.0,
            ..StorageFaults::clean()
        };
        let disk = MemDisk::new(3, faults);
        let mut f = disk.open("wal");
        f.append(b"x").unwrap();
        assert!(f.sync().is_err());
        // Unsynced: a crash with clean tearing would drop it; durable
        // image is still empty.
        assert_eq!(f.read_all().unwrap(), b"");
    }

    #[test]
    fn truncate_discards_durable_and_pending() {
        let disk = MemDisk::new(9, StorageFaults::clean());
        let mut f = disk.open("wal");
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        f.append(b"def").unwrap();
        f.truncate().unwrap();
        assert_eq!(f.durable_len().unwrap(), 0);
        f.sync().unwrap();
        assert_eq!(f.read_all().unwrap(), b"");
    }

    #[test]
    fn file_storage_roundtrips_on_a_real_file() {
        let dir = std::env::temp_dir().join(format!("ensemble-kv-st-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut f = FileStorage::open(&path).unwrap();
            f.append(b"hello ").unwrap();
            f.append(b"disk").unwrap();
            f.sync().unwrap();
        }
        {
            let mut f = FileStorage::open(&path).unwrap();
            assert_eq!(f.read_all().unwrap(), b"hello disk");
            assert_eq!(f.durable_len().unwrap(), 10);
            f.truncate().unwrap();
            assert_eq!(f.read_all().unwrap(), b"");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
