//! # oraql-store — crash-safe persistent verdict store
//!
//! ORAQL's probing loop recomputes the same verdicts in every process:
//! the driver's in-memory verdict caches die with the run, so every
//! CLI invocation, bench target, and CI pass pays the full probe bill
//! again. This crate persists those verdicts in an on-disk,
//! append-only, content-addressed journal, so a warm re-run answers
//! probes with metadata lookups instead of compile + VM + verify
//! cycles.
//!
//! ## Content addressing
//!
//! A [`Verdict`] is filed under a key in one of two key spaces
//! ([`Space`]). Keys are the driver's existing salted hashes — nothing
//! here invents new identity. The **case salt** hashes the benchmark
//! name, accepted references, ignore patterns, fuel, ORAQL scope,
//! `use_cfl`, optimism kind, and the structural key
//! (`oraql_ir::printer::module_key`) of the unoptimized module the case
//! builds, so a verdict is only transferable between probes that agree
//! on all of those; under it,
//!
//! * the **decisions digest** (salt + rendered decision vector,
//!   [`Space::Dec`]) keys compile-free answers;
//! * the **module hash** (`oraql_ir::printer::module_key` under the
//!   salt: the printed module's fields, hashed without printing,
//!   [`Space::Exe`]) keys run-free answers for bit-identical
//!   recompilations.
//!
//! If any of those changes — a workload generator that builds a
//! different module, a verifier input, the fuel budget, the scope —
//! the salt changes, every key changes, and stale entries are simply
//! never hit: there is no invalidation protocol to get wrong. The
//! module key leaves out what the printed module leaves out (global
//! initial bytes, a function's source file), so a generator change
//! that touches only those keeps the salt.
//!
//! ## Crash safety
//!
//! The journal ([`journal`]) is append-only with per-record checksums.
//! A process killed mid-append leaves a torn tail that [`Store::open`]
//! silently truncates; a bit-flipped record, or a torn one that later
//! appends landed after, is skipped up to the next intact record and
//! counted.
//! Compaction ([`Store::compact`]) rewrites the journal to one record
//! per live key through a temp file + atomic rename, guarded by an
//! advisory file lock so concurrent processes cannot compact over each
//! other; appends take the same lock shared and re-open their handle if
//! the inode changed underneath them.
//!
//! ## Concurrency contract
//!
//! * one process, many threads: share one [`Store`] in an `Arc`; all
//!   internal state is behind a mutex, counters are atomics;
//! * many processes: appends are single `write(2)` calls on an
//!   `O_APPEND` descriptor under a shared advisory lock; torn/interleaved
//!   writes are detected by checksums on the next open. [`Store::refresh`]
//!   picks up records other handles appended since open.
//!
//! ## Chaos
//!
//! A handle given a [`FaultInjector`] ([`Store::with_faults`]) draws the
//! `store-write-bitflip` and `store-write-torn` sites on every append
//! in [`Store::record`], its one write path. A damaged frame still
//! lands in the writing handle's maps, as silent disk rot would; the
//! next open drops it as corrupt or torn.

// The PR 4 driver audit, extended to the store now that a long-lived
// server owns journals: no `unwrap`/`expect` may sit on an I/O-reachable
// path. Everything fallible returns `StoreError`/`io::Error`; the only
// panics left are in `#[cfg(test)]` code, which this attribute exempts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod journal;
pub mod stats;

pub use journal::Record;
use journal::{HeaderError, Scan, HEADER_LEN};
use oraql_faults::{FaultInjector, FaultSite};
pub use stats::{StatsSnapshot, StoreStats};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A probe verdict as every tier files it: did the compiled program
/// verify, and how many unique ORAQL queries its compilation reported.
pub type Verdict = (bool, u64);

/// The two key spaces a verdict is filed under (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The salted decisions digest: a hit skips the compile and the run.
    Dec,
    /// The salted executable hash: a hit skips the run.
    Exe,
}

/// Errors opening or maintaining a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file exists but is not a (supported) store journal.
    Header(HeaderError),
    /// Another process holds the compaction lock.
    Locked,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Header(e) => write!(f, "{e}"),
            StoreError::Locked => write!(f, "store is locked by another process"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Outcome of one [`Store::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compaction {
    /// Live records written to the compacted journal.
    pub records: u64,
    /// Journal size before, in bytes.
    pub bytes_before: u64,
    /// Journal size after, in bytes.
    pub bytes_after: u64,
}

/// The live verdicts, one map per [`Space`] (indexed by `space as usize`).
#[derive(Debug, Default)]
struct Maps([HashMap<u64, Verdict>; 2]);

impl Maps {
    fn space(&self, space: Space) -> &HashMap<u64, Verdict> {
        &self.0[space as usize]
    }

    fn apply(&mut self, r: Record) {
        self.0[r.space as usize].insert(r.key, r.verdict);
    }
}

#[derive(Debug)]
struct Inner {
    maps: Maps,
    /// Append handle (`O_APPEND`) to the journal.
    writer: File,
    /// Handle to the sibling `.lock` file; held open for the handle's
    /// lifetime, locked shared around appends and exclusively around
    /// compaction.
    lock: File,
    /// Absolute journal offset this handle has loaded through.
    scanned: u64,
}

/// A handle to one on-disk verdict store. Cheap to share via `Arc`;
/// every operation is safe from any thread.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    stats: StoreStats,
    inner: Mutex<Inner>,
    /// Chaos: draws the store-write fault sites on every append.
    faults: Option<Arc<FaultInjector>>,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".lock");
    PathBuf::from(s)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".tmp");
    PathBuf::from(s)
}

#[cfg(unix)]
fn same_file(a: &File, path: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (a.metadata(), std::fs::metadata(path)) {
        (Ok(ma), Ok(mp)) => ma.ino() == mp.ino() && ma.dev() == mp.dev(),
        _ => false,
    }
}

#[cfg(not(unix))]
fn same_file(_a: &File, _path: &Path) -> bool {
    true // best effort: non-unix hosts skip the staleness check
}

impl Store {
    /// Opens (or creates) the journal at `path`, recovering whatever is
    /// intact: a torn tail is truncated away, checksum-corrupt records
    /// are skipped, and both are counted in [`Store::stats`]. Fails only
    /// on I/O errors or when the file is not a store journal at all.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let stats = StoreStats::default();
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let prefix = bytes.len().min(journal::MAGIC.len());
        if bytes[..prefix] != journal::MAGIC[..prefix] {
            return Err(StoreError::Header(HeaderError::BadMagic));
        }
        if bytes.len() >= HEADER_LEN {
            journal::check_header(&bytes).map_err(StoreError::Header)?;
        } else {
            // Empty file, or a header torn by a crash during creation:
            // (re)initialize. The magic was already vetted above, so
            // this can only discard a partial header, never user data.
            if !bytes.is_empty() {
                StoreStats::bump(&stats.dropped_torn, 1);
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&journal::header())?;
            file.sync_data()?;
            bytes = journal::header().to_vec();
        }
        let scan = journal::scan(&bytes[HEADER_LEN..], HEADER_LEN as u64);
        if scan.valid_end < bytes.len() as u64 {
            // Drop the torn tail so future appends start on a frame
            // boundary.
            file.set_len(scan.valid_end)?;
            file.sync_data()?;
        }
        Self::note_scan(&stats, &scan);
        let mut maps = Maps::default();
        let scanned = scan.valid_end;
        for r in scan.records {
            maps.apply(r);
        }
        drop(file);
        let writer = OpenOptions::new().append(true).open(&path)?;
        let lock = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(lock_path(&path))?;
        Ok(Store {
            path,
            stats,
            inner: Mutex::new(Inner {
                maps,
                writer,
                lock,
                scanned,
            }),
            faults: None,
        })
    }

    /// Hands this handle a fault injector (`None`: none). Every later
    /// append draws the `store-write-bitflip` and `store-write-torn`
    /// sites from it (see the module docs).
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Store {
        self.faults = faults;
        self
    }

    fn note_scan(stats: &StoreStats, scan: &Scan) {
        StoreStats::bump(&stats.recovered, scan.records.len() as u64);
        StoreStats::bump(&stats.dropped_corrupt, scan.corrupt);
        StoreStats::bump(&stats.dropped_torn, scan.torn);
    }

    /// The journal path this handle is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Looks up the verdict filed under `key` in `space`.
    pub fn verdict(&self, space: Space, key: u64) -> Option<Verdict> {
        let hit = lock_ignore_poison(&self.inner)
            .maps
            .space(space)
            .get(&key)
            .copied();
        let counter = match (hit, space) {
            (None, _) => &self.stats.misses,
            (Some(_), Space::Dec) => &self.stats.dec_hits,
            (Some(_), Space::Exe) => &self.stats.exe_hits,
        };
        StoreStats::bump(counter, 1);
        hit
    }

    /// Live verdicts (both spaces) this handle has loaded.
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.inner)
            .maps
            .0
            .iter()
            .map(HashMap::len)
            .sum()
    }

    /// Whether this handle has loaded no live record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Store::record`] in [`Space::Dec`].
    pub fn record_dec(&self, key: u64, pass: bool, unique: u64) -> std::io::Result<()> {
        self.record(Space::Dec, key, (pass, unique))
    }

    /// Files `verdict` under `key` in `space`: one journal append, then
    /// the in-memory map. A no-op when that verdict is already live, so
    /// re-runs do not grow the journal; a changed verdict is appended
    /// and the last one wins.
    pub fn record(&self, space: Space, key: u64, verdict: Verdict) -> std::io::Result<()> {
        let mut inner = lock_ignore_poison(&self.inner);
        if inner.maps.space(space).get(&key) == Some(&verdict) {
            return Ok(());
        }
        let r = Record {
            space,
            key,
            verdict,
        };
        let mut frame = r.encode();
        if let Some(f) = &self.faults {
            // Both sites are drawn on every append, so each site's
            // occurrence stream stays independent of the other's rate.
            let (flip, tear) = (
                f.fire(FaultSite::StoreWriteBitFlip),
                f.fire(FaultSite::StoreWriteTorn),
            );
            if flip {
                let last = frame.len() - 1;
                frame[last] ^= 0x01;
            }
            if tear {
                frame.truncate(frame.len() / 2);
            }
        }
        inner.lock.lock_shared()?;
        let res = (|| {
            if !same_file(&inner.writer, &self.path) {
                // Another process compacted the journal out from under
                // us: rebind to the new inode and pick up its records
                // before appending.
                inner.writer = OpenOptions::new().append(true).open(&self.path)?;
                inner.scanned = HEADER_LEN as u64;
                Self::refresh_locked(&self.stats, &mut inner, &self.path)?;
            }
            inner.writer.write_all(&frame)
        })();
        let _ = File::unlock(&inner.lock);
        res?;
        // `scanned` is deliberately NOT advanced: with concurrent
        // writers this frame landed at the shared EOF, not at our scan
        // offset. A later refresh re-reads it and re-applies it — an
        // idempotent no-op.
        inner.maps.apply(r);
        StoreStats::bump(&self.stats.appends, 1);
        Ok(())
    }

    /// Loads records other handles (threads or processes) appended
    /// since this handle last read the journal. Returns how many new
    /// records were merged. A tail currently being written by another
    /// process is left in place — it will be complete (or truncated) by
    /// the time it matters.
    pub fn refresh(&self) -> std::io::Result<u64> {
        let mut inner = lock_ignore_poison(&self.inner);
        if !same_file(&inner.writer, &self.path) {
            inner.writer = OpenOptions::new().append(true).open(&self.path)?;
            inner.scanned = HEADER_LEN as u64;
        }
        Self::refresh_locked(&self.stats, &mut inner, &self.path)
    }

    fn refresh_locked(stats: &StoreStats, inner: &mut Inner, path: &Path) -> std::io::Result<u64> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(inner.scanned))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            return Ok(0);
        }
        let scan = journal::scan(&bytes, inner.scanned);
        // Unlike open(), do not truncate or count a torn tail here: the
        // partial frame may simply still be in flight from another
        // writer. Only consume what is already whole.
        StoreStats::bump(&stats.recovered, scan.records.len() as u64);
        StoreStats::bump(&stats.dropped_corrupt, scan.corrupt);
        let n = scan.records.len() as u64;
        inner.scanned = scan.valid_end;
        for r in scan.records {
            inner.maps.apply(r);
        }
        Ok(n)
    }

    /// Flushes appended records to disk (`fdatasync`). Appends are
    /// plain `write(2)` calls; call this at a checkpoint (end of a
    /// case, end of a run) to bound the loss window on power failure.
    ///
    /// The flush runs on a cloned descriptor outside the handle's lock,
    /// so lookups and appends from other threads proceed while the disk
    /// catches up. A compaction that swaps the journal meanwhile has
    /// already synced the new file itself.
    pub fn sync(&self) -> std::io::Result<()> {
        let writer = lock_ignore_poison(&self.inner).writer.try_clone()?;
        writer.sync_data()
    }

    /// Rewrites the journal keeping exactly one record per live key —
    /// superseded and corrupt records disappear, and the byte size
    /// shrinks accordingly. Safe against concurrent processes: takes
    /// the advisory lock exclusively (fails with [`StoreError::Locked`]
    /// if contended), merges any records appended since the last
    /// refresh, writes a fresh journal next to the old one and renames
    /// it into place atomically.
    pub fn compact(&self) -> Result<Compaction, StoreError> {
        let mut inner = lock_ignore_poison(&self.inner);
        match inner.lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => return Err(StoreError::Locked),
            Err(std::fs::TryLockError::Error(e)) => return Err(StoreError::Io(e)),
        }
        let res = self.compact_locked(&mut inner);
        let _ = File::unlock(&inner.lock);
        res
    }

    fn compact_locked(&self, inner: &mut Inner) -> Result<Compaction, StoreError> {
        // Pick up everything other processes appended first, so
        // compaction never drops a record it did not know about.
        Self::refresh_locked(&self.stats, inner, &self.path)?;
        let bytes_before = std::fs::metadata(&self.path)?.len();
        let tmp = tmp_path(&self.path);
        let mut out = Vec::with_capacity(bytes_before as usize);
        out.extend_from_slice(&journal::header());
        let mut records = 0u64;
        // Deterministic journal bytes: tag order, then sorted keys.
        for space in [Space::Exe, Space::Dec] {
            let mut live: Vec<_> = inner.maps.space(space).iter().collect();
            live.sort_unstable_by_key(|(k, _)| **k);
            for (&key, &verdict) in live {
                out.extend_from_slice(
                    &Record {
                        space,
                        key,
                        verdict,
                    }
                    .encode(),
                );
                records += 1;
            }
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            // Persist the rename itself (directory entry update).
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        inner.writer = OpenOptions::new().append(true).open(&self.path)?;
        inner.scanned = out.len() as u64;
        StoreStats::bump(&self.stats.compactions, 1);
        Ok(Compaction {
            records,
            bytes_before,
            bytes_after: out.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oraql_store_{name}_{}",
            std::process::id() // parallel `cargo test` binaries stay apart
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("verdicts.journal")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn roundtrip_across_reopen() {
        let path = tmp("roundtrip");
        {
            let s = Store::open(&path).unwrap();
            s.record(Space::Exe, 1, (true, 10)).unwrap();
            s.record(Space::Dec, 2, (false, 20)).unwrap();
            // The spaces are disjoint: one key, two verdicts.
            s.record(Space::Exe, 2, (true, 30)).unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(&path).unwrap();
        assert_eq!(s.verdict(Space::Exe, 1), Some((true, 10)));
        assert_eq!(s.verdict(Space::Dec, 2), Some((false, 20)));
        assert_eq!(s.verdict(Space::Exe, 2), Some((true, 30)));
        assert_eq!(s.stats().recovered, 3);
        assert_eq!(s.stats().hits(), 3);
        assert_eq!(s.verdict(Space::Dec, 1), None);
        assert_eq!(s.stats().misses, 1);
        cleanup(&path);
    }

    #[test]
    fn identical_rerecord_does_not_grow_journal() {
        let path = tmp("dedup");
        let s = Store::open(&path).unwrap();
        s.record(Space::Exe, 1, (true, 10)).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        s.record(Space::Exe, 1, (true, 10)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(s.stats().appends, 1);
        // A *changed* verdict for the same key is appended (last wins).
        s.record(Space::Exe, 1, (true, 11)).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > len);
        assert_eq!(s.verdict(Space::Exe, 1), Some((true, 11)));
        cleanup(&path);
    }

    #[test]
    fn torn_tail_recovers_and_truncates() {
        let path = tmp("torn");
        {
            let s = Store::open(&path).unwrap();
            for k in 0..10 {
                s.record(Space::Dec, k, (true, k)).unwrap();
            }
            s.sync().unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Kill-mid-write: chop into the final record.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 4).unwrap();
        drop(f);
        let s = Store::open(&path).unwrap();
        assert_eq!(s.stats().dropped_torn, 1);
        assert_eq!(s.stats().recovered, 9);
        for k in 0..9 {
            assert_eq!(s.verdict(Space::Dec, k), Some((true, k)), "record {k}");
        }
        assert_eq!(s.verdict(Space::Dec, 9), None);
        // The torn bytes are gone: appends resume on a frame boundary
        // and a further reopen sees a clean journal.
        s.record(Space::Dec, 9, (true, 9)).unwrap();
        s.sync().unwrap();
        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.stats().dropped_torn, 0);
        assert_eq!(s2.stats().recovered, 10);
        assert_eq!(s2.verdict(Space::Dec, 9), Some((true, 9)));
        cleanup(&path);
    }

    #[test]
    fn corrupt_record_skipped_with_counted_stat() {
        let path = tmp("corrupt");
        {
            let s = Store::open(&path).unwrap();
            s.record(Space::Exe, 1, (true, 10)).unwrap();
            s.record(Space::Exe, 2, (true, 20)).unwrap();
            s.record(Space::Exe, 3, (true, 30)).unwrap();
            s.sync().unwrap();
        }
        // Flip one payload byte of the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = Record {
            space: Space::Exe,
            key: 1,
            verdict: (true, 10),
        }
        .encode()
        .len();
        let mid_payload = HEADER_LEN + frame + journal::RECORD_HEADER_LEN + 2;
        bytes[mid_payload] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let s = Store::open(&path).unwrap();
        assert_eq!(s.stats().dropped_corrupt, 1);
        assert_eq!(s.stats().dropped_torn, 0);
        assert_eq!(s.stats().recovered, 2);
        assert_eq!(s.verdict(Space::Exe, 1), Some((true, 10)));
        assert_eq!(
            s.verdict(Space::Exe, 2),
            None,
            "corrupt record must not serve"
        );
        assert_eq!(s.verdict(Space::Exe, 3), Some((true, 30)));
        cleanup(&path);
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        match Store::open(&path) {
            Err(StoreError::Header(HeaderError::BadMagic)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn rejects_a_foreign_file_shorter_than_the_magic() {
        let path = tmp("short_foreign");
        std::fs::write(&path, b"hello").unwrap();
        match Store::open(&path) {
            Err(StoreError::Header(HeaderError::BadMagic)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello", "bytes untouched");
        cleanup(&path);
    }

    #[test]
    fn torn_magic_prefix_reinitializes() {
        let path = tmp("torn_magic");
        std::fs::write(&path, b"ORAQL").unwrap();
        let s = Store::open(&path).unwrap();
        assert_eq!(s.stats().dropped_torn, 1);
        assert!(s.is_empty());
        s.record(Space::Dec, 1, (true, 1)).unwrap();
        drop(s);
        assert_eq!(Store::open(&path).unwrap().stats().recovered, 1);
        cleanup(&path);
    }

    #[test]
    fn concurrent_two_handle_append_and_read() {
        let path = tmp("two_handles");
        let a = Arc::new(Store::open(&path).unwrap());
        let b = Arc::new(Store::open(&path).unwrap());
        std::thread::scope(|sc| {
            let a2 = Arc::clone(&a);
            let b2 = Arc::clone(&b);
            sc.spawn(move || {
                for k in 0..50 {
                    a2.record(Space::Exe, k, (true, k)).unwrap();
                }
            });
            sc.spawn(move || {
                for k in 50..100 {
                    b2.record(Space::Dec, k, (false, k)).unwrap();
                }
            });
        });
        a.sync().unwrap();
        b.sync().unwrap();
        // Each handle sees its own writes immediately and the other's
        // after a refresh.
        a.refresh().unwrap();
        b.refresh().unwrap();
        for k in 0..50 {
            assert_eq!(a.verdict(Space::Exe, k), Some((true, k)));
            assert_eq!(
                b.verdict(Space::Exe, k),
                Some((true, k)),
                "b sees a's records"
            );
        }
        for k in 50..100 {
            assert_eq!(b.verdict(Space::Dec, k), Some((false, k)));
            assert_eq!(
                a.verdict(Space::Dec, k),
                Some((false, k)),
                "a sees b's records"
            );
        }
        // And a cold reopen recovers every record intact.
        let c = Store::open(&path).unwrap();
        assert_eq!(c.stats().recovered, 100);
        assert_eq!(c.stats().dropped_corrupt, 0);
        assert_eq!(c.stats().dropped_torn, 0);
        cleanup(&path);
    }

    #[test]
    fn compaction_keeps_latest_verdict_per_key() {
        let path = tmp("compact");
        let s = Store::open(&path).unwrap();
        for round in 0..5u64 {
            for k in 0..20u64 {
                s.record(Space::Dec, k, (true, 100 * round + k)).unwrap();
            }
        }
        s.record(Space::Exe, 7, (true, 7)).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let c = s.compact().unwrap();
        assert_eq!(c.records, 21);
        assert_eq!(c.bytes_before, before);
        assert!(c.bytes_after < before, "{c:?}");
        for k in 0..20 {
            assert_eq!(
                s.verdict(Space::Dec, k),
                Some((true, 400 + k)),
                "latest round wins"
            );
        }
        // Appends after compaction land in the new journal.
        s.record(Space::Exe, 1000, (false, 1)).unwrap();
        s.sync().unwrap();
        let r = Store::open(&path).unwrap();
        assert_eq!(r.stats().recovered, 22);
        assert_eq!(r.verdict(Space::Dec, 5), Some((true, 405)));
        assert_eq!(r.verdict(Space::Exe, 1000), Some((false, 1)));
        assert_eq!(r.verdict(Space::Exe, 7), Some((true, 7)));
        cleanup(&path);
    }

    #[test]
    fn compaction_is_deterministic_and_drops_corrupt_bytes() {
        let path = tmp("compact_det");
        {
            let s = Store::open(&path).unwrap();
            s.record(Space::Exe, 3, (true, 3)).unwrap();
            s.record(Space::Exe, 1, (true, 1)).unwrap();
            s.record(Space::Dec, 2, (false, 2)).unwrap();
            s.sync().unwrap();
        }
        // Corrupt the journal, reopen (skips the bad record), compact:
        // the corrupt frame is gone from the bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xaa;
        std::fs::write(&path, &bytes).unwrap();
        let s = Store::open(&path).unwrap();
        assert_eq!(s.stats().dropped_corrupt, 1);
        s.compact().unwrap();
        let a = std::fs::read(&path).unwrap();
        let s2 = Store::open(&path).unwrap();
        assert_eq!(
            s2.stats().dropped_corrupt,
            0,
            "corrupt bytes compacted away"
        );
        assert_eq!(s2.stats().recovered, 2);
        s2.compact().unwrap();
        let b = std::fs::read(&path).unwrap();
        assert_eq!(a, b, "compaction output is byte-deterministic");
        cleanup(&path);
    }

    #[test]
    fn stale_handle_survives_foreign_compaction() {
        let path = tmp("stale");
        let a = Store::open(&path).unwrap();
        let b = Store::open(&path).unwrap();
        a.record(Space::Exe, 1, (true, 1)).unwrap();
        b.refresh().unwrap();
        // b compacts (rename swaps the inode); a's next append must not
        // vanish into the unlinked file.
        b.compact().unwrap();
        a.record(Space::Exe, 2, (true, 2)).unwrap();
        a.sync().unwrap();
        let c = Store::open(&path).unwrap();
        assert_eq!(c.verdict(Space::Exe, 1), Some((true, 1)));
        assert_eq!(c.verdict(Space::Exe, 2), Some((true, 2)));
        cleanup(&path);
    }

    #[test]
    fn display_of_stats_is_stable() {
        let path = tmp("display");
        let s = Store::open(&path).unwrap();
        s.record(Space::Exe, 1, (true, 1)).unwrap();
        let _ = s.verdict(Space::Exe, 1);
        let text = s.stats().to_string();
        assert!(text.contains("1 hits (1 exe / 0 dec)"), "{text}");
        assert!(text.contains("1 appends"), "{text}");
        cleanup(&path);
    }

    /// A handle whose every append draws `site` as fired.
    fn open_faulty(path: &Path, site: FaultSite) -> (Store, Arc<FaultInjector>) {
        use oraql_faults::{FaultPlan, Rate};
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::quiet(1).with_rate(site, Rate::always()),
        ));
        let s = Store::open(path)
            .unwrap()
            .with_faults(Some(Arc::clone(&inj)));
        (s, inj)
    }

    #[test]
    fn bitflip_site_is_dropped_on_reopen() {
        let path = tmp("fault_flip");
        Store::open(&path)
            .unwrap()
            .record(Space::Exe, 1, (true, 10))
            .unwrap();
        {
            let (s, inj) = open_faulty(&path, FaultSite::StoreWriteBitFlip);
            s.record(Space::Exe, 2, (true, 20)).unwrap();
            s.record(Space::Dec, 3, (false, 0)).unwrap();
            s.sync().unwrap();
            // The writing handle still sees the records in memory —
            // silent disk rot is invisible to the writer by design.
            assert_eq!(s.verdict(Space::Exe, 2), Some((true, 20)));
            // A live verdict is not appended again, so nothing is drawn.
            s.record(Space::Exe, 2, (true, 20)).unwrap();
            assert_eq!(
                inj.summary(),
                [
                    (FaultSite::StoreWriteTorn, 2, 0),
                    (FaultSite::StoreWriteBitFlip, 2, 2)
                ]
            );
        }
        let s2 = Store::open(&path).unwrap();
        assert_eq!(
            s2.verdict(Space::Exe, 1),
            Some((true, 10)),
            "clean record kept"
        );
        assert_eq!(s2.verdict(Space::Exe, 2), None, "corrupt record dropped");
        assert_eq!(s2.stats().dropped_corrupt, 2);
        assert_eq!(s2.stats().recovered, 1);
        cleanup(&path);
    }

    #[test]
    fn torn_site_is_truncated_on_reopen() {
        let path = tmp("fault_torn");
        Store::open(&path)
            .unwrap()
            .record(Space::Exe, 1, (true, 10))
            .unwrap();
        {
            // Tear the frame in half, as if the process died mid-write.
            let (s, inj) = open_faulty(&path, FaultSite::StoreWriteTorn);
            s.record(Space::Exe, 2, (false, 0)).unwrap();
            s.sync().unwrap();
            assert_eq!(inj.fired(FaultSite::StoreWriteTorn), 1);
        }
        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.verdict(Space::Exe, 1), Some((true, 10)));
        assert_eq!(
            s2.verdict(Space::Exe, 2),
            None,
            "torn record truncated away"
        );
        assert_eq!(s2.stats().dropped_torn, 1);
        // A handle without faults appends normally after the cut.
        s2.record(Space::Exe, 3, (true, 30)).unwrap();
        s2.sync().unwrap();
        let s3 = Store::open(&path).unwrap();
        assert_eq!(s3.verdict(Space::Exe, 3), Some((true, 30)));
        assert_eq!(
            (s3.stats().dropped_corrupt, s3.stats().dropped_torn),
            (0, 0)
        );
        cleanup(&path);
    }

    #[test]
    fn journal_with_retired_reference_records_still_opens() {
        // A journal as written before the reference record retired:
        // verdicts of both spaces with tag-3 reference records between
        // them, built from raw frames.
        fn reference(key: u64, output: &str) -> Vec<u8> {
            let mut payload = key.to_le_bytes().to_vec();
            payload.extend_from_slice(output.as_bytes());
            let mut frame = vec![3u8];
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&journal::checksum(3, &payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        }
        let verdicts = [
            (Space::Exe, 1, (true, 10)),
            (Space::Dec, 2, (false, 0)),
            (Space::Dec, 3, (true, 4)),
        ];
        let frame = |(space, key, verdict): (Space, u64, Verdict)| {
            Record {
                space,
                key,
                verdict,
            }
            .encode()
        };
        let path = tmp("retired_refs");
        let mut bytes = journal::header().to_vec();
        bytes.extend(reference(99, "checksum 1.5\n\x1eother\n"));
        bytes.extend(frame(verdicts[0]));
        bytes.extend(frame(verdicts[1]));
        bytes.extend(reference(98, "x\n"));
        bytes.extend(frame(verdicts[2]));
        std::fs::write(&path, &bytes).unwrap();

        let s = Store::open(&path).unwrap();
        let st = s.stats();
        assert_eq!(
            (st.recovered, st.dropped_corrupt, st.dropped_torn),
            (3, 0, 0)
        );
        assert_eq!(s.len(), 3, "no reference record is served");
        for (space, key, verdict) in verdicts {
            assert_eq!(s.verdict(space, key), Some(verdict));
        }
        assert_eq!(s.verdict(Space::Exe, 99), None);
        // Appends land after the old records; compaction drops the
        // reference bytes and keeps every verdict.
        s.record(Space::Exe, 4, (true, 1)).unwrap();
        let c = s.compact().unwrap();
        assert_eq!(c.records, 4);
        let compacted = std::fs::read(&path).unwrap();
        let mut want = journal::header().to_vec();
        for v in [
            verdicts[0],
            (Space::Exe, 4, (true, 1)),
            verdicts[1],
            verdicts[2],
        ] {
            want.extend(frame(v));
        }
        assert_eq!(compacted, want);
        cleanup(&path);
    }
}
