//! # oraql-store — crash-safe persistent verdict store
//!
//! ORAQL's probing loop recomputes the same verdicts in every process:
//! the driver's in-memory verdict caches die with the run, so every
//! CLI invocation, bench target, and CI pass pays the full probe bill
//! again. This crate persists those verdicts (and the reference outputs
//! that gate them) in an on-disk, append-only, content-addressed
//! journal, so a warm re-run answers probes with metadata lookups
//! instead of compile + VM + verify cycles.
//!
//! ## Content addressing
//!
//! Keys are the driver's existing salted hashes — nothing here invents
//! new identity:
//!
//! * the **case salt** hashes the benchmark name, accepted references,
//!   ignore patterns and fuel — a verdict is only transferable between
//!   probes that agree on all of those;
//! * the **decisions digest** (salt + rendered decision vector) keys
//!   compile-free answers;
//! * the **module hash** (salt + printed module text) keys
//!   run-free answers for bit-identical recompilations.
//!
//! If a workload generator, verifier input, or fuel budget changes, the
//! salt changes, every key changes, and stale entries are simply never
//! hit — there is no invalidation protocol to get wrong.
//!
//! ## Crash safety
//!
//! The journal ([`journal`]) is append-only with per-record checksums.
//! A process killed mid-append leaves a torn tail that [`Store::open`]
//! silently truncates; a bit-flipped record is skipped and counted.
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

// The PR 4 driver audit, extended to the store now that a long-lived
// server owns journals: no `unwrap`/`expect` may sit on an I/O-reachable
// path. Everything fallible returns `StoreError`/`io::Error`; the only
// panics left are in `#[cfg(test)]` code, which this attribute exempts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod journal;
pub mod stats;

pub use journal::Record;
use journal::{HeaderError, Scan, HEADER_LEN};
pub use stats::{StatsSnapshot, StoreStats};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Chaos-testing hook: may mutate (bit-flip) or truncate (tear) an
/// encoded record frame just before it is written to the journal.
/// Returns `true` when it corrupted the frame. See
/// [`Store::set_write_corruptor`].
pub type WriteCorruptor = Arc<dyn Fn(&mut Vec<u8>) -> bool + Send + Sync>;

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

#[derive(Debug, Default)]
struct Maps {
    exe: HashMap<u64, (bool, u64)>,
    dec: HashMap<u64, (bool, u64)>,
    refs: HashMap<u64, String>,
}

impl Maps {
    fn apply(&mut self, r: Record) {
        match r {
            Record::ExeVerdict { key, pass, unique } => {
                self.exe.insert(key, (pass, unique));
            }
            Record::DecVerdict { key, pass, unique } => {
                self.dec.insert(key, (pass, unique));
            }
            Record::Reference { key, output } => {
                self.refs.insert(key, output);
            }
        }
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
pub struct Store {
    path: PathBuf,
    stats: StoreStats,
    inner: Mutex<Inner>,
    /// Fault-injection hook applied to encoded frames before append.
    corruptor: Mutex<Option<WriteCorruptor>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("stats", &self.stats)
            .field("inner", &self.inner)
            .field("corruptor", &lock_ignore_poison(&self.corruptor).is_some())
            .finish()
    }
}

/// Separator between the joined reference outputs of one record
/// (ASCII record separator; cannot occur in program stdout, which the
/// VM builds from formatted prints).
pub const REF_SEP: char = '\x1e';

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
        if bytes.len() >= 8 && bytes[0..8] != journal::MAGIC {
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
                stats::obs().dropped_torn.inc();
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
            corruptor: Mutex::new(None),
        })
    }

    /// Installs (or clears) a chaos-testing [`WriteCorruptor`]. While
    /// set, every appended frame is offered to the hook first; a frame
    /// the hook corrupts still lands in this handle's in-memory maps —
    /// exactly like real silent disk rot, the damage is only discovered
    /// (checksum-skipped and counted) by the next process that scans
    /// the journal. Counted in [`StatsSnapshot::injected_corrupt`].
    pub fn set_write_corruptor(&self, c: Option<WriteCorruptor>) {
        *lock_ignore_poison(&self.corruptor) = c;
    }

    fn note_scan(stats: &StoreStats, scan: &Scan) {
        StoreStats::bump(&stats.recovered, scan.records.len() as u64);
        StoreStats::bump(&stats.dropped_corrupt, scan.corrupt);
        StoreStats::bump(&stats.dropped_torn, scan.torn);
        let obs = stats::obs();
        obs.recovered.add(scan.records.len() as u64);
        obs.dropped_corrupt.add(scan.corrupt);
        obs.dropped_torn.add(scan.torn);
    }

    /// The journal path this handle is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Looks up a verdict by salted module hash.
    pub fn exe_verdict(&self, key: u64) -> Option<(bool, u64)> {
        let hit = lock_ignore_poison(&self.inner).maps.exe.get(&key).copied();
        StoreStats::bump(
            if hit.is_some() {
                &self.stats.exe_hits
            } else {
                &self.stats.misses
            },
            1,
        );
        hit
    }

    /// Looks up a verdict by salted decisions digest.
    pub fn dec_verdict(&self, key: u64) -> Option<(bool, u64)> {
        let hit = lock_ignore_poison(&self.inner).maps.dec.get(&key).copied();
        StoreStats::bump(
            if hit.is_some() {
                &self.stats.dec_hits
            } else {
                &self.stats.misses
            },
            1,
        );
        hit
    }

    /// The stored reference outputs for a case salt, if any.
    pub fn references(&self, salt: u64) -> Option<Vec<String>> {
        lock_ignore_poison(&self.inner)
            .maps
            .refs
            .get(&salt)
            .map(|s| s.split(REF_SEP).map(str::to_owned).collect())
    }

    /// Live records (exe + dec + refs) this handle has loaded.
    pub fn len(&self) -> usize {
        let maps = &lock_ignore_poison(&self.inner).maps;
        maps.exe.len() + maps.dec.len() + maps.refs.len()
    }

    /// Whether this handle has loaded no live record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records an executable-hash verdict (no-op if an identical record
    /// is already live, so re-runs do not grow the journal).
    pub fn record_exe(&self, key: u64, pass: bool, unique: u64) -> std::io::Result<()> {
        self.record(Record::ExeVerdict { key, pass, unique })
    }

    /// Records a decisions-digest verdict (same dedup as
    /// [`Store::record_exe`]).
    pub fn record_dec(&self, key: u64, pass: bool, unique: u64) -> std::io::Result<()> {
        self.record(Record::DecVerdict { key, pass, unique })
    }

    /// Records the accepted reference outputs for a case salt.
    pub fn record_references(&self, salt: u64, outputs: &[String]) -> std::io::Result<()> {
        let joined = outputs.join(&REF_SEP.to_string());
        self.record(Record::Reference {
            key: salt,
            output: joined,
        })
    }

    fn record(&self, r: Record) -> std::io::Result<()> {
        let mut inner = lock_ignore_poison(&self.inner);
        let live = match &r {
            Record::ExeVerdict { key, pass, unique } => {
                inner.maps.exe.get(key) == Some(&(*pass, *unique))
            }
            Record::DecVerdict { key, pass, unique } => {
                inner.maps.dec.get(key) == Some(&(*pass, *unique))
            }
            Record::Reference { key, output } => inner.maps.refs.get(key) == Some(output),
        };
        if live {
            return Ok(());
        }
        let mut frame = r.encode();
        if let Some(c) = lock_ignore_poison(&self.corruptor).as_ref() {
            if c(&mut frame) {
                StoreStats::bump(&self.stats.injected_corrupt, 1);
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
        stats::obs().appends.inc();
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
        let obs = stats::obs();
        obs.recovered.add(scan.records.len() as u64);
        obs.dropped_corrupt.add(scan.corrupt);
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
        let res = writer.sync_data();
        if res.is_ok() {
            stats::obs().fsyncs.inc();
        }
        res
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
        // Deterministic journal bytes: sorted keys per record kind.
        let mut exe: Vec<_> = inner.maps.exe.iter().collect();
        exe.sort_unstable_by_key(|(k, _)| **k);
        for (&key, &(pass, unique)) in exe {
            out.extend_from_slice(&Record::ExeVerdict { key, pass, unique }.encode());
            records += 1;
        }
        let mut dec: Vec<_> = inner.maps.dec.iter().collect();
        dec.sort_unstable_by_key(|(k, _)| **k);
        for (&key, &(pass, unique)) in dec {
            out.extend_from_slice(&Record::DecVerdict { key, pass, unique }.encode());
            records += 1;
        }
        let mut refs: Vec<_> = inner.maps.refs.iter().collect();
        refs.sort_unstable_by_key(|(k, _)| **k);
        for (&key, output) in refs {
            out.extend_from_slice(
                &Record::Reference {
                    key,
                    output: output.clone(),
                }
                .encode(),
            );
            records += 1;
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
            s.record_exe(1, true, 10).unwrap();
            s.record_dec(2, false, 20).unwrap();
            s.record_references(3, &["a\n".into(), "b\n".into()])
                .unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(&path).unwrap();
        assert_eq!(s.exe_verdict(1), Some((true, 10)));
        assert_eq!(s.dec_verdict(2), Some((false, 20)));
        assert_eq!(s.references(3), Some(vec!["a\n".into(), "b\n".into()]));
        assert_eq!(s.stats().recovered, 3);
        assert_eq!(s.stats().hits(), 2);
        assert_eq!(s.exe_verdict(999), None);
        assert_eq!(s.stats().misses, 1);
        cleanup(&path);
    }

    #[test]
    fn identical_rerecord_does_not_grow_journal() {
        let path = tmp("dedup");
        let s = Store::open(&path).unwrap();
        s.record_exe(1, true, 10).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        s.record_exe(1, true, 10).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(s.stats().appends, 1);
        // A *changed* verdict for the same key is appended (last wins).
        s.record_exe(1, true, 11).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > len);
        assert_eq!(s.exe_verdict(1), Some((true, 11)));
        cleanup(&path);
    }

    #[test]
    fn torn_tail_recovers_and_truncates() {
        let path = tmp("torn");
        {
            let s = Store::open(&path).unwrap();
            for k in 0..10 {
                s.record_dec(k, true, k).unwrap();
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
            assert_eq!(s.dec_verdict(k), Some((true, k)), "record {k}");
        }
        assert_eq!(s.dec_verdict(9), None);
        // The torn bytes are gone: appends resume on a frame boundary
        // and a further reopen sees a clean journal.
        s.record_dec(9, true, 9).unwrap();
        s.sync().unwrap();
        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.stats().dropped_torn, 0);
        assert_eq!(s2.stats().recovered, 10);
        assert_eq!(s2.dec_verdict(9), Some((true, 9)));
        cleanup(&path);
    }

    #[test]
    fn corrupt_record_skipped_with_counted_stat() {
        let path = tmp("corrupt");
        {
            let s = Store::open(&path).unwrap();
            s.record_exe(1, true, 10).unwrap();
            s.record_exe(2, true, 20).unwrap();
            s.record_exe(3, true, 30).unwrap();
            s.sync().unwrap();
        }
        // Flip one payload byte of the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = Record::ExeVerdict {
            key: 1,
            pass: true,
            unique: 10,
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
        assert_eq!(s.exe_verdict(1), Some((true, 10)));
        assert_eq!(s.exe_verdict(2), None, "corrupt record must not serve");
        assert_eq!(s.exe_verdict(3), Some((true, 30)));
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
    fn concurrent_two_handle_append_and_read() {
        let path = tmp("two_handles");
        let a = Arc::new(Store::open(&path).unwrap());
        let b = Arc::new(Store::open(&path).unwrap());
        std::thread::scope(|sc| {
            let a2 = Arc::clone(&a);
            let b2 = Arc::clone(&b);
            sc.spawn(move || {
                for k in 0..50 {
                    a2.record_exe(k, true, k).unwrap();
                }
            });
            sc.spawn(move || {
                for k in 50..100 {
                    b2.record_dec(k, false, k).unwrap();
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
            assert_eq!(a.exe_verdict(k), Some((true, k)));
            assert_eq!(b.exe_verdict(k), Some((true, k)), "b sees a's records");
        }
        for k in 50..100 {
            assert_eq!(b.dec_verdict(k), Some((false, k)));
            assert_eq!(a.dec_verdict(k), Some((false, k)), "a sees b's records");
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
                s.record_dec(k, true, 100 * round + k).unwrap();
            }
        }
        s.record_references(7, &["ref\n".into()]).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let c = s.compact().unwrap();
        assert_eq!(c.records, 21);
        assert_eq!(c.bytes_before, before);
        assert!(c.bytes_after < before, "{c:?}");
        for k in 0..20 {
            assert_eq!(s.dec_verdict(k), Some((true, 400 + k)), "latest round wins");
        }
        // Appends after compaction land in the new journal.
        s.record_exe(1000, false, 1).unwrap();
        s.sync().unwrap();
        let r = Store::open(&path).unwrap();
        assert_eq!(r.stats().recovered, 22);
        assert_eq!(r.dec_verdict(5), Some((true, 405)));
        assert_eq!(r.exe_verdict(1000), Some((false, 1)));
        assert_eq!(r.references(7), Some(vec!["ref\n".into()]));
        cleanup(&path);
    }

    #[test]
    fn compaction_is_deterministic_and_drops_corrupt_bytes() {
        let path = tmp("compact_det");
        {
            let s = Store::open(&path).unwrap();
            s.record_exe(3, true, 3).unwrap();
            s.record_exe(1, true, 1).unwrap();
            s.record_dec(2, false, 2).unwrap();
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
        a.record_exe(1, true, 1).unwrap();
        b.refresh().unwrap();
        // b compacts (rename swaps the inode); a's next append must not
        // vanish into the unlinked file.
        b.compact().unwrap();
        a.record_exe(2, true, 2).unwrap();
        a.sync().unwrap();
        let c = Store::open(&path).unwrap();
        assert_eq!(c.exe_verdict(1), Some((true, 1)));
        assert_eq!(c.exe_verdict(2), Some((true, 2)));
        cleanup(&path);
    }

    #[test]
    fn display_of_stats_is_stable() {
        let path = tmp("display");
        let s = Store::open(&path).unwrap();
        s.record_exe(1, true, 1).unwrap();
        let _ = s.exe_verdict(1);
        let text = s.stats().to_string();
        assert!(text.contains("1 hits (1 exe / 0 dec)"), "{text}");
        assert!(text.contains("1 appends"), "{text}");
        cleanup(&path);
    }

    #[test]
    fn write_corruptor_bitflip_is_dropped_on_reopen() {
        let path = tmp("corruptor_flip");
        {
            let s = Store::open(&path).unwrap();
            s.record_exe(1, true, 10).unwrap();
            // Flip one payload bit of every frame appended from here on.
            s.set_write_corruptor(Some(Arc::new(|frame: &mut Vec<u8>| {
                let last = frame.len() - 1;
                frame[last] ^= 0x01;
                true
            })));
            s.record_exe(2, true, 20).unwrap();
            s.sync().unwrap();
            // The writing handle still sees the record in memory —
            // silent disk rot is invisible to the writer by design.
            assert_eq!(s.exe_verdict(2), Some((true, 20)));
            assert_eq!(s.stats().injected_corrupt, 1);
        }
        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.exe_verdict(1), Some((true, 10)), "clean record kept");
        assert_eq!(s2.exe_verdict(2), None, "corrupt record dropped");
        assert_eq!(s2.stats().dropped_corrupt, 1);
        assert_eq!(s2.stats().recovered, 1);
        cleanup(&path);
    }

    #[test]
    fn write_corruptor_torn_tail_is_truncated_on_reopen() {
        let path = tmp("corruptor_torn");
        {
            let s = Store::open(&path).unwrap();
            s.record_exe(1, true, 10).unwrap();
            // Tear the frame in half, as if the process died mid-write.
            s.set_write_corruptor(Some(Arc::new(|frame: &mut Vec<u8>| {
                frame.truncate(frame.len() / 2);
                true
            })));
            s.record_exe(2, false, 0).unwrap();
            s.sync().unwrap();
        }
        let s2 = Store::open(&path).unwrap();
        assert_eq!(s2.exe_verdict(1), Some((true, 10)));
        assert_eq!(s2.exe_verdict(2), None, "torn record truncated away");
        assert_eq!(s2.stats().dropped_torn, 1);
        // Clearing the hook restores normal appends.
        {
            let s = Store::open(&path).unwrap();
            s.set_write_corruptor(None);
            s.record_exe(3, true, 30).unwrap();
            s.sync().unwrap();
        }
        let s3 = Store::open(&path).unwrap();
        assert_eq!(s3.exe_verdict(3), Some((true, 30)));
        cleanup(&path);
    }
}
