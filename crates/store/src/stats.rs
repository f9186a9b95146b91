//! Store observability: lock-free counters surfaced in driver
//! summaries and bench artifacts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters of one [`crate::Store`] handle. All counters are
/// monotone within the handle's lifetime; [`StoreStats::snapshot`]
/// returns a consistent-enough copy for reporting (each field is read
/// atomically; the set is not a single atomic snapshot, which is fine
/// for summary tables).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Lookups answered from the persistent executable-hash tier.
    pub exe_hits: AtomicU64,
    /// Lookups answered from the persistent decisions-digest tier.
    pub dec_hits: AtomicU64,
    /// Lookups that found nothing in the store.
    pub misses: AtomicU64,
    /// Records appended to the journal by this handle.
    pub appends: AtomicU64,
    /// Intact records loaded from the journal (open + refresh).
    pub recovered: AtomicU64,
    /// Checksum-corrupt / undecodable records skipped.
    pub dropped_corrupt: AtomicU64,
    /// Torn tails (partial final records) truncated away.
    pub dropped_torn: AtomicU64,
    /// Compactions performed by this handle.
    pub compactions: AtomicU64,
}

/// A plain-value copy of [`StoreStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Lookups answered from the persistent executable-hash tier.
    pub exe_hits: u64,
    /// Lookups answered from the persistent decisions-digest tier.
    pub dec_hits: u64,
    /// Lookups that found nothing in the store.
    pub misses: u64,
    /// Records appended to the journal by this handle.
    pub appends: u64,
    /// Intact records loaded from the journal (open + refresh).
    pub recovered: u64,
    /// Checksum-corrupt / undecodable records skipped.
    pub dropped_corrupt: u64,
    /// Torn tails (partial final records) truncated away.
    pub dropped_torn: u64,
    /// Compactions performed by this handle.
    pub compactions: u64,
}

impl StatsSnapshot {
    /// Total persistent-tier hits (both key spaces).
    pub fn hits(&self) -> u64 {
        self.exe_hits + self.dec_hits
    }
}

impl StoreStats {
    /// Copies every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            exe_hits: r(&self.exe_hits),
            dec_hits: r(&self.dec_hits),
            misses: r(&self.misses),
            appends: r(&self.appends),
            recovered: r(&self.recovered),
            dropped_corrupt: r(&self.dropped_corrupt),
            dropped_torn: r(&self.dropped_torn),
            compactions: r(&self.compactions),
        }
    }

    pub(crate) fn bump(a: &AtomicU64, by: u64) {
        a.fetch_add(by, Ordering::Relaxed);
    }
}

/// Process-wide registry handles mirroring the per-handle counters
/// above: `StoreStats` stays the source for per-store CLI lines, the
/// registry aggregates across every handle in the process (warm +
/// chaos stores, the server's journal) for `--metrics-out` and the
/// served `METRICS` op.
pub(crate) struct StoreObs {
    pub appends: &'static oraql_obs::Counter,
    pub fsyncs: &'static oraql_obs::Counter,
    pub recovered: &'static oraql_obs::Counter,
    pub dropped_corrupt: &'static oraql_obs::Counter,
    pub dropped_torn: &'static oraql_obs::Counter,
}

pub(crate) fn obs() -> &'static StoreObs {
    static M: std::sync::OnceLock<StoreObs> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = oraql_obs::global();
        StoreObs {
            appends: r.counter("oraql_store_appends_total"),
            fsyncs: r.counter("oraql_store_fsyncs_total"),
            recovered: r.counter("oraql_store_recovered_total"),
            dropped_corrupt: r.counter("oraql_store_dropped_corrupt_total"),
            dropped_torn: r.counter("oraql_store_dropped_torn_total"),
        }
    })
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits ({} exe / {} dec), {} misses, {} appends; journal: {} recovered, {} corrupt dropped, {} torn dropped",
            self.hits(),
            self.exe_hits,
            self.dec_hits,
            self.misses,
            self.appends,
            self.recovered,
            self.dropped_corrupt,
            self.dropped_torn
        )
    }
}
