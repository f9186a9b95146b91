//! # oraql-faults — deterministic fault-injection plans
//!
//! ORAQL's safety story is "an optimistically wrong no-alias answer is
//! *caught* by the verification run" — which makes the probing driver
//! only as trustworthy as its behaviour when a probe misbehaves. This
//! crate provides the chaos side of that bargain: a **seeded,
//! deterministic fault plan** that the driver threads through its probe
//! path (see `oraql::driver`), injecting panics, VM traps, fuel lies,
//! latency, hangs, corrupted probe output, and store-journal rot at
//! named sites. The served tier (`oraql-served`) threads the same plan
//! through its wire and daemon paths: connection resets, torn and
//! garbled response frames, response latency and hangs, failing group
//! fsyncs, and crash points that kill the daemon between its journal
//! append, ack, and fsync steps.
//!
//! # Determinism contract
//!
//! Everything is a pure function of the plan seed and a per-site
//! occurrence counter: the decision for the `n`-th occurrence of site
//! `s` is
//!
//! ```text
//! splitmix64(seed ^ SITE_TAG[s] ^ n) % den < num
//! ```
//!
//! No wall clock, no OS entropy, no thread identity. With a sequential
//! consumer (the `--jobs 1` driver) the same seed therefore injects the
//! *identical* fault sequence on every run — the chaos CI gate diffs
//! two runs byte-for-byte. With concurrent consumers the per-site
//! occurrence order depends on scheduling, so only the fault *rates*
//! are reproducible, not their placement; the driver's graceful
//! degradation must hold either way.
//!
//! # Vocabulary
//!
//! * [`FaultPlan`] — parsed, immutable description: seed + one rational
//!   rate per [`FaultSite`]. Parse/render round-trips exactly.
//! * [`FaultInjector`] — a thread-safe instance of a plan: hands out
//!   deterministic yes/no decisions via [`FaultInjector::fire`] and
//!   counts what actually fired.
//! * [`InjectedPanic`] — the payload injected panics carry, so the
//!   driver's sandbox can tell an injected panic from a genuine bug.

use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 — the tiny, high-quality mixer the plan is built on.
/// The definition lives in [`oraql_obs::rng`] (one copy for the fault
/// injector, the seeded tests, and the workload generator); re-exported
/// here so existing callers and old plan strings keep working
/// unchanged.
pub use oraql_obs::rng::splitmix64;

/// A named fault-injection site in the probe pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside the probe's pass-pipeline compile.
    CompilePanic,
    /// The VM run traps immediately (`RuntimeError::Injected`).
    VmTrap,
    /// The VM is given a lying (tiny) fuel budget, so healthy programs
    /// report `FuelExhausted`.
    VmFuelLie,
    /// Artificial probe latency (bounded sleep, stays under deadlines).
    ProbeDelay,
    /// Probe hang: sleeps well past the configured probe deadline, so
    /// only the watchdog can reclaim the slot.
    ProbeHang,
    /// The probe's observed stdout is garbled before verification
    /// (simulates corrupted probe I/O).
    OutputGarble,
    /// A persistent-store hit is treated as checksum-corrupt and
    /// discarded (read-side rot).
    StoreReadCorrupt,
    /// A store append writes only a prefix of the record frame
    /// (kill-mid-write torn tail).
    StoreWriteTorn,
    /// A store append bit-flips one payload byte (silent disk rot,
    /// caught by the journal checksum on the next open).
    StoreWriteBitFlip,
    /// The server drops the connection instead of answering a request
    /// (mid-exchange RST as seen by the client).
    ConnReset,
    /// The server writes only a prefix of the response frame and then
    /// drops the connection (torn frame on the wire).
    FrameTorn,
    /// The server flips one byte of the response frame payload after
    /// the checksum was computed (wire corruption; the client's frame
    /// checksum must catch it wherever the flip lands).
    FrameGarble,
    /// The server delays a response briefly (bounded, below any sane
    /// client timeout — latency, not loss).
    ResponseDelay,
    /// The server sits on a response past the client's read timeout,
    /// so only the client-side deadline can reclaim the request.
    ResponseHang,
    /// A group-fsync pass fails for the dirty journal; the journal is
    /// re-marked dirty and retried on the next pass.
    FsyncFail,
    /// The daemon dies at a named crash point (between journal append,
    /// ack, and fsync) — `std::process::abort` in the
    /// real daemon, a simulated hard stop for in-process servers.
    CrashPoint,
}

/// All sites, in wire order. Index into this array is the site's
/// stable id (used for counters and sub-seed derivation).
pub const SITES: [FaultSite; 16] = [
    FaultSite::CompilePanic,
    FaultSite::VmTrap,
    FaultSite::VmFuelLie,
    FaultSite::ProbeDelay,
    FaultSite::ProbeHang,
    FaultSite::OutputGarble,
    FaultSite::StoreReadCorrupt,
    FaultSite::StoreWriteTorn,
    FaultSite::StoreWriteBitFlip,
    FaultSite::ConnReset,
    FaultSite::FrameTorn,
    FaultSite::FrameGarble,
    FaultSite::ResponseDelay,
    FaultSite::ResponseHang,
    FaultSite::FsyncFail,
    FaultSite::CrashPoint,
];

impl FaultSite {
    /// Stable spec-file / CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::CompilePanic => "compile-panic",
            FaultSite::VmTrap => "vm-trap",
            FaultSite::VmFuelLie => "vm-fuel-lie",
            FaultSite::ProbeDelay => "probe-delay",
            FaultSite::ProbeHang => "probe-hang",
            FaultSite::OutputGarble => "output-garble",
            FaultSite::StoreReadCorrupt => "store-read-corrupt",
            FaultSite::StoreWriteTorn => "store-write-torn",
            FaultSite::StoreWriteBitFlip => "store-write-bitflip",
            FaultSite::ConnReset => "conn-reset",
            FaultSite::FrameTorn => "frame-torn",
            FaultSite::FrameGarble => "frame-garble",
            FaultSite::ResponseDelay => "response-delay",
            FaultSite::ResponseHang => "response-hang",
            FaultSite::FsyncFail => "fsync-fail",
            FaultSite::CrashPoint => "crash-point",
        }
    }

    /// Index into [`SITES`].
    pub fn index(self) -> usize {
        SITES.iter().position(|&s| s == self).expect("site listed")
    }

    fn parse(s: &str) -> Option<FaultSite> {
        SITES.iter().copied().find(|site| site.as_str() == s)
    }

    /// Per-site tag mixed into the decision hash, derived from the name
    /// so reordering [`SITES`] cannot silently change old plans.
    fn tag(self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a 64 offset basis
        for b in self.as_str().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// A rational fault rate: the site fires on `num` out of every `den`
/// occurrences (in expectation, deterministically placed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rate {
    /// Numerator; `0` disables the site.
    pub num: u64,
    /// Denominator; `0` is treated like a disabled site.
    pub den: u64,
}

impl Rate {
    /// `num` in every `den` occurrences.
    pub fn new(num: u64, den: u64) -> Rate {
        Rate { num, den }
    }

    /// Never fires.
    pub fn never() -> Rate {
        Rate::default()
    }

    /// Fires on every occurrence.
    pub fn always() -> Rate {
        Rate { num: 1, den: 1 }
    }

    fn is_zero(self) -> bool {
        self.num == 0 || self.den == 0
    }
}

/// A parsed, immutable fault plan: seed plus one rate per site.
///
/// Spec syntax (CLI `--fault-plan`, config `fault_plan =`): a
/// comma-separated list of `key=value` items. `seed=<u64>` sets the
/// seed (default 0); every other key is a [`FaultSite`] name with a
/// `num/den` rational (or `0` to disable). Example:
///
/// ```text
/// seed=42,compile-panic=1/16,vm-trap=1/16,probe-hang=1/64
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The plan seed. Everything else being equal, different seeds
    /// place the same rates at different occurrences.
    pub seed: u64,
    rates: [Rate; SITES.len()],
}

impl FaultPlan {
    /// A plan where nothing ever fires.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [Rate::never(); SITES.len()],
        }
    }

    /// A plan injecting every site at `num/den`.
    pub fn uniform(seed: u64, num: u64, den: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [Rate::new(num, den); SITES.len()],
        }
    }

    /// Sets one site's rate (builder style).
    pub fn with_rate(mut self, site: FaultSite, rate: Rate) -> FaultPlan {
        self.rates[site.index()] = rate;
        self
    }

    /// The rate configured for `site`.
    pub fn rate(&self, site: FaultSite) -> Rate {
        self.rates[site.index()]
    }

    /// Parses a spec string (see the type docs for the syntax).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::quiet(0);
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault plan: expected key=value, got {item:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|e| format!("fault plan: bad seed {value:?}: {e}"))?;
                continue;
            }
            let site =
                FaultSite::parse(key).ok_or_else(|| format!("fault plan: unknown site {key:?}"))?;
            let rate = match value.split_once('/') {
                Some((n, d)) => Rate::new(
                    n.trim()
                        .parse()
                        .map_err(|e| format!("fault plan: bad rate {value:?}: {e}"))?,
                    d.trim()
                        .parse()
                        .map_err(|e| format!("fault plan: bad rate {value:?}: {e}"))?,
                ),
                None => {
                    let num: u64 = value
                        .parse()
                        .map_err(|e| format!("fault plan: bad rate {value:?}: {e}"))?;
                    if num == 0 {
                        Rate::never()
                    } else {
                        return Err(format!(
                            "fault plan: rate for {key} must be 0 or num/den, got {value:?}"
                        ));
                    }
                }
            };
            plan.rates[site.index()] = rate;
        }
        Ok(plan)
    }

    /// Renders the plan back into spec syntax ([`FaultPlan::parse`]
    /// round-trips it).
    pub fn render(&self) -> String {
        let mut s = format!("seed={}", self.seed);
        for site in SITES {
            let r = self.rate(site);
            if !r.is_zero() {
                s.push_str(&format!(",{}={}/{}", site.as_str(), r.num, r.den));
            }
        }
        s
    }

    /// Would occurrence `n` of `site` fire? Pure function of the plan.
    pub fn fires(&self, site: FaultSite, n: u64) -> bool {
        let r = self.rate(site);
        if r.is_zero() {
            return false;
        }
        if r.num >= r.den {
            return true;
        }
        splitmix64(self.seed ^ site.tag() ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % r.den < r.num
    }
}

/// Thread-safe instance of a [`FaultPlan`]: owns the per-site
/// occurrence counters and tallies what fired.
///
/// Each call to [`FaultInjector::fire`] consumes the site's next
/// occurrence index, so a sequential caller sees the plan's exact
/// deterministic sequence. Counters are atomics; concurrent callers
/// interleave occurrence indices in scheduling order (rates hold,
/// placement doesn't — see the crate docs).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    occurrences: [AtomicU64; SITES.len()],
    fired: [AtomicU64; SITES.len()],
}

impl FaultInjector {
    /// Builds an injector over `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            occurrences: Default::default(),
            fired: Default::default(),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consumes the next occurrence of `site` and reports whether the
    /// plan fires a fault there.
    pub fn fire(&self, site: FaultSite) -> bool {
        let i = site.index();
        let n = self.occurrences[i].fetch_add(1, Ordering::Relaxed);
        let hit = self.plan.fires(site, n);
        if hit {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// How many times `site` has fired so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// `(site, occurrences, fired)` rows for every site that was ever
    /// consulted, in [`SITES`] order — the CLI's fault summary.
    pub fn summary(&self) -> Vec<(FaultSite, u64, u64)> {
        SITES
            .iter()
            .enumerate()
            .filter(|(i, _)| self.occurrences[*i].load(Ordering::Relaxed) > 0)
            .map(|(i, &s)| {
                (
                    s,
                    self.occurrences[i].load(Ordering::Relaxed),
                    self.fired[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

/// Panic payload used by every injected panic (such as the probe
/// compile's `compile-panic`), so `catch_unwind` consumers can distinguish chaos from
/// genuine bugs via `payload.downcast_ref::<InjectedPanic>()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic(pub &'static str);

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault: {}", self.0)
    }
}

/// Installs a process-wide panic hook that stays silent for
/// [`InjectedPanic`] payloads and delegates everything else to the
/// previous hook. Idempotent; called by chaos tests and the CLI when a
/// fault plan is active, so deliberate faults don't spam stderr with
/// scary-but-expected panic banners (genuine panics still print).
pub fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_roundtrip() {
        let spec = "seed=42,compile-panic=1/16,vm-trap=1/8,probe-hang=1/64";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rate(FaultSite::CompilePanic), Rate::new(1, 16));
        assert_eq!(plan.rate(FaultSite::VmTrap), Rate::new(1, 8));
        assert_eq!(plan.rate(FaultSite::ProbeDelay), Rate::never());
        let rendered = plan.render();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("what").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("no-such-site=1/2").is_err());
        assert!(FaultPlan::parse("vm-trap=0.5").is_err());
        assert!(FaultPlan::parse("vm-trap=1/x").is_err());
        // `0` disables, empty items are skipped.
        let p = FaultPlan::parse("seed=1,,vm-trap=0,").unwrap();
        assert_eq!(p.rate(FaultSite::VmTrap), Rate::never());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::uniform(7, 1, 4);
        let b = FaultPlan::uniform(7, 1, 4);
        let c = FaultPlan::uniform(8, 1, 4);
        let seq = |p: &FaultPlan| -> Vec<bool> {
            (0..256).map(|n| p.fires(FaultSite::VmTrap, n)).collect()
        };
        assert_eq!(seq(&a), seq(&b), "same seed, same placement");
        assert_ne!(seq(&a), seq(&c), "different seed, different placement");
        // Sites draw from independent streams.
        assert_ne!(
            seq(&a),
            (0..256)
                .map(|n| a.fires(FaultSite::CompilePanic, n))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::uniform(3, 1, 8);
        let hits = (0..8_000)
            .filter(|&n| p.fires(FaultSite::OutputGarble, n))
            .count();
        // 1/8 of 8000 = 1000; splitmix64 is a good mixer, allow ±20%.
        assert!((800..1200).contains(&hits), "hits = {hits}");
        assert!(FaultPlan::uniform(0, 1, 1).fires(FaultSite::VmTrap, 123));
        assert!(!FaultPlan::quiet(0).fires(FaultSite::VmTrap, 123));
    }

    #[test]
    fn injector_consumes_occurrences_in_order() {
        let plan = FaultPlan::uniform(11, 1, 3);
        let inj = FaultInjector::new(plan);
        let direct: Vec<bool> = (0..64).map(|n| plan.fires(FaultSite::VmTrap, n)).collect();
        let via: Vec<bool> = (0..64).map(|_| inj.fire(FaultSite::VmTrap)).collect();
        assert_eq!(direct, via);
        assert_eq!(
            inj.fired(FaultSite::VmTrap),
            direct.iter().filter(|&&b| b).count() as u64
        );
        assert_eq!(inj.fired(FaultSite::CompilePanic), 0);
        let summary = inj.summary();
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].0, FaultSite::VmTrap);
        assert_eq!(summary[0].1, 64);
    }

    #[test]
    fn site_names_are_unique_and_parseable() {
        for site in SITES {
            assert_eq!(FaultSite::parse(site.as_str()), Some(site));
            assert_eq!(SITES[site.index()], site);
        }
    }
}
