//! The ORAQL probing driver (paper §IV-B).
//!
//! Workflow: compile and run with the ORAQL pass deactivated and verify
//! the reference behaviour; try answering *every* query optimistically
//! (the empty sequence); if that breaks verification, bisect with the
//! configured strategy to pin down the queries that must stay
//! pessimistic.
//!
//! # Probe execution and the verdict tiers
//!
//! Every probe goes through the case's `ProbeEngine`, which keeps
//! verdicts in up to three tiers, always walked in this order:
//!
//! 1. **in-memory** maps that belong to the case and die with its
//!    driver;
//! 2. the **persistent verdict store** ([`oraql_store::Store`], when
//!    [`DriverOptions::store`] is set), shared across processes;
//! 3. the **verdict server** ([`oraql_served::Client`], when
//!    [`DriverOptions::server`] is set), shared across tenants. Any
//!    failed server call reads as a miss (counted in
//!    [`FailureStats::server_down`] / `server_busy`, kept cheap by the
//!    client's circuit breaker — see `docs/ARCHITECTURE.md` §7).
//!
//! Each tier files verdicts under two keys, one per key space
//! ([`oraql_store::Space`]), both salted content hashes of the case, so
//! a changed workload, verifier input or fuel budget changes every key
//! and stale entries are simply never consulted:
//!
//! * the **decisions digest** (case salt plus [`Decisions::render`]),
//!   walked before the compile — a hit skips the compile and the run.
//!   The in-memory tier keeps this space only at `jobs > 1`;
//! * the **executable hash** ([`oraql_ir::printer::module_key`] under
//!   the case salt: the printed module's fields, hashed without
//!   printing), walked after the compile — a hit skips the run (the
//!   seed driver's cache).
//!
//! The first hit of a walk answers the probe. Every answer is counted
//! once, in `ProbeEngine::execute`, into the case's tally: its
//! [`ProbeEffort`] field, its traced [`ProbeKind`] and its
//! `oraql_driver_*` counters are all read off that tally. The hit is
//! written back only to the tiers that missed before it. Any
//! executable-hash answer, and any VM run, files the verdict under the
//! probe's decisions digest in every tier; a VM run also files it under
//! the executable hash in every tier. Store and server write errors are
//! swallowed: those tiers are accelerators, never dependencies. The
//! accepted references themselves are not stored: the case salt hashes
//! them, so a changed reference changes every key.
//!
//! # Concurrency and determinism contract
//!
//! [`run_suite`] with `jobs = N` runs up to `N` cases at once, one
//! thread each; every case runs this sequential driver with caches of
//! its own. So every case's probe sequence, [`ProbeEffort`] counters
//! and final [`Decisions`] are a pure function of the case and of
//! whether `jobs > 1`, whatever the other cases do (a store or server
//! shared across cases can change which tier answers, never the
//! answer). One rule holds at every job count: an executable-hash hit
//! reports the unique-query count stored with the verdict, i.e. the
//! count of the compile that first produced it (the seed driver's
//! rule).
//!
//! * `jobs = 1` (the default) reproduces the sequential seed driver
//!   byte-for-byte: the in-memory tier has no decisions-digest map.
//! * `jobs > 1` adds that map. It answers a repeated decision vector
//!   with the verdict that vector got before, which is exactly what a
//!   recompile plus executable-hash hit would answer. So a healthy run
//!   takes the same bisection path as `jobs = 1`: the raw final
//!   decisions, `tests_run` and `tests_deduced` are equal, and only
//!   `compiles` and `tests_cached` shrink, by the probes the map
//!   answers (`tests_dec_cached`).
//!
//! # The probe sandbox (failure model)
//!
//! Every probe attempt — compile, VM run, verification — executes under
//! `catch_unwind`, optionally under a wall-clock watchdog
//! ([`DriverOptions::probe_deadline`]), and optionally under a
//! deterministic fault-injection plan ([`DriverOptions::faults`], see
//! the `oraql-faults` crate). An attempt that panics, times out, traps
//! with an injected VM error, or produces garbled output is classified
//! as a [`ProbeFailure`] and retried twice with a short backoff. A
//! probe whose attempts are all exhausted is **quarantined**: it
//! answers with the pessimistic may-alias verdict (`pass = false`,
//! the always-safe direction — the bisection strategies only ever
//! *add* pessimism for failing probes, and the final verification gate
//! still backstops the result),
//! nothing is written to any cache or the persistent store, and the
//! answer is traced as [`ProbeKind::Faulted`]. Counts surface in
//! [`DriverResult::failures`]. A panic in the *baseline or final*
//! compile is not a probe failure — it fails the whole case with
//! [`DriverError::CasePanicked`] instead of unwinding through
//! [`run_suite`].

use crate::compile::{compile, compile_pipeline, CompileOptions, Scope};
use crate::pass::{OptimismKind, OraqlStats, UniqueQuery};
use crate::sequence::Decisions;
use crate::strategy::{ProbeOutcome, Prober, Strategy};
use crate::trace::{ProbeEvent, ProbeKind, TraceSink};
use crate::verify::{Mismatch, Verifier};
use oraql_faults::{FaultInjector, FaultSite, InjectedPanic};
use oraql_ir::module::Module;
use oraql_obs::Span;
use oraql_passes::Stats;
use oraql_store::{Space, Store, Verdict};
use oraql_vm::{Interpreter, RunOutcome, VmFault};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// A benchmark handed to the driver: how to build the program, where
/// ORAQL may answer, and how to verify output.
pub struct TestCase {
    /// Benchmark name.
    pub name: String,
    /// Builds a fresh module (one "compilation" input). Must be
    /// deterministic: the driver compiles it many times, possibly on a
    /// watchdog thread (see [`DriverOptions::probe_deadline`]).
    pub build: Arc<dyn Fn() -> Module + Send + Sync>,
    /// ORAQL scope restriction (files / target).
    pub scope: Scope,
    /// Ignore patterns for volatile output lines (see [`crate::textpat`]).
    pub ignore_patterns: Vec<String>,
    /// Extra acceptable reference outputs (the paper's multiple
    /// references for e.g. rank-dependent meshes).
    pub extra_references: Vec<String>,
    /// VM fuel per test run.
    pub fuel: u64,
    /// Register the CFL points-to analyses in the chain.
    pub use_cfl: bool,
    /// What optimistic answers mean (§VIII extension).
    pub optimism: crate::pass::OptimismKind,
}

impl TestCase {
    /// Convenience constructor with defaults.
    pub fn new(name: &str, build: impl Fn() -> Module + Send + Sync + 'static) -> Self {
        TestCase {
            name: name.to_owned(),
            build: Arc::new(build),
            scope: Scope::everything(),
            ignore_patterns: Vec::new(),
            extra_references: Vec::new(),
            fuel: oraql_vm::DEFAULT_FUEL,
            use_cfl: false,
            optimism: crate::pass::OptimismKind::NoAlias,
        }
    }
}

/// Driver options.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Bisection strategy.
    pub strategy: Strategy,
    /// Upper bound on executed tests (compiles still happen for cached
    /// verdicts).
    pub max_tests: u64,
    /// Case concurrency (CLI: `--jobs`). [`run_suite`] runs up to
    /// `jobs` cases at once; each case probes sequentially either way.
    /// `1` (the default) is the sequential seed driver; `N > 1` also
    /// keeps an in-memory decisions-digest map per case (see the module
    /// docs).
    pub jobs: usize,
    /// The run's event stream (CLI: `--trace <path>`). When set, every
    /// probe answer is recorded here, and every case opens its
    /// `case > baseline|probe|final|store|server` span tree here, each
    /// probe span with its `compile|key|vm|verify|store|server`
    /// children; each answer names its probe span.
    pub trace: Option<TraceSink>,
    /// Persistent verdict store shared across processes (CLI:
    /// `--store <path>`). `None` (the default) keeps the seed behaviour:
    /// verdicts live and die with the process. With a store attached,
    /// cold runs write every verdict through, and warm runs answer
    /// probes without compiling — at *any* job count, including the
    /// sequential `jobs = 1` driver, whose probe order is a pure
    /// function of the answered outcomes and therefore replays
    /// identically from stored (pass, unique) pairs.
    pub store: Option<Arc<Store>>,
    /// Shared verdict-server client (CLI: `--server <addr>`), the
    /// third cache tier behind the in-memory caches and the local
    /// store. Lookups that miss locally are answered by the server and
    /// written back; computed verdicts are written through. Every
    /// server error degrades to the local tiers — the client's circuit
    /// breaker makes an unreachable server cost nothing after the
    /// first failed call, counted in [`FailureStats::server_down`].
    pub server: Option<Arc<oraql_served::Client>>,
    /// Deterministic fault-injection plan applied to the probe path
    /// (CLI: `--fault-plan <spec>`). `None` (the default) injects
    /// nothing; the sandbox around each probe is active either way.
    pub faults: Option<Arc<FaultInjector>>,
    /// Wall-clock deadline per probe attempt (CLI:
    /// `--probe-deadline-ms`). When set, each attempt runs on a
    /// watchdog thread and a timeout classifies as
    /// [`ProbeFailure::Deadline`]; when `None` (the default) attempts
    /// run inline with no extra thread, so the fault-free fast path
    /// pays nothing beyond a `catch_unwind`.
    pub probe_deadline: Option<Duration>,
    /// Ground-truth alias labels for the corpus soundness gate (see
    /// [`crate::truth`]). When set, every final verdict is
    /// cross-checked against the labels after verification; a kept
    /// optimistic answer on a pair labelled as genuinely aliasing fails
    /// the case with [`DriverError::SoundnessViolation`]. `None` (the
    /// default, and the only option for hand-written workloads) skips
    /// the check entirely. Labels are keyed by case name, so one
    /// merged map gates a whole suite run.
    pub ground_truth: Option<Arc<crate::truth::GroundTruth>>,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            strategy: Strategy::Chunked,
            max_tests: 4_096,
            jobs: 1,
            trace: None,
            store: None,
            server: None,
            faults: None,
            probe_deadline: None,
            ground_truth: None,
        }
    }
}

/// Probing effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeEffort {
    /// Compilations performed.
    pub compiles: u64,
    /// Tests actually executed (VM run + verification).
    pub tests_run: u64,
    /// Tests skipped because a bit-identical executable was seen before.
    pub tests_cached: u64,
    /// Tests skipped by the Fig. 2 deduction rule.
    pub tests_deduced: u64,
    /// Probes answered from a decisions-digest tier (the in-memory
    /// cache at `jobs > 1`, or the store) without even recompiling.
    pub tests_dec_cached: u64,
    /// Probes answered by the verdict server (either key space) after
    /// every local tier missed.
    pub tests_server: u64,
    /// Always 0: the driver no longer speculates. Kept for readers of
    /// the old speculation counters.
    pub spec_launched: u64,
    /// Always 0 (see [`ProbeEffort::spec_launched`]).
    pub spec_cancelled: u64,
    /// Always 0 (see [`ProbeEffort::spec_launched`]).
    pub spec_wasted: u64,
    /// Always 0: probes are no longer shared in flight across cases.
    pub inflight_joins: u64,
}

/// Everything the driver learned about one benchmark.
pub struct DriverResult {
    /// Benchmark name.
    pub name: String,
    /// Did the fully-optimistic compile verify on the first try?
    pub fully_optimistic: bool,
    /// The final (locally maximal) decision source.
    pub decisions: Decisions,
    /// ORAQL query counters from the final compilation (Fig. 4 columns).
    pub oraql: OraqlStats,
    /// `# No-Alias Results` of the baseline compilation (Fig. 4
    /// "Original").
    pub no_alias_original: u64,
    /// `# No-Alias Results` of the final ORAQL compilation.
    pub no_alias_oraql: u64,
    /// Baseline pass statistics.
    pub baseline_stats: Stats,
    /// Final pass statistics.
    pub final_stats: Stats,
    /// Baseline execution (reference run).
    pub baseline_run: RunOutcome,
    /// Final execution.
    pub final_run: RunOutcome,
    /// Probing effort.
    pub effort: ProbeEffort,
    /// Sandbox failure counters (all zero on a healthy, fault-free run).
    pub failures: FailureStats,
    /// Unique queries of the final compilation (report input).
    pub queries: Vec<UniqueQuery>,
    /// The final optimized module.
    pub final_module: Module,
    /// What the ground-truth gate saw (`Some` iff
    /// [`DriverOptions::ground_truth`] was set; always violation-free
    /// here, because violations fail the case instead).
    pub truth: Option<crate::truth::TruthReport>,
}

impl DriverResult {
    /// Relative change of no-alias results, the Fig. 4 `Δ` column.
    pub fn no_alias_delta_percent(&self) -> f64 {
        if self.no_alias_original == 0 {
            return 0.0;
        }
        (self.no_alias_oraql as f64 - self.no_alias_original as f64) / self.no_alias_original as f64
            * 100.0
    }
}

/// Driver errors.
#[derive(Debug)]
pub enum DriverError {
    /// The baseline compile did not verify against itself (broken case).
    BaselineBroken(Mismatch),
    /// The final sequence failed verification (driver bug).
    FinalBroken(Mismatch),
    /// The case's build closure (or a pass) panicked outside the probe
    /// sandbox — in the baseline or final compile, where no verdict can
    /// soak up the failure. The case fails; the suite keeps going.
    CasePanicked(String),
    /// An internal invariant broke but was caught instead of panicking.
    Internal(String),
    /// The ground-truth gate found a kept optimistic answer on a pair
    /// labelled as genuinely aliasing (see [`crate::truth`]): either a
    /// driver soundness bug or a mislabelled generator motif. The
    /// message lists every violating pair.
    SoundnessViolation(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::BaselineBroken(m) => write!(f, "baseline failed verification: {m}"),
            DriverError::FinalBroken(m) => write!(f, "final sequence failed verification: {m}"),
            DriverError::CasePanicked(m) => write!(f, "case panicked outside probing: {m}"),
            DriverError::Internal(m) => write!(f, "internal driver error: {m}"),
            DriverError::SoundnessViolation(m) => {
                write!(f, "ground-truth soundness gate failed: {m}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Why one probe attempt failed inside the sandbox. Failures are
/// *attempt*-level: each one consumes a retry, and only a probe whose
/// attempts are all exhausted is quarantined to may-alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeFailure {
    /// The attempt panicked (injected `compile-panic`, or a genuine bug
    /// in the build closure / pass pipeline).
    Panic(String),
    /// The watchdog deadline expired before the attempt finished.
    Deadline,
    /// The VM refused the run with an injected error (`vm-trap`,
    /// `vm-fuel-lie`); a *genuine* trap is a failing verdict, not a
    /// probe failure.
    VmError(String),
    /// The probe ran but its observed output was garbled before
    /// verification (`output-garble` — corrupted probe I/O).
    OutputMismatch,
    /// A persistent-store hit was treated as checksum-corrupt and
    /// discarded (`store-read-corrupt`). Never consumes a retry: the
    /// attempt falls through to a real compile instead.
    StoreCorrupt,
    /// A verdict-server lookup failed (unreachable, timed out, or
    /// answered garbage). Never consumes a retry: the attempt falls
    /// back to the local tiers, exactly like [`ProbeFailure::StoreCorrupt`].
    ServerDown,
    /// The verdict server shed the request with `BUSY` (overload
    /// admission control). Never consumes a retry and never trips the
    /// client's breaker: the attempt falls straight back to the local
    /// tiers while the server digs itself out.
    ServerBusy,
}

impl std::fmt::Display for ProbeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeFailure::Panic(m) => write!(f, "probe panicked: {m}"),
            ProbeFailure::Deadline => write!(f, "probe deadline exceeded"),
            ProbeFailure::VmError(m) => write!(f, "injected VM error: {m}"),
            ProbeFailure::OutputMismatch => write!(f, "probe output garbled"),
            ProbeFailure::StoreCorrupt => write!(f, "store record corrupt"),
            ProbeFailure::ServerDown => write!(f, "verdict server unreachable"),
            ProbeFailure::ServerBusy => write!(f, "verdict server shed the request"),
        }
    }
}

/// Aggregated sandbox-failure counters for one driver run, surfaced in
/// [`DriverResult::failures`] and the CLI summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Attempts that panicked.
    pub panics: u64,
    /// Attempts that exceeded the probe deadline.
    pub deadlines: u64,
    /// Attempts killed by an injected VM error.
    pub vm_errors: u64,
    /// Attempts whose output was garbled before verification.
    pub output_mismatches: u64,
    /// Store hits discarded as corrupt (the attempt then recomputed).
    pub store_corrupt: u64,
    /// Verdict-server lookups that failed and fell back to the local
    /// tiers (the circuit breaker keeps these cheap).
    pub server_down: u64,
    /// Verdict-server requests shed with `BUSY` (overload, not
    /// failure); the attempt fell back to the local tiers.
    pub server_busy: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Probes that exhausted every retry and degraded to may-alias.
    pub quarantined: u64,
}

impl FailureStats {
    /// Did this run complete without a single sandbox event?
    pub fn is_quiet(&self) -> bool {
        *self == FailureStats::default()
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The driver's probe-latency histogram, resolved once. The driver's
/// counters have no handles: each case's [`Tally`] adds them when its
/// driver drops.
fn probe_micros() -> &'static oraql_obs::Histogram {
    static H: OnceLock<&'static oraql_obs::Histogram> = OnceLock::new();
    H.get_or_init(|| oraql_obs::global().histogram("oraql_driver_probe_micros"))
}

fn decisions_digest(salt: u64, d: &Decisions) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    d.render().hash(&mut h);
    h.finish()
}

/// Cache-key salt identifying one case within the shared store and
/// server tiers: a probe verdict is only transferable between probes
/// that agree on the case name *and* the accepted references — the
/// verdict of a bit-identical module under a different verifier is a
/// different fact.
fn case_salt(case: &TestCase, references: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    case.name.hash(&mut h);
    references.hash(&mut h);
    case.ignore_patterns.hash(&mut h);
    case.fuel.hash(&mut h);
    h.finish()
}

/// A verdict tier; [`TIERS`] is the walk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tier {
    Memory,
    Store,
    Server,
}

const TIERS: [Tier; 3] = [Tier::Memory, Tier::Store, Tier::Server];

/// What answered a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Answer {
    /// Compiled, run on the VM and verified.
    Executed,
    /// The first hit of a tier walk.
    Hit(Tier, Space),
    /// The Fig. 2 deduction rule, without a test.
    Deduced,
    /// A quarantined probe, degraded to may-alias.
    Faulted,
}

impl Answer {
    fn kind(self) -> ProbeKind {
        match self {
            Answer::Executed => ProbeKind::Executed,
            Answer::Hit(Tier::Memory, Space::Dec) => ProbeKind::DecisionCacheHit,
            Answer::Hit(Tier::Memory, Space::Exe) => ProbeKind::ExeCacheHit,
            Answer::Hit(Tier::Store, _) => ProbeKind::StoreHit,
            Answer::Hit(Tier::Server, _) => ProbeKind::ServerHit,
            Answer::Deduced => ProbeKind::Deduced,
            Answer::Faulted => ProbeKind::Faulted,
        }
    }
}

/// Everything one case counts, behind its engine's one accounting
/// mutex: probe answers, counted where they are answered, and work and
/// sandbox events, counted where they happen.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Probe answers, by what answered.
    answers: HashMap<Answer, u64>,
    /// Probe compiles started.
    compiles: u64,
    /// Probe VM runs started.
    vm_runs: u64,
    failures: FailureStats,
}

impl Tally {
    /// How many answers `pick` selects.
    fn count(&self, pick: impl Fn(Answer) -> bool) -> u64 {
        self.answers
            .iter()
            .filter(|&(&a, _)| pick(a))
            .map(|(_, n)| n)
            .sum()
    }

    /// Hits in `space`, per tier in walk order.
    fn hits(&self, space: Space) -> [u64; 3] {
        TIERS.map(|tier| self.count(|a| a == Answer::Hit(tier, space)))
    }

    fn effort(&self) -> ProbeEffort {
        let [mem_dec, store_dec, server_dec] = self.hits(Space::Dec);
        let [mem_exe, store_exe, server_exe] = self.hits(Space::Exe);
        ProbeEffort {
            compiles: self.compiles,
            tests_run: self.vm_runs,
            tests_cached: mem_exe + store_exe,
            tests_deduced: self.count(|a| a == Answer::Deduced),
            tests_dec_cached: mem_dec + store_dec,
            tests_server: server_dec + server_exe,
            ..ProbeEffort::default()
        }
    }

    /// Adds this tally to the process-wide registry's counters.
    fn report(&self) {
        let [mem_dec, store_dec, server_dec] = self.hits(Space::Dec);
        let [mem_exe, store_exe, server_exe] = self.hits(Space::Exe);
        // Named in `ProbeKind::ALL` order.
        let [executed, exe_cache, dec_cache, store, server, deduced, faulted] =
            ProbeKind::ALL.map(|k| self.count(|a| a.kind() == k));
        let failures = self.failures;
        for (name, n) in [
            ("oraql_driver_probes_total", self.answers.values().sum()),
            ("oraql_driver_probe_executed_total", executed),
            ("oraql_driver_probe_exe_cache_total", exe_cache),
            ("oraql_driver_probe_dec_cache_total", dec_cache),
            ("oraql_driver_probe_store_total", store),
            ("oraql_driver_probe_server_total", server),
            ("oraql_driver_probe_deduced_total", deduced),
            ("oraql_driver_probe_faulted_total", faulted),
            ("oraql_driver_retries_total", failures.retries),
            ("oraql_driver_quarantined_total", failures.quarantined),
            ("oraql_driver_funnel_dec_cache_hits_total", mem_dec),
            ("oraql_driver_funnel_store_dec_hits_total", store_dec),
            ("oraql_driver_funnel_server_dec_hits_total", server_dec),
            ("oraql_driver_funnel_compiles_total", self.compiles),
            ("oraql_driver_funnel_exe_cache_hits_total", mem_exe),
            ("oraql_driver_funnel_store_exe_hits_total", store_exe),
            ("oraql_driver_funnel_server_exe_hits_total", server_exe),
            ("oraql_driver_funnel_vm_runs_total", self.vm_runs),
        ] {
            oraql_obs::global().counter(name).add(n);
        }
    }
}

/// The probe execution engine: everything needed to answer one probe
/// of one case. It sits behind an `Arc` with its caches behind mutexes
/// because a watchdog thread (see [`DriverOptions::probe_deadline`])
/// runs each attempt and may outlive one that timed out.
struct ProbeEngine {
    case_name: String,
    salt: u64,
    build: Arc<dyn Fn() -> Module + Send + Sync>,
    scope: Scope,
    use_cfl: bool,
    optimism: OptimismKind,
    fuel: u64,
    verifier: Verifier,
    /// In-memory tier, executable-hash space.
    exe: Mutex<HashMap<u64, Verdict>>,
    /// In-memory tier, decisions-digest space: `None` at `jobs = 1`,
    /// so that it reproduces the seed effort counters exactly.
    dec: Option<Mutex<HashMap<u64, Verdict>>>,
    /// Persistent tier. Consulted at any job count: a stored verdict is
    /// the one its key's probe answered, so replaying it cannot perturb
    /// the bisection path.
    store: Option<Arc<Store>>,
    /// Remote tier: the shared verdict server.
    server: Option<Arc<oraql_served::Client>>,
    /// The case's one accounting record.
    tally: Mutex<Tally>,
    /// The run's event stream: probe answers and spans.
    trace: Option<TraceSink>,
    /// Id of this case's root span (0 without a trace), the parent of
    /// every probe span the engine opens.
    case_span: u64,
    /// Optional deterministic fault plan (chaos testing).
    faults: Option<Arc<FaultInjector>>,
    /// Optional wall-clock watchdog per attempt.
    deadline: Option<Duration>,
    /// Decisions digests whose probes exhausted every retry: answered
    /// may-alias immediately, never re-attempted, never persisted.
    quarantine: Mutex<HashSet<u64>>,
}

/// Faults pre-sampled for one probe attempt. Sampling happens on the
/// calling thread *before* any watchdog thread is spawned, so thread
/// timing can never perturb the deterministic fault stream.
#[derive(Debug, Clone, Copy, Default)]
struct AttemptFaults {
    compile_panic: bool,
    vm_fault: Option<VmFault>,
    delay: bool,
    hang: bool,
    garble: bool,
    store_read_corrupt: bool,
}

/// Fuel cap injected by `vm-fuel-lie`: big enough for the interpreter
/// to make a little progress, far too small for any real probe run.
const FUEL_LIE_CAP: u64 = 24;

/// The safe degradation verdict: may-alias, no unique-count claim.
const MAY_ALIAS: Verdict = (false, 0);

/// Retries of a failed probe attempt (each after a short backoff)
/// before the probe is quarantined to may-alias.
const PROBE_RETRIES: u64 = 2;

/// Best-effort human-readable panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(ip) = p.downcast_ref::<InjectedPanic>() {
        ip.to_string()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

impl ProbeEngine {
    fn tally(&self) -> MutexGuard<'_, Tally> {
        lock_ignore_poison(&self.tally)
    }

    /// The one place a probe answer is accounted: it bumps the tally,
    /// observes the probe's latency and traces the answer, numbered by
    /// the case's answer count so far and joined to `span`, the probe
    /// span it was given in (0: none). Only `execute` and
    /// `note_deduced` call it, both on the case's own thread.
    fn account(
        &self,
        answer: Answer,
        digest: u64,
        (pass, unique): Verdict,
        started: Instant,
        span: u64,
    ) {
        let seq = {
            let mut tally = self.tally();
            let seq = tally.answers.values().sum();
            *tally.answers.entry(answer).or_default() += 1;
            seq
        };
        let wall_micros = started.elapsed().as_micros() as u64;
        probe_micros().observe(wall_micros);
        if let Some(sink) = &self.trace {
            sink.record(ProbeEvent {
                case: self.case_name.clone(),
                seq,
                digest,
                kind: answer.kind(),
                pass,
                unique,
                wall_micros,
                span,
            });
        }
    }

    /// Opens a child span under `parent` when the run is traced.
    /// Returns `None` (zero cost beyond the branch) otherwise.
    fn span(&self, name: &'static str, parent: u64) -> Option<Span> {
        self.trace
            .as_ref()
            .map(|t| t.span(name, &self.case_name, parent))
    }

    /// Draws this attempt's fault decisions from the plan (all quiet
    /// when no plan is configured).
    fn sample_attempt(&self) -> AttemptFaults {
        let Some(inj) = &self.faults else {
            return AttemptFaults::default();
        };
        AttemptFaults {
            compile_panic: inj.fire(FaultSite::CompilePanic),
            vm_fault: if inj.fire(FaultSite::VmTrap) {
                Some(VmFault::Trap)
            } else if inj.fire(FaultSite::VmFuelLie) {
                Some(VmFault::FuelLie(FUEL_LIE_CAP))
            } else {
                None
            },
            delay: inj.fire(FaultSite::ProbeDelay),
            hang: inj.fire(FaultSite::ProbeHang),
            garble: inj.fire(FaultSite::OutputGarble),
            store_read_corrupt: inj.fire(FaultSite::StoreReadCorrupt),
        }
    }

    fn note_failure(&self, f: &ProbeFailure) {
        let fs = &mut self.tally().failures;
        match f {
            ProbeFailure::Panic(_) => fs.panics += 1,
            ProbeFailure::Deadline => fs.deadlines += 1,
            ProbeFailure::VmError(_) => fs.vm_errors += 1,
            ProbeFailure::OutputMismatch => fs.output_mismatches += 1,
            ProbeFailure::StoreCorrupt => fs.store_corrupt += 1,
            ProbeFailure::ServerDown => fs.server_down += 1,
            ProbeFailure::ServerBusy => fs.server_busy += 1,
        }
    }

    /// Answers one probe through the sandbox: quarantine short-circuit,
    /// then up to `1 + PROBE_RETRIES` attempts, each under `catch_unwind`
    /// (plus a watchdog thread when a deadline is configured). Never
    /// panics and never blocks past the configured deadline-per-attempt
    /// times the retry budget. The answer is accounted here, so an
    /// attempt the watchdog gave up on cannot answer.
    fn execute(self: &Arc<Self>, d: &Decisions) -> ProbeOutcome {
        let started = Instant::now();
        let digest = decisions_digest(self.salt, d);
        // The probe span covers the quarantine check, every retry, and
        // the degradation path; its guard records even if an attempt
        // unwinds past us.
        let probe_span = self.span("probe", self.case_span);
        let probe_id = probe_span.as_ref().map_or(0, Span::id);
        let (answer, verdict) = 'answered: {
            if lock_ignore_poison(&self.quarantine).contains(&digest) {
                break 'answered (Answer::Faulted, MAY_ALIAS);
            }
            let attempts = 1 + PROBE_RETRIES;
            for attempt_no in 0..attempts {
                let fx = self.sample_attempt();
                let outcome = match self.deadline {
                    Some(deadline) => self.attempt_with_deadline(d, digest, fx, deadline, probe_id),
                    None => match catch_unwind(AssertUnwindSafe(|| {
                        self.attempt(d, digest, fx, probe_id)
                    })) {
                        Ok(r) => r,
                        Err(p) => Err(ProbeFailure::Panic(panic_message(&*p))),
                    },
                };
                match outcome {
                    Ok(answered) => break 'answered answered,
                    Err(failure) => {
                        self.note_failure(&failure);
                        if attempt_no + 1 < attempts {
                            self.tally().failures.retries += 1;
                            // Tiny exponential backoff: transient
                            // scheduling or I/O hiccups clear, injected
                            // faults draw a fresh decision from the plan.
                            std::thread::sleep(Duration::from_millis(1 << attempt_no.min(4)));
                        }
                    }
                }
            }
            // Every attempt failed: quarantine this decision vector and
            // degrade to the pessimistic verdict. Never cached, never
            // persisted — a later healthy run recomputes it for real.
            lock_ignore_poison(&self.quarantine).insert(digest);
            self.tally().failures.quarantined += 1;
            (Answer::Faulted, MAY_ALIAS)
        };
        self.account(answer, digest, verdict, started, probe_id);
        let (pass, unique) = verdict;
        ProbeOutcome { pass, unique }
    }

    /// Runs one attempt on a watchdog thread and gives up after
    /// `deadline`. An orphaned attempt keeps running in the background;
    /// if it eventually completes, any verdict it wrote to the caches
    /// is genuine and safely reusable, and its answer is dropped.
    fn attempt_with_deadline(
        self: &Arc<Self>,
        d: &Decisions,
        digest: u64,
        fx: AttemptFaults,
        deadline: Duration,
        probe_span: u64,
    ) -> Result<(Answer, Verdict), ProbeFailure> {
        let (tx, rx) = channel();
        let engine = Arc::clone(self);
        let d = d.clone();
        let spawned = std::thread::Builder::new()
            .name("oraql-probe-attempt".into())
            .spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    engine.attempt(&d, digest, fx, probe_span)
                }));
                let _ = tx.send(r);
            });
        if spawned.is_err() {
            return Err(ProbeFailure::Panic("probe thread spawn failed".into()));
        }
        match rx.recv_timeout(deadline) {
            Ok(Ok(r)) => r,
            Ok(Err(p)) => Err(ProbeFailure::Panic(panic_message(&*p))),
            Err(_) => Err(ProbeFailure::Deadline),
        }
    }

    /// One raw probe attempt — the decisions-digest walk, the compile,
    /// the executable-hash walk, then an actual execution — with `fx`'s
    /// faults injected at their sites. `digest` is `d`'s decisions
    /// digest. Returns what answered, for `execute` to account.
    fn attempt(
        &self,
        d: &Decisions,
        digest: u64,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Result<(Answer, Verdict), ProbeFailure> {
        if let Some(hit) = self.lookup(Space::Dec, digest, digest, fx, probe_span) {
            return Ok(hit);
        }
        if fx.compile_panic {
            std::panic::panic_any(InjectedPanic("probe pass-pipeline compile"));
        }
        self.tally().compiles += 1;
        // A probe reads only the module and the ORAQL state: the
        // pipeline step alone, no Fig. 6 statistics.
        let compiled = {
            let _s = self.span("compile", probe_span);
            compile_pipeline(
                &*self.build,
                &CompileOptions {
                    oraql: Some((d.clone(), self.scope.clone())),
                    use_cfl: self.use_cfl,
                    optimism: self.optimism,
                    ..CompileOptions::default()
                },
            )
        };
        let h = {
            let _s = self.span("key", probe_span);
            oraql_ir::printer::module_key(self.salt, &compiled.module)
        };
        if let Some(hit) = self.lookup(Space::Exe, h, digest, fx, probe_span) {
            return Ok(hit);
        }
        if fx.delay || fx.hang {
            // `probe-delay` stays well under any reasonable deadline;
            // `probe-hang` overshoots the configured deadline so only
            // the watchdog can reclaim the slot (bounded regardless, so
            // a hang without a watchdog cannot stall the driver
            // forever).
            let dur = match (fx.hang, self.deadline) {
                (false, _) => Duration::from_millis(1),
                (true, Some(dl)) => dl.saturating_mul(4).min(Duration::from_secs(2)),
                (true, None) => Duration::from_millis(25),
            };
            std::thread::sleep(dur);
        }
        self.tally().vm_runs += 1;
        let run = {
            let _s = self.span("vm", probe_span);
            run_module_with(&compiled.module, self.fuel, fx.vm_fault)
        };
        if fx.vm_fault.is_some() {
            if let Err(e) = &run {
                // The injected trap / lying fuel budget killed the run:
                // a transient probe failure, not a verdict. (A program
                // that completes even under the lie produced genuine,
                // trustworthy output and is judged normally below.)
                return Err(ProbeFailure::VmError(e.clone()));
            }
        }
        let pass = match run {
            Ok(run) => {
                let mut stdout = run.stdout;
                if fx.garble {
                    stdout.push_str("\u{7f}garbled probe output\n");
                }
                let ok = {
                    let _s = self.span("verify", probe_span);
                    self.verifier.check(&stdout).is_ok()
                };
                if fx.garble && !ok {
                    // We know the mismatch is our own corruption: a
                    // transient I/O failure, not a verdict. Nothing is
                    // cached.
                    return Err(ProbeFailure::OutputMismatch);
                }
                ok
            }
            Err(_) => false, // genuine traps count as verification failures
        };
        let unique = compiled
            .oraql
            .as_ref()
            .map(|s| s.lock().stats.unique())
            .unwrap_or(0);
        // A computed verdict is written through to every tier under
        // both keys: this is how one tenant's probe bill becomes every
        // tenant's warm cache.
        self.write(&TIERS, Space::Exe, h, (pass, unique));
        self.write(&TIERS, Space::Dec, digest, (pass, unique));
        Ok((Answer::Executed, (pass, unique)))
    }

    /// Walks the tiers for `key` in `space`. The first hit answers: it
    /// is written back to the tiers that missed before it, and an
    /// executable-hash hit is also filed under the probe's decisions
    /// `digest` in every tier. Its unique count is the stored one, at
    /// every job count.
    fn lookup(
        &self,
        space: Space,
        key: u64,
        digest: u64,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Option<(Answer, Verdict)> {
        let (i, v) = TIERS
            .iter()
            .enumerate()
            .find_map(|(i, &tier)| Some((i, self.read(tier, space, key, fx, probe_span)?)))?;
        self.write(&TIERS[..i], space, key, v);
        if space == Space::Exe {
            self.write(&TIERS, Space::Dec, digest, v);
        }
        Some((Answer::Hit(TIERS[i], space), v))
    }

    /// The in-memory map of `space` (`None`: no decisions map at
    /// `jobs = 1`).
    fn memory(&self, space: Space) -> Option<&Mutex<HashMap<u64, Verdict>>> {
        match space {
            Space::Dec => self.dec.as_ref(),
            Space::Exe => Some(&self.exe),
        }
    }

    /// Reads one tier. A store hit under the injected
    /// `store-read-corrupt` fault, and a failed server call, are noted
    /// as sandbox failures and read as misses: the walk goes on, and a
    /// recompute is the recovery, so no retry is consumed. The client's
    /// circuit breaker makes every server call during an outage's
    /// cooldown free.
    fn read(
        &self,
        tier: Tier,
        space: Space,
        key: u64,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Option<Verdict> {
        match tier {
            Tier::Memory => lock_ignore_poison(self.memory(space)?).get(&key).copied(),
            Tier::Store => {
                let store = self.store.as_ref()?;
                let found = {
                    let _s = self.span("store", probe_span);
                    store.verdict(space, key)
                };
                if found.is_some() && fx.store_read_corrupt {
                    self.note_failure(&ProbeFailure::StoreCorrupt);
                    return None;
                }
                found
            }
            Tier::Server => {
                let client = self.server.as_ref()?;
                let _s = self.span("server", probe_span);
                client.get(space, key).unwrap_or_else(|e| {
                    self.note_failure(&match e {
                        oraql_served::ClientError::Busy => ProbeFailure::ServerBusy,
                        _ => ProbeFailure::ServerDown,
                    });
                    None
                })
            }
        }
    }

    /// Files `v` under `key` in each of `tiers`. Store and server
    /// errors are swallowed: a read-only disk or an unreachable server
    /// degrades that tier, it never fails a probe (the store's and the
    /// client's own counters record them).
    fn write(&self, tiers: &[Tier], space: Space, key: u64, v: Verdict) {
        for tier in tiers {
            match tier {
                Tier::Memory => {
                    if let Some(map) = self.memory(space) {
                        lock_ignore_poison(map).insert(key, v);
                    }
                }
                Tier::Store => {
                    if let Some(store) = &self.store {
                        let _ = store.record(space, key, v);
                    }
                }
                Tier::Server => {
                    if let Some(client) = &self.server {
                        let _ = client.put(space, key, v);
                    }
                }
            }
        }
    }
}

/// The probing driver.
pub struct Driver {
    opts: DriverOptions,
    engine: Arc<ProbeEngine>,
}

impl Driver {
    /// Runs the full workflow on one case, with caches of its own.
    pub fn run(case: &TestCase, opts: DriverOptions) -> Result<DriverResult, DriverError> {
        // The case span covers the whole workflow; the guards record on
        // every exit path, including `?` errors.
        let trace = opts.trace.clone();
        let span = |name, parent| trace.as_ref().map(|t| t.span(name, &case.name, parent));
        let case_root = span("case", 0);
        let case_id = case_root.as_ref().map_or(0, Span::id);
        let baseline_span = span("baseline", case_id);
        // Step 1: baseline (ORAQL deactivated) — produces the reference.
        // A panicking build closure fails this case, not the suite.
        let baseline = catch_unwind(AssertUnwindSafe(|| {
            compile(&*case.build, &CompileOptions::baseline())
        }))
        .map_err(|p| DriverError::CasePanicked(panic_message(&*p)))?;
        let baseline_run = run_module(&baseline.module, case.fuel)
            .map_err(|e| DriverError::BaselineBroken(Mismatch::ExecutionFailed(e)))?;
        let mut references = vec![baseline_run.stdout.clone()];
        references.extend(case.extra_references.iter().cloned());
        let salt = case_salt(case, &references);
        let verifier = Verifier::new(references, &case.ignore_patterns);
        verifier
            .check(&baseline_run.stdout)
            .map_err(DriverError::BaselineBroken)?;
        drop(baseline_span);

        let engine = Arc::new(ProbeEngine {
            case_name: case.name.clone(),
            salt,
            build: Arc::clone(&case.build),
            scope: case.scope.clone(),
            use_cfl: case.use_cfl,
            optimism: case.optimism,
            fuel: case.fuel,
            verifier,
            exe: Mutex::default(),
            dec: (opts.jobs > 1).then(Mutex::default),
            store: opts.store.clone(),
            server: opts.server.clone(),
            tally: Mutex::default(),
            trace: opts.trace.clone(),
            case_span: case_id,
            faults: opts.faults.clone(),
            deadline: opts.probe_deadline,
            quarantine: Mutex::new(HashSet::new()),
        });
        let mut driver = Driver { opts, engine };

        // Step 2: the empty sequence — everything optimistic.
        let all_opt = Decisions::all_optimistic();
        let first = driver.probe(&all_opt);
        let (fully_optimistic, decisions) = if first.pass {
            (true, all_opt)
        } else {
            // Step 3: bisect.
            let d = driver.opts.strategy.solve(&mut driver);
            (false, d)
        };

        // Step 4: final compile + verification.
        let final_span = span("final", case_id);
        let final_opts = CompileOptions {
            oraql: Some((decisions.clone(), case.scope.clone())),
            use_cfl: case.use_cfl,
            optimism: case.optimism,
            ..CompileOptions::default()
        };
        let finalc = catch_unwind(AssertUnwindSafe(|| compile(&*case.build, &final_opts)))
            .map_err(|p| DriverError::CasePanicked(panic_message(&*p)))?;
        let final_run = run_module(&finalc.module, case.fuel)
            .map_err(|e| DriverError::FinalBroken(Mismatch::ExecutionFailed(e)))?;
        driver
            .engine
            .verifier
            .check(&final_run.stdout)
            .map_err(DriverError::FinalBroken)?;
        drop(final_span);

        if let Some(store) = &driver.opts.store {
            // Checkpoint the journal once per case: bounds the loss
            // window on power failure without paying a sync per probe.
            let _s = span("store", case_id);
            let _ = store.sync();
        }
        if let Some(server) = &driver.opts.server {
            // Same checkpoint for the shared tier: ask the server to
            // group-fsync whatever this case appended.
            let _s = span("server", case_id);
            let _ = server.sync();
        }
        let tally = driver.engine.tally().clone();
        let shared = finalc
            .oraql
            .as_ref()
            .ok_or_else(|| DriverError::Internal("final compile lost its oraql pass".into()))?;
        let st = shared.lock();
        // Corpus soundness gate: with ground truth attached, the final
        // verdicts — already observationally verified above — must also
        // agree with the by-construction labels. Runs after the final
        // verification so a violation really means "optimism survived
        // the whole workflow on a pair known to alias".
        let truth = driver
            .opts
            .ground_truth
            .as_ref()
            .map(|gt| gt.check(&case.name, &finalc.module, &st.queries, case.optimism));
        if let Some(t) = &truth {
            if !t.clean() {
                return Err(DriverError::SoundnessViolation(t.describe_violations()));
            }
        }
        Ok(DriverResult {
            name: case.name.clone(),
            fully_optimistic,
            decisions,
            oraql: st.stats,
            no_alias_original: baseline.no_alias_total,
            no_alias_oraql: finalc.no_alias_total,
            baseline_stats: baseline.stats,
            final_stats: finalc.stats.clone(),
            baseline_run,
            final_run,
            effort: tally.effort(),
            failures: tally.failures,
            queries: st.queries.clone(),
            final_module: finalc.module.clone(),
            truth,
        })
    }
}

fn run_module(m: &Module, fuel: u64) -> Result<RunOutcome, String> {
    run_module_with(m, fuel, None)
}

fn run_module_with(m: &Module, fuel: u64, fault: Option<VmFault>) -> Result<RunOutcome, String> {
    let main = m.find_func("main").ok_or("no main")?;
    let mut interp = Interpreter::new(m).with_fuel(fuel).with_fault(fault);
    match interp.run(main, vec![]) {
        Ok(_) => Ok(RunOutcome {
            stdout: interp.stdout().to_owned(),
            stats: interp.stats(),
        }),
        Err(e) => Err(e.to_string()),
    }
}

impl Prober for Driver {
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
        self.engine.execute(d)
    }

    fn budget_exceeded(&self) -> bool {
        // Panicked and timed-out attempts abort *before* the run-site
        // `tests_run` increment, so they must consume budget here —
        // otherwise a persistently failing probe environment (every
        // compile panicking, say) would let the bisection walk forever.
        // VM-error and output-mismatch failures already counted.
        let t = self.engine.tally();
        t.vm_runs + t.failures.panics + t.failures.deadlines >= self.opts.max_tests
    }

    fn note_deduced(&mut self) {
        self.engine
            .account(Answer::Deduced, 0, (false, 0), Instant::now(), 0);
    }
}

impl Drop for Driver {
    /// Hands the case's tally to the registry, once, on every exit path
    /// of [`Driver::run`]. An orphaned attempt's later work is not
    /// counted.
    fn drop(&mut self) {
        self.engine.tally().report();
    }
}

/// Runs a suite with up to `opts.jobs` cases at once, one thread each;
/// every case runs [`Driver::run`] with caches of its own. With
/// `jobs = 1` the cases run strictly sequentially, reproducing the seed
/// CLI's `--all` behaviour exactly. Results are in input order, and a
/// panicking case yields [`DriverError::CasePanicked`] without
/// disturbing the others.
pub fn run_suite(
    cases: &[TestCase],
    opts: &DriverOptions,
) -> Vec<Result<DriverResult, DriverError>> {
    let run_one = |case: &TestCase| {
        catch_unwind(AssertUnwindSafe(|| Driver::run(case, opts.clone())))
            .unwrap_or_else(|p| Err(DriverError::CasePanicked(panic_message(&*p))))
    };
    if opts.jobs <= 1 {
        return cases.iter().map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<DriverResult, DriverError>>>> =
        (0..cases.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..opts.jobs.min(cases.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= cases.len() {
                    break;
                }
                *lock_ignore_poison(&results[i]) = Some(run_one(&cases[i]));
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| Err(DriverError::Internal("case result missing".into())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty, Value};

    /// A program with `danger` genuinely-aliasing pointer pairs (each in
    /// its own function, called with aliased arguments), `safe`
    /// non-aliasing pairs that still look may-aliasing to the
    /// conservative chain, and `inert` pairs whose answer no
    /// transformation acts on (these exercise the executable-hash
    /// cache).
    fn mixed_case(safe: usize, danger: usize, inert: usize) -> TestCase {
        TestCase::new("mixed", move || build_mixed(safe, danger, inert))
    }

    /// One opaque two-pointer kernel; `i` makes the name unique.
    fn add_worker(m: &mut Module, i: usize, kind: &str) -> oraql_ir::module::FunctionId {
        let mut b =
            FunctionBuilder::new(m, &format!("work_{kind}_{i}"), vec![Ty::Ptr, Ty::Ptr], None);
        b.set_src_file("kernel.c");
        let p = b.arg(0);
        let q = b.arg(1);
        if kind == "inert" {
            // A load the MemorySSA walk queries against the store, but
            // nothing is eliminable: decisions here do not change code.
            b.store(Ty::I64, Value::ConstInt(100), q);
            let l = b.load(Ty::I64, p);
            b.print("{}", vec![l]);
        } else {
            let l1 = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(100), q);
            let l2 = b.load(Ty::I64, p); // stale if p==q answered no-alias
            let s = b.add(l1, l2);
            b.print("{}", vec![s]);
        }
        b.ret(None);
        b.finish()
    }

    fn build_mixed(safe: usize, danger: usize, inert: usize) -> Module {
        let mut m = Module::new("mixed");
        let workers_safe: Vec<_> = (0..safe).map(|i| add_worker(&mut m, i, "safe")).collect();
        let workers_danger: Vec<_> = (0..danger)
            .map(|i| add_worker(&mut m, i, "danger"))
            .collect();
        let workers_inert: Vec<_> = (0..inert).map(|i| add_worker(&mut m, i, "inert")).collect();
        let cells = 2 * (safe + danger + inert) + 2;
        let g = m.add_global("cells", 16 * cells as u64, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.set_src_file("main.c");
        let mut cell = 0i64;
        let mut fresh = |b: &mut FunctionBuilder| {
            let p = b.gep(Value::Global(g), 16 * cell);
            cell += 1;
            p
        };
        for w in workers_safe {
            let p = fresh(&mut b);
            let q = fresh(&mut b);
            b.store(Ty::I64, Value::ConstInt(5), p);
            b.call(w, vec![p, q], None);
        }
        for w in workers_danger {
            let p = fresh(&mut b);
            b.store(Ty::I64, Value::ConstInt(5), p);
            b.call(w, vec![p, p], None); // aliased!
        }
        for w in workers_inert {
            let p = fresh(&mut b);
            let q = fresh(&mut b);
            b.store(Ty::I64, Value::ConstInt(7), p);
            b.call(w, vec![p, q], None);
        }
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn fully_optimistic_case_short_circuits() {
        let case = mixed_case(3, 0, 0);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        assert!(r.fully_optimistic);
        assert_eq!(r.oraql.unique_pessimistic, 0);
        assert!(r.oraql.unique_optimistic > 0);
        assert!(r.no_alias_oraql > r.no_alias_original);
        assert_eq!(r.effort.tests_run, 1);
    }

    #[test]
    fn dangerous_queries_pinned_pessimistic() {
        let case = mixed_case(4, 1, 0);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        assert!(!r.fully_optimistic);
        assert!(r.oraql.unique_pessimistic >= 1);
        assert!(
            r.oraql.unique_optimistic > r.oraql.unique_pessimistic,
            "most queries should stay optimistic: {:?}",
            r.oraql
        );
        // Output is verified inside the driver; also cross-check here.
        assert_eq!(r.baseline_run.stdout, r.final_run.stdout);
    }

    #[test]
    fn frequency_space_strategy_also_works() {
        let case = mixed_case(4, 1, 0);
        let r = Driver::run(
            &case,
            DriverOptions {
                strategy: Strategy::FrequencySpace,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.fully_optimistic);
        assert_eq!(r.baseline_run.stdout, r.final_run.stdout);
        assert!(r.oraql.unique_optimistic > 0);
    }

    #[test]
    fn hash_cache_kicks_in() {
        let case = mixed_case(4, 2, 4);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        // Different sequences frequently produce identical executables
        // (decisions on queries that no transformation acts on).
        assert!(
            r.effort.tests_cached > 0,
            "expected cache hits: {:?}",
            r.effort
        );
        assert!(r.effort.compiles >= r.effort.tests_run + r.effort.tests_cached);
    }

    #[test]
    fn parallel_driver_matches_sequential_decisions() {
        for strategy in [Strategy::Chunked, Strategy::FrequencySpace] {
            let case = mixed_case(4, 2, 2);
            let seq = Driver::run(
                &case,
                DriverOptions {
                    strategy,
                    ..Default::default()
                },
            )
            .unwrap();
            let par = Driver::run(
                &case,
                DriverOptions {
                    strategy,
                    jobs: 4,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(seq.decisions, par.decisions, "{strategy:?}");
            assert_eq!(seq.fully_optimistic, par.fully_optimistic);
            assert_eq!(seq.final_run.stdout, par.final_run.stdout);
        }
    }

    #[test]
    fn caches_hit_at_jobs_above_one() {
        // Inert pairs make many decision vectors compile bit-identically,
        // so the executable cache answers at jobs > 1 too.
        let case = mixed_case(3, 2, 5);
        let r = Driver::run(
            &case,
            DriverOptions {
                jobs: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.fully_optimistic);
        assert!(
            r.effort.tests_cached > 0,
            "expected exe-cache hits: {:?}",
            r.effort
        );
    }

    #[test]
    fn run_suite_sequential_equals_bounded_parallel() {
        let cases = vec![
            mixed_case(2, 0, 0),
            mixed_case(3, 1, 0),
            mixed_case(2, 1, 2),
        ];
        let seq = run_suite(&cases, &DriverOptions::default());
        let par = run_suite(
            &cases,
            &DriverOptions {
                jobs: 3,
                ..Default::default()
            },
        );
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.final_run.stdout, b.final_run.stdout);
        }
    }

    #[test]
    fn warm_store_replays_sequential_run_without_compiles() {
        let dir = std::env::temp_dir().join(format!("oraql_driver_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.journal");

        let case = mixed_case(4, 2, 2);
        let store = Arc::new(Store::open(&path).unwrap());
        let cold = Driver::run(
            &case,
            DriverOptions {
                store: Some(Arc::clone(&store)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(cold.effort.tests_run > 0);
        assert!(store.stats().appends > 0, "{:?}", store.stats());
        drop(store);

        let store = Arc::new(Store::open(&path).unwrap());
        assert!(store.stats().recovered > 0);
        let warm = Driver::run(
            &case,
            DriverOptions {
                store: Some(Arc::clone(&store)),
                ..Default::default()
            },
        )
        .unwrap();
        // Every probe of the deterministic sequential run was answered
        // from the persistent decisions-digest tier: no compiles, no
        // tests, identical results.
        assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
        assert_eq!(warm.effort.compiles, 0, "{:?}", warm.effort);
        assert!(warm.effort.tests_dec_cached > 0);
        assert_eq!(cold.decisions, warm.decisions);
        assert_eq!(cold.fully_optimistic, warm.fully_optimistic);
        assert_eq!(cold.final_run.stdout, warm.final_run.stdout);
        assert_eq!(cold.oraql, warm.oraql);
        assert!(store.stats().dec_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_trace_records_all_probe_answers() {
        let sink = TraceSink::in_memory();
        let case = mixed_case(4, 1, 2);
        let r = Driver::run(
            &case,
            DriverOptions {
                trace: Some(sink.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let events = sink.events();
        let count = |k| events.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(ProbeKind::Executed), r.effort.tests_run);
        assert_eq!(count(ProbeKind::ExeCacheHit), r.effort.tests_cached);
        assert_eq!(count(ProbeKind::Deduced), r.effort.tests_deduced);
        // Sequential mode: per-case sequence numbers are contiguous.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
    }

    // --- probe-sandbox chaos tests -----------------------------------

    use oraql_faults::{FaultPlan, Rate};

    fn chaos_opts(plan: FaultPlan) -> DriverOptions {
        oraql_faults::quiet_injected_panics();
        DriverOptions {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        }
    }

    #[test]
    fn chaos_runs_are_deterministic_at_jobs_1() {
        let case = mixed_case(4, 2, 2);
        let run = || {
            Driver::run(&case, chaos_opts(FaultPlan::uniform(7, 1, 5)))
                .expect("chaos run completes")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.effort.tests_run, b.effort.tests_run);
        assert_eq!(a.final_run.stdout, b.final_run.stdout);
        assert!(
            !a.failures.is_quiet(),
            "a uniform 1/5 plan should actually fire: {:?}",
            a.failures
        );
    }

    #[test]
    fn always_failing_probes_quarantine_to_may_alias() {
        for strategy in [Strategy::Chunked, Strategy::FrequencySpace] {
            let plan = FaultPlan::quiet(3).with_rate(FaultSite::CompilePanic, Rate::always());
            let sink = TraceSink::in_memory();
            let mut opts = chaos_opts(plan);
            opts.strategy = strategy;
            opts.max_tests = 12; // attempts consume budget: keep the walk short
            opts.trace = Some(sink.clone());
            let case = mixed_case(3, 1, 0);
            let r = Driver::run(&case, opts).expect("sandbox must contain every panic");
            // With every probe compile panicking nothing can be *proven*
            // safe, so the driver degrades to pessimism — never to a
            // silently-wrong no-alias. Output correctness is untouched.
            assert!(!r.fully_optimistic, "{strategy:?}");
            assert!(r.failures.panics > 0, "{strategy:?}: {:?}", r.failures);
            assert!(r.failures.quarantined > 0, "{strategy:?}: {:?}", r.failures);
            assert_eq!(r.baseline_run.stdout, r.final_run.stdout);
            assert!(
                sink.events().iter().any(|e| e.kind == ProbeKind::Faulted),
                "{strategy:?}: quarantined probes must be visible in the trace"
            );
        }
    }

    #[test]
    fn panicking_build_closure_is_contained() {
        oraql_faults::quiet_injected_panics();
        let bad = TestCase::new("explodes", || -> Module {
            std::panic::panic_any(InjectedPanic("build closure"))
        });
        let cases = vec![bad, mixed_case(2, 0, 0)];
        for jobs in [1, 2] {
            let rs = run_suite(
                &cases,
                &DriverOptions {
                    jobs,
                    ..Default::default()
                },
            );
            assert!(
                matches!(rs[0], Err(DriverError::CasePanicked(_))),
                "jobs={jobs}: {:?}",
                rs[0].as_ref().err()
            );
            // The sibling case is unaffected by the panicking one.
            assert!(rs[1].as_ref().unwrap().fully_optimistic, "jobs={jobs}");
        }
    }

    #[test]
    fn corrupt_store_hits_are_discarded_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("oraql_chaos_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.journal");
        let case = mixed_case(3, 1, 1);

        let store = Arc::new(Store::open(&path).unwrap());
        let cold = Driver::run(
            &case,
            DriverOptions {
                store: Some(Arc::clone(&store)),
                ..Default::default()
            },
        )
        .unwrap();
        drop(store);

        // Warm run, but every store hit is reported corrupt: the driver
        // must fall back to recomputing instead of trusting rotten data.
        let store = Arc::new(Store::open(&path).unwrap());
        let plan = FaultPlan::quiet(5).with_rate(FaultSite::StoreReadCorrupt, Rate::always());
        let mut opts = chaos_opts(plan);
        opts.store = Some(Arc::clone(&store));
        let warm = Driver::run(&case, opts).unwrap();
        assert!(warm.failures.store_corrupt > 0, "{:?}", warm.failures);
        assert!(warm.effort.tests_run > 0, "{:?}", warm.effort);
        assert_eq!(cold.decisions, warm.decisions);
        assert_eq!(cold.final_run.stdout, warm.final_run.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
