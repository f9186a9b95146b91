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
//! Every probe goes through the case's [`Driver`], which keeps verdicts
//! in up to three tiers, always walked in this order:
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
//! ([`oraql_store::Space`]), both salted content hashes of the case. The
//! case salt hashes everything a verdict depends on besides the
//! decisions: the case name, the accepted references, the ignore
//! patterns, the fuel budget, the ORAQL scope, `use_cfl`, the optimism
//! kind and the key of the unoptimized module. A change to any of them
//! changes every key, and stale entries are simply never consulted:
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
//! once, in `Driver::execute`, into the case's tally: its
//! [`ProbeEffort`] field and its traced [`ProbeKind`] are both read off
//! that tally. The hit is written back only to the tiers that missed
//! before it. Any executable-hash answer, and any VM run, files the
//! verdict under the probe's decisions digest in every tier; a VM run
//! also files it under the executable hash in every tier. Store and
//! server write errors are swallowed: those tiers are accelerators,
//! never dependencies. The accepted references themselves are not
//! stored: the case salt hashes them, so a changed reference changes
//! every key.
//!
//! # One build per case; probe compiles reuse decision-free functions
//!
//! [`Driver::run`] calls the case's `build` once. The baseline, every
//! probe and the final compile start from clones of that module, which
//! also keys the case salt. The case's first successful probe compile
//! notes the functions no unique ORAQL query names
//! ([`Reuse::decision_free`]): they never reached the decision sequence
//! or ORAQL's pair cache, so they compile to the same body under every
//! decision sequence. [`Reuse::keep`] puts their optimized bodies into
//! the case's template, and every later probe compile clones the
//! template and skips the pipeline for them ([`compile_pipeline`]).
//! Until a probe compile succeeds (the first probe answered by a tier,
//! or its compile panicked) nothing is reused. Every probe still counts
//! as one compile; the baseline and final compiles are full. The tally
//! counts the reused functions ([`ProbeEffort::functions_reused`]).
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
//! Every probe attempt — compile, VM run, verification — runs inline on
//! its case's thread under `catch_unwind`, and optionally under a
//! deterministic fault-injection plan ([`DriverOptions::faults`], see
//! the `oraql-faults` crate). Fuel ([`TestCase::fuel`]) is the one
//! bound on a probe: a run that exhausts it is a genuine, deterministic
//! failing verdict, cached like any other. An attempt that panics,
//! traps with an injected VM error, or produces garbled output is
//! classified as a [`ProbeFailure`] and retried twice at once (an
//! injected fault draws a fresh decision; a genuine panic repeats). A
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

use crate::compile::{compile, compile_pipeline, CompileOptions, Reuse, Scope};
use crate::pass::{OraqlStats, UniqueQuery};
use crate::sequence::Decisions;
use crate::strategy::{ProbeOutcome, Prober, Strategy};
use crate::trace::{ProbeEvent, ProbeKind, TraceSink};
use crate::verify::{Mismatch, Verifier};
use oraql_faults::{FaultInjector, FaultSite, InjectedPanic};
use oraql_ir::inst::Inst;
use oraql_ir::module::Module;
use oraql_ir::printer::module_key;
use oraql_obs::Span;
use oraql_passes::Stats;
use oraql_store::{Space, Store, Verdict};
use oraql_vm::{Interpreter, RunOutcome, VmFault};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark handed to the driver: how to build the program, where
/// ORAQL may answer, and how to verify output.
pub struct TestCase {
    /// Benchmark name.
    pub name: String,
    /// Builds a fresh module (one "compilation" input). Must be
    /// deterministic: [`Driver::run`] calls it once and compiles clones
    /// of the result many times, and the case salt keys stored
    /// verdicts by it across runs.
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

    /// The case's ORAQL compile options under `decisions`: those of
    /// every probe compile, of the final compile and of a replay.
    pub fn oraql_options(&self, decisions: Decisions) -> CompileOptions {
        CompileOptions {
            oraql: Some((decisions, self.scope.clone())),
            use_cfl: self.use_cfl,
            optimism: self.optimism,
            ..CompileOptions::default()
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
    /// Functions probe compiles took from the case's first successful
    /// probe compile instead of running the pipeline over them.
    pub functions_reused: u64,
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

fn decisions_digest(salt: u64, d: &Decisions) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    d.render().hash(&mut h);
    h.finish()
}

/// The key of the program a case builds, `m` unoptimized: its
/// [`module_key`], plus the fields that key leaves out because the
/// printer does not print them, though the compile or the run may read
/// them: each function's source file (the ORAQL scope), each access's
/// alias scopes (`ScopedNoAliasAA`), each call's return type and each
/// global's initial bytes.
fn source_key(m: &Module) -> u64 {
    let mut h = DefaultHasher::new();
    module_key(0, m).hash(&mut h);
    for f in &m.funcs {
        f.src_file.map(|s| m.strings.resolve(s)).hash(&mut h);
        for d in f.insts() {
            match &d.inst {
                Inst::Load { meta, .. } | Inst::Store { meta, .. } | Inst::Memcpy { meta, .. } => {
                    meta.scopes.hash(&mut h);
                    meta.noalias.hash(&mut h);
                }
                Inst::Call { ret, .. } => ret.hash(&mut h),
                _ => {}
            }
        }
    }
    for g in &m.globals {
        g.init.hash(&mut h);
    }
    h.finish()
}

/// Cache-key salt identifying one case within the shared store and
/// server tiers: a probe verdict is only transferable between probes
/// that agree on everything it depends on besides the decisions — the
/// verifier (name, references, ignore patterns, fuel), the ORAQL
/// configuration (scope, `use_cfl`, optimism), and the program itself,
/// `source`: the [`source_key`] of the unoptimized module.
fn case_salt(case: &TestCase, references: &[String], source: u64) -> u64 {
    let mut h = DefaultHasher::new();
    case.name.hash(&mut h);
    references.hash(&mut h);
    case.ignore_patterns.hash(&mut h);
    case.fuel.hash(&mut h);
    case.scope.hash(&mut h);
    case.use_cfl.hash(&mut h);
    case.optimism.hash(&mut h);
    source.hash(&mut h);
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

/// Everything one case counts: probe answers, counted where they are
/// answered, and work and sandbox events, counted where they happen.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Probe answers, by what answered.
    answers: HashMap<Answer, u64>,
    /// Probe compiles started.
    compiles: u64,
    /// Functions probe compiles reused instead of compiling them.
    functions_reused: u64,
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
            functions_reused: self.functions_reused,
            ..ProbeEffort::default()
        }
    }
}

/// Faults drawn for one probe attempt, all at its start and in a fixed
/// site order, so the fault stream is a pure function of the plan and
/// the probe sequence.
#[derive(Debug, Clone, Copy, Default)]
struct AttemptFaults {
    compile_panic: bool,
    vm_fault: Option<VmFault>,
    garble: bool,
    store_read_corrupt: bool,
}

/// Fuel cap injected by `vm-fuel-lie`: big enough for the interpreter
/// to make a little progress, far too small for any real probe run.
const FUEL_LIE_CAP: u64 = 24;

/// The safe degradation verdict: may-alias, no unique-count claim.
const MAY_ALIAS: Verdict = (false, 0);

/// Retries of a failed probe attempt before the probe is quarantined to
/// may-alias.
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

/// The probing driver: everything needed to answer the probes of one
/// case, on the case's own thread.
pub struct Driver<'a> {
    case: &'a TestCase,
    opts: DriverOptions,
    salt: u64,
    verifier: Verifier,
    /// Id of this case's root span (0 without a trace), the parent of
    /// every probe span the driver opens.
    case_span: u64,
    /// In-memory tier, executable-hash space.
    exe: HashMap<u64, Verdict>,
    /// In-memory tier, decisions-digest space: `None` at `jobs = 1`,
    /// so that it reproduces the seed effort counters exactly.
    dec: Option<HashMap<u64, Verdict>>,
    /// The case's one build, and the template its probe compiles start
    /// from once the first successful one has noted the decision-free
    /// functions.
    reuse: Reuse,
    /// The case's one accounting record.
    tally: Tally,
    /// Decisions digests whose probes exhausted every retry: answered
    /// may-alias immediately, never re-attempted, never persisted.
    quarantine: HashSet<u64>,
}

impl Driver<'_> {
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
        // The case's one build: every compile starts from a clone of it,
        // and it keys the unoptimized module for the salt. A panicking
        // build closure fails this case, not the suite.
        let (source, baseline) = catch_unwind(AssertUnwindSafe(|| {
            let source = (case.build)();
            let baseline = compile(&|| source.clone(), &CompileOptions::baseline());
            (source, baseline)
        }))
        .map_err(|p| DriverError::CasePanicked(panic_message(&*p)))?;
        let baseline_run = run_module(&baseline.module, case.fuel)
            .map_err(|e| DriverError::BaselineBroken(Mismatch::ExecutionFailed(e)))?;
        let mut references = vec![baseline_run.stdout.clone()];
        references.extend(case.extra_references.iter().cloned());
        let salt = case_salt(case, &references, source_key(&source));
        let verifier = Verifier::new(references, &case.ignore_patterns);
        verifier
            .check(&baseline_run.stdout)
            .map_err(DriverError::BaselineBroken)?;
        drop(baseline_span);

        let mut driver = Driver {
            case,
            salt,
            verifier,
            case_span: case_id,
            exe: HashMap::new(),
            dec: (opts.jobs > 1).then(HashMap::new),
            reuse: Reuse::new(source),
            tally: Tally::default(),
            quarantine: HashSet::new(),
            opts,
        };

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
        let final_opts = case.oraql_options(decisions.clone());
        let source = driver.reuse.source();
        let finalc = catch_unwind(AssertUnwindSafe(|| {
            compile(&|| source.clone(), &final_opts)
        }))
        .map_err(|p| DriverError::CasePanicked(panic_message(&*p)))?;
        let final_run = run_module(&finalc.module, case.fuel)
            .map_err(|e| DriverError::FinalBroken(Mismatch::ExecutionFailed(e)))?;
        driver
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
        let (oraql, queries) = {
            let shared = finalc
                .oraql
                .as_ref()
                .ok_or_else(|| DriverError::Internal("final compile lost its oraql pass".into()))?;
            let mut st = shared.lock();
            (st.stats, std::mem::take(&mut st.queries))
        };
        // Corpus soundness gate: with ground truth attached, the final
        // verdicts — already observationally verified above — must also
        // agree with the by-construction labels. Runs after the final
        // verification so a violation really means "optimism survived
        // the whole workflow on a pair known to alias".
        let truth = driver
            .opts
            .ground_truth
            .as_ref()
            .map(|gt| gt.check(&case.name, &finalc.module, &queries, case.optimism));
        if let Some(t) = &truth {
            if !t.clean() {
                return Err(DriverError::SoundnessViolation(t.describe_violations()));
            }
        }
        Ok(DriverResult {
            name: case.name.clone(),
            fully_optimistic,
            decisions,
            oraql,
            no_alias_original: baseline.no_alias_total,
            no_alias_oraql: finalc.no_alias_total,
            baseline_stats: baseline.stats,
            final_stats: finalc.stats,
            baseline_run,
            final_run,
            effort: driver.tally.effort(),
            failures: driver.tally.failures,
            queries,
            // A clone, because it is compact: the compiled module keeps
            // the spare capacity its vectors grew, and a suite holds
            // every case's result at once.
            final_module: finalc.module.clone(),
            truth,
        })
    }

    /// The one place a probe answer is accounted: it bumps the tally
    /// and traces the answer with its latency, numbered by the case's
    /// answer count so far and joined to `span`, the probe span it was
    /// given in (0: none). Only `execute` and `note_deduced` call it.
    fn account(
        &mut self,
        answer: Answer,
        digest: u64,
        (pass, unique): Verdict,
        started: Instant,
        span: u64,
    ) {
        let seq = self.tally.answers.values().sum();
        *self.tally.answers.entry(answer).or_default() += 1;
        if let Some(sink) = &self.opts.trace {
            sink.record(ProbeEvent {
                case: self.case.name.clone(),
                seq,
                digest,
                kind: answer.kind(),
                pass,
                unique,
                wall_micros: started.elapsed().as_micros() as u64,
                span,
            });
        }
    }

    /// Opens a child span under `parent` when the run is traced.
    /// Returns `None` (zero cost beyond the branch) otherwise.
    fn span(&self, name: &'static str, parent: u64) -> Option<Span> {
        self.opts
            .trace
            .as_ref()
            .map(|t| t.span(name, &self.case.name, parent))
    }

    /// Draws this attempt's fault decisions from the plan (all quiet
    /// when no plan is configured).
    fn sample_attempt(&self) -> AttemptFaults {
        let Some(inj) = &self.opts.faults else {
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
            garble: inj.fire(FaultSite::OutputGarble),
            store_read_corrupt: inj.fire(FaultSite::StoreReadCorrupt),
        }
    }

    fn note_failure(&mut self, f: &ProbeFailure) {
        let fs = &mut self.tally.failures;
        match f {
            ProbeFailure::Panic(_) => fs.panics += 1,
            ProbeFailure::VmError(_) => fs.vm_errors += 1,
            ProbeFailure::OutputMismatch => fs.output_mismatches += 1,
            ProbeFailure::StoreCorrupt => fs.store_corrupt += 1,
            ProbeFailure::ServerDown => fs.server_down += 1,
            ProbeFailure::ServerBusy => fs.server_busy += 1,
        }
    }

    /// Answers one probe through the sandbox: quarantine short-circuit,
    /// then up to `1 + PROBE_RETRIES` attempts, each under
    /// `catch_unwind`. Never panics; fuel bounds every VM run, so every
    /// attempt ends.
    fn execute(&mut self, d: &Decisions) -> ProbeOutcome {
        let started = Instant::now();
        let digest = decisions_digest(self.salt, d);
        // The probe span covers the quarantine check, every retry, and
        // the degradation path; its guard records even if an attempt
        // unwinds past us.
        let probe_span = self.span("probe", self.case_span);
        let probe_id = probe_span.as_ref().map_or(0, Span::id);
        let (answer, verdict) = 'answered: {
            if self.quarantine.contains(&digest) {
                break 'answered (Answer::Faulted, MAY_ALIAS);
            }
            let attempts = 1 + PROBE_RETRIES;
            for attempt_no in 0..attempts {
                let fx = self.sample_attempt();
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| self.attempt(d, digest, fx, probe_id)))
                        .unwrap_or_else(|p| Err(ProbeFailure::Panic(panic_message(&*p))));
                match outcome {
                    Ok(answered) => break 'answered answered,
                    Err(failure) => {
                        self.note_failure(&failure);
                        if attempt_no + 1 < attempts {
                            self.tally.failures.retries += 1;
                        }
                    }
                }
            }
            // Every attempt failed: quarantine this decision vector and
            // degrade to the pessimistic verdict. Never cached, never
            // persisted — a later healthy run recomputes it for real.
            self.quarantine.insert(digest);
            self.tally.failures.quarantined += 1;
            (Answer::Faulted, MAY_ALIAS)
        };
        self.account(answer, digest, verdict, started, probe_id);
        let (pass, unique) = verdict;
        ProbeOutcome { pass, unique }
    }

    /// One raw probe attempt — the decisions-digest walk, the compile,
    /// the executable-hash walk, then an actual execution — with `fx`'s
    /// faults injected at their sites. `digest` is `d`'s decisions
    /// digest. Returns what answered, for `execute` to account.
    fn attempt(
        &mut self,
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
        self.tally.compiles += 1;
        let case = self.case;
        // A probe reads only the module and the ORAQL state: the
        // pipeline step alone, no Fig. 6 statistics, and no pipeline
        // run over the functions the first compile found decision-free.
        let compiled = {
            let _s = self.span("compile", probe_span);
            compile_pipeline(&self.reuse, &case.oraql_options(d.clone()))
        };
        self.tally.functions_reused += self.reuse.count() as u64;
        if !self.reuse.is_kept() {
            self.reuse.keep(&compiled, Reuse::decision_free(&compiled));
        }
        let h = {
            let _s = self.span("key", probe_span);
            module_key(self.salt, &compiled.module)
        };
        if let Some(hit) = self.lookup(Space::Exe, h, digest, fx, probe_span) {
            return Ok(hit);
        }
        self.tally.vm_runs += 1;
        let run = {
            let _s = self.span("vm", probe_span);
            run_module_with(&compiled.module, case.fuel, fx.vm_fault)
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
            // Genuine traps, fuel exhaustion included, count as
            // verification failures.
            Err(_) => false,
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
        &mut self,
        space: Space,
        key: u64,
        digest: u64,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Option<(Answer, Verdict)> {
        let (i, v) = (0..TIERS.len())
            .find_map(|i| Some((i, self.read(TIERS[i], space, key, fx, probe_span)?)))?;
        self.write(&TIERS[..i], space, key, v);
        if space == Space::Exe {
            self.write(&TIERS, Space::Dec, digest, v);
        }
        Some((Answer::Hit(TIERS[i], space), v))
    }

    /// The in-memory map of `space` (`None`: no decisions map at
    /// `jobs = 1`).
    fn memory(&mut self, space: Space) -> Option<&mut HashMap<u64, Verdict>> {
        match space {
            Space::Dec => self.dec.as_mut(),
            Space::Exe => Some(&mut self.exe),
        }
    }

    /// Reads one tier. A store hit under the injected
    /// `store-read-corrupt` fault, and a failed server call, are noted
    /// as sandbox failures and read as misses: the walk goes on, and a
    /// recompute is the recovery, so no retry is consumed. The client's
    /// circuit breaker makes every server call during an outage's
    /// cooldown free.
    fn read(
        &mut self,
        tier: Tier,
        space: Space,
        key: u64,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Option<Verdict> {
        match tier {
            Tier::Memory => self.memory(space)?.get(&key).copied(),
            Tier::Store => {
                let found = {
                    let store = self.opts.store.as_ref()?;
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
                let got = {
                    let client = self.opts.server.as_ref()?;
                    let _s = self.span("server", probe_span);
                    client.get(space, key)
                };
                got.unwrap_or_else(|e| {
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
    fn write(&mut self, tiers: &[Tier], space: Space, key: u64, v: Verdict) {
        for tier in tiers {
            match tier {
                Tier::Memory => {
                    if let Some(map) = self.memory(space) {
                        map.insert(key, v);
                    }
                }
                Tier::Store => {
                    if let Some(store) = &self.opts.store {
                        let _ = store.record(space, key, v);
                    }
                }
                Tier::Server => {
                    if let Some(client) = &self.opts.server {
                        let _ = client.put(space, key, v);
                    }
                }
            }
        }
    }
}

fn run_module(m: &Module, fuel: u64) -> Result<RunOutcome, String> {
    run_module_with(m, fuel, None)
}

fn run_module_with(m: &Module, fuel: u64, fault: Option<VmFault>) -> Result<RunOutcome, String> {
    let main = m.find_func("main").ok_or("no main")?;
    let mut interp = Interpreter::new(m).with_fuel(fuel).with_fault(fault);
    match interp.run(main, vec![]) {
        Ok(_) => Ok(interp.into_outcome()),
        Err(e) => Err(e.to_string()),
    }
}

impl Prober for Driver<'_> {
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
        self.execute(d)
    }

    fn budget_exceeded(&self) -> bool {
        // Panicked attempts abort *before* the run-site `tests_run`
        // increment, so they must consume budget here — otherwise a
        // persistently failing probe environment (every compile
        // panicking, say) would let the bisection walk forever.
        // VM-error and output-mismatch failures already counted.
        self.tally.vm_runs + self.tally.failures.panics >= self.opts.max_tests
    }

    fn note_deduced(&mut self) {
        self.account(Answer::Deduced, 0, (false, 0), Instant::now(), 0);
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
    let mut done: Vec<(usize, Result<DriverResult, DriverError>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..opts.jobs.min(cases.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(case) = cases.get(i) else {
                            break mine;
                        };
                        mine.push((i, run_one(case)));
                    }
                })
            })
            .collect();
        // `run_one` catches every panic, so a worker never unwinds.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
