//! # oraql — Optimistic Responses to Alias Queries
//!
//! The paper's primary contribution: a *last-resort* alias analysis that
//! answers the queries no conservative analysis could resolve according
//! to a predetermined decision sequence, plus the probing driver and
//! verification harness that search for a locally maximal set of
//! queries answerable "no-alias" without changing program output.
//!
//! Components (paper §IV):
//!
//! * [`pass::OraqlAA`] — the alias-analysis pass (§IV-A): consumes a
//!   0/1 decision sequence, caches decisions per unordered pointer pair
//!   (location sizes ignored), answers optimistically past the end of
//!   the sequence, reports its unique-query count through the statistics
//!   interface, and can be restricted to source files and compilation
//!   targets (§IV-E).
//! * [`driver::Driver`] — the probing driver (§IV-B): baseline compile,
//!   full-optimism fast path, recursive bisection with the *chunked*
//!   and *frequency-space* strategies ([`strategy`]), shared verdict
//!   caches (executable hash + decisions digest) and the Fig. 2
//!   deduction rule. [`run_suite`] runs up to `jobs` cases at once,
//!   each on this sequential driver; `jobs = 1` reproduces the seed
//!   driver byte-for-byte.
//! * [`trace`] — probe-trace observability: a JSONL event stream
//!   recording how every probe was answered (executed / cached /
//!   store / deduced), consumed by [`report`] summaries.
//! * [`store`] (the `oraql-store` crate) — the crash-safe persistent
//!   verdict store: an append-only, checksummed, content-addressed
//!   journal that makes warm re-runs answer probes without compiling.
//!   Attached via [`DriverOptions`]'s `store` field (`--store` in the
//!   CLI) as a write-through tier behind the driver's in-memory caches.
//! * [`served`] (the `oraql-served` crate) — the shared verdict
//!   *server*: a daemon owning one store journal, answering lookups
//!   from the store's in-memory map and batching fsyncs, so many
//!   concurrent drivers share one probe corpus. Attached via
//!   [`DriverOptions`]'s `server` field (`--server ADDR` in the CLI) as
//!   a third cache tier behind the local store, with circuit-breaker
//!   fallback when the daemon is unreachable.
//! * [`verify::Verifier`] — the verification script (§IV-C): compares
//!   program output against one or more references, ignoring volatile
//!   lines via [`textpat`] patterns.
//! * [`report`] — static impact identification (§IV-D): Fig. 3-style
//!   dumps of (non-)cached optimistic/pessimistic queries with source
//!   locations and the issuing pass.
//! * [`mod@compile`] — the "compiler": conservative AA chain + ORAQL last,
//!   the standard pipeline from `oraql-passes`, machine statistics
//!   (which [`compile_pipeline`], the probes' compile, leaves out).
//! * [`config`] — benchmark description files for the CLI driver.
//! * [`truth`] — ground-truth alias labels and the corpus soundness
//!   gate: generated workloads (`oraql-gen`) attach a label map to
//!   [`DriverOptions`] and the driver cross-checks every final verdict
//!   against it, failing loudly on optimism kept on a genuinely
//!   aliasing pair.

pub mod compile;
pub mod config;
pub mod driver;
pub mod pass;
pub mod report;
pub mod sequence;
pub mod strategy;
pub mod textpat;
pub mod trace;
pub mod truth;
pub mod verify;

pub use oraql_faults as faults;
pub use oraql_served as served;
pub use oraql_store as store;

pub use compile::{compile, compile_pipeline, CompileOptions, Compiled, Scope};
pub use driver::{
    run_suite, Driver, DriverError, DriverOptions, DriverResult, FailureStats, ProbeFailure,
    TestCase,
};
pub use oraql_faults::{FaultInjector, FaultPlan, FaultSite, InjectedPanic};
pub use oraql_store::{StatsSnapshot, Store, StoreError, StoreStats};
pub use pass::{OraqlAA, OraqlShared, OraqlStats};
pub use sequence::Decisions;
pub use strategy::Strategy;
pub use trace::{read_trace, ProbeEvent, ProbeKind, TraceSink};
pub use truth::{GroundTruth, Label, TruthReport};
pub use verify::Verifier;
