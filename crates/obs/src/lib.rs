//! Observability substrate for the ORAQL stack.
//!
//! Four pieces, all std-only:
//!
//! 1. A process-wide [`Registry`] of metrics — atomic [`Counter`]s,
//!    [`Gauge`]s, and fixed-bucket log2 latency [`Histogram`]s —
//!    registered by static name and snapshot-able without stopping
//!    writers. The driver, VM, verdict store, and served daemon all
//!    publish here; the CLI and the daemon's `METRICS` op render a
//!    [`Snapshot`] as Prometheus-style text exposition.
//! 2. Span tracing ([`SpanSink`] / [`SpanEvent`]) — a scoped-timer
//!    API whose sink also owns the run's one trace file: span lines
//!    (`case > probe > compile|key|vm|verify|store|server`) and
//!    `oraql-core`'s probe-answer lines share its writer, so one file
//!    says where wall clock went and which probe gave each answer.
//! 3. The [`jsonl`] helpers shared with `oraql-core`'s probe trace so
//!    both kinds of line escape and format identically.
//! 4. The [`rng`] module — the repo's single splitmix64 definition,
//!    shared by the fault injector, the property tests, and the
//!    workload generator so seeds can't drift between harnesses.
//!
//! Everything is written for hot paths: a counter is one atomic on a
//! cache line of its own, histograms bucket by leading zeros, and span
//! guards take one `Instant` on entry and one on drop.

pub mod jsonl;
mod registry;
pub mod rng;
mod span;

pub use registry::{global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use span::{Span, SpanEvent, SpanSink};
