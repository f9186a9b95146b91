//! Observability substrate for the ORAQL stack.
//!
//! Four pieces, all std-only:
//!
//! 1. Span tracing ([`SpanSink`] / [`SpanEvent`]) — a scoped-timer
//!    API whose sink also owns the run's one trace file: span lines
//!    (`case > probe > compile|key|vm|verify|store|server`) and
//!    `oraql-core`'s probe-answer lines share its writer, so one file
//!    says where wall clock went and which probe gave each answer.
//! 2. The log2 [`Histogram`] the trace analyzer folds probe latencies
//!    into, with an associative merge.
//! 3. The [`jsonl`] helpers shared with `oraql-core`'s probe trace so
//!    both kinds of line escape and format identically.
//! 4. The [`rng`] module — the repo's single splitmix64 definition,
//!    shared by the fault injector, the property tests, and the
//!    workload generator so seeds can't drift between harnesses.
//!
//! A run reports through its trace and through each handle's own
//! counters (the store's, the verdict client's, the case's probe
//! effort); nothing here keeps process-wide state.

mod histogram;
pub mod jsonl;
pub mod rng;
mod span;

pub use histogram::Histogram;
pub use span::{Span, SpanEvent, SpanSink};
