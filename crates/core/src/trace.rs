//! The run's one event stream: a JSONL sink recording every probe
//! answer the driver gives, however it gives it, and every span it
//! opens, in one file.
//!
//! The paper's Fig. 2 (probing effort) and Fig. 4 (query statistics)
//! were produced from ad-hoc counters; this module replaces those with
//! a structured event stream so the same data can be recomputed,
//! plotted, or diffed after the fact. A trace file holds two kinds of
//! line, told apart by their keys:
//!
//! * one [`ProbeEvent`] per probe answer (it has a `kind` key);
//! * one [`SpanEvent`] per closed span (`case > probe > compile|key|vm|
//!   verify|store|server`, plus the `baseline` and `final` phases).
//!
//! A probe answer's `kind` is one of:
//!
//! * `executed` — the module was compiled, run in the VM, and verified;
//! * `exe-cache` — a bit-identical recompilation reused a prior verdict
//!   (the seed driver's executable-hash cache);
//! * `dec-cache` — an identical decision vector skipped even the
//!   recompile (the decisions-digest cache, `--jobs > 1` only);
//! * `store` — the persistent verdict store (`oraql-store`, enabled
//!   with `--store`) answered from a previous process's work;
//! * `server` — the shared verdict server (`oraql-served`, enabled
//!   with `--server`) answered after every local tier missed;
//! * `deduced` — the Fig. 2 deduction rule answered without a test;
//! * `faulted` — the sandbox quarantined the probe to may-alias.
//!
//! Each answer's `span` names the `probe` span it was given in, so an
//! answer joins its compile, VM and verify spans by id alone. `deduced`
//! answers open no probe span and carry 0.
//!
//! # Determinism contract
//!
//! With `--jobs 1` the probe-answer *sequence* is deterministic and
//! reproduces the seed driver's probe order exactly. With `--jobs N` up
//! to `N` cases probe at once and their events interleave in scheduling
//! order, but each case probes sequentially, so the per-case `seq`
//! numbers reconstruct a per-case sequence that is identical at any
//! `N > 1`. Wall-clock fields and span ids are the only
//! non-reproducible values.
//!
//! The format is line-delimited JSON with a fixed key set per kind (no
//! external serialization crates in this hermetic build — the writer
//! and parser are hand-rolled and round-trip exactly; see
//! [`ProbeEvent::to_jsonl`] / [`ProbeEvent::parse_jsonl`] and
//! [`SpanEvent`]'s pair).

use oraql_obs::jsonl::{escape_json, json_bool, json_str, json_u64};
use oraql_obs::{Span, SpanEvent, SpanSink};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// How a probe was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Compiled, executed in the VM, verified.
    Executed,
    /// Bit-identical executable: verdict reused from the hash cache.
    ExeCacheHit,
    /// Identical decision vector: verdict reused without recompiling.
    DecisionCacheHit,
    /// Answered from the persistent verdict store (`oraql-store`): a
    /// prior *process* already knew this key.
    StoreHit,
    /// Answered by the shared verdict server (`oraql-served`): another
    /// *tenant* already paid for this probe.
    ServerHit,
    /// Answered by the Fig. 2 deduction rule (known-fail, no test).
    Deduced,
    /// An injected or genuine probe failure consumed this answer: the
    /// sandbox exhausted its retries (or hit corruption) and degraded
    /// to the pessimistic may-alias verdict (`pass = false`).
    Faulted,
}

impl ProbeKind {
    /// Every kind, in wire-documentation order, which is also
    /// declaration order: `kind as usize` indexes arrays kept in it.
    pub const ALL: [ProbeKind; 7] = [
        ProbeKind::Executed,
        ProbeKind::ExeCacheHit,
        ProbeKind::DecisionCacheHit,
        ProbeKind::StoreHit,
        ProbeKind::ServerHit,
        ProbeKind::Deduced,
        ProbeKind::Faulted,
    ];

    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeKind::Executed => "executed",
            ProbeKind::ExeCacheHit => "exe-cache",
            ProbeKind::DecisionCacheHit => "dec-cache",
            ProbeKind::StoreHit => "store",
            ProbeKind::ServerHit => "server",
            ProbeKind::Deduced => "deduced",
            ProbeKind::Faulted => "faulted",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        ProbeKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// One probe answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Benchmark/configuration name the probe belongs to.
    pub case: String,
    /// The case's answer count before this one: 0-based and contiguous
    /// per case.
    pub seq: u64,
    /// Digest of the probed decision vector (keys the decisions cache).
    /// Zero for `deduced` events, which have no materialized vector.
    pub digest: u64,
    /// How the probe was answered.
    pub kind: ProbeKind,
    /// The verdict: did the compiled program verify?
    pub pass: bool,
    /// Unique ORAQL queries observed by that compilation (0 when the
    /// compile was skipped).
    pub unique: u64,
    /// Wall time from the probe's first attempt to its answer, in
    /// microseconds (retries included).
    pub wall_micros: u64,
    /// Id of the `probe` span the answer was given in; 0 for `deduced`
    /// answers, which have no probe span.
    pub span: u64,
}

impl ProbeEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"case\":\"");
        s.push_str(&escape_json(&self.case));
        let _ = write!(
            s,
            "\",\"seq\":{},\"digest\":{},\"kind\":\"{}\",\"pass\":{},\"unique\":{},\"wall_micros\":{},\"span\":{}}}",
            self.seq,
            self.digest,
            self.kind.as_str(),
            self.pass,
            self.unique,
            self.wall_micros,
            self.span
        );
        s
    }

    /// Parses a line produced by [`ProbeEvent::to_jsonl`]. Returns
    /// `None` for blank lines or lines missing required keys.
    pub fn parse_jsonl(line: &str) -> Option<ProbeEvent> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let case = json_str(line, "case")?;
        Some(ProbeEvent {
            case,
            seq: json_u64(line, "seq")?,
            digest: json_u64(line, "digest")?,
            kind: ProbeKind::parse(&json_str(line, "kind")?)?,
            pass: json_bool(line, "pass")?,
            unique: json_u64(line, "unique")?,
            wall_micros: json_u64(line, "wall_micros")?,
            span: json_u64(line, "span")?,
        })
    }
}

/// Thread-shared sink of a run's trace. Cloning shares the buffers
/// and the file; all driver threads of a suite run feed one sink.
#[derive(Debug, Clone)]
pub struct TraceSink {
    probes: Arc<Mutex<Vec<ProbeEvent>>>,
    /// Hands out span guards and owns the one file writer, which the
    /// probe lines go through too.
    spans: SpanSink,
}

impl TraceSink {
    /// An in-memory sink (events retrievable via [`TraceSink::events`]
    /// and [`TraceSink::spans`]).
    pub fn in_memory() -> Self {
        TraceSink {
            probes: Arc::default(),
            spans: SpanSink::in_memory(),
        }
    }

    /// A sink that additionally appends every probe and span line to
    /// `path` (truncating any existing file).
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(TraceSink {
            probes: Arc::default(),
            spans: SpanSink::to_file(path.as_ref())?,
        })
    }

    /// Records one probe answer (its line goes to the file at once). A
    /// failed write never loses the in-memory event; it is counted and
    /// reported by [`TraceSink::flush`].
    pub fn record(&self, ev: ProbeEvent) {
        self.spans.write_line(|| ev.to_jsonl());
        self.probes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(ev);
    }

    /// Opens a span of `case` under `parent` (0 for a root); its line
    /// is recorded when the guard drops.
    pub fn span(&self, name: &'static str, case: &str, parent: u64) -> Span {
        self.spans.span(name, case, parent)
    }

    /// Snapshot of all recorded probe answers, in record order.
    pub fn events(&self) -> Vec<ProbeEvent> {
        self.probes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Snapshot of all closed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.spans.events()
    }

    /// Flushes the backing file, if any. Returns the total number of
    /// JSONL lines, of either kind, dropped by failed writes (including
    /// a failed flush) so callers can report data loss once instead of
    /// never.
    pub fn flush(&self) -> u64 {
        self.spans.flush()
    }
}

/// A trace file read back: both kinds of line, each in file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The probe answers.
    pub probes: Vec<ProbeEvent>,
    /// The closed spans.
    pub spans: Vec<SpanEvent>,
}

/// Reads a JSONL trace file back, skipping blank lines and rejecting a
/// line that is neither a probe answer nor a span (an `InvalidData`
/// error naming the line), so a torn or garbled trace never yields
/// tables short of events.
pub fn read_trace(path: impl AsRef<Path>) -> std::io::Result<Trace> {
    let text = std::fs::read_to_string(path)?;
    let mut trace = Trace::default();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(ev) = ProbeEvent::parse_jsonl(line) {
            trace.probes.push(ev);
        } else if let Some(span) = SpanEvent::parse_jsonl(line) {
            trace.spans.push(span);
        } else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad trace line {}: {line}", no + 1),
            ));
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: ProbeKind, seq: u64) -> ProbeEvent {
        ProbeEvent {
            case: "testsnap \"omp\"\n".into(),
            seq,
            digest: 0xdead_beef,
            kind,
            pass: seq.is_multiple_of(2),
            unique: 42,
            wall_micros: 1234,
            span: 7,
        }
    }

    /// A per-process, per-test path: concurrent `cargo test` runs and
    /// the tests of one run must not race on one temp file.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oraql_trace_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn jsonl_roundtrip() {
        for (i, kind) in ProbeKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is declaration order");
            let ev = sample(kind, i as u64);
            let line = ev.to_jsonl();
            assert_eq!(ProbeEvent::parse_jsonl(&line), Some(ev), "{line}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(ProbeEvent::parse_jsonl(""), None);
        assert_eq!(ProbeEvent::parse_jsonl("{\"case\":\"x\"}"), None);
        assert_eq!(ProbeEvent::parse_jsonl("not json"), None);
        let no_span = sample(ProbeKind::Executed, 0)
            .to_jsonl()
            .replace(",\"span\":7", "");
        assert_eq!(ProbeEvent::parse_jsonl(&no_span), None, "{no_span}");
    }

    #[test]
    fn both_kinds_roundtrip_through_one_file() {
        let path = temp_path("roundtrip");
        let sink = TraceSink::to_file(&path).unwrap();
        {
            let case = sink.span("case", "f", 0);
            let probe = sink.span("probe", "f", case.id());
            sink.record(ProbeEvent {
                span: probe.id(),
                ..sample(ProbeKind::Executed, 0)
            });
            drop(sink.span("compile", "f", probe.id()));
        }
        sink.record(ProbeEvent {
            span: 0,
            ..sample(ProbeKind::Deduced, 1)
        });
        assert_eq!(sink.flush(), 0, "healthy sink drops nothing");
        let back = read_trace(&path).unwrap();
        assert_eq!(back.probes, sink.events());
        assert_eq!(back.spans, sink.spans());
        assert_eq!((back.probes.len(), back.spans.len()), (2, 3));
        let probe_span = back.spans.iter().find(|s| s.name == "probe").unwrap();
        assert_eq!(
            back.probes[0].span, probe_span.id,
            "the answer names its span"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_only_file_reads_back_with_zero_probes() {
        let path = temp_path("spans_only");
        let sink = TraceSink::to_file(&path).unwrap();
        drop(sink.span("case", "f", 0));
        assert_eq!(sink.flush(), 0);
        let back = read_trace(&path).unwrap();
        assert!(back.probes.is_empty());
        assert_eq!(back.spans, sink.spans());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_trace_rejects_a_garbled_line() {
        let path = temp_path("garbled");
        let good = sample(ProbeKind::Executed, 0).to_jsonl();
        let span = SpanEvent {
            id: 7,
            parent: 0,
            name: "probe".into(),
            case: "x".into(),
            start_micros: 1,
            dur_micros: 2,
        }
        .to_jsonl();
        let garbled_probe = sample(ProbeKind::Deduced, 1)
            .to_jsonl()
            .replace("\"seq\"", "\"sq\"");
        let garbled_span = span.replace("\"parent\"", "\"parnt\"");
        for garbled in [&garbled_probe, &garbled_span] {
            std::fs::write(&path, format!("{good}\n\n{garbled}\n{span}\n")).unwrap();
            let err = read_trace(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().starts_with("bad trace line 3: "), "{err}");
        }
        std::fs::write(&path, format!("{good}\n\n{span}\n{good}\n")).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(
            (back.probes.len(), back.spans.len()),
            (2, 1),
            "blank lines are skipped"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_counts_dropped_lines_on_write_failure() {
        // A sink whose file handle fails every write: /dev/full is the
        // classic always-ENOSPC device on Linux.
        let Ok(sink) = TraceSink::to_file("/dev/full") else {
            return; // platform without /dev/full: nothing to test
        };
        // Lines longer than the writer's buffer fail at the write, so
        // each kind of line is counted where it is written.
        let long = "x".repeat(16 << 10);
        sink.record(ProbeEvent {
            case: long.clone(),
            ..sample(ProbeKind::Executed, 0)
        });
        drop(sink.span("probe", &long, 0));
        assert_eq!(sink.flush(), 2, "one count for both kinds of line");
        // The in-memory copies are intact regardless.
        assert_eq!((sink.events().len(), sink.spans().len()), (1, 1));
    }

    #[test]
    fn shared_clones_feed_one_buffer() {
        let sink = TraceSink::in_memory();
        let s2 = sink.clone();
        std::thread::scope(|sc| {
            sc.spawn(|| s2.record(sample(ProbeKind::Executed, 0)));
            sc.spawn(|| sink.record(sample(ProbeKind::ExeCacheHit, 1)));
        });
        assert_eq!(sink.events().len(), 2);
    }
}
