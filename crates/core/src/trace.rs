//! Probe-trace observability: a JSONL sink recording every probe the
//! driver answers, however it answers it.
//!
//! The paper's Fig. 2 (probing effort) and Fig. 4 (query statistics)
//! were produced from ad-hoc counters; this module replaces those with
//! a structured event stream so the same data can be recomputed,
//! plotted, or diffed after the fact. One [`ProbeEvent`] is emitted per
//! probe answer:
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
//! Under `--probe-deadline-ms` too there is one event per answer: an
//! attempt the watchdog gave up on never answers, so it is not traced.
//!
//! # Determinism contract
//!
//! With `--jobs 1` the event *sequence* is deterministic and reproduces
//! the seed driver's probe order exactly. With `--jobs N` up to `N`
//! cases probe at once and their events interleave in scheduling
//! order, but each case probes sequentially, so the per-case `seq`
//! numbers reconstruct a per-case sequence that is identical at any
//! `N > 1`. Wall-clock fields are the only inherently non-reproducible
//! values.
//!
//! The format is line-delimited JSON with a fixed key set (no external
//! serialization crates in this hermetic build — the writer and parser
//! are hand-rolled and round-trip exactly; see
//! [`ProbeEvent::to_jsonl`] / [`ProbeEvent::parse_jsonl`]).

use oraql_obs::jsonl::{escape_json, json_bool, json_str, json_u64};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
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
    /// Every kind, in wire-documentation order.
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
}

impl ProbeEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"case\":\"");
        s.push_str(&escape_json(&self.case));
        let _ = write!(
            s,
            "\",\"seq\":{},\"digest\":{},\"kind\":\"{}\",\"pass\":{},\"unique\":{},\"wall_micros\":{}}}",
            self.seq,
            self.digest,
            self.kind.as_str(),
            self.pass,
            self.unique,
            self.wall_micros
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
        })
    }
}

#[derive(Debug, Default)]
struct TraceInner {
    events: Vec<ProbeEvent>,
    file: Option<BufWriter<File>>,
    /// JSONL lines lost to failed file writes. The in-memory copy is
    /// still recorded, so `events()` stays complete; the count is
    /// surfaced by [`TraceSink::flush`] and the
    /// `oraql_trace_dropped_lines_total` registry counter.
    dropped: u64,
}

/// Thread-shared probe-trace sink. Cloning shares the underlying
/// buffer; all driver threads of a suite run feed one sink.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<TraceInner>>,
}

impl TraceSink {
    /// An in-memory sink (events retrievable via [`TraceSink::events`]).
    pub fn in_memory() -> Self {
        TraceSink::default()
    }

    /// A sink that additionally appends JSONL lines to `path`
    /// (truncating any existing file).
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = BufWriter::new(File::create(path)?);
        Ok(TraceSink {
            inner: Arc::new(Mutex::new(TraceInner {
                events: Vec::new(),
                file: Some(file),
                dropped: 0,
            })),
        })
    }

    /// Records one event (writes the JSONL line immediately when backed
    /// by a file). A failed write never loses the in-memory event; it
    /// is counted and reported by [`TraceSink::flush`].
    pub fn record(&self, ev: ProbeEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = inner.file.as_mut() {
            if writeln!(f, "{}", ev.to_jsonl()).is_err() {
                inner.dropped += 1;
                oraql_obs::global()
                    .counter("oraql_trace_dropped_lines_total")
                    .inc();
            }
        }
        inner.events.push(ev);
    }

    /// Snapshot of all recorded events, in record order.
    pub fn events(&self) -> Vec<ProbeEvent> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .events
            .clone()
    }

    /// Flushes the backing file, if any. Returns the total number of
    /// JSONL lines dropped by failed writes (including a failed flush)
    /// so callers can report data loss once instead of never.
    pub fn flush(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = inner.file.as_mut() {
            if f.flush().is_err() {
                inner.dropped += 1;
                oraql_obs::global()
                    .counter("oraql_trace_dropped_lines_total")
                    .inc();
            }
        }
        inner.dropped
    }
}

/// Reads every parseable event from a JSONL trace file.
pub fn read_trace(path: impl AsRef<Path>) -> std::io::Result<Vec<ProbeEvent>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text.lines().filter_map(ProbeEvent::parse_jsonl).collect())
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
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        for (i, kind) in ProbeKind::ALL.into_iter().enumerate() {
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
    }

    #[test]
    fn sink_roundtrips_through_file() {
        // Per-process unique path: two concurrent `cargo test`
        // invocations must not race on one temp file.
        let path =
            std::env::temp_dir().join(format!("oraql_trace_test_{}.jsonl", std::process::id()));
        let sink = TraceSink::to_file(&path).unwrap();
        sink.record(sample(ProbeKind::Executed, 0));
        sink.record(sample(ProbeKind::Deduced, 1));
        assert_eq!(sink.flush(), 0, "healthy sink drops nothing");
        let back = read_trace(&path).unwrap();
        assert_eq!(back, sink.events());
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_counts_dropped_lines_on_write_failure() {
        // A sink whose file handle fails every write: /dev/full is the
        // classic always-ENOSPC device on Linux.
        let Ok(sink) = TraceSink::to_file("/dev/full") else {
            return; // platform without /dev/full: nothing to test
        };
        // BufWriter defers the failure; force tiny writes + flush.
        sink.record(sample(ProbeKind::Executed, 0));
        let dropped = sink.flush();
        assert!(dropped >= 1, "write failure must be counted");
        // The in-memory copy is intact regardless.
        assert_eq!(sink.events().len(), 1);
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
