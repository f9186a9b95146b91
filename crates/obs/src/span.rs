//! Scoped-timer span tracing, and the one JSONL writer of a run's trace.
//!
//! A [`SpanSink`] hands out [`Span`] guards; each guard records one
//! [`SpanEvent`] on drop (including unwinds, so a panicking probe
//! still closes its span). Events carry `id`/`parent` so the
//! analyzer can rebuild the `case > probe > compile|key|vm|verify|
//! store|server` hierarchy, and `start_micros` relative to the sink's
//! creation instant so every span of one run shares a clock.
//!
//! A sink made with [`SpanSink::to_file`] owns the run's trace file.
//! Its span lines and every line handed to [`SpanSink::write_line`]
//! (`oraql-core`'s probe answers) go through one buffered writer and
//! one dropped-line count, which [`SpanSink::flush`] returns.

use crate::jsonl::{escape_json, json_str, json_u64};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span, serialized as a single JSONL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique per-sink id, starting at 1. 0 is never allocated.
    pub id: u64,
    /// Id of the enclosing span, or 0 for roots.
    pub parent: u64,
    /// Static label (`case`, `probe`, `compile`, `vm`, ...).
    pub name: String,
    /// Workload case the span belongs to ("" outside any case).
    pub case: String,
    /// Start offset in microseconds from sink creation.
    pub start_micros: u64,
    /// Wall-clock duration in microseconds.
    pub dur_micros: u64,
}

impl SpanEvent {
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"case\": \"{}\", \"start_micros\": {}, \"dur_micros\": {}}}",
            self.id,
            self.parent,
            escape_json(&self.name),
            escape_json(&self.case),
            self.start_micros,
            self.dur_micros
        )
    }

    pub fn parse_jsonl(line: &str) -> Option<SpanEvent> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(SpanEvent {
            id: json_u64(line, "id")?,
            parent: json_u64(line, "parent")?,
            name: json_str(line, "name")?,
            case: json_str(line, "case")?,
            start_micros: json_u64(line, "start_micros")?,
            dur_micros: json_u64(line, "dur_micros")?,
        })
    }
}

struct SpanInner {
    events: Vec<SpanEvent>,
    file: Option<BufWriter<File>>,
    /// Lines lost to failed writes; a failed flush counts as one.
    dropped: u64,
}

impl SpanInner {
    /// The trace file's one write path; `line` is rendered only when
    /// there is a file. A failed write loses only the file copy of the
    /// line; it is counted, never raised.
    fn write_line(&mut self, line: impl FnOnce() -> String) {
        if let Some(f) = self.file.as_mut() {
            if writeln!(f, "{}", line()).is_err() {
                self.dropped += 1;
            }
        }
    }
}

/// Shared, cloneable span sink. Clones share the buffer, the file, the
/// id allocator, and the epoch, so spans from worker threads interleave
/// into one stream.
#[derive(Clone)]
pub struct SpanSink {
    inner: Arc<Mutex<SpanInner>>,
    next_id: Arc<AtomicU64>,
    epoch: Instant,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_ignore_poison(&self.inner);
        f.debug_struct("SpanSink")
            .field("events", &inner.events.len())
            .field("file", &inner.file.is_some())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl SpanSink {
    pub fn in_memory() -> SpanSink {
        SpanSink {
            inner: Arc::new(Mutex::new(SpanInner {
                events: Vec::new(),
                file: None,
                dropped: 0,
            })),
            next_id: Arc::new(AtomicU64::new(1)),
            epoch: Instant::now(),
        }
    }

    /// Sink that also streams every line to `path` (truncated).
    pub fn to_file(path: &Path) -> std::io::Result<SpanSink> {
        let file = File::create(path)?;
        let sink = SpanSink::in_memory();
        lock_ignore_poison(&sink.inner).file = Some(BufWriter::new(file));
        Ok(sink)
    }

    /// Open a span. The returned guard records the event when it is
    /// dropped; `parent` is a previously issued id, or 0 for a root.
    pub fn span(&self, name: &'static str, case: &str, parent: u64) -> Span {
        Span {
            sink: self.clone(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            case: case.to_string(),
            start_micros: self.epoch.elapsed().as_micros() as u64,
            started: Instant::now(),
        }
    }

    /// Appends one line of another kind to the backing file, if any,
    /// through the writer the span lines use; `line` is rendered only
    /// when there is a file.
    pub fn write_line(&self, line: impl FnOnce() -> String) {
        lock_ignore_poison(&self.inner).write_line(line);
    }

    fn record(&self, ev: SpanEvent) {
        let mut inner = lock_ignore_poison(&self.inner);
        inner.write_line(|| ev.to_jsonl());
        inner.events.push(ev);
    }

    /// All events recorded so far, in completion order.
    pub fn events(&self) -> Vec<SpanEvent> {
        lock_ignore_poison(&self.inner).events.clone()
    }

    /// Flush the backing file, if any. Returns the number of lines
    /// dropped by failed writes (including a failed flush), so callers
    /// can report data loss once instead of never.
    pub fn flush(&self) -> u64 {
        let mut inner = lock_ignore_poison(&self.inner);
        if let Some(f) = inner.file.as_mut() {
            if f.flush().is_err() {
                inner.dropped += 1;
            }
        }
        inner.dropped
    }
}

/// Scoped timer; records its [`SpanEvent`] on drop.
pub struct Span {
    sink: SpanSink,
    id: u64,
    parent: u64,
    name: &'static str,
    case: String,
    start_micros: u64,
    started: Instant,
}

impl Span {
    /// The span's id, for use as a child's `parent`.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ev = SpanEvent {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            case: std::mem::take(&mut self.case),
            start_micros: self.start_micros,
            dur_micros: self.started.elapsed().as_micros() as u64,
        };
        self.sink.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_roundtrip() {
        let ev = SpanEvent {
            id: 3,
            parent: 1,
            name: "vm".to_string(),
            case: "loop \"nest\"".to_string(),
            start_micros: 17,
            dur_micros: 4096,
        };
        assert_eq!(SpanEvent::parse_jsonl(&ev.to_jsonl()), Some(ev));
        assert_eq!(SpanEvent::parse_jsonl("not json"), None);
    }

    #[test]
    fn guard_records_on_drop_with_hierarchy() {
        let sink = SpanSink::in_memory();
        let parent_id;
        {
            let case = sink.span("case", "demo", 0);
            parent_id = case.id();
            let probe = sink.span("probe", "demo", case.id());
            drop(sink.span("vm", "demo", probe.id()));
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        // Children complete before parents.
        assert_eq!(evs[0].name, "vm");
        assert_eq!(evs[2].name, "case");
        assert_eq!(evs[2].parent, 0);
        assert_eq!(evs[1].parent, parent_id);
        // Ids are unique and nonzero.
        assert!(evs.iter().all(|e| e.id != 0));
    }

    #[test]
    fn guard_records_on_unwind() {
        let sink = SpanSink::in_memory();
        let s2 = sink.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _span = s2.span("probe", "boom", 0);
            panic!("probe died");
        }));
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].name, "probe");
    }
}
