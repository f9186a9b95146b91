//! Static impact identification (paper §IV-D): renders the queries the
//! ORAQL pass answered, in the Fig. 3 dump format, associating them with
//! the issuing pass, the containing function and source locations.
//! Also aggregates probe traces ([`crate::trace`]) into per-case effort
//! tables — the Fig. 2-style "how many tests did probing need" view.

use crate::pass::UniqueQuery;
use crate::trace::{ProbeEvent, ProbeKind};
use oraql_analysis::location::MemoryLocation;
use oraql_ir::module::Module;
use oraql_ir::printer;
use oraql_ir::value::Value;
use std::fmt::Write as _;

/// Which queries to dump — the four `-opt-aa-dump-*` flags. At least one
/// of each category must be set for output to appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpFlags {
    /// Dump initial (non-cached) queries.
    pub first: bool,
    /// Dump queries that were later served from the cache (rendered via
    /// their `[Cached n]` annotation).
    pub cached: bool,
    /// Dump optimistically answered queries.
    pub optimistic: bool,
    /// Dump pessimistically answered queries.
    pub pessimistic: bool,
}

impl DumpFlags {
    /// The most common configuration: first pessimistic queries only
    /// (the "true aliases" worth inspecting).
    pub fn pessimistic_only() -> Self {
        DumpFlags {
            first: true,
            cached: true,
            optimistic: false,
            pessimistic: true,
        }
    }

    /// Everything.
    pub fn all() -> Self {
        DumpFlags {
            first: true,
            cached: true,
            optimistic: true,
            pessimistic: true,
        }
    }
}

fn describe_location(m: &Module, f: &oraql_ir::module::Function, loc: &MemoryLocation) -> String {
    let ptr = match loc.ptr {
        Value::Inst(id) => printer::inst_str(f, m, id),
        other => printer::value_str(other, m),
    };
    format!("{ptr} [{}]", loc.size)
}

fn src_of(f: &oraql_ir::module::Function, v: Value) -> Option<oraql_ir::SrcLoc> {
    match v {
        Value::Inst(id) => f.loc(id),
        _ => None,
    }
}

/// Renders one query in the Fig. 3 format.
pub fn render_query(m: &Module, q: &UniqueQuery) -> String {
    let f = m.func(q.func);
    let mut s = String::new();
    let kind = if q.optimistic {
        "Optimistic"
    } else {
        "Pessimistic"
    };
    let _ = writeln!(s, "[ORAQL] {kind} query [Cached {}]", q.cached_hits);
    let _ = writeln!(s, "[ORAQL]  - {}", describe_location(m, f, &q.a));
    let _ = writeln!(s, "[ORAQL]  - {}", describe_location(m, f, &q.b));
    let _ = writeln!(s, "[ORAQL] Scope: {}", f.name);
    for (tag, v) in [("LocA", q.a.ptr), ("LocB", q.b.ptr)] {
        if let Some(loc) = src_of(f, v) {
            let _ = writeln!(
                s,
                "[ORAQL] {tag}: {}:{}:{}",
                m.strings.resolve(loc.file),
                loc.line,
                loc.col
            );
        }
    }
    s
}

/// Renders the dump for a whole compilation, interleaved with
/// `-debug-pass=Executions`-style lines naming the pass and function
/// that issued the queries below them.
pub fn render_report(m: &Module, queries: &[UniqueQuery], flags: DumpFlags) -> String {
    let mut s = String::new();
    if !(flags.first || flags.cached) || !(flags.optimistic || flags.pessimistic) {
        return s; // one flag of each category is required (paper §IV-D)
    }
    let mut last_pass = "";
    for q in queries {
        let decision_selected =
            (q.optimistic && flags.optimistic) || (!q.optimistic && flags.pessimistic);
        let cache_selected = flags.first || (flags.cached && q.cached_hits > 0);
        if !decision_selected || !cache_selected {
            continue;
        }
        if q.pass != last_pass {
            let _ = writeln!(
                s,
                "[...] Executing Pass '{}' on Function '{}'...",
                q.pass,
                m.func(q.func).name
            );
            last_pass = q.pass;
        }
        s.push_str(&render_query(m, q));
    }
    s
}

/// Summarizes which passes issued how many (unique) queries — the data
/// behind the paper's per-pass breakdowns (e.g. Quicksilver: 61% from
/// memory SSA, 18% from GVN, ...).
pub fn queries_by_pass(queries: &[UniqueQuery]) -> Vec<(String, u64)> {
    let mut map: std::collections::BTreeMap<&str, u64> = Default::default();
    for q in queries {
        *map.entry(q.pass).or_insert(0) += 1;
    }
    let mut v: Vec<(String, u64)> = map.into_iter().map(|(p, n)| (p.to_owned(), n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Aggregated view of one case's (or a whole trace's) probe events:
/// the one fold behind every probe table (Fig. 2, Fig. 4, Fig. 6 and
/// the cache-tier funnel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Answers per kind, in [`ProbeKind::ALL`] order.
    pub answers: [u64; ProbeKind::ALL.len()],
    /// Wall time spent answering per kind, in microseconds, in
    /// [`ProbeKind::ALL`] order.
    pub wall_micros: [u64; ProbeKind::ALL.len()],
    /// Passing verdicts.
    pub passes: u64,
    /// Largest unique-query count any probe observed.
    pub max_unique: u64,
}

impl TraceSummary {
    fn add(&mut self, e: &ProbeEvent) {
        self.answers[e.kind as usize] += 1;
        self.wall_micros[e.kind as usize] += e.wall_micros;
        if e.pass {
            self.passes += 1;
        }
        self.max_unique = self.max_unique.max(e.unique);
    }

    /// Answers of one kind.
    pub fn count(&self, kind: ProbeKind) -> u64 {
        self.answers[kind as usize]
    }

    /// All probe answers (including deduced ones).
    pub fn probes(&self) -> u64 {
        self.answers.iter().sum()
    }

    /// Total wall time spent answering, in microseconds.
    pub fn total_wall_micros(&self) -> u64 {
        self.wall_micros.iter().sum()
    }
}

/// Aggregates a probe trace over all cases.
pub fn summarize_trace(events: &[ProbeEvent]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for e in events {
        s.add(e);
    }
    s
}

/// Aggregates a probe trace per case, sorted by case name.
pub fn summarize_trace_by_case(events: &[ProbeEvent]) -> Vec<(String, TraceSummary)> {
    let mut map: std::collections::BTreeMap<&str, TraceSummary> = Default::default();
    for e in events {
        map.entry(&e.case).or_default().add(e);
    }
    map.into_iter().map(|(c, t)| (c.to_owned(), t)).collect()
}

/// Fig. 2's column width for each kind, in [`ProbeKind::ALL`] order.
const KIND_WIDTHS: [usize; ProbeKind::ALL.len()] = [9, 9, 9, 7, 7, 8, 8];

/// One Fig. 2 row: the answer count, each kind's count and the wall
/// time.
fn write_summary_row(s: &mut String, name: &str, t: &TraceSummary) {
    let _ = write!(s, "{name:<24} {:>7}", t.probes());
    for (n, width) in t.answers.iter().zip(KIND_WIDTHS) {
        let _ = write!(s, " {n:>width$}");
    }
    let _ = writeln!(s, " {:>10.1}", t.total_wall_micros() as f64 / 1000.0);
}

/// Renders the per-case probe-effort table plus a totals row — the
/// report path consuming the JSONL probe trace.
pub fn render_trace_summary(events: &[ProbeEvent]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{:<24} {:>7}", "case", "probes");
    for (kind, width) in ProbeKind::ALL.iter().zip(KIND_WIDTHS) {
        let _ = write!(s, " {:>width$}", kind.as_str());
    }
    let _ = writeln!(s, " {:>10}", "wall(ms)");
    let per_case = summarize_trace_by_case(events);
    for (name, t) in &per_case {
        write_summary_row(&mut s, name, t);
    }
    if per_case.len() > 1 {
        write_summary_row(&mut s, "TOTAL", &summarize_trace(events));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, Scope};
    use crate::sequence::Decisions;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Ty, Value};

    fn compiled() -> (Module, Vec<UniqueQuery>) {
        let build = || {
            let mut m = Module::new("t");
            let work = {
                // Mirrors the paper's TestSNAP shape: data pointers are
                // loaded from a context struct (`dptr` loads), so the
                // queried values are instructions with debug locations.
                let mut b = FunctionBuilder::new(&mut m, ".omp_outlined.", vec![Ty::Ptr], None);
                b.set_outlined(true);
                b.set_src_file("sna.cpp");
                let ctx = b.arg(0);
                b.set_loc("sna.cpp", 609, 60);
                let p = b.load(Ty::Ptr, ctx);
                b.set_loc("sna.cpp", 614, 46);
                let qslot = b.gep(ctx, 8);
                let q = b.load(Ty::Ptr, qslot);
                let l1 = b.load(Ty::F64, p);
                b.store(Ty::F64, Value::const_f64(1.0), q);
                let l2 = b.load(Ty::F64, p);
                let s = b.fadd(l1, l2);
                b.print("{}", vec![s]);
                b.ret(None);
                b.finish()
            };
            let g = m.add_global("buf", 16, vec![], false);
            let ctxg = m.add_global("ctx", 16, vec![], false);
            let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
            let p = b.gep(Value::Global(g), 0);
            b.store(Ty::F64, Value::const_f64(2.0), p);
            b.store(Ty::Ptr, p, Value::Global(ctxg));
            let slot2 = b.gep(Value::Global(ctxg), 8);
            b.store(Ty::Ptr, p, slot2);
            b.call(work, vec![Value::Global(ctxg)], None);
            b.ret(None);
            b.finish();
            m
        };
        let c = compile(
            &build,
            &CompileOptions {
                oraql: Some((Decisions::all_pessimistic(), Scope::everything())),
                ..CompileOptions::default()
            },
        );
        let st = c.oraql.unwrap();
        let queries = st.lock().queries.clone();
        (c.module, queries)
    }

    #[test]
    fn report_contains_fig3_elements() {
        let (m, queries) = compiled();
        assert!(!queries.is_empty());
        let text = render_report(&m, &queries, DumpFlags::pessimistic_only());
        assert!(text.contains("[ORAQL] Pessimistic query [Cached"), "{text}");
        assert!(text.contains("Scope: .omp_outlined."), "{text}");
        assert!(text.contains("Executing Pass"), "{text}");
        assert!(text.contains("sna.cpp:6"), "{text}");
    }

    #[test]
    fn flags_require_one_of_each_category() {
        let (m, queries) = compiled();
        let none = DumpFlags {
            first: false,
            cached: false,
            optimistic: true,
            pessimistic: true,
        };
        assert!(render_report(&m, &queries, none).is_empty());
        let none2 = DumpFlags {
            first: true,
            cached: true,
            optimistic: false,
            pessimistic: false,
        };
        assert!(render_report(&m, &queries, none2).is_empty());
    }

    #[test]
    fn optimistic_filter_hides_pessimistic() {
        let (m, queries) = compiled();
        let flags = DumpFlags {
            first: true,
            cached: true,
            optimistic: true,
            pessimistic: false,
        };
        let text = render_report(&m, &queries, flags);
        assert!(!text.contains("Pessimistic query"), "{text}");
    }

    #[test]
    fn per_pass_breakdown() {
        let (_, queries) = compiled();
        let by_pass = queries_by_pass(&queries);
        assert!(!by_pass.is_empty());
        let total: u64 = by_pass.iter().map(|(_, n)| n).sum();
        assert_eq!(total, queries.len() as u64);
    }

    fn trace_event(case: &str, kind: ProbeKind, pass: bool) -> ProbeEvent {
        ProbeEvent {
            case: case.into(),
            seq: 0,
            digest: 1,
            kind,
            pass,
            unique: 9,
            wall_micros: 500,
            span: 0,
        }
    }

    #[test]
    fn trace_summary_counts_kinds() {
        let events = vec![
            trace_event("a", ProbeKind::Executed, true),
            trace_event("a", ProbeKind::ExeCacheHit, false),
            trace_event("a", ProbeKind::Deduced, false),
            trace_event("b", ProbeKind::DecisionCacheHit, true),
            trace_event("b", ProbeKind::StoreHit, true),
            trace_event("b", ProbeKind::ServerHit, true),
            trace_event("b", ProbeKind::Faulted, false),
        ];
        let t = summarize_trace(&events);
        assert_eq!(t.probes(), 7);
        assert_eq!(t.answers, [1; 7], "one answer of each kind");
        assert_eq!(t.wall_micros, [500; 7]);
        assert_eq!(t.total_wall_micros(), 3500);
        assert_eq!(t.passes, 4);
        assert_eq!(t.max_unique, 9);
        let per_case = summarize_trace_by_case(&events);
        assert_eq!(per_case.len(), 2);
        assert_eq!(per_case[0].0, "a");
        assert_eq!(per_case[0].1.probes(), 3);
        assert_eq!(per_case[1].1.count(ProbeKind::ServerHit), 1);
        let text = render_trace_summary(&events);
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.starts_with("case"), "{text}");
    }
}
