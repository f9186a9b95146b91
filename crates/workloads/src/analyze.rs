//! The `oraql trace` analyzer: recomputes the paper's tables from the
//! JSONL artifacts a run leaves behind, so results can be re-derived,
//! plotted, or diffed without re-running a single probe.
//!
//! ```text
//! oraql trace --probes run.jsonl [--spans spans.jsonl]
//!             [--fig2] [--fig4] [--fig6] [--funnel] [--latency]
//!             [--top-spans] [--check-metrics metrics.prom]
//! ```
//!
//! With no section flag, every section the inputs support is printed.
//! `--fig2` reproduces the in-run `--- probe trace summary ---` table
//! byte-for-byte (both call `oraql::report::render_trace_summary` on
//! the same events), which is the analyzer's ground-truth anchor: the
//! post-hoc pipeline and the live CLI cannot drift apart.
//!
//! Every aggregate here is order-insensitive — totals, per-case maps
//! (BTreeMap), and log2 histograms whose merge is associative — so a
//! `--jobs 4` trace, whose events interleave in scheduling order,
//! analyzes identically however the scheduler shuffled it.

use oraql::report::render_trace_summary;
use oraql::trace::{read_trace, ProbeEvent, ProbeKind};
use oraql_obs::{read_spans, HistogramSnapshot, Snapshot, SpanEvent};
use std::collections::BTreeMap;

const USAGE: &str = "usage: oraql trace --probes <trace.jsonl> [--spans <spans.jsonl>]
                   [--fig2] [--fig4] [--fig6] [--funnel] [--latency]
                   [--top-spans] [--check-metrics <metrics.prom>]

Recomputes the paper's tables from a run's JSONL artifacts:
  --fig2           probing-effort table (identical to the in-run summary)
  --fig4           per-case query statistics
  --fig6           per-case wall-clock breakdown by answer kind
  --funnel         cache-tier funnel totals
  --latency        per-case probe-latency quantiles (p50/p90/p99)
  --top-spans      self-time profile from the spans file
  --check-metrics  parse a metrics exposition and report its contents";

/// Entry point for the `oraql trace` subcommand. Returns the exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut probes_path: Option<String> = None;
    let mut spans_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut sections: Vec<&'static str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--probes" => {
                i += 1;
                match args.get(i) {
                    Some(p) => probes_path = Some(p.clone()),
                    None => return usage_err(),
                }
            }
            "--spans" => {
                i += 1;
                match args.get(i) {
                    Some(p) => spans_path = Some(p.clone()),
                    None => return usage_err(),
                }
            }
            "--check-metrics" => {
                i += 1;
                match args.get(i) {
                    Some(p) => metrics_path = Some(p.clone()),
                    None => return usage_err(),
                }
            }
            "--fig2" => sections.push("fig2"),
            "--fig4" => sections.push("fig4"),
            "--fig6" => sections.push("fig6"),
            "--funnel" => sections.push("funnel"),
            "--latency" => sections.push("latency"),
            "--top-spans" => sections.push("top-spans"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            _ => return usage_err(),
        }
        i += 1;
    }
    if probes_path.is_none() && metrics_path.is_none() {
        return usage_err();
    }

    let mut code = 0;
    if let Some(path) = &metrics_path {
        code = code.max(check_metrics(path));
    }
    let events = match &probes_path {
        Some(path) => match read_trace(path) {
            Ok(evs) => Some(evs),
            Err(e) => {
                eprintln!("oraql trace: cannot read {path}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let spans = match &spans_path {
        Some(path) => match read_spans(std::path::Path::new(path)) {
            Ok(sp) => Some(sp),
            Err(e) => {
                eprintln!("oraql trace: cannot read {path}: {e}");
                return 1;
            }
        },
        None => None,
    };

    let all = sections.is_empty();
    let want = |s: &str| all || sections.contains(&s);
    if let Some(events) = &events {
        if want("fig2") {
            println!("--- probing effort (fig. 2) ---");
            print!("{}", render_trace_summary(events));
        }
        if want("fig4") {
            print!("{}", render_fig4(events));
        }
        if want("fig6") {
            print!("{}", render_fig6(events));
        }
        if want("funnel") {
            print!("{}", render_funnel(events));
        }
        if want("latency") {
            print!("{}", render_latency(events));
        }
    }
    if let Some(spans) = &spans {
        if want("top-spans") {
            print!("{}", render_top_spans(spans));
        }
    } else if sections.contains(&"top-spans") {
        eprintln!("oraql trace: --top-spans needs --spans <file>");
        code = code.max(2);
    }
    code
}

fn usage_err() -> i32 {
    eprintln!("{USAGE}");
    2
}

/// Parses a Prometheus-style exposition written by `--metrics-out` (or
/// scraped from a daemon's `METRICS` op) and reports what it holds.
/// Exit code 1 when the file does not round-trip — the CI smoke relies
/// on that.
fn check_metrics(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("oraql trace: cannot read {path}: {e}");
            return 1;
        }
    };
    match Snapshot::parse(&text) {
        Some(snap) => {
            println!(
                "metrics ({path}): {} counters, {} gauges, {} histograms parsed OK",
                snap.counters.len(),
                snap.gauges.len(),
                snap.histograms.len()
            );
            0
        }
        None => {
            eprintln!("oraql trace: {path}: exposition does not parse");
            1
        }
    }
}

/// Order-insensitive per-case accumulator shared by Fig. 4 / Fig. 6 /
/// latency: one pass over the events, BTreeMap for stable output.
fn by_case(events: &[ProbeEvent]) -> BTreeMap<String, Vec<&ProbeEvent>> {
    let mut map: BTreeMap<String, Vec<&ProbeEvent>> = BTreeMap::new();
    for ev in events {
        map.entry(ev.case.clone()).or_default().push(ev);
    }
    map
}

/// Per-case query statistics (the paper's Fig. 4 flavor, recomputed
/// from the trace instead of the in-process counters).
pub fn render_fig4(events: &[ProbeEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- query statistics (fig. 4) ---\n");
    out.push_str(&format!(
        "{:24} {:>7} {:>7} {:>7} {:>10}\n",
        "case", "probes", "passes", "fails", "max-unique"
    ));
    for (case, evs) in by_case(events) {
        let passes = evs.iter().filter(|e| e.pass).count();
        let max_unique = evs.iter().map(|e| e.unique).max().unwrap_or(0);
        out.push_str(&format!(
            "{:24} {:>7} {:>7} {:>7} {:>10}\n",
            case,
            evs.len(),
            passes,
            evs.len() - passes,
            max_unique
        ));
    }
    out
}

const KINDS: [ProbeKind; 7] = [
    ProbeKind::Executed,
    ProbeKind::ExeCacheHit,
    ProbeKind::DecisionCacheHit,
    ProbeKind::StoreHit,
    ProbeKind::ServerHit,
    ProbeKind::Deduced,
    ProbeKind::Faulted,
];

/// Per-case wall-clock breakdown by answer kind (the paper's Fig. 6
/// effort-breakdown flavor): where did the probing time actually go —
/// real executions, or cache tiers answering in microseconds?
pub fn render_fig6(events: &[ProbeEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- effort breakdown, wall ms by answer kind (fig. 6) ---\n");
    out.push_str(&format!("{:24}", "case"));
    for k in KINDS {
        out.push_str(&format!(" {:>9}", k.as_str()));
    }
    out.push_str(&format!(" {:>9}\n", "total"));
    for (case, evs) in by_case(events) {
        out.push_str(&format!("{case:24}"));
        let mut total = 0u64;
        for k in KINDS {
            let micros: u64 = evs
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| e.wall_micros)
                .sum();
            total += micros;
            out.push_str(&format!(" {:>9.1}", micros as f64 / 1000.0));
        }
        out.push_str(&format!(" {:>9.1}\n", total as f64 / 1000.0));
    }
    out
}

/// Cache-tier funnel totals: how many probe answers each tier absorbed
/// before the next tier was consulted. Order-insensitive by
/// construction (pure counts).
pub fn render_funnel(events: &[ProbeEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- cache-tier funnel ---\n");
    let total = events.len() as u64;
    out.push_str(&format!("{:12} {:>8} {:>7}\n", "tier", "answers", "share"));
    for k in KINDS {
        let n = events.iter().filter(|e| e.kind == k).count() as u64;
        let pct = if total == 0 {
            0.0
        } else {
            n as f64 * 100.0 / total as f64
        };
        out.push_str(&format!("{:12} {n:>8} {pct:>6.1}%\n", k.as_str()));
    }
    out.push_str(&format!("{:12} {total:>8} {:>6.1}%\n", "TOTAL", 100.0));
    out
}

/// Builds the per-case probe-latency histogram. Public so the
/// determinism tests can assert jobs-order insensitivity on the exact
/// structure the rendering consumes.
pub fn latency_histograms(events: &[ProbeEvent]) -> BTreeMap<String, HistogramSnapshot> {
    let mut map: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for ev in events {
        map.entry(ev.case.clone())
            .or_default()
            .observe(ev.wall_micros);
    }
    map
}

/// Per-case probe-latency quantiles from log2 histograms (upper-bound
/// estimates, exact to within one power of two).
pub fn render_latency(events: &[ProbeEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- probe latency by case (µs, log2-bucket upper bounds) ---\n");
    out.push_str(&format!(
        "{:24} {:>7} {:>9} {:>9} {:>9} {:>11}\n",
        "case", "probes", "p50", "p90", "p99", "mean"
    ));
    for (case, h) in latency_histograms(events) {
        out.push_str(&format!(
            "{:24} {:>7} {:>9} {:>9} {:>9} {:>11.1}\n",
            case,
            h.count,
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.mean()
        ));
    }
    out
}

/// One row of the self-time profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProfileRow {
    pub name: String,
    pub count: u64,
    pub total_micros: u64,
    pub self_micros: u64,
}

/// Aggregates spans by name into a self-time profile: `self` is a
/// span's duration minus its direct children's durations, so the
/// column sums to (roughly) the run's wall clock and shows where time
/// was actually spent rather than merely enclosed.
pub fn span_profile(spans: &[SpanEvent]) -> Vec<SpanProfileRow> {
    let mut child_micros: BTreeMap<u64, u64> = BTreeMap::new();
    for sp in spans {
        if sp.parent != 0 {
            *child_micros.entry(sp.parent).or_default() += sp.dur_micros;
        }
    }
    let mut rows: BTreeMap<&str, SpanProfileRow> = BTreeMap::new();
    for sp in spans {
        let row = rows.entry(sp.name.as_str()).or_insert(SpanProfileRow {
            name: sp.name.clone(),
            count: 0,
            total_micros: 0,
            self_micros: 0,
        });
        row.count += 1;
        row.total_micros += sp.dur_micros;
        row.self_micros += sp
            .dur_micros
            .saturating_sub(child_micros.get(&sp.id).copied().unwrap_or(0));
    }
    let mut rows: Vec<SpanProfileRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_micros.cmp(&a.self_micros).then(a.name.cmp(&b.name)));
    rows
}

/// Renders the top-spans self profile.
pub fn render_top_spans(spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- top spans by self time ---\n");
    out.push_str(&format!(
        "{:12} {:>8} {:>12} {:>12}\n",
        "span", "count", "total(ms)", "self(ms)"
    ));
    for row in span_profile(spans) {
        out.push_str(&format!(
            "{:12} {:>8} {:>12.1} {:>12.1}\n",
            row.name,
            row.count,
            row.total_micros as f64 / 1000.0,
            row.self_micros as f64 / 1000.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(case: &str, kind: ProbeKind, pass: bool, unique: u64, wall: u64) -> ProbeEvent {
        ProbeEvent {
            case: case.to_string(),
            seq: 0,
            digest: 1,
            kind,
            pass,
            unique,
            wall_micros: wall,
        }
    }

    #[test]
    fn aggregates_are_order_insensitive() {
        let mut events = vec![
            ev("a", ProbeKind::Executed, true, 5, 900),
            ev("a", ProbeKind::ExeCacheHit, false, 3, 10),
            ev("b", ProbeKind::StoreHit, true, 7, 20),
            ev("a", ProbeKind::Executed, false, 9, 1100),
        ];
        let fig4 = render_fig4(&events);
        let fig6 = render_fig6(&events);
        let funnel = render_funnel(&events);
        let lat = render_latency(&events);
        events.reverse();
        events.swap(0, 2);
        assert_eq!(render_fig4(&events), fig4);
        assert_eq!(render_fig6(&events), fig6);
        assert_eq!(render_funnel(&events), funnel);
        assert_eq!(render_latency(&events), lat);
    }

    #[test]
    fn span_profile_subtracts_children() {
        let spans = vec![
            SpanEvent {
                id: 1,
                parent: 0,
                name: "case".into(),
                case: "x".into(),
                start_micros: 0,
                dur_micros: 100,
            },
            SpanEvent {
                id: 2,
                parent: 1,
                name: "probe".into(),
                case: "x".into(),
                start_micros: 1,
                dur_micros: 70,
            },
            SpanEvent {
                id: 3,
                parent: 2,
                name: "vm".into(),
                case: "x".into(),
                start_micros: 2,
                dur_micros: 40,
            },
        ];
        let rows = span_profile(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("case").self_micros, 30);
        assert_eq!(get("probe").self_micros, 30);
        assert_eq!(get("vm").self_micros, 40);
        // Sorted by self time, descending.
        assert_eq!(rows[0].name, "vm");
    }
}
