//! The `oraql trace` analyzer: recomputes the paper's tables from the
//! JSONL trace a run leaves behind, so results can be re-derived,
//! plotted, or diffed without re-running a single probe.
//!
//! ```text
//! oraql trace <trace.jsonl>
//!             [--fig2] [--fig4] [--fig6] [--funnel] [--latency]
//!             [--top-spans]
//! ```
//!
//! One file holds both kinds of line (see `oraql::trace`): the probe
//! answers feed Fig. 2/4/6, the funnel and the latency table, the spans
//! feed `--top-spans`. With no section flag every section is printed; a
//! file without lines of one kind prints that kind's tables empty.
//! `--fig2` reproduces the in-run `--- probe trace summary ---` table
//! byte-for-byte (both call `oraql::report::render_trace_summary` on
//! the same events), which is the analyzer's ground-truth anchor: the
//! post-hoc pipeline and the live CLI cannot drift apart.
//!
//! Every aggregate here is order-insensitive — the per-case
//! `oraql::report::TraceSummary` fold (a BTreeMap of sums and maxima),
//! and log2 histograms whose merge is associative — so a `--jobs 4`
//! trace, whose events interleave in scheduling order, analyzes
//! identically however the scheduler shuffled it.

use oraql::report::{render_trace_summary, summarize_trace, summarize_trace_by_case};
use oraql::trace::{read_trace, ProbeEvent, ProbeKind};
use oraql_obs::{Histogram, SpanEvent};
use std::collections::BTreeMap;

const USAGE: &str = "usage: oraql trace <trace.jsonl>
                   [--fig2] [--fig4] [--fig6] [--funnel] [--latency]
                   [--top-spans]

Recomputes the paper's tables from a run's --trace file:
  --fig2           probing-effort table (identical to the in-run summary)
  --fig4           per-case query statistics
  --fig6           per-case wall-clock breakdown by answer kind
  --funnel         cache-tier funnel totals
  --latency        per-case probe-latency quantiles (p50/p90/p99)
  --top-spans      self-time profile of the file's spans";

/// Entry point for the `oraql trace` subcommand. Returns the exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut trace_path: Option<&str> = None;
    let mut sections: Vec<&'static str> = Vec::new();
    for arg in args {
        match arg.as_str() {
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
            path if !path.starts_with('-') && trace_path.is_none() => trace_path = Some(path),
            _ => return usage_err(),
        }
    }
    let Some(path) = trace_path else {
        return usage_err();
    };
    let trace = match read_trace(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("oraql trace: cannot read {path}: {e}");
            return 1;
        }
    };
    let events = &trace.probes;
    let all = sections.is_empty();
    let want = |s: &str| all || sections.contains(&s);
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
    if want("top-spans") {
        print!("{}", render_top_spans(&trace.spans));
    }
    0
}

fn usage_err() -> i32 {
    eprintln!("{USAGE}");
    2
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
    for (case, t) in summarize_trace_by_case(events) {
        out.push_str(&format!(
            "{:24} {:>7} {:>7} {:>7} {:>10}\n",
            case,
            t.probes(),
            t.passes,
            t.probes() - t.passes,
            t.max_unique
        ));
    }
    out
}

/// Per-case wall-clock breakdown by answer kind (the paper's Fig. 6
/// effort-breakdown flavor): where did the probing time actually go —
/// real executions, or cache tiers answering in microseconds?
pub fn render_fig6(events: &[ProbeEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- effort breakdown, wall ms by answer kind (fig. 6) ---\n");
    out.push_str(&format!("{:24}", "case"));
    for k in ProbeKind::ALL {
        out.push_str(&format!(" {:>9}", k.as_str()));
    }
    out.push_str(&format!(" {:>9}\n", "total"));
    for (case, t) in summarize_trace_by_case(events) {
        out.push_str(&format!("{case:24}"));
        for micros in t.wall_micros {
            out.push_str(&format!(" {:>9.1}", micros as f64 / 1000.0));
        }
        out.push_str(&format!(
            " {:>9.1}\n",
            t.total_wall_micros() as f64 / 1000.0
        ));
    }
    out
}

/// Cache-tier funnel totals: how many probe answers each tier absorbed
/// before the next tier was consulted. Order-insensitive by
/// construction (pure counts).
pub fn render_funnel(events: &[ProbeEvent]) -> String {
    let mut out = String::new();
    out.push_str("--- cache-tier funnel ---\n");
    let t = summarize_trace(events);
    let total = t.probes();
    out.push_str(&format!("{:12} {:>8} {:>7}\n", "tier", "answers", "share"));
    for (k, n) in ProbeKind::ALL.iter().zip(t.answers) {
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
pub fn latency_histograms(events: &[ProbeEvent]) -> BTreeMap<String, Histogram> {
    let mut map: BTreeMap<String, Histogram> = BTreeMap::new();
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
            span: 0,
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
