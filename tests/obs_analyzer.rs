//! Integration coverage for the observability layer: the `oraql trace`
//! analyzer's aggregates are order-insensitive and deterministic, a
//! `--jobs 4` run's trace satisfies the same invariants as `--jobs 1`,
//! the trace file's spans rebuild the `case > probe > compile|vm|verify`
//! tree and each answer names its probe span, and the analyzer's
//! Fig. 2 table reproduces the in-run CLI summary from the JSONL
//! artifact alone.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use oraql::report::render_trace_summary;
use oraql::trace::{read_trace, ProbeEvent, ProbeKind, TraceSink};
use oraql::{run_suite, DriverOptions, TestCase};
use oraql_workloads as workloads;
use oraql_workloads::analyze;

/// A small but heterogeneous suite: plain, OpenMP, and a second
/// benchmark family, so the dec-cache tier gets exercised.
fn small_suite() -> Vec<TestCase> {
    ["testsnap", "testsnap_omp", "gridmini"]
        .iter()
        .map(|n| workloads::find_case(n).expect(n))
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oraql_obs_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the suite with `sink` attached, returning the recorded probe
/// events.
fn traced_run(jobs: usize, sink: &TraceSink) -> Vec<ProbeEvent> {
    let opts = DriverOptions {
        jobs,
        trace: Some(sink.clone()),
        ..Default::default()
    };
    for r in run_suite(&small_suite(), &opts) {
        r.expect("suite case failed");
    }
    sink.events()
}

/// A deterministic in-place shuffle (splitmix64-driven Fisher-Yates):
/// reorders a parallel trace the way a different scheduling could have.
fn shuffle<T>(items: &mut [T], seed: u64) {
    oraql_obs::rng::Gen::new(seed).shuffle(items);
}

fn kind_total(events: &[ProbeEvent]) -> u64 {
    ProbeKind::ALL
        .iter()
        .map(|&k| events.iter().filter(|e| e.kind == k).count() as u64)
        .sum()
}

/// Every analyzer aggregate must be a pure function of the event *set*:
/// shuffling a parallel trace (as a different scheduler interleaving
/// would) changes no rendered table.
#[test]
fn analyzer_aggregates_are_order_insensitive() {
    let events = traced_run(4, &TraceSink::in_memory());
    assert!(events.len() > 10, "suite produced only {}", events.len());
    let fig2 = render_trace_summary(&events);
    let fig4 = analyze::render_fig4(&events);
    let fig6 = analyze::render_fig6(&events);
    let funnel = analyze::render_funnel(&events);
    let latency = analyze::render_latency(&events);
    for seed in [1u64, 42, 0xdead_beef] {
        let mut reordered = events.clone();
        shuffle(&mut reordered, seed);
        assert_eq!(render_trace_summary(&reordered), fig2, "fig2, seed {seed}");
        assert_eq!(analyze::render_fig4(&reordered), fig4, "fig4, seed {seed}");
        assert_eq!(analyze::render_fig6(&reordered), fig6, "fig6, seed {seed}");
        assert_eq!(analyze::render_funnel(&reordered), funnel, "seed {seed}");
        assert_eq!(analyze::render_latency(&reordered), latency, "seed {seed}");
    }
}

/// A `--jobs 4` trace obeys the same conservation laws as `--jobs 1`,
/// and the two runs agree probe-by-probe on every decision digest they
/// share: the job count may change *who answers* (which cache tier)
/// but never *the answer*.
#[test]
fn parallel_trace_agrees_with_sequential_on_shared_digests() {
    let seq = traced_run(1, &TraceSink::in_memory());
    let par = traced_run(4, &TraceSink::in_memory());

    // Funnel conservation: every probe is answered by exactly one tier.
    assert_eq!(kind_total(&seq), seq.len() as u64);
    assert_eq!(kind_total(&par), par.len() as u64);

    // digest -> verdict maps (digest 0 is `deduced`, no vector).
    let verdicts = |evs: &[ProbeEvent]| -> BTreeMap<(String, u64), bool> {
        evs.iter()
            .filter(|e| e.digest != 0)
            .map(|e| ((e.case.clone(), e.digest), e.pass))
            .collect()
    };
    let sv = verdicts(&seq);
    let pv = verdicts(&par);
    let shared: Vec<_> = sv.keys().filter(|k| pv.contains_key(*k)).collect();
    assert!(!shared.is_empty(), "runs shared no digests");
    for key in shared {
        assert_eq!(sv[key], pv[key], "verdict flip on digest {key:?}");
    }

    // Within one run, a digest re-probed by any tier keeps its verdict.
    for evs in [&seq, &par] {
        let mut seen: BTreeMap<(String, u64), bool> = BTreeMap::new();
        for e in evs.iter().filter(|e| e.digest != 0) {
            let prior = seen.insert((e.case.clone(), e.digest), e.pass);
            assert_eq!(prior.unwrap_or(e.pass), e.pass, "self-inconsistent trace");
        }
    }
}

/// The trace file must round-trip both kinds of line, its spans must
/// rebuild the probe hierarchy — every `probe` hangs off a `case` root,
/// every `compile`/`vm`/`verify` off a `probe` — and each answer must
/// name its own probe span of its own case.
#[test]
fn span_file_rebuilds_the_case_probe_hierarchy() {
    let dir = scratch("spans");
    let path = dir.join("trace.jsonl");
    let sink = TraceSink::to_file(&path).unwrap();
    let events = traced_run(1, &sink);
    assert_eq!(sink.flush(), 0, "trace lines were dropped");

    let trace = read_trace(&path).unwrap();
    assert_eq!(trace.probes, events, "probe lines do not round-trip");
    assert_eq!(trace.spans, sink.spans(), "span lines do not round-trip");
    let spans = &trace.spans;
    let by_id: BTreeMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
    let mut probes = 0u64;
    for s in spans {
        match s.name.as_str() {
            "case" => assert_eq!(s.parent, 0, "case spans are roots"),
            "probe" => {
                probes += 1;
                assert_eq!(by_id[&s.parent].name, "case", "probe parent");
                assert_eq!(by_id[&s.parent].case, s.case, "probe case label");
            }
            "compile" | "key" | "vm" | "verify" => {
                assert_eq!(by_id[&s.parent].name, "probe", "{} parent", s.name);
            }
            "baseline" | "final" | "store" | "server" => {
                assert_eq!(by_id[&s.parent].name, "case", "{} parent", s.name);
            }
            other => panic!("unexpected span name {other:?}"),
        }
    }
    // One probe span per sandboxed probe answer. Cache tiers answer
    // inside the probe span too; only `deduced` answers (the Fig. 2
    // rule, applied without materializing a probe) bypass the sandbox.
    let sandboxed = events
        .iter()
        .filter(|e| e.kind != ProbeKind::Deduced)
        .count() as u64;
    assert_eq!(probes, sandboxed, "probe span per sandboxed answer");
    // The join: each sandboxed answer names a probe span of its case,
    // no two answers share one, and deduced answers name none.
    let mut joined = BTreeSet::new();
    for e in &trace.probes {
        if e.kind == ProbeKind::Deduced {
            assert_eq!(e.span, 0, "deduced answer with a span: {e:?}");
            continue;
        }
        let span = by_id
            .get(&e.span)
            .unwrap_or_else(|| panic!("answer names no span of the file: {e:?}"));
        assert_eq!(span.name, "probe", "answer joined to a non-probe span");
        assert_eq!(span.case, e.case, "answer joined to another case's span");
        assert!(joined.insert(e.span), "two answers share span {}", e.span);
    }
    // The self-time profile is well-formed: self <= total everywhere.
    for row in analyze::span_profile(spans) {
        assert!(row.self_micros <= row.total_micros, "{row:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance anchor: `oraql trace --fig2` over the JSONL artifact
/// reproduces the in-run `--- probe trace summary ---` table exactly —
/// the analyzer and the live CLI can never drift apart.
#[test]
fn analyzer_fig2_reproduces_cli_summary_from_artifact() {
    let dir = scratch("fig2");
    let path = dir.join("trace.jsonl");
    let sink = TraceSink::to_file(path.to_str().unwrap()).unwrap();
    let opts = DriverOptions {
        jobs: 2,
        trace: Some(sink.clone()),
        ..Default::default()
    };
    for r in run_suite(&small_suite(), &opts) {
        r.expect("suite case failed");
    }
    assert_eq!(sink.flush(), 0, "trace lines were dropped");

    let live = render_trace_summary(&sink.events());
    let trace = read_trace(&path).unwrap();
    assert!(!trace.spans.is_empty(), "span lines share the file");
    let replayed = render_trace_summary(&trace.probes);
    assert_eq!(replayed, live, "artifact does not reproduce CLI summary");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fixed list of answers over three cases, every kind and both
/// verdicts, parsed from JSONL so the list reads the same at every
/// version of the event type.
fn pinned_events() -> Vec<ProbeEvent> {
    [
        r#"{"case":"alpha","seq":0,"digest":11,"kind":"executed","pass":false,"unique":12,"wall_micros":1530,"span":3}"#,
        r#"{"case":"alpha","seq":1,"digest":12,"kind":"exe-cache","pass":true,"unique":7,"wall_micros":45,"span":5}"#,
        r#"{"case":"alpha","seq":2,"digest":0,"kind":"deduced","pass":false,"unique":0,"wall_micros":2,"span":0}"#,
        r#"{"case":"alpha","seq":3,"digest":13,"kind":"executed","pass":true,"unique":9,"wall_micros":2210,"span":8}"#,
        r#"{"case":"alpha","seq":4,"digest":14,"kind":"faulted","pass":false,"unique":0,"wall_micros":10120,"span":11}"#,
        r#"{"case":"beta_with_a_long_name_x","seq":0,"digest":21,"kind":"store","pass":true,"unique":4,"wall_micros":88,"span":14}"#,
        r#"{"case":"beta_with_a_long_name_x","seq":1,"digest":22,"kind":"server","pass":false,"unique":6,"wall_micros":301,"span":16}"#,
        r#"{"case":"beta_with_a_long_name_x","seq":2,"digest":23,"kind":"dec-cache","pass":true,"unique":4,"wall_micros":12,"span":18}"#,
        r#"{"case":"gamma","seq":0,"digest":31,"kind":"executed","pass":true,"unique":3,"wall_micros":999,"span":20}"#,
        r#"{"case":"gamma","seq":1,"digest":32,"kind":"exe-cache","pass":false,"unique":3,"wall_micros":51,"span":22}"#,
        r#"{"case":"gamma","seq":2,"digest":33,"kind":"executed","pass":true,"unique":5,"wall_micros":1049,"span":25}"#,
    ]
    .iter()
    .map(|line| ProbeEvent::parse_jsonl(line).expect(line))
    .collect()
}

/// Fig. 4, Fig. 6 and the funnel render exactly this text for
/// [`pinned_events`].
#[test]
fn fig4_fig6_and_funnel_text_is_pinned() {
    let events = pinned_events();
    assert_eq!(
        analyze::render_fig4(&events),
        "\
--- query statistics (fig. 4) ---
case                      probes  passes   fails max-unique
alpha                          5       2       3         12
beta_with_a_long_name_x        3       2       1          6
gamma                          3       2       1          5
"
    );
    assert_eq!(
        analyze::render_fig6(&events),
        "\
--- effort breakdown, wall ms by answer kind (fig. 6) ---
case                      executed exe-cache dec-cache     store    server   deduced   faulted     total
alpha                          3.7       0.0       0.0       0.0       0.0       0.0      10.1      13.9
beta_with_a_long_name_x        0.0       0.0       0.0       0.1       0.3       0.0       0.0       0.4
gamma                          2.0       0.1       0.0       0.0       0.0       0.0       0.0       2.1
"
    );
    assert_eq!(
        analyze::render_funnel(&events),
        "\
--- cache-tier funnel ---
tier          answers   share
executed            4   36.4%
exe-cache           2   18.2%
dec-cache           1    9.1%
store               1    9.1%
server              1    9.1%
deduced             1    9.1%
faulted             1    9.1%
TOTAL              11  100.0%
"
    );
}
