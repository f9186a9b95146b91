//! Integration coverage for the observability layer: the `oraql trace`
//! analyzer's aggregates are order-insensitive and deterministic, a
//! `--jobs 4` run's trace satisfies the same invariants as `--jobs 1`,
//! the span file rebuilds the `case > probe > compile|vm|verify` tree,
//! and the analyzer's Fig. 2 table reproduces the in-run CLI summary
//! from the JSONL artifact alone.

use std::collections::BTreeMap;
use std::path::PathBuf;

use oraql::report::render_trace_summary;
use oraql::trace::{read_trace, ProbeEvent, ProbeKind, TraceSink};
use oraql::{run_suite, DriverOptions, TestCase};
use oraql_obs::{read_spans, SpanSink};
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

/// Runs the suite with a trace (and optionally span) sink attached,
/// returning the recorded probe events.
fn traced_run(jobs: usize, spans: Option<&SpanSink>) -> Vec<ProbeEvent> {
    let sink = TraceSink::in_memory();
    let opts = DriverOptions {
        jobs,
        trace: Some(sink.clone()),
        spans: spans.cloned(),
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
    let events = traced_run(4, None);
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
    let seq = traced_run(1, None);
    let par = traced_run(4, None);

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

/// The spans file must round-trip and rebuild the probe hierarchy:
/// every `probe` hangs off a `case` root, every `compile`/`vm`/`verify`
/// off a `probe`, and parent spans enclose their children's span count.
#[test]
fn span_file_rebuilds_the_case_probe_hierarchy() {
    let dir = scratch("spans");
    let path = dir.join("spans.jsonl");
    let sink = SpanSink::to_file(&path).unwrap();
    let events = traced_run(1, Some(&sink));
    assert_eq!(sink.flush(), 0, "span lines were dropped");

    let spans = read_spans(&path).unwrap();
    assert_eq!(spans, sink.events(), "file does not round-trip");
    let by_id: BTreeMap<u64, _> = spans.iter().map(|s| (s.id, s)).collect();
    let mut probes = 0u64;
    for s in &spans {
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
    // The self-time profile is well-formed: self <= total everywhere.
    for row in analyze::span_profile(&spans) {
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
    let replayed = render_trace_summary(&read_trace(&path).unwrap());
    assert_eq!(replayed, live, "artifact does not reproduce CLI summary");
    let _ = std::fs::remove_dir_all(&dir);
}
