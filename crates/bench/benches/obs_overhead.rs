//! Observability overhead benchmark.
//!
//! The acceptance bar for the trace instrumentation is that a fully
//! instrumented suite run (the one trace stream — probe answers and
//! spans — written to its file) stays within **1.05×** of the
//! uninstrumented wall clock. This bench drives the
//! full 16-config workload suite both ways in [`PAIRS`] pairs,
//! alternating which side of a pair runs first, and holds the median of
//! the pairs' ratios to the bound: one pair's ratio on a shared machine
//! is mostly noise. On the last traced pass it re-derives the in-run
//! probe-trace summary from the JSONL file alone, which must match
//! byte-for-byte (the `oraql trace --fig2` reproducibility criterion).
//!
//! Writes `$ORAQL_BENCH_OUT` (default `BENCH_obs.json`). Not a
//! criterion bench: the JSON artifact is the point, and each pass is a
//! full driver-suite run.

use std::time::Instant;

use oraql::report::render_trace_summary;
use oraql::trace::{read_trace, TraceSink};
use oraql::DriverOptions;

fn suite_pass(opts: &DriverOptions, label: &str) -> f64 {
    let cases: Vec<_> = oraql_workloads::CASE_INFOS
        .iter()
        .map(|i| oraql_workloads::find_case(i.name).expect("registered"))
        .collect();
    let t = Instant::now();
    for r in oraql::run_suite(&cases, opts) {
        r.unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Plain/traced pairs measured; the bound holds their median ratio.
const PAIRS: usize = 9;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let out = std::env::var("ORAQL_BENCH_OUT").unwrap_or_else(|_| "BENCH_obs.json".into());
    let dir = std::env::temp_dir().join(format!("oraql_bench_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("trace.jsonl");

    // Warm-up: touch every case once so lazy module construction and
    // allocator growth land outside the measured passes.
    let _ = suite_pass(&DriverOptions::default(), "warmup");

    let (mut plains, mut traceds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    // The sink of the last traced pass.
    let mut last = None;
    for pair in 0..PAIRS {
        // Alternating which side runs first keeps whatever favours the
        // first (or second) pass of a pair from tilting every ratio the
        // same way. The last pair runs its traced pass last.
        let (mut plain, mut traced) = (0.0, 0.0);
        for trace in [pair % 2 == 1, pair % 2 == 0] {
            if trace {
                let sink = TraceSink::to_file(&trace_path).expect("trace file");
                let opts = DriverOptions {
                    trace: Some(sink.clone()),
                    ..Default::default()
                };
                traced = suite_pass(&opts, "instrumented");
                assert_eq!(sink.flush(), 0, "trace lines dropped");
                last = Some(sink);
            } else {
                plain = suite_pass(&DriverOptions::default(), "plain");
            }
        }
        println!("pair {pair}: plain {plain:>7.1} ms, traced {traced:>7.1} ms");
        plains.push(plain);
        traceds.push(traced);
        ratios.push(traced / plain);
    }
    let sink = last.expect("a traced pass");

    // The analyzer's ground truth: the Fig. 2 table recomputed from the
    // JSONL artifact must equal the live in-run summary exactly.
    let live = render_trace_summary(&sink.events());
    let trace = read_trace(&trace_path).expect("read trace back");
    assert_eq!(trace.spans.len(), sink.spans().len(), "span lines lost");
    let replayed = render_trace_summary(&trace.probes);
    assert_eq!(replayed, live, "fig2 replay drifted from live summary");

    let (plain, instrumented, ratio) = (median(plains), median(traceds), median(ratios));
    println!("uninstrumented suite: {plain:>9.1} ms (median of {PAIRS})");
    println!("instrumented suite:   {instrumented:>9.1} ms (median of {PAIRS})");
    println!("median pair ratio:    {ratio:>9.3}x");
    println!(
        "probes traced: {} | spans: {}",
        sink.events().len(),
        trace.spans.len()
    );
    assert!(
        ratio <= 1.05,
        "median instrumentation overhead {ratio:.3}x exceeds the 1.05x budget"
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"cases_total\": {},\n  \
         \"pairs\": {PAIRS},\n  \
         \"plain_total_ms\": {plain:.2},\n  \
         \"instrumented_total_ms\": {instrumented:.2},\n  \
         \"overhead_ratio\": {ratio:.4},\n  \
         \"probes_traced\": {},\n  \
         \"spans_recorded\": {},\n  \
         \"fig2_replay_matches\": true\n}}\n",
        oraql_workloads::CASE_INFOS.len(),
        sink.events().len(),
        trace.spans.len()
    );
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
