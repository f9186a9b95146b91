//! Regenerates the paper's **Fig. 4** (the main alias-query statistics
//! table) and **Fig. 5** (software versions), then Criterion-times the
//! probing driver on two representative configurations.
//!
//! Columns, as in the paper: # optimistic queries (unique / cached),
//! # pessimistic queries (unique / cached), # no-alias results
//! (original / ORAQL / Δ).

use criterion::{criterion_group, criterion_main, Criterion};
use oraql::report::summarize_trace_by_case;
use oraql::trace::{read_trace, ProbeKind};
use oraql::{Driver, DriverOptions};
use oraql_bench::{pct, print_table, run_all_configs, trace_artifact};
use oraql_workloads::find_case;

fn print_fig5() {
    print_table(
        "Fig. 5 — software versions (substrate crates standing in for the paper's stack)",
        &["component", "stands in for", "version"],
        &[
            vec![
                "oraql-ir".into(),
                "LLVM IR (git ea7be7e)".into(),
                env!("CARGO_PKG_VERSION").into(),
            ],
            vec![
                "oraql-analysis".into(),
                "LLVM AA stack".into(),
                env!("CARGO_PKG_VERSION").into(),
            ],
            vec![
                "oraql-passes".into(),
                "LLVM O3 pipeline".into(),
                env!("CARGO_PKG_VERSION").into(),
            ],
            vec![
                "oraql-vm (device model)".into(),
                "CUDA 11.4.0 / A100".into(),
                env!("CARGO_PKG_VERSION").into(),
            ],
            vec![
                "oraql-workloads".into(),
                "proxy apps + Kokkos 3.5.0 / Flang".into(),
                env!("CARGO_PKG_VERSION").into(),
            ],
        ],
    );
}

fn print_fig4() {
    let results = run_all_configs();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(info, r)| {
            vec![
                info.benchmark.to_string(),
                info.model.to_string(),
                info.source_files.to_string(),
                r.oraql.unique_optimistic.to_string(),
                r.oraql.cached_optimistic.to_string(),
                r.oraql.unique_pessimistic.to_string(),
                r.oraql.cached_pessimistic.to_string(),
                r.no_alias_original.to_string(),
                r.no_alias_oraql.to_string(),
                pct(r.no_alias_original, r.no_alias_oraql),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — alias query statistics for all benchmarks and configurations",
        &[
            "Benchmark",
            "Programming Model",
            "Source Files",
            "Opt uniq",
            "Opt cached",
            "Pess uniq",
            "Pess cached",
            "No-Alias orig",
            "No-Alias ORAQL",
            "Δ",
        ],
        &rows,
    );
    // Probing-effort appendix (not in the paper's table but reported in
    // its text: tests run, cache hits, deduced tests). Recomputed from
    // the probe-trace artifact the suite run just wrote — the same
    // JSONL file feeds every effort table — rather than from the
    // driver's ad-hoc counters. An executable-hash cache hit still
    // compiles (to hash the executable), so compiles = executed +
    // exe-cache events.
    let trace = read_trace(trace_artifact()).expect("read trace artifact");
    let by_case = summarize_trace_by_case(&trace.probes);
    let eff: Vec<Vec<String>> = results
        .iter()
        .map(|(info, r)| {
            let t = by_case
                .iter()
                .find(|(case, _)| case == info.name)
                .map(|(_, t)| *t)
                .unwrap_or_default();
            let executed = t.count(ProbeKind::Executed);
            let cached = t.count(ProbeKind::ExeCacheHit);
            vec![
                info.name.to_string(),
                r.fully_optimistic.to_string(),
                (executed + cached).to_string(),
                executed.to_string(),
                cached.to_string(),
                t.count(ProbeKind::Deduced).to_string(),
            ]
        })
        .collect();
    print_table(
        "Probing effort per configuration (from the probe-trace artifact)",
        &[
            "config",
            "fully optimistic",
            "compiles",
            "tests",
            "cached",
            "deduced",
        ],
        &eff,
    );
}

fn bench_driver(c: &mut Criterion) {
    print_fig5();
    print_fig4();

    let mut g = c.benchmark_group("driver");
    g.sample_size(10);
    for name in ["testsnap", "xsbench"] {
        g.bench_function(format!("full-workflow/{name}"), |b| {
            b.iter(|| {
                let case = find_case(name).unwrap();
                Driver::run(&case, DriverOptions::default()).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_driver);
criterion_main!(benches);
