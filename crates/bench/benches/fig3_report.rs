//! Regenerates the paper's **Fig. 3**: the ORAQL debug output for the
//! TestSNAP OpenMP configuration — all pessimistically answered
//! non-cached queries, with the issuing pass, the containing scope and
//! source locations. Also prints the per-pass breakdown of optimistic
//! queries (the §V-D style attribution), then Criterion-times report
//! generation.

use criterion::{criterion_group, criterion_main, Criterion};
use oraql::report::{queries_by_pass, render_report, DumpFlags};
use oraql::{Driver, DriverOptions};
use oraql_bench::{print_table, run_config};

fn bench(c: &mut Criterion) {
    let case = oraql_workloads::find_case("testsnap_omp").unwrap();
    let r = Driver::run(&case, DriverOptions::default()).unwrap();

    println!("\n### Fig. 3 — pessimistic queries of TestSNAP (OpenMP), with issuing pass\n");
    let text = render_report(&r.final_module, &r.queries, DumpFlags::pessimistic_only());
    println!("{text}");
    println!(
        "(total: {} unique pessimistic, reused {} times from the cache)",
        r.oraql.unique_pessimistic, r.oraql.cached_pessimistic
    );

    // Per-pass attribution of unique queries (paper §V-D: Quicksilver's
    // 61% MemorySSA / 18% GVN breakdown).
    let (_, qs) = run_config("quicksilver");
    let by_pass = queries_by_pass(&qs.queries);
    let total: u64 = by_pass.iter().map(|(_, n)| n).sum();
    let rows: Vec<Vec<String>> = by_pass
        .iter()
        .map(|(p, n)| {
            vec![
                p.clone(),
                n.to_string(),
                format!("{:.1}%", *n as f64 / total as f64 * 100.0),
            ]
        })
        .collect();
    print_table(
        "Quicksilver — unique ORAQL queries by issuing pass",
        &["pass", "unique queries", "share"],
        &rows,
    );

    let mut g = c.benchmark_group("report");
    g.bench_function("render/testsnap_omp", |b| {
        b.iter(|| render_report(&r.final_module, &r.queries, DumpFlags::all()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
