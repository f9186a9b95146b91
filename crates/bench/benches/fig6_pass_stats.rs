//! Regenerates the paper's **Fig. 6**: interesting `-stats` counters
//! for the original vs the ORAQL compilation of each benchmark — the
//! pass-level mechanism behind the query numbers (LICM hoists, GVN load
//! deletions, DSE store deletions, deleted loops, vectorized loops, SLP
//! vector instructions, machine instructions, register spills).

use criterion::{criterion_group, criterion_main, Criterion};
use oraql::report::render_trace_summary;
use oraql::trace::read_trace;
use oraql_bench::{print_table, run_all_configs, trace_artifact};

/// The statistics the paper's Fig. 6 selects (pass, stat, short label).
const SELECTED: &[(&str, &str)] = &[
    ("asm printer", "machine instructions generated (host)"),
    ("asm printer", "machine instructions generated (device)"),
    ("early CSE", "instructions eliminated"),
    ("LICM", "loads hoisted or sunk"),
    ("loop deletion", "deleted loops"),
    ("DSE", "stores deleted"),
    ("GVN", "loads deleted"),
    ("register allocation", "register spills inserted (host)"),
    ("SLP", "vector instructions generated"),
    ("loop vectorizer", "vectorized loops"),
    ("machine sinking", "instructions sunk"),
    ("memcpy optimization", "memcpys optimized"),
];

fn print_fig6() {
    let results = run_all_configs();
    let mut rows = Vec::new();
    for (info, r) in &results {
        for (pass, stat) in SELECTED {
            let before = r.baseline_stats.get(pass, stat);
            let after = r.final_stats.get(pass, stat);
            if before == after {
                continue; // Fig. 6 shows a selection of *changed* stats
            }
            let delta = if before == 0 {
                "new".to_string()
            } else {
                format!(
                    "{:+.1}%",
                    (after as f64 - before as f64) / before as f64 * 100.0
                )
            };
            rows.push(vec![
                format!("{} - {}", info.benchmark, info.model),
                pass.to_string(),
                stat.to_string(),
                before.to_string(),
                after.to_string(),
                delta,
            ]);
        }
    }
    print_table(
        "Fig. 6 — LLVM-style statistics, original vs ORAQL compilation (changed entries)",
        &["Benchmark", "Pass", "Property", "Original", "ORAQL", "Δ"],
        &rows,
    );

    // The probing effort behind those numbers, recomputed from the
    // same JSONL probe-trace artifact the Fig. 4 target consumes.
    let path = trace_artifact();
    let trace = read_trace(&path).expect("read trace artifact");
    println!("\n### Probe trace summary (from {})\n", path.display());
    print!("{}", render_trace_summary(&trace.probes));
}

fn bench(c: &mut Criterion) {
    print_fig6();

    // Criterion: cost of one full compile (baseline vs ORAQL-installed)
    // for a mid-size configuration.
    let case = oraql_workloads::find_case("quicksilver").unwrap();
    let mut g = c.benchmark_group("compile");
    g.sample_size(20);
    g.bench_function("baseline/quicksilver", |b| {
        b.iter(|| {
            oraql::compile::compile(&*case.build, &oraql::compile::CompileOptions::baseline())
        })
    });
    g.bench_function("oraql-all-optimistic/quicksilver", |b| {
        b.iter(|| {
            oraql::compile::compile(
                &*case.build,
                &oraql::compile::CompileOptions::with_oraql(
                    oraql::Decisions::all_optimistic(),
                    case.scope.clone(),
                ),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
