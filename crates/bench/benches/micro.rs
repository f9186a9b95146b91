//! Microbenchmarks of the infrastructure itself (not a paper figure):
//! alias-query throughput per analysis, points-to solving, MemorySSA
//! clobber walks, IR interpretation, and the verifier. These bound the
//! cost of one probing iteration and justify the driver's design
//! (executable-hash caching, deduction).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use oraql_analysis::andersen::AndersenAA;
use oraql_analysis::basic::BasicAA;
use oraql_analysis::facts::CfgFacts;
use oraql_analysis::location::MemoryLocation;
use oraql_analysis::memssa::MemorySsa;
use oraql_analysis::steens::SteensgaardAA;
use oraql_analysis::AAManager;
use oraql_ir::module::FunctionId;
use oraql_ir::Module;
use oraql_vm::Interpreter;

fn big_module() -> Module {
    let case = oraql_workloads::find_case("lulesh_mpi").unwrap();
    (case.build)()
}

fn bench_aa(c: &mut Criterion) {
    let m = big_module();
    let f = m.find_func("CalcEnergyForElems").expect("kernel present");
    let func = m.func(f);
    // Collect some access locations to query pairwise.
    let locs: Vec<MemoryLocation> = func
        .live_insts()
        .filter_map(|id| MemoryLocation::of_access(func, id))
        .take(24)
        .collect();

    let mut g = c.benchmark_group("alias-analysis");
    g.bench_function("BasicAA/pairwise-24-locs", |b| {
        b.iter_batched(
            || {
                let mut aa = AAManager::new();
                aa.add(Box::new(BasicAA::new()));
                aa
            },
            |mut aa| {
                let mut n = 0u32;
                for x in &locs {
                    for y in &locs {
                        if aa.alias(&m, f, x, y) == oraql_analysis::AliasResult::NoAlias {
                            n += 1;
                        }
                    }
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("Steensgaard/build", |b| b.iter(|| SteensgaardAA::new(&m)));
    g.bench_function("Andersen/build+solve", |b| b.iter(|| AndersenAA::new(&m)));
    g.bench_function("MemorySSA/build-per-function", |b| {
        b.iter(|| {
            (0..m.funcs.len())
                .map(|i| {
                    let f = m.func(FunctionId(i as u32));
                    MemorySsa::build(f, CfgFacts::build(f)).num_defs()
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_pipeline_and_vm(c: &mut Criterion) {
    let case = oraql_workloads::find_case("testsnap").unwrap();
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(20);
    g.bench_function("standard-pipeline/testsnap", |b| {
        b.iter(|| {
            oraql::compile::compile(&*case.build, &oraql::compile::CompileOptions::baseline())
        })
    });
    g.finish();

    let compiled =
        oraql::compile::compile(&*case.build, &oraql::compile::CompileOptions::baseline());
    let mut g = c.benchmark_group("vm");
    g.bench_function("interpret/testsnap", |b| {
        b.iter(|| Interpreter::run_main(&compiled.module).unwrap())
    });
    g.finish();

    // Verifier throughput on realistic output.
    let out = Interpreter::run_main(&compiled.module).unwrap();
    let verifier = oraql::Verifier::new(
        vec![out.stdout.clone()],
        &oraql_workloads::toolkit::standard_ignore_patterns(),
    );
    let mut g = c.benchmark_group("verify");
    g.bench_function("check/testsnap-output", |b| {
        b.iter(|| verifier.check(&out.stdout).is_ok())
    });
    g.finish();
}

criterion_group!(benches, bench_aa, bench_pipeline_and_vm);
criterion_main!(benches);
