//! The ORAQL command-line driver.
//!
//! ```text
//! oraql --list
//! oraql --benchmark <name> [--strategy chunked|frequency] [--dump]
//!       [--max-tests N] [--jobs N] [--trace <file.jsonl>]
//!       [--store <journal>] [--server <addr>]
//!       [--fault-plan <spec>] [--no-gate]
//!       [--emit-sequence <file>]            # save the final decisions
//! oraql --benchmark <name> --replay <seq>   # compile+run a saved
//!                                           # sequence (or @file)
//! oraql --config <file>
//! oraql --all [--jobs N]
//! oraql trace <trace.jsonl> [--fig2] [--top-spans] ...
//! oraql gen --plan <spec> [--out DIR] [--run] ...
//! ```
//!
//! Runs the probing workflow on one (or all) of the registered proxy
//! benchmarks and prints the Fig. 4-style query statistics, the probing
//! effort, and (with `--dump`) the Fig. 3-style pessimistic-query
//! report.
//!
//! `--config <file>` reads a benchmark description (see
//! `oraql::config`); `Config::apply` is how it reaches every run,
//! `--replay` included. A flag that a config key can also set
//! (`--benchmark`, `--strategy`, `--max-tests`, `--dump`) wins wherever
//! it appears on the command line.
//!
//! `--jobs N` (default 1): with `--all`, up to `N` benchmarks run at
//! once, one thread each, and every benchmark probes sequentially with
//! caches of its own. `1` is the sequential driver with byte-for-byte
//! identical output to earlier versions; `N > 1` also answers repeated
//! decision vectors from an in-memory decisions cache. `--trace` writes
//! the run's one event stream — a JSONL line per probe answer and per
//! `case > probe > compile|key|vm|verify|store|server` span, each answer
//! naming its probe span — and prints a per-case summary table.
//!
//! `--store <journal>` attaches the crash-safe persistent verdict store
//! (`oraql-store`): probe verdicts are journaled across runs, so a warm
//! re-run answers probes without compiling.
//!
//! `--server <addr>` (host:port or `unix:<path>`) attaches the shared
//! verdict server (`oraql-served`) as a third cache tier behind the
//! local store: lookups that miss every local tier ask the daemon, and
//! computed verdicts are written through so concurrent drivers share
//! one probe corpus. If the daemon is unreachable the client's circuit
//! breaker fast-fails and the run falls back to the local tiers — a
//! dead server never fails a probe.
//!
//! `--fault-plan <spec>` (e.g. `seed=42,vm-trap=1/16,compile-panic=1/32`)
//! arms the deterministic fault injector on the probe path — chaos
//! testing for the probe sandbox — and, with `--store`, on the store's
//! journal appends (`store-write-bitflip`, `store-write-torn`). Failed
//! probes retry and then degrade to pessimistic may-alias; counters are
//! reported per run and a fault summary is printed at exit. Each probe
//! runs inline on its case's thread; the VM's fuel budget is the one
//! bound on a probe. `--fault-plan`, `--jobs`, `--max-tests`,
//! `--server` and `--no-gate` are parsed by
//! `oraql_workloads::driver_flags`, which `oraql gen` shares.
//!
//! A run reports through its own artifacts: the `probing:` line (and
//! `sandbox:` when anything failed) per case, the `--trace` file and
//! its summary table, and one `store:` / `client:` line per attached
//! verdict tier. The trace and the tier lines appear only with their
//! flags, so default output is unchanged.
//!
//! `oraql trace` is the offline analyzer: it recomputes the Fig. 2 /
//! Fig. 4 / Fig. 6 tables, the cache-tier funnel, per-case latency
//! quantiles, and a span self-time profile from a `--trace` file
//! (see `oraql trace --help`).
//!
//! `oraql gen` materializes and runs seeded aliasing corpora with
//! ground truth by construction (`oraql-gen`; see `oraql gen --help`).
//! Generated case names (`gen:<plan>#<index>`) are first-class
//! benchmark names everywhere a registered name is accepted —
//! `--benchmark`, configs, `--replay` — and carry their label map: the
//! driver cross-checks every final verdict against it (the soundness
//! gate) unless `--no-gate` disables it.

use std::sync::Arc;

use oraql::config::Config;
use oraql::report::{render_report, render_trace_summary, DumpFlags};
use oraql::trace::TraceSink;
use oraql::{Driver, DriverOptions, DriverResult, GroundTruth, Strategy, TestCase};
use oraql_workloads as workloads;
use workloads::driver_flags::DriverFlags;

const USAGE: &str = "usage: oraql --list
       oraql --benchmark <name> [--strategy chunked|frequency] [--dump] [--max-tests N]
                [--jobs N] [--trace <file.jsonl>]
                [--store <journal>] [--server <addr>]
                [--fault-plan <spec>] [--no-gate]
                [--emit-sequence <file>]
       oraql --benchmark <name> --replay <seq|@file>
       oraql --config <file>
       oraql --all [--jobs N]
       oraql trace <trace.jsonl> [<sections>] [--help]
       oraql gen --plan <spec> [--out <dir>] [--run] [--no-gate] [--help]";

/// A command line that names no run: usage on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Fetches the value of `flag` or exits with a one-line error.
fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            eprintln!("missing value for {flag}");
            std::process::exit(2)
        }
    }
}

/// Compiles and runs one benchmark with a fixed decision sequence (the
/// paper's "program compiled with (almost) perfect alias information"),
/// under the case's compile options, as the driver's final compile
/// does.
fn replay(name: &str, case: &TestCase, seq_arg: &str) -> i32 {
    let decisions = match oraql::Decisions::from_arg(seq_arg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bad sequence: {e}");
            return 2;
        }
    };
    let compiled = oraql::compile::compile(&*case.build, &case.oraql_options(decisions));
    let Some(main) = compiled.module.find_func("main") else {
        eprintln!("{name}: module has no main function");
        return 1;
    };
    let mut interp = oraql_vm::Interpreter::new(&compiled.module).with_fuel(case.fuel);
    match interp.run(main, vec![]) {
        Ok(_) => {
            print!("{}", interp.stdout());
            let Some(oraql_state) = compiled.oraql.as_ref() else {
                eprintln!("{name}: compile attached no ORAQL pass state");
                return 1;
            };
            let st = oraql_state.lock();
            eprintln!(
                "[oraql] replay: {} optimistic / {} pessimistic unique queries, {} insts",
                st.stats.unique_optimistic,
                st.stats.unique_pessimistic,
                interp.stats().total_insts()
            );
            0
        }
        Err(e) => {
            eprintln!("[oraql] replay failed: {e}");
            1
        }
    }
}

/// Looks up a registered case — or reconstructs a generated one from
/// its `gen:<plan>#<index>` name, together with its ground-truth label
/// map.
fn resolve_case(name: &str) -> Option<(TestCase, Option<Arc<GroundTruth>>)> {
    match workloads::find_case(name) {
        Some(c) => Some((c, None)),
        None => {
            let g = oraql_gen::resolve(name)?;
            Some((g.case, Some(Arc::new(g.truth))))
        }
    }
}

/// Prints one driver result in the report format; returns the exit code.
fn print_result(
    name: &str,
    r: &DriverResult,
    jobs: usize,
    dump: bool,
    emit_sequence: Option<&str>,
) -> i32 {
    let info = workloads::find_info(name);
    println!("== {name} ==");
    if let Some(i) = info {
        println!(
            "benchmark: {} | model: {} | files: {}",
            i.benchmark, i.model, i.source_files
        );
    }
    println!(
        "fully optimistic: {} | final sequence: {}",
        r.fully_optimistic,
        truncate(&r.decisions.render(), 72)
    );
    println!(
        "opt queries: {} unique / {} cached | pess queries: {} unique / {} cached",
        r.oraql.unique_optimistic,
        r.oraql.cached_optimistic,
        r.oraql.unique_pessimistic,
        r.oraql.cached_pessimistic
    );
    println!(
        "no-alias results: {} -> {} ({:+.1}%)",
        r.no_alias_original,
        r.no_alias_oraql,
        r.no_alias_delta_percent()
    );
    println!(
        "probing: {} compiles, {} tests run, {} cached, {} deduced",
        r.effort.compiles, r.effort.tests_run, r.effort.tests_cached, r.effort.tests_deduced
    );
    if jobs > 1 {
        // The decisions cache only exists at jobs > 1; kept off the
        // jobs=1 path so sequential reports stay byte-identical to
        // earlier versions.
        println!("parallel: {} dec-cached", r.effort.tests_dec_cached);
    }
    if !r.failures.is_quiet() {
        // Sandbox events only happen under injected faults or genuine
        // probe crashes; the line is omitted on healthy runs so their
        // output stays byte-identical to earlier versions.
        let f = &r.failures;
        println!(
            "sandbox: {} panics, {} vm errors, {} mismatches, \
             {} store-corrupt, {} server-down, {} server-busy | {} retries, \
             {} quarantined to may-alias",
            f.panics,
            f.vm_errors,
            f.output_mismatches,
            f.store_corrupt,
            f.server_down,
            f.server_busy,
            f.retries,
            f.quarantined
        );
    }
    println!(
        "executed instructions: {} -> {} | host cycles: {} -> {} | device cycles: {} -> {}",
        r.baseline_run.stats.total_insts(),
        r.final_run.stats.total_insts(),
        r.baseline_run.stats.host_cycles,
        r.final_run.stats.host_cycles,
        r.baseline_run.stats.device_cycles,
        r.final_run.stats.device_cycles,
    );
    if let Some(t) = &r.truth {
        // Only generated cases carry a label map; the line is absent on
        // registry benchmarks so their reports stay byte-identical.
        println!("ground truth: {t}");
    }
    if let Some(path) = emit_sequence {
        match std::fs::write(path, r.decisions.render()) {
            Ok(()) => println!("final sequence written to {path} (replay with --replay @{path})"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    if dump {
        println!("--- pessimistic query report ---");
        let text = render_report(&r.final_module, &r.queries, DumpFlags::pessimistic_only());
        if text.is_empty() {
            println!("(no pessimistic queries)");
        } else {
            print!("{text}");
        }
    }
    0
}

fn run_one(
    name: &str,
    case: &TestCase,
    opts: DriverOptions,
    dump: bool,
    emit_sequence: Option<&str>,
) -> i32 {
    let jobs = opts.jobs;
    match Driver::run(case, opts) {
        Ok(r) => print_result(name, &r, jobs, dump, emit_sequence),
        Err(e) => {
            eprintln!("{name}: driver failed: {e}");
            1
        }
    }
}

/// `--all`: every registered benchmark, up to `--jobs` of them at once.
/// Reports are printed in registry order either way.
fn run_all(cases: &[TestCase], opts: &DriverOptions, dump: bool) -> i32 {
    let results = oraql::run_suite(cases, opts);
    let mut worst = 0;
    for (case, result) in cases.iter().zip(&results) {
        match result {
            Ok(r) => {
                worst = worst.max(print_result(&case.name, r, opts.jobs, dump, None));
            }
            Err(e) => {
                eprintln!("{}: driver failed: {e}", case.name);
                worst = worst.max(1);
            }
        }
        println!();
    }
    worst
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `oraql trace ...`: the offline analyzer over a run's JSONL
    // artifacts; no driver machinery is touched.
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(workloads::analyze::run_cli(&args[1..]));
    }
    // `oraql gen ...`: the corpus generator / soundness-gate harness.
    if args.first().map(String::as_str) == Some("gen") {
        std::process::exit(workloads::gencli::run_cli(&args[1..]));
    }
    let mut benchmark: Option<String> = None;
    let mut config: Option<Config> = None;
    let mut flags = DriverFlags::default();
    let mut dump = false;
    let mut all = false;
    let mut strategy: Option<Strategy> = None;
    let mut emit_sequence: Option<String> = None;
    let mut replay_seq: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--list" => {
                for info in workloads::CASE_INFOS
                    .iter()
                    .chain(workloads::EXTRA_CASE_INFOS.iter())
                {
                    println!("{:20} {} ({})", info.name, info.benchmark, info.model);
                }
                return;
            }
            "--all" => all = true,
            "--dump" => dump = true,
            "--benchmark" | "-b" => benchmark = Some(flag_value(&args, &mut i, flag)),
            "--strategy" | "-s" => {
                let v = flag_value(&args, &mut i, flag);
                strategy = Some(Strategy::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2)
                }));
            }
            "--emit-sequence" => emit_sequence = Some(flag_value(&args, &mut i, flag)),
            "--replay" => replay_seq = Some(flag_value(&args, &mut i, flag)),
            "--trace" => trace_path = Some(flag_value(&args, &mut i, flag)),
            "--store" => store_path = Some(flag_value(&args, &mut i, flag)),
            "--config" | "-c" => {
                let path = flag_value(&args, &mut i, flag);
                config = Some(Config::load(&path).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2)
                }));
            }
            _ => match flags.parse(&args, &mut i) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("unknown flag {flag:?}");
                    usage()
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2)
                }
            },
        }
        i += 1;
    }

    // `--replay` needs a benchmark; then `--all`; then one benchmark.
    let benchmark = benchmark.or_else(|| config.as_ref().map(|c| c.benchmark.clone()));
    let replay_seq = replay_seq.filter(|_| benchmark.is_some());
    let names: Vec<&str> = match &benchmark {
        _ if all && replay_seq.is_none() => workloads::CASE_INFOS.iter().map(|c| c.name).collect(),
        Some(name) => vec![name],
        None => usage(),
    };
    // The config reaches every case and the options through
    // `Config::apply`; the flags go on top, so a flag wins over the
    // config wherever it appears.
    let mut opts = DriverOptions::default();
    let mut cases = Vec::with_capacity(names.len());
    for name in &names {
        let Some((mut case, truth)) = resolve_case(name) else {
            eprintln!("unknown benchmark {name:?}; try --list");
            std::process::exit(2)
        };
        if let Some(cfg) = &config {
            cfg.apply(&mut case, &mut opts);
        }
        // Only a generated case has labels for the gate to check.
        if flags.gate {
            opts.ground_truth = truth;
        }
        cases.push(case);
    }
    flags.apply(&mut opts);
    if let Some(s) = strategy {
        opts.strategy = s;
    }
    let dump = dump || config.as_ref().is_some_and(|c| c.dump);
    let sink = trace_path.as_deref().map(|p| {
        TraceSink::to_file(p).unwrap_or_else(|e| {
            eprintln!("cannot open trace file {p}: {e}");
            std::process::exit(2)
        })
    });
    opts.trace = sink.clone();

    // A fault plan reaches the store too: its appends draw the
    // store-write sites.
    let store = store_path.as_deref().map(|p| match oraql::Store::open(p) {
        Ok(s) => Arc::new(s.with_faults(opts.faults.clone())),
        Err(e) => {
            eprintln!("cannot open verdict store {p}: {e}");
            std::process::exit(2)
        }
    });
    opts.store = store.clone();

    let code = if let Some(seq) = &replay_seq {
        replay(names[0], &cases[0], seq)
    } else if all {
        run_all(&cases, &opts, dump)
    } else {
        run_one(names[0], &cases[0], opts, dump, emit_sequence.as_deref())
    };

    if let (Some(sink), Some(path)) = (&sink, &trace_path) {
        let dropped = sink.flush();
        if dropped > 0 {
            eprintln!("warning: {dropped} trace lines lost writing {path}");
        }
        println!("--- probe trace summary ({path}) ---");
        print!("{}", render_trace_summary(&sink.events()));
    }
    if let (Some(store), Some(path)) = (&store, &store_path) {
        let _ = store.sync();
        println!("--- verdict store ({path}) ---");
        println!("store: {}", store.stats());
    }
    if let Some(server) = &flags.server {
        println!("--- verdict server ({}) ---", server.addr());
        println!("client: {}", server.stats());
    }
    if let Some((spec, inj)) = &flags.faults {
        println!("--- fault injection ({spec}) ---");
        for (site, occurrences, fired) in inj.summary() {
            println!(
                "{:20} {occurrences:>8} drawn {fired:>8} fired",
                site.as_str()
            );
        }
        println!("total faults fired: {}", inj.total_fired());
    }
    std::process::exit(code);
}
