//! `oraql gen` — the generated-corpus subcommand.
//!
//! ```text
//! oraql gen --plan "seed=42,cases=1000,motifs=red+csr,per=3" [--out DIR]
//!           [--run] [--jobs N] [--no-gate]
//!           [--fault-plan SPEC] [--probe-deadline-ms N] [--max-tests N]
//!           [--server ADDR]
//! ```
//!
//! With `--out` the corpus is materialized as driver-ready `.conf`
//! files plus a `MANIFEST.txt` (byte-identical per plan — CI diffs a
//! regeneration against the first write). With `--run` the whole
//! corpus goes through `run_suite` with the ground-truth soundness
//! gate attached (disable with `--no-gate`): any case whose final
//! verdicts keep optimism on a genuinely-aliasing labelled pair fails
//! the run. With neither, the plan is summarized without side effects.
//! `--server` attaches a verdict-server client as the run's third
//! cache tier (same semantics as the main CLI's `--server`), which is
//! how CI drives a generated ground-truth corpus through a live
//! daemon under wire chaos.

use std::sync::Arc;

use oraql::truth::TruthReport;
use oraql::DriverOptions;
use oraql_gen::{suite, write_corpus, GenPlan};

fn gen_usage() -> i32 {
    eprintln!(
        "usage: oraql gen --plan \"seed=S,cases=N,motifs=red+outlined+aos+csr+halo,per=K\"\n                \
         [--out <dir>] [--run] [--jobs N] [--no-gate]\n                \
         [--fault-plan <spec>] [--probe-deadline-ms N] [--max-tests N] [--server <addr>]"
    );
    2
}

macro_rules! bail {
    ($($arg:tt)*) => {{
        eprintln!($($arg)*);
        return 2;
    }};
}

/// Entry point for `oraql gen ...`; returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut plan_spec: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut run = false;
    let mut gate = true;
    let mut opts = DriverOptions::default();
    let mut fault_plan: Option<String> = None;
    let mut probe_deadline_ms: u64 = 0;
    let mut server_addr: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match flag {
            "--help" | "-h" => return gen_usage(),
            "--plan" => match value(&mut i) {
                Some(v) => plan_spec = Some(v),
                None => bail!("missing value for --plan"),
            },
            "--out" => match value(&mut i) {
                Some(v) => out_dir = Some(v),
                None => bail!("missing value for --out"),
            },
            "--run" => run = true,
            "--no-gate" => gate = false,
            "--jobs" | "-j" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.jobs = n,
                _ => bail!("bad --jobs: expected an integer >= 1"),
            },
            "--max-tests" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => opts.max_tests = n,
                None => bail!("bad --max-tests: expected an integer"),
            },
            "--fault-plan" => match value(&mut i) {
                Some(v) => fault_plan = Some(v),
                None => bail!("missing value for --fault-plan"),
            },
            "--probe-deadline-ms" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => probe_deadline_ms = n,
                None => bail!("bad --probe-deadline-ms: expected an integer"),
            },
            "--server" => match value(&mut i) {
                Some(v) => server_addr = Some(v),
                None => bail!("missing value for --server"),
            },
            other => bail!("unknown flag {other:?} for oraql gen (try --help)"),
        }
        i += 1;
    }

    let Some(spec) = plan_spec else {
        return gen_usage();
    };
    let plan = match GenPlan::parse(&spec) {
        Ok(p) => p,
        Err(e) => bail!("bad --plan: {e}"),
    };
    if let Some(spec) = &fault_plan {
        let fp = match oraql::FaultPlan::parse(spec) {
            Ok(p) => p,
            Err(e) => bail!("bad --fault-plan: {e}"),
        };
        oraql::faults::quiet_injected_panics();
        opts.faults = Some(Arc::new(oraql::FaultInjector::new(fp)));
    }
    if probe_deadline_ms > 0 {
        opts.probe_deadline = Some(std::time::Duration::from_millis(probe_deadline_ms));
    }
    if let Some(addr) = &server_addr {
        opts.server = Some(Arc::new(oraql::served::Client::new(addr)));
    }

    println!("plan: {}", plan.render());
    if let Some(dir) = &out_dir {
        match write_corpus(&plan, std::path::Path::new(dir)) {
            Ok(s) => {
                let (no, may, must) = s.labels;
                println!(
                    "corpus: {} cases written to {dir} | labels: no={no} may={may} must={must}",
                    s.cases
                );
            }
            Err(e) => bail!("cannot write corpus to {dir}: {e}"),
        }
    }

    let (cases, truth) = suite(&plan);
    let (no, may, must) = truth.counts();
    println!(
        "cases: {} | labelled pairs: {} (no={no} may={may} must={must})",
        cases.len(),
        truth.len()
    );
    if !run {
        return 0;
    }

    if gate {
        opts.ground_truth = Some(Arc::new(truth));
    }
    let results = oraql::run_suite(&cases, &opts);
    let mut failed = 0usize;
    let mut fully_optimistic = 0usize;
    let mut total = TruthReport::default();
    for (case, result) in cases.iter().zip(&results) {
        match result {
            Ok(r) => {
                fully_optimistic += r.fully_optimistic as usize;
                if let Some(t) = &r.truth {
                    total.absorb(t);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: driver failed: {e}", case.name);
            }
        }
    }
    println!(
        "suite: {} ok, {failed} failed, {fully_optimistic} fully optimistic (jobs={})",
        results.len() - failed,
        opts.jobs
    );
    if gate {
        println!("ground truth: {total}");
    }
    if let Some(client) = &opts.server {
        println!("server {}: {}", client.addr(), client.stats());
    }
    if failed > 0 {
        1
    } else {
        0
    }
}
