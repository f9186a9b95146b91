//! One benchmark run: set-up (repeated and timed), rounds until the
//! time is up, checks, and the metrics of either the untraced run
//! (end-to-end) or the traced run (per layer).

use crate::layers::{
    self, attribution, fidelity, self_micros, trace_case, trace_served_case, CaseTrace, Counts,
    Tracer, ANALYSES, SLOTS, SLOT_SPANS, STRATEGY_SPANS,
};
use crate::pace::{Pace, Spent, REFERENCE_S};
use crate::stats::{median, peak_rss_mb, percentile, reset_peak_rss, result_json, tail, Metric};
use crate::suite::{
    check_round, check_verdict, decisions_digest, run_round, Corpus, Daemon, Round, Workload,
    GEN_CASES,
};
use oraql::driver::DriverResult;
use oraql::trace::ProbeEvent;
use oraql::{run_suite, DriverOptions, Store};
use oraql_obs::SpanEvent;
use oraql_served::Client;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Traced run only: write the last traced round's spans here, in the
    /// JSONL format `oraql trace --spans` reads.
    pub spans_out: Option<PathBuf>,
}

pub const USAGE: &str = "usage: perfbench --workload paper_cold|gen_j2|served_warm --seed N \
                         --seconds N --trace 0|1 [--spans-out FILE]\n       perfbench --print-golden";

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut spans_out) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag} {value:?}: expected an integer"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                    })
                }
                "--spans-out" => spans_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            spans_out,
        })
    }
}

/// The run's result: human-readable lines, then the JSON line.
pub struct Report {
    pub lines: Vec<String>,
    pub json: String,
}

/// Set-ups per run: the first feeds the rounds, the others run after
/// them (so their memory stays out of the rounds' peaks) and are timed
/// and discarded. A `served_warm` set-up is a whole cold suite, so it
/// gets fewer.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::ServedWarm => 3,
        Workload::PaperCold | Workload::GenJ2 => 25,
    }
}

/// A scratch directory inside the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(w: Workload) -> Result<Scratch, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        let dir =
            base.join("perfbench-scratch")
                .join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Operations attempted and failed; the first few failures are printed.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record(&mut self, cases: usize, failures: Vec<String>) {
        self.attempted += cases as u64;
        for f in failures {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: failed: {f}");
            }
        }
    }
}

/// Untraced-round counters the per-layer report reads (summed over
/// rounds).
#[derive(Default)]
struct RoundTotals {
    rounds: u64,
    spec_launched: u64,
    spec_cancelled: u64,
    spec_wasted: u64,
    inflight_joins: u64,
    truth_checked: u64,
    truth_missed: u64,
    lookups: u64,
    hits: u64,
    retries: u64,
    busy: u64,
    appends: u64,
}

impl RoundTotals {
    fn absorb(&mut self, round: &Round) {
        self.rounds += 1;
        for r in round.results.iter().flatten() {
            let e = &r.effort;
            self.spec_launched += e.spec_launched;
            self.spec_cancelled += e.spec_cancelled;
            self.spec_wasted += e.spec_wasted;
            self.inflight_joins += e.inflight_joins;
            if let Some(t) = &r.truth {
                self.truth_checked += t.checked;
                self.truth_missed += t.missed_optimism;
            }
        }
        self.lookups += round.client.lookups;
        self.hits += round.client.hits;
        self.retries += round.client.retries;
        self.busy += round.client.busy;
        self.appends += round.appends;
    }
}

/// Set-up timings and what the kept set-up produced.
struct Setup {
    corpus: Corpus,
    daemon: Option<Daemon>,
    /// Set-up times at reference speed, and as measured.
    secs: Vec<f64>,
    raw_secs: Vec<f64>,
    generate_ms: Vec<f64>,
    reference_ms: Vec<f64>,
}

impl Setup {
    /// The once-per-session work before round 1: build the cases and
    /// their references (and the gen corpus with its labels); for
    /// `served_warm` also start a daemon and cold-populate it.
    fn once(
        w: Workload,
        seed: u64,
        scratch: &Path,
        rep: usize,
        pace: &mut Pace,
        ops: &mut Ops,
    ) -> Result<(Spent, Corpus, Option<Daemon>), String> {
        let mut spent = Spent::default();
        let corpus = pace.time(&mut spent, || Corpus::build(w, seed))?;
        if w != Workload::ServedWarm {
            return Ok((spent, corpus, None));
        }
        let dir = scratch.join(format!("served-{rep}"));
        let mut daemon = pace.time(&mut spent, || Daemon::start(dir))?;
        let populated = daemon.populate(&corpus, pace, &mut spent);
        let failures = corpus
            .cases
            .iter()
            .zip(&populated)
            .filter_map(|(c, r)| {
                check_verdict(corpus.meta(&c.name), r)
                    .err()
                    .map(|e| format!("{} (cold population): {e}", c.name))
            })
            .collect();
        ops.record(populated.len(), failures);
        Ok((spent, corpus, Some(daemon)))
    }

    fn first(
        w: Workload,
        seed: u64,
        scratch: &Path,
        pace: &mut Pace,
        ops: &mut Ops,
    ) -> Result<Setup, String> {
        let (spent, corpus, daemon) = Setup::once(w, seed, scratch, 0, pace, ops)?;
        Ok(Setup {
            secs: vec![spent.paced],
            raw_secs: vec![spent.raw],
            generate_ms: vec![corpus.generate_ms],
            reference_ms: vec![corpus.reference_ms],
            corpus,
            daemon,
        })
    }

    /// Repeats the set-up (timed, then discarded) up to `setup_reps`.
    fn repeat(
        &mut self,
        w: Workload,
        seed: u64,
        scratch: &Path,
        pace: &mut Pace,
        ops: &mut Ops,
    ) -> Result<(), String> {
        pace.restart();
        while self.secs.len() < setup_reps(w) {
            let (spent, corpus, daemon) =
                Setup::once(w, seed, scratch, self.secs.len(), pace, ops)?;
            drop(daemon);
            self.secs.push(spent.paced);
            self.raw_secs.push(spent.raw);
            self.generate_ms.push(corpus.generate_ms);
            self.reference_ms.push(corpus.reference_ms);
        }
        Ok(())
    }
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let scratch = Scratch::new(w)?;
    let mut ops = Ops::default();
    // Set-up runs on one thread whatever the rounds' probe jobs.
    let mut setup_pace = Pace::new(1);
    let mut setup = Setup::first(w, args.seed, &scratch.0, &mut setup_pace, &mut ops)?;
    let mut pace = Pace::new(w.jobs());
    let budget = Duration::from_secs(args.seconds);
    let mut suite = Vec::new();
    let mut raw_suite = Vec::new();
    let mut round_rss = Vec::new();
    let mut totals = RoundTotals::default();
    let mut first_decisions = None;
    let mut digests = Vec::new();
    let mut traced = TracedRounds::default();
    let start = Instant::now();
    for round_no in 0.. {
        setup.corpus.shuffle(args.seed, round_no);
        if args.trace && round_no > 0 {
            pace.restart();
        }
        reset_peak_rss();
        let round = run_round(
            w,
            &setup.corpus,
            setup.daemon.as_ref(),
            &scratch.0,
            args.trace && w == Workload::ServedWarm,
            &mut pace,
        )?;
        suite.push(round.spent.paced);
        raw_suite.push(round.spent.raw);
        round_rss.push(peak_rss_mb().ok_or("peak RSS is not reported on this platform")?);
        let failures = check_round(w, &setup.corpus, &round, &mut first_decisions);
        ops.record(round.results.len(), failures);
        totals.absorb(&round);
        if w == Workload::GenJ2 {
            digests.push(decisions_digest(&setup.corpus, &round));
        }
        if args.trace {
            let failures = traced.round(w, &setup, &round, &scratch.0)?;
            ops.record(round.results.len(), failures);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    setup.repeat(w, args.seed, &scratch.0, &mut setup_pace, &mut ops)?;

    let mut lines = vec![format!(
        "{} seed {}: {} rounds, {} operations, {} failed",
        w.name(),
        args.seed,
        suite.len(),
        ops.attempted,
        ops.failed
    )];
    let median_suite = median(&suite);
    let mut suite_line = format!(
        "suite_s: median {median_suite:.4} s over {} rounds",
        suite.len()
    );
    if let Some((pct, value)) = tail(&suite) {
        suite_line.push_str(&format!(", p{pct:.0} {value:.4} s"));
    }
    suite_line.push_str(&format!(
        " (as measured: median {:.4} s)",
        median(&raw_suite)
    ));
    lines.push(suite_line);
    lines.push(format!(
        "setup_s: median {:.4} s over {} set-ups (as measured: median {:.4} s)",
        median(&setup.secs),
        setup.secs.len(),
        median(&setup.raw_secs)
    ));
    // A jobs-2 round's peak lands in one of two modes ~4 MB apart,
    // depending on how allocator arenas fall between the probe threads;
    // the median flipped between them from run to run, the lowest
    // round's peak does not.
    let lowest_rss = round_rss.iter().copied().fold(f64::INFINITY, f64::min);
    lines.push(format!(
        "peak_rss_mb: lowest {lowest_rss:.2} MB, median {:.2} MB, highest {:.2} MB over the rounds' peaks",
        median(&round_rss),
        round_rss.iter().copied().fold(0.0, f64::max)
    ));
    lines.push(format!(
        "pace: calibration kernel median {:.2} ms over {} samples (reference {:.0} ms)",
        median(&pace.samples) * 1e3,
        pace.samples.len(),
        REFERENCE_S * 1e3
    ));
    if let Some(first) = digests.first() {
        let steady = digests.iter().all(|d| d == first);
        lines.push(format!(
            "decisions digest: {first:016x} ({} in every round)",
            if steady { "identical" } else { "NOT identical" }
        ));
    }

    let metrics = if args.trace {
        lines.push(format!(
            "traced: {} rounds, median {:.4} s; span self times sum to {:.1} of {:.1} ms",
            traced.secs.len(),
            median(&traced.secs),
            traced.attributed_us as f64 / 1e3,
            traced.round_us as f64 / 1e3
        ));
        if let Some(path) = &args.spans_out {
            traced.write_spans(path)?;
            lines.push(format!(
                "spans of the last traced round written to {}",
                path.display()
            ));
        }
        layer_metrics(&LayerInputs {
            self_us: &traced.self_us,
            counts: &traced.counts,
            traced_rounds: traced.secs.len() as f64,
            totals: &totals,
            generate_ms: median(&setup.generate_ms),
            gen_cases: if w == Workload::GenJ2 { GEN_CASES } else { 0 },
            reference_ms: median(&setup.reference_ms),
            puts: setup.daemon.as_ref().map_or(0, |d| d.puts),
            overhead_ratio: median(&traced.secs) / median(&raw_suite),
        })
    } else {
        vec![
            metric("suite_s", "s", median_suite),
            metric("setup_s", "s", median(&setup.secs)),
            metric("peak_rss_mb", "MB", lowest_rss),
        ]
    };
    Ok(Report {
        lines,
        json: result_json(ops.failed == 0, ops.attempted, ops.failed, &metrics),
    })
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What the traced rounds of a run accumulated.
#[derive(Default)]
struct TracedRounds {
    secs: Vec<f64>,
    /// Self time per span name, summed over the rounds' spans of every
    /// case that passed the fidelity gate.
    self_us: HashMap<String, u64>,
    /// Traced rounds' time and the sum of their spans' self times.
    round_us: u64,
    attributed_us: u64,
    last_round: Vec<SpanEvent>,
    counts: Counts,
    /// Jobs-1 driver results the `gen_j2` loop is held to (its untraced
    /// rounds run at jobs 2).
    jobs1: Option<HashMap<String, DriverResult>>,
}

impl TracedRounds {
    /// One traced round after the untraced `round`; returns the
    /// fidelity failures.
    fn round(
        &mut self,
        w: Workload,
        setup: &Setup,
        round: &Round,
        scratch: &Path,
    ) -> Result<Vec<String>, String> {
        let corpus = &setup.corpus;
        if w == Workload::GenJ2 && self.jobs1.is_none() {
            let opts = DriverOptions {
                ground_truth: corpus.truth.clone(),
                ..DriverOptions::default()
            };
            let results = run_suite(&corpus.cases, &opts);
            let mut jobs1 = HashMap::new();
            for (case, r) in corpus.cases.iter().zip(results) {
                let r = r.map_err(|e| format!("{}: jobs-1 reference run: {e}", case.name))?;
                jobs1.insert(case.name.clone(), r);
            }
            self.jobs1 = Some(jobs1);
        }
        let untraced: HashMap<&str, &DriverResult> = corpus
            .cases
            .iter()
            .zip(&round.results)
            .filter_map(|(c, r)| Some((c.name.as_str(), r.as_ref().ok()?)))
            .collect();
        let reference = |name: &str| match &self.jobs1 {
            Some(jobs1) => jobs1.get(name),
            None => untraced.get(name).copied(),
        };

        let tr = Tracer::new();
        let started = Instant::now();
        let round_span = layers::open(&tr, "round", 0);
        let traces: Vec<CaseTrace> = match (w, &setup.daemon) {
            (Workload::ServedWarm, Some(daemon)) => {
                let journal = scratch.join("traced.journal");
                let _ = std::fs::remove_file(&journal);
                let store = Store::open(&journal).map_err(|e| format!("local journal: {e}"))?;
                let client = Client::new(&daemon.addr);
                let mut by_case: HashMap<&str, Vec<&ProbeEvent>> = HashMap::new();
                for ev in &round.events {
                    by_case.entry(ev.case.as_str()).or_default().push(ev);
                }
                let traces = corpus
                    .cases
                    .iter()
                    .map(|case| {
                        let mut events = by_case.remove(case.name.as_str()).unwrap_or_default();
                        events.sort_by_key(|e| e.seq);
                        match untraced.get(case.name.as_str()) {
                            Some(r) => trace_served_case(
                                &tr,
                                case,
                                &events,
                                r,
                                &client,
                                &store,
                                round_span.id(),
                            ),
                            None => CaseTrace::failed(case, "no untraced result to replay"),
                        }
                    })
                    .collect();
                drop(store);
                let _ = std::fs::remove_file(&journal);
                traces
            }
            _ => corpus
                .cases
                .iter()
                .map(|case| trace_case(&tr, case, round_span.id()))
                .collect(),
        };
        drop(round_span);
        self.secs.push(started.elapsed().as_secs_f64());

        let mut failures = Vec::new();
        let mut events = tr.borrow().events();
        for t in &traces {
            let gate = match reference(&t.name) {
                Some(r) => fidelity(t, r),
                None => Err("no driver result to compare with".into()),
            };
            match gate {
                Ok(()) => self.counts.absorb(&t.counts),
                Err(e) => {
                    events.retain(|ev| ev.case != t.name);
                    failures.push(format!("{} (traced loop): {e}", t.name));
                }
            }
        }
        for (name, us) in self_micros(&events) {
            *self.self_us.entry(name).or_default() += us;
        }
        let (round_us, attributed_us) = attribution(&events);
        self.round_us += round_us;
        self.attributed_us += attributed_us;
        self.last_round = events;
        Ok(failures)
    }

    fn write_spans(&self, path: &Path) -> Result<(), String> {
        let text: String = self
            .last_round
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect();
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Inputs of the per-layer report.
struct LayerInputs<'a> {
    self_us: &'a HashMap<String, u64>,
    counts: &'a Counts,
    traced_rounds: f64,
    totals: &'a RoundTotals,
    generate_ms: f64,
    gen_cases: u32,
    reference_ms: f64,
    puts: u64,
    overhead_ratio: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric, per traced round (pool, truth and served
/// counters per untraced round; set-up figures per set-up).
fn layer_metrics(p: &LayerInputs) -> Vec<Metric> {
    let ms = |name: &str| p.self_us.get(name).copied().unwrap_or(0) as f64 / 1e3 / p.traced_rounds;
    let per = |n: u64| n as f64 / p.traced_rounds;
    let c = p.counts;
    let t = p.totals;
    let untraced = |n: u64| ratio(n, t.rounds);
    let mut m = Vec::new();
    for (slot, name) in SLOTS.iter().enumerate() {
        m.push(metric(
            format!("passes.{name}.self_ms"),
            "ms",
            ms(SLOT_SPANS[slot]),
        ));
        m.push(metric(
            format!("passes.{name}.aa_ms"),
            "ms",
            c.slot_aa_ns[slot] as f64 / 1e6 / p.traced_rounds,
        ));
        m.push(metric(
            format!("passes.{name}.queries"),
            "count",
            per(c.slot_queries[slot]),
        ));
    }
    for (i, name) in ANALYSES.iter().enumerate().take(4) {
        m.push(metric(format!("{name}.ms"), "ms", ms(name)));
        m.push(metric(
            format!("{name}.queries"),
            "count",
            per(c.aa_queries[i]),
        ));
        m.push(metric(
            format!("{name}.definite"),
            "count",
            per(c.aa_definite[i]),
        ));
    }
    m.push(metric("core.pass.ms", "ms", ms(ANALYSES[4])));
    m.push(metric("core.pass.queries", "count", per(c.aa_queries[4])));
    m.push(metric("core.pass.unique", "count", per(c.unique)));
    m.push(metric("workloads.build_ms", "ms", ms("workloads.build")));
    m.push(metric("workloads.builds", "count", per(c.builds)));
    m.push(metric("ir.print_hash_ms", "ms", ms("ir.print_hash")));
    m.push(metric("ir.print_bytes", "bytes", per(c.print_bytes)));
    m.push(metric("vm.machine_ms", "ms", ms("vm.machine")));
    m.push(metric("vm.run_ms", "ms", ms("vm.run")));
    m.push(metric("vm.runs", "count", per(c.vm_runs)));
    m.push(metric("vm.insts", "count", per(c.vm_insts)));
    m.push(metric("core.verify.ms", "ms", ms("core.verify")));
    m.push(metric("core.verify.checks", "count", per(c.verify_checks)));
    let strategy: f64 = STRATEGY_SPANS.iter().map(|n| ms(n)).sum();
    m.push(metric("core.strategy.self_ms", "ms", strategy));
    m.push(metric("core.strategy.probes", "count", per(c.probes)));
    m.push(metric("core.strategy.deduced", "count", per(c.deduced)));
    m.push(metric("core.driver.compiles", "count", per(c.compiles)));
    m.push(metric("core.driver.tests_run", "count", per(c.tests_run)));
    m.push(metric(
        "core.driver.exe_cache_ratio",
        "ratio",
        ratio(c.tests_cached, c.compiles),
    ));
    m.push(metric(
        "core.pool.spec_launched",
        "count",
        untraced(t.spec_launched),
    ));
    m.push(metric(
        "core.pool.spec_cancelled",
        "count",
        untraced(t.spec_cancelled),
    ));
    m.push(metric(
        "core.pool.spec_wasted",
        "count",
        untraced(t.spec_wasted),
    ));
    m.push(metric(
        "core.pool.inflight_joins",
        "count",
        untraced(t.inflight_joins),
    ));
    m.push(metric(
        "core.pool.spec_useful_ratio",
        "ratio",
        ratio(
            t.spec_launched - t.spec_cancelled.min(t.spec_launched),
            t.spec_launched,
        ),
    ));
    m.push(metric(
        "served.get_us.p50",
        "us",
        percentile(&c.get_us, 50.0),
    ));
    m.push(metric(
        "served.get_us.p99",
        "us",
        percentile(&c.get_us, 99.0),
    ));
    m.push(metric("served.lookups", "count", untraced(t.lookups)));
    m.push(metric("served.hits", "count", untraced(t.hits)));
    m.push(metric("served.retries", "count", untraced(t.retries)));
    m.push(metric("served.busy", "count", untraced(t.busy)));
    m.push(metric("served.puts", "count", p.puts as f64));
    m.push(metric(
        "store.append_us.p50",
        "us",
        percentile(&c.append_us, 50.0),
    ));
    m.push(metric(
        "store.append_us.p99",
        "us",
        percentile(&c.append_us, 99.0),
    ));
    m.push(metric("store.appends", "count", untraced(t.appends)));
    m.push(metric("store.syncs", "count", per(c.syncs)));
    m.push(metric("store.sync_ms", "ms", ms("store.sync")));
    m.push(metric("gen.generate_ms", "ms", p.generate_ms));
    m.push(metric("gen.cases", "count", f64::from(p.gen_cases)));
    m.push(metric("vm.reference_ms", "ms", p.reference_ms));
    m.push(metric(
        "core.truth.checked",
        "count",
        untraced(t.truth_checked),
    ));
    m.push(metric(
        "core.truth.missed_optimism",
        "count",
        untraced(t.truth_missed),
    ));
    m.push(metric("trace.overhead_ratio", "ratio", p.overhead_ratio));
    m
}

/// `--print-golden`: the golden rows of the 16 configurations from a
/// jobs-1 run of this build.
pub fn golden() -> Result<String, String> {
    let cases = oraql_workloads::all_cases();
    let mut out = String::from(
        "# <config> fully_optimistic opt=unique/cached pess=unique/cached \
         no_alias=original->oraql seq=<final sequence>\n",
    );
    for (case, r) in cases
        .iter()
        .zip(run_suite(&cases, &DriverOptions::default()))
    {
        let r = r.map_err(|e| format!("{}: {e}", case.name))?;
        out.push_str(&crate::suite::golden_line(&r));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload gen_j2 --seed 7 --seconds 3 --trace 1").expect("parses");
        assert_eq!(a.workload, Workload::GenJ2);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload gen_j2 --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload gen_j2 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
    }

    /// Names and units of every per-layer metric, in report order.
    fn layer_metric_names() -> Vec<(String, &'static str)> {
        layer_metrics(&LayerInputs {
            self_us: &HashMap::new(),
            counts: &Counts::default(),
            traced_rounds: 1.0,
            totals: &RoundTotals::default(),
            generate_ms: 0.0,
            gen_cases: 0,
            reference_ms: 0.0,
            puts: 0,
            overhead_ratio: 0.0,
        })
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
    }

    /// The per-layer metrics printed are exactly the ones `BENCHMARK.json`
    /// declares, with the same units, in the same order.
    #[test]
    fn per_layer_metrics_match_the_benchmark_file() {
        let declared = include_str!("../../BENCHMARK.json");
        let per_layer = &declared[declared.find("\"per_layer\"").expect("per_layer key")..];
        let field = |key: &str| -> Vec<String> {
            let pat = format!("\"{key}\": \"");
            per_layer
                .match_indices(pat.as_str())
                .map(|(i, _)| {
                    let rest = &per_layer[i + pat.len()..];
                    rest[..rest.find('"').expect("closing quote")].to_owned()
                })
                .collect()
        };
        let declared: Vec<(String, String)> =
            field("name").into_iter().zip(field("unit")).collect();
        let ours: Vec<(String, String)> = layer_metric_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(ours.len(), 90);
        assert_eq!(declared, ours);
    }
}
