//! The traced run: every case is driven through a sequential probe loop
//! built only from the repository's public parts, and each call into a
//! layer is timed from here, outside the program.
//!
//! The loop reproduces `Driver::run` at jobs 1: baseline compile, run
//! and reference; the all-optimistic probe; `Strategy::solve` over a
//! bench-owned [`Prober`] whose probes compile, print and hash the
//! module as the executable-cache key, run it and verify the output;
//! then the final compile. Compiles use the `compile::conservative_chain`
//! analyses plus `pass::OraqlAA`, each wrapped in a timing
//! [`AliasAnalysis`], and `PassManager::new` over the 12 pipeline passes,
//! each wrapped in a timing [`Pass`].
//!
//! Spans go to an `oraql_obs::SpanSink`:
//! `round > case > baseline|probe|final > workloads.build | passes.<slot>
//! | vm.machine | ir.print_hash | vm.run | core.verify`. Alias-analysis
//! time is accumulated on the enclosing pass span and recorded as one
//! aggregate child span per analysis (a span per query would cost more
//! than the query), so `span_profile`'s self time of a pass excludes the
//! analysis time spent inside it.
//!
//! Known limit: only the public functions this loop calls are timed. A
//! later change inside `compile()` or the driver that the loop does not
//! call moves the end-to-end time without moving the trace.

use oraql::pass::{new_shared_with, OraqlAA, OraqlShared};
use oraql::strategy::{ProbeOutcome, Prober};
use oraql::trace::{ProbeEvent, ProbeKind};
use oraql::{Decisions, DriverOptions, DriverResult, Store, TestCase, Verifier};
use oraql_analysis::andersen::AndersenAA;
use oraql_analysis::basic::BasicAA;
use oraql_analysis::globals::GlobalsAA;
use oraql_analysis::scoped::ScopedNoAliasAA;
use oraql_analysis::steens::SteensgaardAA;
use oraql_analysis::tbaa::TypeBasedAA;
use oraql_analysis::{AAManager, AliasAnalysis, AliasResult, MemoryLocation, QueryCtx};
use oraql_ir::meta::Target;
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::printer::module_str;
use oraql_obs::{Span, SpanEvent, SpanSink};
use oraql_passes::{Pass, PassCx, PassManager, Stats};
use oraql_served::Client;
use oraql_vm::{InterpMode, Interpreter};
use oraql_workloads::analyze::{span_profile, SpanProfileRow};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The 12 `standard_pipeline` slots, in pipeline order.
pub const SLOTS: [&str; 12] = [
    "memssa_prime",
    "earlycse",
    "gvn1",
    "memcpyopt",
    "licm",
    "gvn2",
    "dse",
    "loopdel",
    "loopvec",
    "slp",
    "sink",
    "dce",
];

/// Span name of each slot.
pub const SLOT_SPANS: [&str; 12] = [
    "passes.memssa_prime",
    "passes.earlycse",
    "passes.gvn1",
    "passes.memcpyopt",
    "passes.licm",
    "passes.gvn2",
    "passes.dse",
    "passes.loopdel",
    "passes.loopvec",
    "passes.slp",
    "passes.sink",
    "passes.dce",
];

/// Span name of each timed analysis, in chain order: the conservative
/// chain, then the ORAQL pass.
pub const ANALYSES: [&str; 5] = [
    "analysis.basic",
    "analysis.scoped",
    "analysis.tbaa",
    "analysis.globals",
    "core.pass",
];
const ORAQL: usize = 4;

/// Spans whose self time is the driver's own bookkeeping: reported
/// together as `core.strategy.self_ms`.
pub const STRATEGY_SPANS: [&str; 5] = ["round", "case", "baseline", "probe", "final"];

/// Ids of the aggregate analysis spans start here, far above any id the
/// sink hands out.
const AGGREGATE_IDS: u64 = 1 << 48;

/// The 12 pipeline passes, in `standard_pipeline` order.
fn pipeline_passes() -> Vec<Box<dyn Pass>> {
    use oraql_passes::*;
    vec![
        Box::new(memssa_prime::MemorySsaPrime),
        Box::new(earlycse::EarlyCSE),
        Box::new(gvn::Gvn),
        Box::new(memcpyopt::MemCpyOpt),
        Box::new(licm::Licm),
        Box::new(gvn::Gvn),
        Box::new(dse::Dse),
        Box::new(loopdel::LoopDeletion),
        Box::new(loopvec::LoopVectorize),
        Box::new(slp::SlpVectorize),
        Box::new(sink::MachineSink),
        Box::new(dce::Dce),
    ]
}

/// Work counted at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub slot_aa_ns: [u64; 12],
    pub slot_queries: [u64; 12],
    pub aa_queries: [u64; 5],
    pub aa_definite: [u64; 5],
    pub unique: u64,
    pub builds: u64,
    pub print_bytes: u64,
    pub vm_runs: u64,
    pub vm_insts: u64,
    pub verify_checks: u64,
    pub probes: u64,
    pub deduced: u64,
    pub compiles: u64,
    pub tests_run: u64,
    pub tests_cached: u64,
    /// Per-call latencies of the served-tier replay, in microseconds.
    pub get_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub syncs: u64,
}

impl Counts {
    pub fn absorb(&mut self, o: &Counts) {
        for i in 0..12 {
            self.slot_aa_ns[i] += o.slot_aa_ns[i];
            self.slot_queries[i] += o.slot_queries[i];
        }
        for i in 0..5 {
            self.aa_queries[i] += o.aa_queries[i];
            self.aa_definite[i] += o.aa_definite[i];
        }
        self.unique += o.unique;
        self.builds += o.builds;
        self.print_bytes += o.print_bytes;
        self.vm_runs += o.vm_runs;
        self.vm_insts += o.vm_insts;
        self.verify_checks += o.verify_checks;
        self.probes += o.probes;
        self.deduced += o.deduced;
        self.compiles += o.compiles;
        self.tests_run += o.tests_run;
        self.tests_cached += o.tests_cached;
        self.get_us.extend_from_slice(&o.get_us);
        self.append_us.extend_from_slice(&o.append_us);
        self.syncs += o.syncs;
    }
}

/// A pass slot whose span is open: one span covers a slot's run over
/// every function of the module.
struct OpenPass {
    slot: usize,
    span: Span,
    opened: Instant,
    aa_ns: [u64; 5],
}

/// Span sink plus the counters of the case being traced. Shared by the
/// timing wrappers inside the pass manager and the analysis chain.
pub struct Tracer {
    sink: SpanSink,
    epoch: Instant,
    aggregates: Vec<SpanEvent>,
    case: String,
    /// Span the next compile's pass spans hang under.
    parent: u64,
    /// Running nanoseconds spent inside each timed analysis.
    aa_ns: [u64; 5],
    open: Option<OpenPass>,
    counts: Counts,
}

/// The tracer as the timing wrappers share it.
pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn new() -> Shared {
        let sink = SpanSink::in_memory();
        Rc::new(RefCell::new(Tracer {
            sink,
            epoch: Instant::now(),
            aggregates: Vec::new(),
            case: String::new(),
            parent: 0,
            aa_ns: [0; 5],
            open: None,
            counts: Counts::default(),
        }))
    }

    fn span(&self, name: &'static str, parent: u64) -> Span {
        self.sink.span(name, &self.case, parent)
    }

    fn enter_pass(&mut self, slot: usize) {
        if self.open.as_ref().is_some_and(|o| o.slot == slot) {
            return;
        }
        self.leave_pass();
        self.open = Some(OpenPass {
            slot,
            span: self.span(SLOT_SPANS[slot], self.parent),
            opened: Instant::now(),
            aa_ns: self.aa_ns,
        });
    }

    /// Closes the open pass span and records the analysis time spent
    /// inside it as one aggregate child span per analysis.
    fn leave_pass(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let start_micros = open.opened.duration_since(self.epoch).as_micros() as u64;
        for (i, name) in ANALYSES.iter().enumerate() {
            let ns = self.aa_ns[i] - open.aa_ns[i];
            self.counts.slot_aa_ns[open.slot] += ns;
            if ns > 0 {
                self.aggregates.push(SpanEvent {
                    id: AGGREGATE_IDS + self.aggregates.len() as u64,
                    parent: open.span.id(),
                    name: (*name).to_owned(),
                    case: self.case.clone(),
                    start_micros,
                    dur_micros: (ns + 500) / 1000,
                });
            }
        }
    }

    /// Every span recorded so far, aggregates included.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut events = self.sink.events();
        events.extend(self.aggregates.iter().cloned());
        events
    }
}

/// Opens a span of the case being traced under `parent` (0 for a root).
pub fn open(tr: &Shared, name: &'static str, parent: u64) -> Span {
    tr.borrow().span(name, parent)
}

/// An analysis of the chain, timed per query.
struct TimedAA {
    inner: Box<dyn AliasAnalysis>,
    idx: usize,
    tr: Shared,
}

fn timed(tr: &Shared, idx: usize, inner: impl AliasAnalysis + 'static) -> Box<dyn AliasAnalysis> {
    Box::new(TimedAA {
        inner: Box::new(inner),
        idx,
        tr: Rc::clone(tr),
    })
}

impl AliasAnalysis for TimedAA {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let started = Instant::now();
        let r = self.inner.alias(ctx, a, b);
        let ns = started.elapsed().as_nanos() as u64;
        let mut tr = self.tr.borrow_mut();
        tr.aa_ns[self.idx] += ns;
        tr.counts.aa_queries[self.idx] += 1;
        if r.is_definite() {
            tr.counts.aa_definite[self.idx] += 1;
        }
        r
    }

    fn stats(&self) -> Vec<(String, u64)> {
        self.inner.stats()
    }
}

/// A pipeline pass, timed as one span per slot and compile.
struct TimedPass {
    inner: Box<dyn Pass>,
    slot: usize,
    tr: Shared,
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, m: &mut Module, f: FunctionId, cx: &mut PassCx<'_>) {
        self.tr.borrow_mut().enter_pass(self.slot);
        let queries = cx.aa.total_queries;
        self.inner.run(m, f, cx);
        let mut tr = self.tr.borrow_mut();
        tr.counts.slot_queries[self.slot] += cx.aa.total_queries - queries;
        if f.0 as usize + 1 >= m.funcs.len() {
            tr.leave_pass();
        }
    }
}

/// `compile()` rebuilt from its public parts, every layer timed:
/// build, the analysis chain plus ORAQL (when `decisions` is set), the
/// 12-pass pipeline and the machine-statistics lowering.
fn compile(
    tr: &Shared,
    case: &TestCase,
    decisions: Option<&Decisions>,
    parent: u64,
) -> (Module, Option<OraqlShared>) {
    let mut module = {
        let _s = open(tr, "workloads.build", parent);
        tr.borrow_mut().counts.builds += 1;
        (case.build)()
    };
    let mut aa = AAManager::new();
    aa.add(timed(tr, 0, BasicAA::new()));
    aa.add(timed(tr, 1, ScopedNoAliasAA::new()));
    aa.add(timed(tr, 2, TypeBasedAA::new()));
    aa.add(timed(tr, 3, GlobalsAA::new(&module)));
    if case.use_cfl {
        aa.add(Box::new(SteensgaardAA::new(&module)));
        aa.add(Box::new(AndersenAA::new(&module)));
    }
    let oraql = decisions.map(|d| {
        let shared = new_shared_with(d.clone(), case.scope.clone(), case.optimism);
        aa.add(timed(tr, ORAQL, OraqlAA::new(Arc::clone(&shared))));
        shared
    });
    tr.borrow_mut().parent = parent;
    let passes = pipeline_passes()
        .into_iter()
        .enumerate()
        .map(|(slot, inner)| {
            Box::new(TimedPass {
                inner,
                slot,
                tr: Rc::clone(tr),
            }) as Box<dyn Pass>
        })
        .collect();
    PassManager::new(passes).run(&mut module, &mut aa, &mut Stats::new());
    tr.borrow_mut().leave_pass();
    {
        let _s = open(tr, "vm.machine", parent);
        for target in [Target::Host, Target::Device] {
            black_box(oraql_vm::machine::module_machine_insts(&module, target));
            black_box(oraql_vm::machine::module_spills(&module, target));
        }
    }
    if let Some(s) = &oraql {
        tr.borrow_mut().counts.unique += s.lock().stats.unique();
    }
    (module, oraql)
}

/// Runs `main` on the driver's default interpreter; the error is the
/// trap message.
fn run_vm(tr: &Shared, m: &Module, fuel: u64, parent: u64) -> Result<String, String> {
    let _s = open(tr, "vm.run", parent);
    let main = m.find_func("main").ok_or("no main")?;
    let mut vm = Interpreter::new(m)
        .with_fuel(fuel)
        .with_mode(InterpMode::default());
    let r = vm.run(main, vec![]);
    let mut t = tr.borrow_mut();
    t.counts.vm_runs += 1;
    t.counts.vm_insts += vm.stats().total_insts();
    r.map(|_| vm.stdout().to_owned()).map_err(|e| e.to_string())
}

fn verify(tr: &Shared, v: &Verifier, stdout: &str, parent: u64) -> Result<(), String> {
    let _s = open(tr, "core.verify", parent);
    tr.borrow_mut().counts.verify_checks += 1;
    v.check(stdout).map_err(|m| m.to_string())
}

/// Executable-cache key of a module text, hashed as the driver hashes
/// it (a salted `DefaultHasher` pass).
fn text_hash(salt: u64, text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    text.hash(&mut h);
    h.finish()
}

/// The probe loop's [`Prober`]: compile, hash the printed module as the
/// executable-cache key, then run and verify on a miss.
struct BenchProber<'a> {
    tr: &'a Shared,
    case: &'a TestCase,
    verifier: Verifier,
    /// Executable hash → (verdict, unique count when first cached).
    exe: HashMap<u64, (bool, u64)>,
    case_span: u64,
    max_tests: u64,
}

impl Prober for BenchProber<'_> {
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
        let span = open(self.tr, "probe", self.case_span);
        let id = span.id();
        // The driver digests the decision vector twice per probe.
        for salt in 0..2 {
            black_box(text_hash(salt, &d.render()));
        }
        {
            let mut t = self.tr.borrow_mut();
            t.counts.probes += 1;
            t.counts.compiles += 1;
        }
        let (module, oraql) = compile(self.tr, self.case, Some(d), id);
        let unique = oraql.map_or(0, |s| s.lock().stats.unique());
        let key = {
            let _s = open(self.tr, "ir.print_hash", id);
            let text = module_str(&module);
            self.tr.borrow_mut().counts.print_bytes += text.len() as u64;
            // The case-salted key and the cross-case content key.
            black_box(text_hash(1, &text));
            text_hash(0, &text)
        };
        if let Some(&(pass, first_unique)) = self.exe.get(&key) {
            self.tr.borrow_mut().counts.tests_cached += 1;
            // Jobs 1 reports the count recorded when the verdict was
            // first cached.
            return ProbeOutcome {
                pass,
                unique: first_unique,
            };
        }
        self.tr.borrow_mut().counts.tests_run += 1;
        let pass = match run_vm(self.tr, &module, self.case.fuel, id) {
            Ok(out) => verify(self.tr, &self.verifier, &out, id).is_ok(),
            Err(_) => false,
        };
        self.exe.insert(key, (pass, unique));
        ProbeOutcome { pass, unique }
    }

    fn budget_exceeded(&self) -> bool {
        self.tr.borrow().counts.tests_run >= self.max_tests
    }

    fn note_deduced(&mut self) {
        self.tr.borrow_mut().counts.deduced += 1;
    }
}

/// What the traced loop concluded for one case.
pub struct CaseTrace {
    pub name: String,
    pub decisions: Decisions,
    pub final_module: Option<Module>,
    /// Why the loop could not finish the case.
    pub error: Option<String>,
    pub counts: Counts,
}

impl CaseTrace {
    /// A case the loop could not start.
    pub fn failed(case: &TestCase, why: &str) -> CaseTrace {
        CaseTrace {
            name: case.name.clone(),
            decisions: Decisions::all_pessimistic(),
            final_module: None,
            error: Some(why.to_owned()),
            counts: Counts::default(),
        }
    }
}

/// Baseline compile, run and reference: the verifier of the probes.
fn baseline(tr: &Shared, case: &TestCase, case_span: u64) -> Result<Verifier, String> {
    let s = open(tr, "baseline", case_span);
    let (m, _) = compile(tr, case, None, s.id());
    let out = run_vm(tr, &m, case.fuel, s.id()).map_err(|e| format!("baseline run: {e}"))?;
    let mut refs = vec![out.clone()];
    refs.extend(case.extra_references.iter().cloned());
    let v = Verifier::new(refs, &case.ignore_patterns);
    verify(tr, &v, &out, s.id()).map_err(|e| format!("baseline: {e}"))?;
    Ok(v)
}

/// Final compile, run and verification under `decisions`.
fn finish(
    tr: &Shared,
    case: &TestCase,
    v: &Verifier,
    decisions: &Decisions,
    case_span: u64,
) -> Result<Module, String> {
    let s = open(tr, "final", case_span);
    let (m, _) = compile(tr, case, Some(decisions), s.id());
    let out = run_vm(tr, &m, case.fuel, s.id()).map_err(|e| format!("final run: {e}"))?;
    verify(tr, v, &out, s.id()).map_err(|e| format!("final: {e}"))?;
    Ok(m)
}

fn traced(
    tr: &Shared,
    case: &TestCase,
    round_span: u64,
    drive: impl FnOnce(u64) -> Result<(Decisions, Module), String>,
) -> CaseTrace {
    {
        let mut t = tr.borrow_mut();
        t.case = case.name.clone();
        t.counts = Counts::default();
    }
    let case_span = open(tr, "case", round_span);
    let result = drive(case_span.id());
    drop(case_span);
    let counts = std::mem::take(&mut tr.borrow_mut().counts);
    match result {
        Ok((decisions, m)) => CaseTrace {
            name: case.name.clone(),
            decisions,
            final_module: Some(m),
            error: None,
            counts,
        },
        Err(e) => CaseTrace {
            counts,
            ..CaseTrace::failed(case, &e)
        },
    }
}

/// Drives one case through the probe loop under `round_span`.
pub fn trace_case(tr: &Shared, case: &TestCase, round_span: u64) -> CaseTrace {
    traced(tr, case, round_span, |case_span| {
        let verifier = baseline(tr, case, case_span)?;
        let defaults = DriverOptions::default();
        let mut prober = BenchProber {
            tr,
            case,
            verifier,
            exe: HashMap::new(),
            case_span,
            max_tests: defaults.max_tests,
        };
        let all = Decisions::all_optimistic();
        let decisions = if prober.probe(&all).pass {
            all
        } else {
            defaults.strategy.solve(&mut prober)
        };
        let m = finish(tr, case, &prober.verifier, &decisions, case_span)?;
        Ok((decisions, m))
    })
}

/// Replays one `served_warm` case: the baseline, then every server-hit
/// probe of the driver's untraced round (`events`, the case's trace
/// events) as a server read plus a local journal append, one journal
/// sync, and the final compile under the driver's decisions. Probes the
/// round's own journal answered are counted, not replayed.
pub fn trace_served_case(
    tr: &Shared,
    case: &TestCase,
    events: &[&ProbeEvent],
    r: &DriverResult,
    client: &Client,
    store: &Store,
    round_span: u64,
) -> CaseTrace {
    traced(tr, case, round_span, |case_span| {
        let verifier = baseline(tr, case, case_span)?;
        let (mut server_hits, mut store_hits) = (0, 0);
        for ev in events {
            match ev.kind {
                ProbeKind::Deduced => {
                    tr.borrow_mut().counts.deduced += 1;
                    continue;
                }
                // A repeated probe the round's own journal answered: no
                // server call to replay.
                ProbeKind::StoreHit => {
                    tr.borrow_mut().counts.probes += 1;
                    store_hits += 1;
                    continue;
                }
                ProbeKind::ServerHit => server_hits += 1,
                other => return Err(format!("probe answered by {}, not a tier", other.as_str())),
            }
            let probe = open(tr, "probe", case_span);
            tr.borrow_mut().counts.probes += 1;
            let got = {
                let _s = open(tr, "served.get", probe.id());
                let started = Instant::now();
                let got = client.get_dec(ev.digest);
                tr.borrow_mut().counts.get_us.push(micros(started));
                got
            };
            if !matches!(got, Ok(Some((pass, unique))) if pass == ev.pass && unique == ev.unique) {
                return Err(format!("server replay of {:#x}: {got:?}", ev.digest));
            }
            let _s = open(tr, "store.append", probe.id());
            let started = Instant::now();
            store
                .record_dec(ev.digest, ev.pass, ev.unique)
                .map_err(|e| format!("journal append: {e}"))?;
            tr.borrow_mut().counts.append_us.push(micros(started));
        }
        {
            let _s = open(tr, "store.sync", case_span);
            store.sync().map_err(|e| format!("journal sync: {e}"))?;
            tr.borrow_mut().counts.syncs += 1;
        }
        let driver = (r.effort.tests_server, r.effort.tests_dec_cached);
        if (server_hits, store_hits) != driver {
            return Err(format!(
                "server/journal hits ({server_hits}, {store_hits}) vs driver {driver:?}"
            ));
        }
        let m = finish(tr, case, &verifier, &r.decisions, case_span)?;
        Ok((r.decisions.clone(), m))
    })
}

fn micros(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

/// The fidelity gate: the loop must reproduce the driver's final
/// decisions, its compile/run/cached/deduced counts and its final
/// module text.
pub fn fidelity(t: &CaseTrace, r: &DriverResult) -> Result<(), String> {
    if let Some(e) = &t.error {
        return Err(e.clone());
    }
    if t.decisions != r.decisions {
        return Err(format!(
            "final decisions {} vs driver {}",
            t.decisions.render(),
            r.decisions.render()
        ));
    }
    let c = &t.counts;
    let e = &r.effort;
    let mine = (c.compiles, c.tests_run, c.tests_cached, c.deduced);
    let driver = (e.compiles, e.tests_run, e.tests_cached, e.tests_deduced);
    if mine != driver {
        return Err(format!(
            "compile/run/cached/deduced {mine:?} vs driver {driver:?}"
        ));
    }
    let text = t.final_module.as_ref().map(module_str);
    if text.as_deref() != Some(module_str(&r.final_module).as_str()) {
        return Err("final module text differs from the driver's".into());
    }
    Ok(())
}

/// Self time per span name, from the repo's own profile.
pub fn self_micros(events: &[SpanEvent]) -> HashMap<String, u64> {
    span_profile(events)
        .into_iter()
        .map(
            |SpanProfileRow {
                 name, self_micros, ..
             }| (name, self_micros),
        )
        .collect()
}

/// `(round time, sum of every span's self time)`, both in microseconds:
/// the self times of all layers plus the strategy remainder add up to
/// the traced rounds' time.
pub fn attribution(events: &[SpanEvent]) -> (u64, u64) {
    let rounds = events
        .iter()
        .filter(|e| e.name == "round")
        .map(|e| e.dur_micros)
        .sum();
    (rounds, self_micros(events).values().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Corpus, Workload};
    use oraql::{run_suite, Driver};

    fn traced_round(cases: &[TestCase]) -> (Vec<CaseTrace>, Vec<SpanEvent>) {
        let tr = Tracer::new();
        let round = open(&tr, "round", 0);
        let traces = cases
            .iter()
            .map(|c| trace_case(&tr, c, round.id()))
            .collect();
        drop(round);
        let events = tr.borrow().events();
        (traces, events)
    }

    fn assert_faithful(cases: &[TestCase]) {
        let driver = run_suite(cases, &DriverOptions::default());
        let (traces, _) = traced_round(cases);
        for (t, r) in traces.iter().zip(&driver) {
            let r = r.as_ref().expect("driver result");
            fidelity(t, r).unwrap_or_else(|e| panic!("{}: {e}", t.name));
        }
    }

    /// The loop reproduces `Driver::run` on all 16 configurations.
    #[test]
    fn loop_reproduces_the_driver_on_the_paper_configs() {
        assert_faithful(&oraql_workloads::all_cases());
    }

    /// ... and on a small seeded gen corpus.
    #[test]
    fn loop_reproduces_the_driver_on_a_gen_corpus() {
        let corpus = Corpus::build_with(Workload::GenJ2, 11, 24).expect("corpus");
        assert_faithful(&corpus.cases);
    }

    /// A loop result that differs from the driver fails the gate.
    #[test]
    fn fidelity_gate_rejects_a_different_result() {
        let cases: Vec<TestCase> = oraql_workloads::all_cases()
            .into_iter()
            .filter(|c| c.name == "testsnap_omp")
            .collect();
        let r = Driver::run(&cases[0], DriverOptions::default()).expect("driver");
        let (mut traces, _) = traced_round(&cases);
        let t = &mut traces[0];
        assert!(fidelity(t, &r).is_ok());
        t.counts.tests_cached += 1;
        assert!(fidelity(t, &r).is_err());
        t.counts.tests_cached -= 1;
        t.decisions = Decisions::all_pessimistic();
        assert!(fidelity(t, &r).is_err());
    }

    /// A pass's self time excludes the analysis time accumulated on it,
    /// and the self times of every span add up to the round.
    #[test]
    fn self_times_exclude_aa_and_add_up_to_the_round() {
        let cases: Vec<TestCase> = oraql_workloads::all_cases()
            .into_iter()
            .filter(|c| c.name == "xsbench" || c.name == "testsnap_omp")
            .collect();
        let (traces, events) = traced_round(&cases);
        let profile = span_profile(&events);
        let row = |n: &str| profile.iter().find(|r| r.name == n).cloned();
        let mut counts = Counts::default();
        for t in &traces {
            counts.absorb(&t.counts);
        }
        for (slot, name) in SLOT_SPANS.iter().enumerate() {
            let Some(row) = row(name) else { continue };
            let aa_micros = counts.slot_aa_ns[slot] as f64 / 1e3;
            let excluded = (row.total_micros - row.self_micros) as f64;
            // Children of a pass span are exactly its aggregate analysis
            // spans, each rounded to the microsecond.
            let slack = 5.0 * row.count as f64;
            assert!(
                (excluded - aa_micros).abs() <= slack,
                "{name}: excluded {excluded} µs vs analysis time {aa_micros} µs"
            );
        }
        let memssa = row("passes.memssa_prime").expect("MemorySSA span");
        assert!(
            memssa.total_micros > memssa.self_micros,
            "no analysis time on MemorySSA"
        );
        assert!(counts.slot_aa_ns[0] > 0 && counts.slot_queries[0] > 0);

        let (round, attributed) = attribution(&events);
        let diff = round.abs_diff(attributed) as f64;
        assert!(
            diff <= 0.005 * round as f64,
            "self times {attributed} µs vs round {round} µs"
        );
        let strategy: u64 = STRATEGY_SPANS
            .iter()
            .filter_map(|n| row(n).map(|r| r.self_micros))
            .sum();
        assert!(strategy > 0 && strategy < round);
    }
}
