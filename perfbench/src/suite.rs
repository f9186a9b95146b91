//! The three workloads: their set-up, one untraced round each, and the
//! checks that turn every case verdict into a passed or failed
//! operation.
//!
//! Every check compares against something the compiler under test did
//! not produce: the output of the *unoptimized* module on the tree-walk
//! interpreter (set-up), a golden Fig. 4 row pinned from an earlier
//! commit, the generator's by-construction labels, or the first
//! round's decisions.

use crate::pace::{Pace, Spent};
use oraql::driver::{DriverError, DriverResult};
use oraql::trace::{ProbeEvent, TraceSink};
use oraql::{run_suite, Decisions, DriverOptions, GroundTruth, Store, TestCase, Verifier};
use oraql_gen::{GenPlan, Motif};
use oraql_obs::rng::{splitmix64, Gen};
use oraql_served::{Client, ClientStats, Server, ServerOptions};
use oraql_vm::{InterpMode, Interpreter};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cases in a `gen_j2` corpus (a fifth per motif family): a round takes
/// a third of a `paper_cold` round, so a run holds tens of rounds.
pub const GEN_CASES: u32 = 400;

/// Fig. 4 rows and final sequences of the 16 configurations, pinned
/// from a `--jobs 1` run (regenerate with `perfbench --print-golden`).
const GOLDEN: &str = include_str!("../golden/fig4.txt");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16 Fig. 4 configurations, jobs 1, fresh verdict state.
    PaperCold,
    /// A seeded `oraql-gen` corpus through `run_suite` at jobs 2 with
    /// the soundness gate armed.
    GenJ2,
    /// The 16 configurations answered by a warm verdict server.
    ServedWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperCold, Workload::GenJ2, Workload::ServedWarm];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::GenJ2 => "gen_j2",
            Workload::ServedWarm => "served_warm",
        }
    }

    /// Probe jobs of an untraced round.
    pub fn jobs(self) -> usize {
        match self {
            Workload::GenJ2 => 2,
            Workload::PaperCold | Workload::ServedWarm => 1,
        }
    }

    /// Driver options of an untraced round (the server and store tiers
    /// are attached per round by [`run_round`]).
    fn options(self, corpus: &Corpus) -> DriverOptions {
        DriverOptions {
            jobs: self.jobs(),
            ground_truth: corpus.truth.clone(),
            ..DriverOptions::default()
        }
    }
}

/// The `oraql-gen` plans of a `gen_j2` corpus: one plan per motif family,
/// each with an equal share of `cases` and a seed derived from the
/// benchmark's. Equal shares keep the corpus's work steady from seed to
/// seed (a plan that samples the families per case varied twice as
/// much in compiled queries across seeds).
pub fn gen_plans(seed: u64, cases: u32) -> Vec<GenPlan> {
    Motif::ALL
        .iter()
        .zip(0..)
        .map(|(&motif, k)| GenPlan {
            seed: splitmix64(seed ^ k),
            cases: (cases / Motif::ALL.len() as u32).max(1),
            motifs: vec![motif],
            per_case: 3,
        })
        .collect()
}

/// What the checks know about one case, fixed at set-up.
pub struct CaseMeta {
    /// Position in the set-up order (the digest order).
    pub index: usize,
    /// Accepts the output of the unoptimized module on the tree-walk
    /// interpreter, plus the case's own extra references.
    pub reference: Verifier,
    /// The pinned `golden_line` of a Fig. 4 configuration.
    pub golden: Option<String>,
}

/// A workload's cases and everything its checks need.
pub struct Corpus {
    /// The cases, in the current round's order.
    pub cases: Vec<TestCase>,
    pub meta: HashMap<String, CaseMeta>,
    /// Merged ground-truth labels (`gen_j2` only).
    pub truth: Option<Arc<GroundTruth>>,
    /// Time to generate the corpus and its labels (`gen_j2` only).
    pub generate_ms: f64,
    /// Time to build and run every unoptimized module on the tree-walk
    /// interpreter.
    pub reference_ms: f64,
}

impl Corpus {
    /// Builds the workload's cases, labels and references.
    pub fn build(w: Workload, seed: u64) -> Result<Corpus, String> {
        Corpus::build_with(w, seed, GEN_CASES)
    }

    /// [`Corpus::build`] with an explicit gen corpus size (tests use
    /// small corpora).
    pub fn build_with(w: Workload, seed: u64, gen_cases: u32) -> Result<Corpus, String> {
        let started = Instant::now();
        let (cases, truth) = match w {
            Workload::GenJ2 => {
                let mut cases = Vec::new();
                let mut truth = GroundTruth::new();
                for plan in gen_plans(seed, gen_cases) {
                    let (c, t) = oraql_gen::suite(&plan);
                    cases.extend(c);
                    truth.merge(t);
                }
                (cases, Some(Arc::new(truth)))
            }
            Workload::PaperCold | Workload::ServedWarm => (oraql_workloads::all_cases(), None),
        };
        let generate_ms = match w {
            Workload::GenJ2 => started.elapsed().as_secs_f64() * 1e3,
            _ => 0.0,
        };
        let golden = match w {
            Workload::GenJ2 => HashMap::new(),
            _ => golden_rows(),
        };
        let started = Instant::now();
        let mut meta = HashMap::new();
        for (index, case) in cases.iter().enumerate() {
            let golden = match w {
                Workload::GenJ2 => None,
                _ => Some(
                    golden
                        .get(&case.name)
                        .cloned()
                        .ok_or_else(|| format!("{}: no golden row", case.name))?,
                ),
            };
            let reference = reference_verifier(case)?;
            meta.insert(
                case.name.clone(),
                CaseMeta {
                    index,
                    reference,
                    golden,
                },
            );
        }
        Ok(Corpus {
            cases,
            meta,
            truth,
            generate_ms,
            reference_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Puts the cases in round `round`'s seeded order.
    pub fn shuffle(&mut self, seed: u64, round: u64) {
        self.cases.sort_by_key(|c| self.meta[&c.name].index);
        Gen::new(splitmix64(seed) ^ round).shuffle(&mut self.cases);
    }

    pub fn meta(&self, case: &str) -> &CaseMeta {
        &self.meta[case]
    }
}

/// The independent oracle of one case: its unoptimized module, run on
/// the reference tree-walk interpreter, plus the case's extra
/// references and ignore patterns.
pub fn reference_verifier(case: &TestCase) -> Result<Verifier, String> {
    let m = (case.build)();
    let main = m
        .find_func("main")
        .ok_or_else(|| format!("{}: module has no main", case.name))?;
    let mut vm = Interpreter::new(&m)
        .with_fuel(case.fuel)
        .with_mode(InterpMode::TreeWalk);
    vm.run(main, vec![])
        .map_err(|e| format!("{}: reference run failed: {e}", case.name))?;
    let mut refs = vec![vm.stdout().to_owned()];
    refs.extend(case.extra_references.iter().cloned());
    Ok(Verifier::new(refs, &case.ignore_patterns))
}

/// One case's Fig. 4 row and full final sequence on one line.
pub fn golden_line(r: &DriverResult) -> String {
    let o = &r.oraql;
    format!(
        "{} fully_optimistic={} opt={}/{} pess={}/{} no_alias={}->{} seq={}",
        r.name,
        r.fully_optimistic,
        o.unique_optimistic,
        o.cached_optimistic,
        o.unique_pessimistic,
        o.cached_pessimistic,
        r.no_alias_original,
        r.no_alias_oraql,
        r.decisions.render()
    )
}

fn golden_rows() -> HashMap<String, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| Some((l.split_whitespace().next()?.to_owned(), l.to_owned())))
        .collect()
}

/// The checks every workload applies to one verdict: the driver
/// succeeded, the final output passes the set-up reference, and a
/// Fig. 4 configuration reproduces its golden row.
pub fn check_verdict<'r>(
    meta: &CaseMeta,
    r: &'r Result<DriverResult, DriverError>,
) -> Result<&'r DriverResult, String> {
    let r = r.as_ref().map_err(|e| format!("driver error: {e}"))?;
    meta.reference
        .check(&r.final_run.stdout)
        .map_err(|m| format!("final output fails the reference: {m}"))?;
    if let Some(want) = &meta.golden {
        let got = golden_line(r);
        if &got != want {
            return Err(format!(
                "differs from the golden\n  want {want}\n  got  {got}"
            ));
        }
    }
    Ok(r)
}

/// A live verdict server with its own journal directory.
pub struct Daemon {
    server: Option<Server>,
    dir: PathBuf,
    pub addr: String,
    /// PUTs the cold population issued.
    pub puts: u64,
}

impl Daemon {
    /// Starts a daemon on an ephemeral localhost port over a fresh
    /// journal directory.
    pub fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(&ServerOptions::new(&dir), "127.0.0.1:0")
            .map_err(|e| format!("cannot start the verdict server: {e}"))?;
        Ok(Daemon {
            addr: server.addr(),
            server: Some(server),
            dir,
            puts: 0,
        })
    }

    /// Cold-populates the daemon through the driver's write-through:
    /// one jobs-1 suite run with the server tier attached, timed case by
    /// case into `spent`.
    pub fn populate(
        &mut self,
        corpus: &Corpus,
        pace: &mut Pace,
        spent: &mut Spent,
    ) -> Vec<Result<DriverResult, DriverError>> {
        let client = Arc::new(Client::new(&self.addr));
        let opts = DriverOptions {
            server: Some(Arc::clone(&client)),
            ..DriverOptions::default()
        };
        let results = corpus
            .cases
            .iter()
            .map(|case| pace.time(spent, || only(run_suite(std::slice::from_ref(case), &opts))))
            .collect();
        self.puts = client.stats().appends;
        results
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything one untraced round produced.
pub struct Round {
    /// Wall time of the round.
    pub spent: Spent,
    /// One verdict per case, aligned with `Corpus::cases`.
    pub results: Vec<Result<DriverResult, DriverError>>,
    /// `served_warm`: per-case `(lookups, hits)` of the round's client.
    pub lookups: Vec<(u64, u64)>,
    /// `served_warm`: the round's client counters.
    pub client: ClientStats,
    /// `served_warm`: local journal appends of the round.
    pub appends: u64,
    /// Probe events, when the round was asked to capture them.
    pub events: Vec<ProbeEvent>,
}

fn only(mut results: Vec<Result<DriverResult, DriverError>>) -> Result<DriverResult, DriverError> {
    results
        .pop()
        .unwrap_or_else(|| Err(DriverError::Internal("suite returned no result".into())))
}

/// Runs one untraced round over the corpus in its current order.
///
/// `paper_cold` is paced case by case (its round is long enough for the
/// machine's speed to change within it), the others round by round.
/// `served_warm` replays from a fresh client and a fresh, empty local
/// journal under `scratch`.
pub fn run_round(
    w: Workload,
    corpus: &Corpus,
    daemon: Option<&Daemon>,
    scratch: &Path,
    capture_events: bool,
    pace: &mut Pace,
) -> Result<Round, String> {
    let mut opts = w.options(corpus);
    let sink = capture_events.then(TraceSink::in_memory);
    opts.trace = sink.clone();
    let mut round = Round {
        spent: Spent::default(),
        results: Vec::new(),
        lookups: Vec::new(),
        client: ClientStats::default(),
        appends: 0,
        events: Vec::new(),
    };
    match w {
        Workload::PaperCold => {
            for case in &corpus.cases {
                let r = pace.time(&mut round.spent, || {
                    only(run_suite(std::slice::from_ref(case), &opts))
                });
                round.results.push(r);
            }
        }
        Workload::GenJ2 => {
            round.results = pace.time(&mut round.spent, || run_suite(&corpus.cases, &opts));
        }
        Workload::ServedWarm => {
            let daemon = daemon.ok_or("served_warm needs a daemon")?;
            let journal = scratch.join("round.journal");
            let _ = std::fs::remove_file(&journal);
            let mut spent = Spent::default();
            let store = pace.time(&mut spent, || -> Result<Arc<Store>, String> {
                let store =
                    Arc::new(Store::open(&journal).map_err(|e| format!("local journal: {e}"))?);
                let client = Arc::new(Client::new(&daemon.addr));
                opts.store = Some(Arc::clone(&store));
                opts.server = Some(Arc::clone(&client));
                for case in &corpus.cases {
                    let before = client.stats();
                    let r = only(run_suite(std::slice::from_ref(case), &opts));
                    let after = client.stats();
                    round
                        .lookups
                        .push((after.lookups - before.lookups, after.hits - before.hits));
                    round.results.push(r);
                }
                round.client = client.stats();
                Ok(store)
            })?;
            round.spent = spent;
            round.appends = store.stats().appends;
            drop(opts);
            drop(store);
            let _ = std::fs::remove_file(&journal);
        }
    }
    if let Some(sink) = sink {
        round.events = sink.events();
    }
    Ok(round)
}

/// Checks every verdict of a round. Returns one message per failed
/// operation. `gen_j2` additionally needs each case's canonical final
/// decisions to equal those of the run's first round (`first`, filled
/// by the first call); `served_warm` needs zero probe compiles and
/// every server lookup answered.
pub fn check_round(
    w: Workload,
    corpus: &Corpus,
    round: &Round,
    first: &mut Option<HashMap<String, Decisions>>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut decisions = HashMap::new();
    for (k, (case, result)) in corpus.cases.iter().zip(&round.results).enumerate() {
        let verdict = check_verdict(corpus.meta(&case.name), result).and_then(|r| {
            match w {
                Workload::PaperCold => {}
                Workload::GenJ2 => {
                    if r.truth.is_none() {
                        return Err("soundness gate was not armed".into());
                    }
                    let d = r.decisions.canonical();
                    if let Some(want) = first.as_ref().and_then(|f| f.get(&case.name)) {
                        if *want != d {
                            return Err(format!(
                                "final decisions changed between rounds: {} vs {}",
                                want.render(),
                                d.render()
                            ));
                        }
                    }
                    decisions.insert(case.name.clone(), d);
                }
                Workload::ServedWarm => {
                    if r.effort.compiles != 0 {
                        return Err(format!(
                            "{} probe compiles on a warm server",
                            r.effort.compiles
                        ));
                    }
                    let (lookups, hits) = round.lookups.get(k).copied().unwrap_or_default();
                    if lookups != hits {
                        return Err(format!("{hits} server hits for {lookups} lookups"));
                    }
                    if !r.failures.is_quiet() {
                        return Err(format!("sandbox events: {:?}", r.failures));
                    }
                }
            }
            Ok(())
        });
        if let Err(e) = verdict {
            failures.push(format!("{}: {e}", case.name));
        }
    }
    if w == Workload::GenJ2 && first.is_none() {
        *first = Some(decisions);
    }
    failures
}

/// One digest of every case's canonical final decisions, in set-up
/// order, so runs with the same seed can be compared.
pub fn decisions_digest(corpus: &Corpus, round: &Round) -> u64 {
    let mut rows: Vec<(usize, String)> = corpus
        .cases
        .iter()
        .zip(&round.results)
        .map(|(case, r)| {
            let d = match r {
                Ok(r) => r.decisions.canonical().render(),
                Err(e) => format!("error: {e}"),
            };
            (corpus.meta(&case.name).index, d)
        })
        .collect();
    rows.sort();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn golden_covers_the_sixteen_configurations() {
        let rows = golden_rows();
        assert_eq!(rows.len(), 16);
        for info in &oraql_workloads::CASE_INFOS {
            assert!(rows.contains_key(info.name), "{}", info.name);
        }
    }

    /// A wrong verdict is a failed operation: a flipped golden entry
    /// and an output that does not match its reference both fail the
    /// check that passes on the real golden and reference.
    #[test]
    fn wrong_verdicts_are_failed_operations() {
        let mut corpus = Corpus::build(Workload::PaperCold, 1).expect("set-up");
        corpus.cases.retain(|c| c.name == "testsnap_omp");
        let round = run_round(
            Workload::PaperCold,
            &corpus,
            None,
            Path::new("."),
            false,
            &mut Pace::new(1),
        )
        .expect("round");
        assert!(check_round(Workload::PaperCold, &corpus, &round, &mut None).is_empty());

        let meta = corpus.meta.get_mut("testsnap_omp").expect("meta");
        let golden = meta.golden.clone().expect("golden row");
        let seq = golden.find("seq=").expect("sequence field") + 4;
        let zero = seq + golden[seq..].find('0').expect("a pessimistic decision");
        let mut flipped = golden.clone();
        flipped.replace_range(zero..=zero, "1");
        meta.golden = Some(flipped);
        let failed = check_round(Workload::PaperCold, &corpus, &round, &mut None);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("golden"), "{failed:?}");

        let meta = corpus.meta.get_mut("testsnap_omp").expect("meta");
        meta.golden = Some(golden);
        meta.reference = Verifier::exact("checksum = 0\n".into());
        let failed = check_round(Workload::PaperCold, &corpus, &round, &mut None);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("reference"), "{failed:?}");
    }

    /// Decisions that change between rounds of one `gen_j2` run fail
    /// the case.
    #[test]
    fn gen_decisions_must_repeat_across_rounds() {
        let corpus = Corpus::build_with(Workload::GenJ2, 3, 6).expect("set-up");
        let round = run_round(
            Workload::GenJ2,
            &corpus,
            None,
            Path::new("."),
            false,
            &mut Pace::new(2),
        )
        .expect("round");
        let mut first = None;
        assert!(check_round(Workload::GenJ2, &corpus, &round, &mut first).is_empty());
        assert!(check_round(Workload::GenJ2, &corpus, &round, &mut first).is_empty());
        let name = corpus.cases[0].name.clone();
        first
            .as_mut()
            .expect("first round recorded")
            .insert(name, Decisions::PessimisticClasses(vec![(1, 0)]));
        assert_eq!(
            check_round(Workload::GenJ2, &corpus, &round, &mut first).len(),
            1
        );
    }
}
