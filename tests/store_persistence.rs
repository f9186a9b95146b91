//! Cross-run persistence via the `oraql-store` verdict journal: warm
//! runs must replay cold runs exactly, crash-truncated journals must
//! recover cleanly, and one store must be shareable across a whole
//! suite.

use std::path::PathBuf;
use std::sync::Arc;

use oraql::faults::Rate;
use oraql::{
    Driver, DriverOptions, DriverResult, FaultInjector, FaultPlan, FaultSite, Scope, Store,
    TestCase,
};
use oraql_ir::builder::FunctionBuilder;
use oraql_ir::{Module, Ty, Value};
use oraql_workloads as workloads;

/// Fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("oraql_store_it_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn journal(&self) -> PathBuf {
        self.0.join("verdicts.journal")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_with_store(name: &str, store: &Arc<Store>) -> DriverResult {
    run_case(&workloads::find_case(name).expect(name), Some(store))
}

/// Runs `case` on `store` (`None`: no store).
fn run_case(case: &TestCase, store: Option<&Arc<Store>>) -> DriverResult {
    Driver::run(
        case,
        DriverOptions {
            store: store.cloned(),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: {e}", case.name))
}

fn assert_same_result(name: &str, cold: &DriverResult, warm: &DriverResult) {
    assert_eq!(cold.decisions, warm.decisions, "{name}");
    assert_eq!(cold.fully_optimistic, warm.fully_optimistic, "{name}");
    assert_eq!(cold.oraql, warm.oraql, "{name}");
    assert_eq!(cold.no_alias_original, warm.no_alias_original, "{name}");
    assert_eq!(cold.no_alias_oraql, warm.no_alias_oraql, "{name}");
    assert_eq!(cold.final_run.stdout, warm.final_run.stdout, "{name}");
}

/// A warm run over a populated store answers every probe from the
/// persistent decisions-digest tier — no compiles, no tests — and
/// produces byte-identical driver results.
#[test]
fn warm_run_is_deterministic_and_compile_free() {
    let scratch = Scratch::new("warm");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let cold = run_with_store("testsnap_omp", &store);
    assert!(!cold.fully_optimistic);
    assert!(cold.effort.tests_run > 0);
    assert!(store.stats().appends > 0);
    store.sync().unwrap();
    drop(store);

    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    assert!(store.stats().recovered > 0);
    let warm = run_with_store("testsnap_omp", &store);
    assert_same_result("testsnap_omp", &cold, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
    assert_eq!(warm.effort.compiles, 0, "{:?}", warm.effort);
    assert!(warm.effort.tests_dec_cached > 0, "{:?}", warm.effort);
    assert!(store.stats().dec_hits > 0, "{:?}", store.stats());
}

/// Kill-mid-write: truncating the journal at an arbitrary byte (as a
/// crash during an append would) must leave a store that reopens
/// cleanly, and a re-run over the partial store converges to the same
/// result as the original run.
#[test]
fn truncated_journal_recovers_and_rerun_converges() {
    let scratch = Scratch::new("torn");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let cold = run_with_store("xsbench", &store);
    store.sync().unwrap();
    drop(store);

    // Chop the file mid-record: everything after the torn point is a
    // crash artifact the next open must drop without panicking.
    let len = std::fs::metadata(scratch.journal()).unwrap().len();
    assert!(len > 40, "journal unexpectedly small: {len}");
    let torn = len - len / 3 - 7;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(scratch.journal())
        .unwrap();
    f.set_len(torn).unwrap();
    drop(f);

    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let stats = store.stats();
    assert!(stats.dropped_torn > 0 || stats.recovered > 0, "{stats:?}");
    let rerun = run_with_store("xsbench", &store);
    assert_same_result("xsbench", &cold, &rerun);
    store.sync().unwrap();
    drop(store);

    // After the healing re-run the journal is whole again: a final warm
    // pass is fully answered from the store.
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let warm = run_with_store("xsbench", &store);
    assert_same_result("xsbench", &cold, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
}

/// One store handle serves a whole suite of cases: keys are salted per
/// case, so verdicts never bleed between benchmarks, and the warm pass
/// over the same suite runs compile-free.
#[test]
fn one_store_serves_a_suite_of_cases() {
    let names = ["testsnap", "testsnap_omp", "gridmini"];
    let scratch = Scratch::new("suite");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let cold: Vec<DriverResult> = names.iter().map(|n| run_with_store(n, &store)).collect();
    store.sync().unwrap();
    drop(store);

    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    for (name, cold) in names.iter().zip(&cold) {
        let warm = run_with_store(name, &store);
        assert_same_result(name, cold, &warm);
        assert_eq!(warm.effort.tests_run, 0, "{name}: {:?}", warm.effort);
    }
    assert!(store.stats().dec_hits > 0);
    assert_eq!(store.stats().misses, 0, "{:?}", store.stats());
}

/// Silent disk rot under a live suite: mid-suite, a handle whose
/// every append fires `store-write-bitflip` writes the journal with one
/// payload bit flipped per frame. The writing process never notices
/// (in-memory maps are fine); the *next* open must checksum-skip
/// exactly the rotten records without panicking, keep the clean ones,
/// and a healing re-run converges.
#[test]
fn bitflipped_journal_mid_suite_heals_on_rerun() {
    let scratch = Scratch::new("bitflip");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let clean = run_with_store("testsnap", &store);
    store.sync().unwrap();
    drop(store);

    let faults = Arc::new(FaultInjector::new(
        FaultPlan::quiet(1).with_rate(FaultSite::StoreWriteBitFlip, Rate::always()),
    ));
    let store = Store::open(scratch.journal()).unwrap();
    let store = Arc::new(store.with_faults(Some(Arc::clone(&faults))));
    let rotten = run_with_store("gridmini", &store);
    let flipped = faults.fired(FaultSite::StoreWriteBitFlip);
    assert!(flipped > 0, "{:?}", store.stats());
    assert_eq!(flipped, store.stats().appends, "every append is rotten");
    store.sync().unwrap();
    drop(store);

    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let stats = store.stats();
    assert_eq!(stats.dropped_corrupt, flipped, "{stats:?}");
    assert!(stats.recovered > 0, "{stats:?}");

    // The case recorded before the rot is still fully store-served…
    let warm = run_with_store("testsnap", &store);
    assert_same_result("testsnap", &clean, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);

    // …and the rotten case recomputes its lost verdicts and converges.
    let healed = run_with_store("gridmini", &store);
    assert_same_result("gridmini", &rotten, &healed);
    // The rotten frames stay in the append-only journal until a
    // compaction scrubs them.
    store.compact().unwrap();
    store.sync().unwrap();
    drop(store);

    // After healing + compaction everything is clean and warm.
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    assert_eq!(store.stats().dropped_corrupt, 0, "{:?}", store.stats());
    let warm = run_with_store("gridmini", &store);
    assert_same_result("gridmini", &rotten, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
}

/// Compaction over a driver-populated journal preserves every verdict:
/// the warm run over the compacted store is still compile-free and
/// byte-identical.
#[test]
fn compaction_preserves_driver_verdicts() {
    let scratch = Scratch::new("compact");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let cold = run_with_store("testsnap_omp", &store);
    store.sync().unwrap();
    let before = std::fs::metadata(scratch.journal()).unwrap().len();
    let c = store.compact().unwrap();
    assert!(c.records > 0);
    assert!(c.bytes_after <= before);
    drop(store);

    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    assert_eq!(store.stats().dropped_corrupt, 0);
    assert_eq!(store.stats().dropped_torn, 0);
    let warm = run_with_store("testsnap_omp", &store);
    assert_same_result("testsnap_omp", &cold, &warm);
    assert_eq!(warm.effort.tests_run, 0, "{:?}", warm.effort);
}

/// The store keys cover the ORAQL scope: a warm store filled by the
/// whole-program run of a case must not answer the probes of the same
/// case scoped to a file it does not have.
#[test]
fn warm_store_does_not_answer_another_scope() {
    let scratch = Scratch::new("scope");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let whole = run_with_store("testsnap_omp", &store);
    assert!(!whole.fully_optimistic);

    let mut narrow = workloads::find_case("testsnap_omp").unwrap();
    narrow.scope = Scope::files(vec!["nosuch.cpp".into()]);
    let cold = run_case(&narrow, None);
    assert!(cold.fully_optimistic);
    let warm = run_case(&narrow, Some(&store));
    assert_same_result("narrow scope", &cold, &warm);
}

/// Two builders under one case name whose baselines print the same
/// line: `work(p, q)` prints `*p` read before and after a store of 100
/// through `q`. The first passes distinct cells holding 60 (`60 + 60`),
/// the second one cell holding 20 twice (`20 + 100`), so only the
/// second needs a pessimistic answer.
fn twin(aliased: bool) -> TestCase {
    TestCase::new("twin", move || {
        let mut m = Module::new("twin");
        let work = {
            let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
            let (p, q) = (b.arg(0), b.arg(1));
            let before = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(100), q);
            let after = b.load(Ty::I64, p);
            let sum = b.add(before, after);
            b.print("{}", vec![sum]);
            b.ret(None);
            b.finish()
        };
        let cells = m.add_global("cells", 16, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let p = b.gep(Value::Global(cells), 0);
        let q = if aliased {
            p
        } else {
            b.gep(Value::Global(cells), 8)
        };
        b.store(Ty::I64, Value::ConstInt(if aliased { 20 } else { 60 }), p);
        b.call(work, vec![p, q], None);
        b.ret(None);
        b.finish();
        m
    })
}

/// The store keys cover the program: a verdict of one builder must not
/// answer a probe of another under the same case name and references.
#[test]
fn warm_store_does_not_answer_another_program() {
    let scratch = Scratch::new("twins");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let apart = run_case(&twin(false), Some(&store));
    let cold = run_case(&twin(true), None);
    assert_eq!(apart.baseline_run.stdout, cold.baseline_run.stdout);
    assert!(apart.fully_optimistic);
    assert!(!cold.fully_optimistic);
    let warm = run_case(&twin(true), Some(&store));
    assert_same_result("aliased twin", &cold, &warm);
}

/// One program under `files = a.c`, with `work(p, p)` compiled from
/// `file`: it prints `*p` read before and after a store of 100 through
/// its alias (`20 + 100`). In `b.c` ORAQL never answers for it; in
/// `a.c` the all-optimistic probe forwards the first load (`20 + 20`).
/// The printed modules are equal, the source files are not.
fn file_twin(file: &'static str) -> TestCase {
    let mut case = TestCase::new("file twin", move || {
        let mut m = Module::new("file_twin");
        let work = {
            let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
            b.set_src_file(file);
            let (p, q) = (b.arg(0), b.arg(1));
            let before = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(100), q);
            let after = b.load(Ty::I64, p);
            let sum = b.add(before, after);
            b.print("{}", vec![sum]);
            b.ret(None);
            b.finish()
        };
        let cell = m.add_global("cell", 8, vec![20], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.set_src_file("main.c");
        b.call(work, vec![Value::Global(cell), Value::Global(cell)], None);
        b.ret(None);
        b.finish();
        m
    });
    case.scope = Scope::files(vec!["a.c".into()]);
    case
}

/// The store keys cover each function's source file: a verdict of the
/// program with `work` out of scope must not answer a probe of the one
/// with `work` in scope.
#[test]
fn warm_store_does_not_answer_another_source_file() {
    let scratch = Scratch::new("files");
    let store = Arc::new(Store::open(scratch.journal()).unwrap());
    let outside = run_case(&file_twin("b.c"), Some(&store));
    let cold = run_case(&file_twin("a.c"), None);
    assert_eq!(outside.baseline_run.stdout, "120\n");
    assert_eq!(cold.baseline_run.stdout, "120\n");
    assert!(outside.fully_optimistic);
    assert!(!cold.fully_optimistic);
    let warm = run_case(&file_twin("a.c"), Some(&store));
    assert_same_result("work in scope", &cold, &warm);
}
