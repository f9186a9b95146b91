//! Reused CFG facts against fresh ones.
//!
//! The pass manager keeps one `FunctionFacts` per function for a whole
//! compile: the predecessor lists, reverse postorder and immediate
//! dominators GVN, LICM, loop deletion, the loop vectorizer, MemorySSA
//! and MachineSink read, and the loop forest once a pass asks for it.
//! The facts are rebuilt only when a function's terminators no longer
//! name the edges they were built from. This test wraps each of the 12
//! passes of the standard pipeline and checks, after every pass on every
//! function of the 16 workloads and of the CI smoke's `oraql-gen`
//! corpus, compiled both baseline and all-optimistic:
//!
//! - the kept facts equal fresh `cfg::predecessors`,
//!   `cfg::reverse_postorder` and `DomTree::build`;
//! - the kept loop forest equals a fresh `LoopForest::build`, and each
//!   loop's preheader is the unique outside predecessor of its header
//!   in a fresh predecessor map;
//! - each block's `cfg::successors` are its terminator's targets (one
//!   for a conditional branch whose two targets are equal, none for a
//!   return);
//! - every pass but loop deletion and the loop vectorizer, the two that
//!   edit edges, hands the next pass the very same facts;
//! - the checked compile prints exactly as `compile_pipeline`'s does.
//!
//! The baseline compile also checks each pass's output: after a pass's
//! last function, the module runs on the VM with the case's fuel, and
//! the case's verifier (the unoptimized module's output, the case's
//! extra references and its ignore patterns) must accept what it
//! prints. A failure names the first pass that broke the program.

use oraql::compile::{compile_pipeline, conservative_chain, CompileOptions, Reuse};
use oraql::pass::{new_shared_with, OraqlAA};
use oraql::{Decisions, TestCase, Verifier};
use oraql_analysis::domtree::DomTree;
use oraql_analysis::facts::{CfgFacts, FunctionFacts};
use oraql_analysis::loops::{Loop, LoopForest};
use oraql_gen::GenPlan;
use oraql_ir::builder::FunctionBuilder;
use oraql_ir::cfg;
use oraql_ir::inst::Inst;
use oraql_ir::module::{Function, FunctionId, Module};
use oraql_ir::printer::module_str;
use oraql_ir::types::Ty;
use oraql_ir::value::{BlockId, Value};
use oraql_passes::{standard_passes, Pass, PassCx, PassManager, Stats};
use oraql_vm::Interpreter;
use std::cell::RefCell;
use std::rc::Rc;

/// The passes that retarget or add edges.
const EDGE_EDITORS: [&str; 2] = ["loop deletion", "loop vectorizer"];

/// The targets the terminator of `bb` names, equal targets once.
fn terminator_targets(f: &Function, bb: BlockId) -> Vec<BlockId> {
    match f.terminator(bb).map(|t| f.inst(t)) {
        Some(Inst::Br { target }) => vec![*target],
        Some(Inst::CondBr {
            then_bb, else_bb, ..
        }) if then_bb == else_bb => vec![*then_bb],
        Some(Inst::CondBr {
            then_bb, else_bb, ..
        }) => vec![*then_bb, *else_bb],
        _ => vec![],
    }
}

/// The preheader from scratch: the single predecessor of the header
/// outside the loop, in a freshly computed predecessor map.
fn fresh_preheader(f: &Function, l: &Loop) -> Option<BlockId> {
    let preds = cfg::predecessors(f);
    let outside: Vec<BlockId> = preds[l.header.0 as usize]
        .iter()
        .copied()
        .filter(|p| !l.blocks.contains(p))
        .collect();
    match outside.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

/// What the checks saw.
#[derive(Default)]
struct Seen {
    /// The facts each function's last check got, by function index.
    kept: Vec<Option<Rc<CfgFacts>>>,
    /// The module being compiled (for messages).
    what: String,
    /// The case's verifier and fuel when each pass's output must run.
    run: Option<(Verifier, u64)>,
    checks: u64,
    vm_runs: u64,
    blocks: u64,
    loops: u64,
    preheaders: u64,
    rebuilds: u64,
}

/// Checks the facts `facts` keeps for `f` after `pass` ran on it.
fn check_facts(
    f: &Function,
    fid: FunctionId,
    facts: &mut FunctionFacts,
    pass: &str,
    seen: &mut Seen,
) {
    let what = format!("{} @{} after {pass}", seen.what, f.name);
    let kept = facts.cfg(f);
    for bi in 0..f.blocks().len() {
        let bb = BlockId(bi as u32);
        assert_eq!(
            &*cfg::successors(f, bb),
            terminator_targets(f, bb).as_slice(),
            "{what}: successors of bb{bi}"
        );
        seen.blocks += 1;
    }
    assert_eq!(
        kept.preds(),
        cfg::predecessors(f).as_slice(),
        "{what}: predecessors"
    );
    assert_eq!(
        kept.rpo(),
        cfg::reverse_postorder(f).as_slice(),
        "{what}: RPO"
    );
    let fresh = DomTree::build(f);
    for bi in 0..f.blocks().len() {
        let bb = BlockId(bi as u32);
        assert_eq!(kept.idom(bb), fresh.idom(bb), "{what}: idom of bb{bi}");
    }
    let forest = facts.loops(f);
    let fresh_forest = LoopForest::build(f, &fresh);
    assert_eq!(forest.loops, fresh_forest.loops, "{what}: loop forest");
    for l in &forest.loops {
        let pre = fresh_preheader(f, l);
        assert_eq!(forest.preheader(l), pre, "{what}: loop at bb{}", l.header.0);
        seen.loops += 1;
        seen.preheaders += u64::from(pre.is_some());
    }

    let slot = &mut seen.kept[fid.0 as usize];
    if let Some(prev) = slot.as_ref().filter(|prev| !Rc::ptr_eq(prev, &kept)) {
        assert!(
            EDGE_EDITORS.contains(&pass),
            "{what}: facts rebuilt after a pass that edits no edge"
        );
        assert!(!prev.matches(f), "{what}: facts rebuilt while still valid");
        seen.rebuilds += 1;
    }
    *slot = Some(kept);
    seen.checks += 1;
}

/// What `m`'s `main` prints, run with `fuel`.
fn stdout(m: &Module, fuel: u64) -> Result<String, String> {
    let main = m.find_func("main").ok_or("no main")?;
    let mut vm = Interpreter::new(m).with_fuel(fuel);
    vm.run(main, vec![]).map_err(|e| e.to_string())?;
    Ok(vm.stdout().to_owned())
}

/// Runs `m` after `pass` and checks its output against the case's
/// verifier.
fn check_output(m: &Module, pass: &str, seen: &mut Seen) {
    let Some((verifier, fuel)) = &seen.run else {
        return;
    };
    let what = format!("{} after {pass}", seen.what);
    let out = stdout(m, *fuel).unwrap_or_else(|e| panic!("{what}: the module fails: {e}"));
    if let Err(e) = verifier.check(&out) {
        panic!("{what}: the output does not verify: {e:?}");
    }
    seen.vm_runs += 1;
}

/// The case's verifier: the unoptimized module's output, the case's
/// extra references and its ignore patterns.
fn verifier(case: &TestCase) -> Verifier {
    let reference = stdout(&(case.build)(), case.fuel)
        .unwrap_or_else(|e| panic!("{}: the unoptimized module fails: {e}", case.name));
    let mut references = vec![reference];
    references.extend(case.extra_references.iter().cloned());
    Verifier::new(references, &case.ignore_patterns)
}

/// A pipeline pass followed by the checks.
struct Checked {
    inner: Box<dyn Pass>,
    seen: Rc<RefCell<Seen>>,
}

impl Pass for Checked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        self.inner.run(m, fid, cx);
        let mut seen = self.seen.borrow_mut();
        check_facts(m.func(fid), fid, cx.facts, self.inner.name(), &mut seen);
        if fid.0 as usize + 1 == m.funcs.len() {
            check_output(m, self.inner.name(), &mut seen);
        }
    }
}

/// Runs the standard pipeline with every pass checked over `module`,
/// under the conservative chain plus ORAQL when `decisions` is set:
/// the driver's baseline compile without, the case's ORAQL compile
/// options (CFL included when the case asks for it) with.
/// Returns the compiled module and the pass statistics.
fn checked_compile(
    mut module: Module,
    case: &TestCase,
    decisions: Option<&Decisions>,
    seen: &Rc<RefCell<Seen>>,
) -> (Module, Stats) {
    seen.borrow_mut().kept = vec![None; module.funcs.len()];
    let mut aa = conservative_chain(&module, decisions.is_some() && case.use_cfl);
    if let Some(d) = decisions {
        let shared = new_shared_with(d.clone(), case.scope.clone(), case.optimism);
        aa.add(Box::new(OraqlAA::new(shared)));
    }
    let passes = standard_passes()
        .into_iter()
        .map(|inner| {
            Box::new(Checked {
                inner,
                seen: Rc::clone(seen),
            }) as Box<dyn Pass>
        })
        .collect();
    let mut stats = Stats::new();
    PassManager::new(passes).run(&mut module, &mut aa, &mut stats);
    (module, stats)
}

/// Compiles each case baseline and all-optimistic with every pass
/// checked, and compares each result with `compile_pipeline`'s. The
/// baseline compile runs the module after every pass.
fn check_cases(cases: &[TestCase]) -> Seen {
    let seen = Rc::new(RefCell::new(Seen::default()));
    for case in cases {
        for decisions in [None, Some(Decisions::all_optimistic())] {
            seen.borrow_mut().run = decisions.is_none().then(|| (verifier(case), case.fuel));
            seen.borrow_mut().what = format!(
                "{} ({})",
                case.name,
                if decisions.is_some() {
                    "optimistic"
                } else {
                    "baseline"
                }
            );
            let (module, _) = checked_compile((case.build)(), case, decisions.as_ref(), &seen);
            let opts = decisions.map_or_else(CompileOptions::baseline, |d| case.oraql_options(d));
            assert_eq!(
                module_str(&module),
                module_str(&compile_pipeline(&Reuse::new((case.build)()), &opts).module),
                "{}: the checks changed the compile",
                seen.borrow().what
            );
        }
    }
    Rc::try_unwrap(seen).ok().expect("one owner").into_inner()
}

#[test]
fn reused_cfg_facts_equal_fresh_ones_on_the_workloads() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let seen = check_cases(&cases);
    // The checks saw what they check, edge edits included.
    assert!(seen.checks > 0 && seen.blocks > 0);
    assert_eq!(seen.vm_runs, 12 * 16, "one run per baseline pass");
    assert!(seen.loops > 0 && seen.preheaders > 0);
    assert!(seen.rebuilds > 0, "no pass edited an edge");
}

#[test]
fn reused_cfg_facts_equal_fresh_ones_on_the_gen_corpus() {
    let plan = GenPlan::parse("seed=2024,cases=64,per=3").expect("plan");
    let (cases, _) = oraql_gen::suite(&plan);
    assert_eq!(cases.len(), 64);
    let seen = check_cases(&cases);
    assert!(seen.checks > 0 && seen.loops > 0);
    assert_eq!(seen.vm_runs, 12 * 64, "one run per baseline pass");
}

/// The shapes the workloads lack: a conditional branch with two equal
/// targets, and an instruction `MachineSink` moves (the workloads give
/// it none) over the kept predecessor lists.
#[test]
fn same_target_branch_and_a_sunk_instruction() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![Ty::I1, Ty::I64], None);
    let (then_bb, else_bb, join) = (b.new_block(), b.new_block(), b.new_block());
    let x = b.mul(b.arg(1), Value::ConstInt(3));
    b.cond_br(b.arg(0), then_bb, else_bb);
    b.switch_to(then_bb);
    b.print("{}", vec![x]);
    b.cond_br(b.arg(0), join, join);
    b.switch_to(else_bb);
    b.br(join);
    b.switch_to(join);
    b.ret(None);
    let id = b.finish();
    let f = m.func(id);
    assert_eq!(*cfg::successors(f, then_bb), [join]);
    assert!(cfg::successors(f, join).is_empty());
    let case = TestCase::new("synthetic", || Module::new("unused"));
    let seen = Rc::new(RefCell::new(Seen::default()));
    let (_, stats) = checked_compile(m, &case, None, &seen);
    let seen = seen.borrow();
    assert_eq!(seen.checks, 12, "one check per pass");
    assert_eq!(seen.blocks, 4 * 12);
    assert_eq!(seen.rebuilds, 0);
    assert_eq!(
        stats.get("machine sinking", "instructions sunk"),
        1,
        "the mul sinks into its one user's block"
    );
}
