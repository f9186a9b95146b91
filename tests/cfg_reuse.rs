//! Reused CFG facts against fresh ones.
//!
//! `LoopForest` answers `preheader` from the predecessor lists it was
//! built with, `MachineSink` builds one predecessor map per function,
//! and `cfg::successors` returns its targets inline. On every function
//! of the 16 workloads, as built and after a baseline compile:
//!
//! - each block's `cfg::successors` are its terminator's targets (one
//!   for a conditional branch whose two targets are equal, none for a
//!   return);
//! - each loop's `preheader` is the unique outside predecessor of its
//!   header in a fresh `cfg::predecessors`, before LICM runs on the
//!   function and still after it (the forest LICM asks was built first);
//! - `MachineSink` leaves `cfg::predecessors` unchanged.

use oraql::compile::{compile, conservative_chain, CompileOptions};
use oraql_analysis::domtree::DomTree;
use oraql_analysis::loops::{Loop, LoopForest};
use oraql_ir::builder::FunctionBuilder;
use oraql_ir::cfg;
use oraql_ir::inst::Inst;
use oraql_ir::module::{Function, FunctionId, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::{BlockId, Value};
use oraql_passes::licm::Licm;
use oraql_passes::sink::MachineSink;
use oraql_passes::{Pass, PassCx, Stats};

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

/// What one module's checks saw.
#[derive(Default)]
struct Seen {
    blocks: u64,
    loops: u64,
    preheaders: u64,
    sunk: u64,
}

fn run_pass(pass: &mut dyn Pass, m: &mut Module, fid: FunctionId) -> Stats {
    let mut aa = conservative_chain(m, false);
    let mut stats = Stats::new();
    pass.run(
        m,
        fid,
        &mut PassCx {
            aa: &mut aa,
            stats: &mut stats,
        },
    );
    stats
}

fn check_module(mut m: Module, what: &str, seen: &mut Seen) {
    for fi in 0..m.funcs.len() {
        let fid = FunctionId(fi as u32);
        let what = format!("{what} @{}", m.func(fid).name);

        let f = m.func(fid);
        for bi in 0..f.blocks.len() {
            let bb = BlockId(bi as u32);
            assert_eq!(
                &*cfg::successors(f, bb),
                terminator_targets(f, bb).as_slice(),
                "{what}: successors of bb{bi}"
            );
            seen.blocks += 1;
        }

        let dt = DomTree::build(f);
        let forest = LoopForest::build(f, &dt);
        for l in &forest.loops {
            let fresh = fresh_preheader(f, l);
            assert_eq!(
                forest.preheader(l),
                fresh,
                "{what}: loop at bb{}",
                l.header.0
            );
            seen.loops += 1;
            seen.preheaders += u64::from(fresh.is_some());
        }
        // LICM moves instructions, never edges: the forest built before
        // it still answers what a fresh computation answers after it.
        run_pass(&mut Licm, &mut m, fid);
        for l in &forest.loops {
            assert_eq!(
                forest.preheader(l),
                fresh_preheader(m.func(fid), l),
                "{what}: loop at bb{} after LICM",
                l.header.0
            );
        }

        let before = cfg::predecessors(m.func(fid));
        let stats = run_pass(&mut MachineSink, &mut m, fid);
        seen.sunk += stats.get("machine sinking", "instructions sunk");
        assert_eq!(
            cfg::predecessors(m.func(fid)),
            before,
            "{what}: predecessors after MachineSink"
        );
    }
}

#[test]
fn reused_cfg_facts_equal_fresh_ones_on_the_workloads() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let mut seen = Seen::default();
    for case in &cases {
        check_module((case.build)(), &case.name, &mut seen);
        let compiled = compile(&*case.build, &CompileOptions::baseline());
        check_module(
            compiled.module,
            &format!("{} (compiled)", case.name),
            &mut seen,
        );
    }
    // The checks saw what they check.
    assert!(seen.blocks > 0);
    assert!(seen.loops > 0 && seen.preheaders > 0);
}

/// The shapes the workloads lack: a conditional branch with two equal
/// targets, and an instruction `MachineSink` moves (the workloads give
/// it none).
#[test]
fn same_target_branch_and_a_sunk_instruction() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::I1, Ty::I64], None);
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
    let mut seen = Seen::default();
    check_module(m, "synthetic", &mut seen);
    assert_eq!(seen.blocks, 4);
    assert_eq!(seen.sunk, 1, "the mul sinks into its one user's block");
}
