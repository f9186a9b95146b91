//! Differential test of the per-instruction indexes behind
//! `MemorySsa::defining_access` (defs before each instruction) and
//! `DomTree::inst_dominates` (block positions).
//!
//! On every function of the 16 workloads and of the `oraql-gen` corpus
//! the CI smoke runs (`seed=2024,cases=64,per=3`), as built and after a
//! baseline compile, both must answer exactly as a linear scan of the
//! block does. They must keep doing so after loads are deleted the way
//! GVN deletes them: while it still holds both analyses.

use oraql::compile::{compile, CompileOptions};
use oraql::TestCase;
use oraql_analysis::domtree::DomTree;
use oraql_analysis::memssa::{MemAccess, MemorySsa};
use oraql_gen::GenPlan;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{Edit, Function, FunctionId, Module};
use std::rc::Rc;

/// The linear-scan reference for `defining_access`: walk the block
/// backwards from `id` to the nearest memory-writing instruction.
fn scan_defining_access(mssa: &MemorySsa, f: &Function, id: InstId) -> MemAccess {
    let bb = f.block_of(id);
    let insts = &f.blocks()[bb.0 as usize].insts;
    let pos = insts.iter().position(|&i| i == id).expect("live access");
    match insts[..pos]
        .iter()
        .rev()
        .find(|&&d| f.inst(d).writes_memory())
    {
        Some(&d) => MemAccess::Def(d),
        None => mssa.entry_access(bb),
    }
}

fn is_access(f: &Function, id: InstId) -> bool {
    let inst = f.inst(id);
    inst.writes_memory() || matches!(inst, Inst::Load { .. })
}

/// Compares both analyses with the linear scan on every block of `f`;
/// `removed` lists instructions deleted since the analyses were built.
/// Returns the number of comparisons made.
fn check_function(
    mssa: &MemorySsa,
    dt: &DomTree,
    f: &Function,
    removed: &[InstId],
    what: &str,
) -> u64 {
    let mut checked = 0;
    for (bi, block) in f.blocks().iter().enumerate() {
        for &id in block.insts.iter().filter(|&&i| is_access(f, i)) {
            assert_eq!(
                mssa.defining_access(f, id),
                scan_defining_access(mssa, f, id),
                "{what}: defining access of %{} in bb{bi}",
                id.0
            );
            checked += 1;
        }
        // `x` and `y` are the positions a scan of the block finds.
        for (x, &a) in block.insts.iter().enumerate() {
            for (y, &b) in block.insts.iter().enumerate() {
                assert_eq!(
                    dt.inst_dominates(f, a, b),
                    x < y,
                    "{what}: %{} vs %{} in bb{bi}",
                    a.0,
                    b.0
                );
                checked += 1;
            }
        }
    }
    for &r in removed {
        for &b in &f.blocks()[f.block_of(r).0 as usize].insts {
            assert!(!dt.inst_dominates(f, r, b), "{what}: removed %{}", r.0);
            assert!(!dt.inst_dominates(f, b, r), "{what}: removed %{}", r.0);
        }
    }
    checked
}

/// Checks every function of `m`, then deletes every other load of each
/// block behind the analyses' backs and checks again.
fn check_module(mut m: Module, what: &str) -> u64 {
    let mut checked = 0;
    for fi in 0..m.funcs.len() {
        let fid = FunctionId(fi as u32);
        let what = format!("{what} @{}", m.func(fid).name);
        let dt = DomTree::build(m.func(fid));
        let mssa = MemorySsa::build(m.func(fid), Rc::clone(dt.cfg()));
        checked += check_function(&mssa, &dt, m.func(fid), &[], &what);
        let f = m.func_mut(fid);
        let loads: Vec<InstId> = f
            .live_insts()
            .filter(|&i| matches!(f.inst(i), Inst::Load { .. }))
            .step_by(2)
            .collect();
        for &l in &loads {
            f.apply(&[Edit::Remove(l)]);
        }
        checked += check_function(&mssa, &dt, m.func(fid), &loads, &what);
    }
    checked
}

fn check_cases(cases: &[TestCase]) -> u64 {
    let mut checked = 0;
    for case in cases {
        checked += check_module((case.build)(), &case.name);
        let compiled = compile(&*case.build, &CompileOptions::baseline());
        checked += check_module(compiled.module, &format!("{} (compiled)", case.name));
    }
    checked
}

#[test]
fn index_matches_linear_scan_on_the_workloads() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    assert!(check_cases(&cases) > 0);
}

#[test]
fn index_matches_linear_scan_on_the_gen_corpus() {
    let plan = GenPlan::parse("seed=2024,cases=64,per=3").expect("plan");
    let (cases, _) = oraql_gen::suite(&plan);
    assert_eq!(cases.len(), 64);
    assert!(check_cases(&cases) > 0);
}
