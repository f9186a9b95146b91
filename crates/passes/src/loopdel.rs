//! Loop deletion: removes loops that have become observably dead —
//! no side effects inside, no values used outside. This typically fires
//! after GVN/DSE have (with good alias information) gutted a loop's
//! stores, reproducing the paper's Quicksilver observation
//! (`# deleted loops` 2 → 55 under ORAQL).

use crate::manager::{Pass, PassCx};
use oraql_analysis::domtree::DomTree;
use oraql_analysis::loops::{Loop, LoopForest};
use oraql_ir::hash::FxHashSet;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::value::BlockId;

/// The pass.
pub struct LoopDeletion;

impl Pass for LoopDeletion {
    fn name(&self) -> &'static str {
        "loop deletion"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut deleted = 0u64;
        // Recompute the forest after each deletion (block sets and
        // edges change); `try_delete` edits nothing before its last
        // preheader query.
        loop {
            let dt = DomTree::build(m.func(fid));
            let forest = LoopForest::build(m.func(fid), &dt);
            let mut deleted_one = false;
            for l in &forest.loops {
                if try_delete(m, fid, &forest, l) {
                    deleted += 1;
                    deleted_one = true;
                    break;
                }
            }
            if !deleted_one {
                break;
            }
        }
        cx.stat("loop deletion", "deleted loops", deleted);
    }
}

fn try_delete(m: &mut Module, fid: FunctionId, forest: &LoopForest, l: &Loop) -> bool {
    let f = m.func(fid);
    let Some(pre) = forest.preheader(l) else {
        return false;
    };
    let exits = forest.exit_blocks(f, l);
    let [exit] = exits.as_slice() else {
        return false;
    };
    let exit = *exit;

    // The exit block must not have phis (they would need incoming-edge
    // surgery) and must not be the header of an enclosing structure we
    // would confuse; requiring no phis is enough for our builder shapes.
    if f.blocks[exit.0 as usize]
        .insts
        .iter()
        .any(|&i| matches!(f.inst(i), Inst::Phi { .. }))
    {
        return false;
    }

    // No side effects inside the loop.
    let loop_insts: Vec<InstId> = l
        .blocks
        .iter()
        .flat_map(|bb| f.blocks[bb.0 as usize].insts.iter().copied())
        .collect();
    for &id in &loop_insts {
        match f.inst(id) {
            Inst::Store { .. } | Inst::Call { .. } | Inst::Print { .. } | Inst::Memcpy { .. } => {
                return false
            }
            _ => {}
        }
    }

    // No value defined inside the loop used outside it.
    let defined: FxHashSet<InstId> = loop_insts.iter().copied().collect();
    for bi in 0..f.blocks.len() {
        let bb = BlockId(bi as u32);
        if l.blocks.contains(&bb) {
            continue;
        }
        for &id in &f.blocks[bi].insts {
            let mut uses_loop_val = false;
            f.inst(id).for_each_operand(|v| {
                if let oraql_ir::value::Value::Inst(d) = v {
                    uses_loop_val |= defined.contains(&d);
                }
            });
            if uses_loop_val {
                return false;
            }
        }
    }

    // Delete: retarget the preheader around the loop, then gut the loop
    // blocks (they become unreachable stubs branching to the exit, which
    // keeps the CFG well-formed; the exit has no phis so its predecessor
    // list does not matter).
    let fm = m.func_mut(fid);
    let header = l.header;
    if let Some(t) = fm.terminator(pre) {
        match fm.inst_mut(t) {
            Inst::Br { target } if *target == header => *target = exit,
            Inst::CondBr {
                then_bb, else_bb, ..
            } => {
                if *then_bb == header {
                    *then_bb = exit;
                }
                if *else_bb == header {
                    *else_bb = exit;
                }
            }
            _ => return false,
        }
    } else {
        return false;
    }
    for &id in &loop_insts {
        fm.remove_inst(id);
    }
    for &bb in &l.blocks {
        fm.push_inst(bb, Inst::Br { target: exit }, None);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use oraql_analysis::AAManager;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Ty, Value};
    use oraql_vm::Interpreter;

    fn run_pass(m: &mut Module) -> Stats {
        let mut aa = AAManager::new();
        let mut stats = Stats::new();
        for fi in 0..m.funcs.len() {
            let mut cx = PassCx {
                aa: &mut aa,
                stats: &mut stats,
            };
            LoopDeletion.run(m, FunctionId(fi as u32), &mut cx);
        }
        oraql_ir::verify::assert_valid(m);
        stats
    }

    #[test]
    fn dead_loop_deleted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(1000), |b, i| {
            let x = b.mul(i, i);
            let _ = b.add(x, Value::ConstInt(1)); // unused, pure
        });
        b.print("done", vec![]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m);
        assert_eq!(stats.get("loop deletion", "deleted loops"), 1);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stats.host_insts < before.stats.host_insts / 10);
    }

    #[test]
    fn loop_with_store_kept() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            b.store(Ty::I64, i, Value::Global(g));
        });
        let l = b.load(Ty::I64, Value::Global(g));
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m);
        assert_eq!(stats.get("loop deletion", "deleted loops"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "9\n");
    }

    #[test]
    fn loop_whose_value_is_used_kept() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let iv = b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |_, _| {});
        // The induction value is observed after the loop.
        b.print("{}", vec![iv]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m);
        assert_eq!(stats.get("loop deletion", "deleted loops"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "10\n");
    }

    #[test]
    fn nested_dead_loops_all_deleted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(50), |b, _| {
            b.counted_loop(Value::ConstInt(0), Value::ConstInt(50), |b, j| {
                let _ = b.mul(j, j);
            });
        });
        b.print("x", vec![]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m);
        // The outer loop (with the inner nest inside it) is dead as a
        // whole; deleting it takes the inner loop with it.
        assert!(stats.get("loop deletion", "deleted loops") >= 1);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "x\n");
        // 2500 iterations of work are gone.
        assert!(out.stats.host_insts < before.stats.host_insts / 100);
    }
}
