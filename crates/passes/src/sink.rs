//! Machine-code sinking analogue: moves pure instructions (and, with
//! alias-analysis help, loads) whose only users live in exactly one
//! successor block down into that block, so they do not execute on the
//! other path.

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::MemoryLocation;
use oraql_ir::cfg;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::value::{BlockId, Value};

/// The pass.
pub struct MachineSink;

impl Pass for MachineSink {
    fn name(&self) -> &'static str {
        "machine sinking"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut sunk = 0u64;
        // Sinking moves instructions, never edges: one predecessor map
        // serves the whole run.
        let preds = cfg::predecessors(m.func(fid));
        // Iterate until no more motion; sinking one inst can enable its
        // operands to sink too.
        loop {
            let mut moved = false;
            let nblocks = m.func(fid).blocks.len();
            for bi in 0..nblocks {
                let bb = BlockId(bi as u32);
                let succs = cfg::successors(m.func(fid), bb);
                if succs.len() != 2 {
                    continue; // only branchy blocks benefit
                }
                // Candidates, scanned backwards so dependent chains sink
                // in the right order across iterations.
                let ids: Vec<InstId> = m.func(fid).blocks[bi].insts.clone();
                for &id in ids.iter().rev() {
                    let f = m.func(fid);
                    let inst = f.inst(id);
                    let sinkable_pure = matches!(
                        inst,
                        Inst::Bin { .. }
                            | Inst::Cmp { .. }
                            | Inst::Cast { .. }
                            | Inst::Gep { .. }
                            | Inst::Select { .. }
                    );
                    let is_load = matches!(inst, Inst::Load { .. });
                    if !sinkable_pure && !is_load {
                        continue;
                    }
                    // All users must be in exactly one successor, and
                    // that successor must have `bb` as its only
                    // predecessor (otherwise the value would not
                    // dominate its uses / would be recomputed wrongly).
                    let mut user_blocks: Vec<BlockId> = Vec::new();
                    let mut used_here = false;
                    for uid in f.live_insts() {
                        let mut uses_id = false;
                        f.inst(uid).for_each_operand(|v| {
                            uses_id |= v == Value::Inst(id);
                        });
                        if uses_id {
                            let ub = f.block_of(uid);
                            if ub == bb {
                                used_here = true;
                                break;
                            }
                            if !user_blocks.contains(&ub) {
                                user_blocks.push(ub);
                            }
                        }
                    }
                    if used_here {
                        continue;
                    }
                    let [target] = user_blocks.as_slice() else {
                        continue;
                    };
                    let target = *target;
                    if !succs.contains(&target) || preds[target.0 as usize].len() != 1 {
                        continue;
                    }
                    // Loads may only sink past non-clobbering writes.
                    if is_load {
                        let loc = MemoryLocation::of_access(f, id).expect("load");
                        let pos = f.blocks[bi].insts.iter().position(|&x| x == id).unwrap();
                        let after: Vec<InstId> = f.blocks[bi].insts[pos + 1..].to_vec();
                        let mut blocked = false;
                        for w in after {
                            if m.func(fid).inst(w).writes_memory()
                                && cx.aa.may_clobber(m, fid, w, &loc)
                            {
                                blocked = true;
                                break;
                            }
                        }
                        if blocked {
                            continue;
                        }
                    }
                    // Move to the head of the target (after its phis).
                    let fm = m.func_mut(fid);
                    let from = fm.block_of(id);
                    fm.blocks[from.0 as usize].insts.retain(|&x| x != id);
                    let tb = &mut fm.blocks[target.0 as usize];
                    let at = tb
                        .insts
                        .iter()
                        .position(|&x| !matches!(fm.insts[x.0 as usize].inst, Inst::Phi { .. }))
                        .unwrap_or(tb.insts.len());
                    fm.blocks[target.0 as usize].insts.insert(at, id);
                    fm.insts[id.0 as usize].block = target;
                    sunk += 1;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        cx.stat("machine sinking", "instructions sunk", sunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use oraql_analysis::basic::BasicAA;
    use oraql_analysis::AAManager;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::inst::CmpPred;
    use oraql_ir::{Ty, Value};
    use oraql_vm::{Interpreter, RtVal};

    fn run_pass(m: &mut Module) -> Stats {
        let mut aa = AAManager::new();
        aa.add(Box::new(BasicAA::new()));
        let mut stats = Stats::new();
        for fi in 0..m.funcs.len() {
            let mut cx = PassCx {
                aa: &mut aa,
                stats: &mut stats,
            };
            MachineSink.run(m, FunctionId(fi as u32), &mut cx);
        }
        oraql_ir::verify::assert_valid(m);
        stats
    }

    /// f(flag, p): compute an expensive value but only print it on one
    /// branch; the untaken path should not pay for it after sinking.
    fn build(noalias_blocker: bool) -> (Module, FunctionId) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::I1, Ty::Ptr, Ty::Ptr], None);
        let flag = b.arg(0);
        let p = b.arg(1);
        let q = b.arg(2);
        if noalias_blocker {
            b.set_noalias(1, true);
            b.set_noalias(2, true);
        }
        let v = b.load(Ty::I64, p);
        let w = b.mul(v, Value::ConstInt(3));
        b.store(Ty::I64, Value::ConstInt(9), q); // write after the load
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(flag, t, e);
        b.switch_to(t);
        b.print("{}", vec![w]);
        b.ret(None);
        b.switch_to(e);
        b.print("other", vec![]);
        b.ret(None);
        let id = b.finish();
        (m, id)
    }

    #[test]
    fn pure_chain_sinks_into_used_branch() {
        let (mut m, fid) = build(true);
        let stats = run_pass(&mut m);
        // With restrict args the load sinks past the store, and the mul
        // goes with it.
        assert_eq!(stats.get("machine sinking", "instructions sunk"), 2);
        // Both the load and the mul now live in the then-block (block 1).
        let f = m.func(fid);
        let load = f
            .live_insts()
            .find(|&i| matches!(f.inst(i), Inst::Load { .. }))
            .unwrap();
        let mul = f
            .live_insts()
            .find(|&i| matches!(f.inst(i), Inst::Bin { .. }))
            .unwrap();
        assert_eq!(f.block_of(load), BlockId(1));
        assert_eq!(f.block_of(mul), BlockId(1));
        // Load precedes mul after sinking.
        let pos = |x: InstId| f.blocks[1].insts.iter().position(|&i| i == x).unwrap();
        assert!(pos(load) < pos(mul));
        let _ = fid;
    }

    #[test]
    fn aliasing_store_blocks_load_sinking() {
        let (mut m, _) = build(false);
        let stats = run_pass(&mut m);
        // The load cannot move past the may-aliasing store; the mul
        // cannot move because its operand stays.
        assert_eq!(stats.get("machine sinking", "instructions sunk"), 1); // only the mul? no: mul uses v in bb0... mul's user w is in t.
        let _ = stats;
    }

    #[test]
    fn semantics_preserved_on_taken_branch() {
        let (mut m, fid) = build(true);
        run_pass(&mut m);
        // Execute the then-branch against real memory.
        let g = { m.add_global("cell", 16, vec![42, 0, 0, 0, 0, 0, 0, 0], false) };
        let mut i = Interpreter::new(&m);
        let base = oraql_vm::memory::GLOBAL_BASE;
        let _ = g;
        i.run(fid, vec![RtVal::I(1), RtVal::P(base), RtVal::P(base + 8)])
            .unwrap();
        assert_eq!(i.stdout(), "126\n"); // 42 * 3
    }

    #[test]
    fn value_used_in_both_branches_stays() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::I64], None);
        let x = b.mul(b.arg(0), Value::ConstInt(2));
        let c = b.cmp(CmpPred::Gt, Ty::I64, x, Value::ConstInt(0));
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.print("{}", vec![x]);
        b.ret(None);
        b.switch_to(e);
        b.print("neg {}", vec![x]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m);
        assert_eq!(stats.get("machine sinking", "instructions sunk"), 0);
    }
}
