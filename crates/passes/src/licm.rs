//! Loop-invariant code motion: hoists invariant pure expressions and —
//! when the alias-analysis chain can prove no store in the loop clobbers
//! them — invariant loads into the loop preheader.

use crate::manager::{Pass, PassCx};
use oraql_analysis::domtree::DomTree;
use oraql_analysis::location::MemoryLocation;
use oraql_analysis::loops::{Loop, LoopForest};
use oraql_ir::hash::FxHashSet;
use oraql_ir::inst::{BinOp, Inst, InstId};
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::value::{BlockId, Value};

/// The pass.
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "LICM"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let dt = DomTree::build(m.func(fid));
        // LICM moves instructions, never edges, so the forest's
        // predecessor lists stay valid for every preheader query.
        let forest = LoopForest::build(m.func(fid), &dt);
        // Innermost loops first: hoisting into an inner preheader (which
        // lives in the outer loop) lets the outer loop hoist further.
        let mut order: Vec<usize> = (0..forest.loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));
        let mut hoisted_loads = 0u64;
        let mut hoisted_exprs = 0u64;
        for li in order {
            let l = &forest.loops[li];
            let Some(pre) = forest.preheader(l) else {
                continue;
            };
            let (loads, exprs) = hoist_loop(m, fid, cx, &dt, l, pre);
            hoisted_loads += loads;
            hoisted_exprs += exprs;
        }
        cx.stat("LICM", "loads hoisted or sunk", hoisted_loads);
        cx.stat("LICM", "expressions hoisted", hoisted_exprs);
    }
}

/// Is `v` invariant w.r.t. the loop, given the set of loop-defined
/// instructions still inside the loop?
fn is_invariant(v: Value, in_loop: &FxHashSet<InstId>) -> bool {
    match v {
        Value::Inst(i) => !in_loop.contains(&i),
        _ => true,
    }
}

/// Safe-to-speculate pure instruction (no traps, no memory access)?
fn speculatable_pure(inst: &Inst) -> bool {
    match inst {
        Inst::Bin { op, rhs, .. } => match op {
            BinOp::Div | BinOp::Rem => matches!(rhs.as_int(), Some(c) if c != 0),
            _ => true,
        },
        Inst::Cmp { .. } | Inst::Select { .. } | Inst::Cast { .. } | Inst::Gep { .. } => true,
        _ => false,
    }
}

fn hoist_loop(
    m: &mut Module,
    fid: FunctionId,
    cx: &mut PassCx<'_>,
    dt: &DomTree,
    l: &Loop,
    pre: BlockId,
) -> (u64, u64) {
    let mut hoisted_loads = 0u64;
    let mut hoisted_exprs = 0u64;

    // Memory writers inside the loop (stores, calls, memcpys).
    let writers: Vec<InstId> = {
        let f = m.func(fid);
        l.blocks
            .iter()
            .flat_map(|bb| f.blocks[bb.0 as usize].insts.iter().copied())
            .filter(|&id| f.inst(id).writes_memory())
            .collect()
    };

    // Instructions currently defined inside the loop.
    let mut in_loop: FxHashSet<InstId> = {
        let f = m.func(fid);
        l.blocks
            .iter()
            .flat_map(|bb| f.blocks[bb.0 as usize].insts.iter().copied())
            .collect()
    };

    // Iterate to a fixed point: hoisting one instruction can make others
    // invariant.
    loop {
        let mut moved_any = false;
        // Snapshot in block-position order so dependencies move first.
        let candidates: Vec<InstId> = {
            let f = m.func(fid);
            let mut v: Vec<InstId> = Vec::new();
            for &bb in dt.rpo() {
                if !l.blocks.contains(&bb) {
                    continue;
                }
                v.extend(f.blocks[bb.0 as usize].insts.iter().copied());
            }
            v
        };
        for id in candidates {
            if !in_loop.contains(&id) {
                continue;
            }
            match m.func(fid).inst(id) {
                i if speculatable_pure(i) => {
                    let mut inv = true;
                    i.for_each_operand(|v| inv &= is_invariant(v, &in_loop));
                    if inv {
                        m.func_mut(fid).move_inst_before_terminator(id, pre);
                        in_loop.remove(&id);
                        hoisted_exprs += 1;
                        moved_any = true;
                    }
                }
                &Inst::Load { ptr, .. } => {
                    if !is_invariant(ptr, &in_loop) {
                        continue;
                    }
                    // The load must execute on every iteration so the
                    // preheader execution observes the same memory.
                    let bb = m.func(fid).block_of(id);
                    if !l.latches.iter().all(|&latch| dt.dominates(bb, latch)) {
                        continue;
                    }
                    let loc = MemoryLocation::of_access(m.func(fid), id).expect("load");
                    let clobbered = writers
                        .iter()
                        .filter(|w| !matches!(m.func(fid).inst(**w), Inst::Removed))
                        .any(|&w| cx.aa.may_clobber(m, fid, w, &loc));
                    if !clobbered {
                        m.func_mut(fid).move_inst_before_terminator(id, pre);
                        in_loop.remove(&id);
                        hoisted_loads += 1;
                        moved_any = true;
                    }
                }
                _ => {}
            }
        }
        if !moved_any {
            break;
        }
    }
    debug_assert!(oraql_ir::verify::verify_function(m, fid).is_ok());
    (hoisted_loads, hoisted_exprs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use oraql_analysis::basic::BasicAA;
    use oraql_analysis::AAManager;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::Ty;
    use oraql_vm::Interpreter;

    fn run_licm(m: &mut Module) -> Stats {
        let mut aa = AAManager::new();
        aa.add(Box::new(BasicAA::new()));
        let mut stats = Stats::new();
        for fi in 0..m.funcs.len() {
            let mut cx = PassCx {
                aa: &mut aa,
                stats: &mut stats,
            };
            Licm.run(m, FunctionId(fi as u32), &mut cx);
        }
        oraql_ir::verify::assert_valid(m);
        stats
    }

    #[test]
    fn invariant_load_hoisted_when_no_alias() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let k = b.alloca(8, "k");
        let out = b.alloca(8 * 10, "out");
        b.store(Ty::I64, Value::ConstInt(7), k);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            let c = b.load(Ty::I64, k); // invariant; stores hit `out` only
            let v = b.mul(c, i);
            let a = b.gep_scaled(out, i, 8, 0);
            b.store(Ty::I64, v, a);
        });
        let a9 = b.gep(out, 72);
        let l = b.load(Ty::I64, a9);
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_licm(&mut m);
        assert_eq!(stats.get("LICM", "loads hoisted or sunk"), 1);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stats.loads < before.stats.loads);
    }

    #[test]
    fn may_aliased_load_not_hoisted() {
        // p and q are plain args: the store through q may clobber *p.
        let mut m = Module::new("t");
        let work = {
            let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
            let p = b.arg(0);
            let q = b.arg(1);
            b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, i| {
                let c = b.load(Ty::I64, p); // NOT invariant: q may be p
                let v = b.add(c, Value::ConstInt(1));
                b.store(Ty::I64, v, q);
                let _ = i;
            });
            let l = b.load(Ty::I64, p);
            b.print("{}", vec![l]);
            b.ret(None);
            b.finish()
        };
        let g = m.add_global("cell", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.call(work, vec![Value::Global(g), Value::Global(g)], None);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, "4\n");
        let stats = run_licm(&mut m);
        assert_eq!(stats.get("LICM", "loads hoisted or sunk"), 0);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(after.stdout, "4\n");
    }

    #[test]
    fn invariant_arithmetic_hoisted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![Ty::I64], None);
        let n = b.arg(0);
        let out = b.alloca(80, "out");
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            let k = b.mul(n, Value::ConstInt(3)); // invariant
            let v = b.add(k, i);
            let a = b.gep_scaled(out, i, 8, 0);
            b.store(Ty::I64, v, a);
        });
        b.ret(None);
        b.finish();
        let stats = run_licm(&mut m);
        assert!(stats.get("LICM", "expressions hoisted") >= 1);
    }

    #[test]
    fn division_by_loop_variant_not_hoisted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![Ty::I64], None);
        let n = b.arg(0);
        let out = b.alloca(80, "out");
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            // Division by a non-constant must not be speculated into the
            // preheader (n could be 0 and the loop could be dead).
            let q = b.div(Value::ConstInt(100), n);
            let a = b.gep_scaled(out, i, 8, 0);
            b.store(Ty::I64, q, a);
        });
        b.ret(None);
        let id = b.finish();
        run_licm(&mut m);
        // The div must still be inside the loop body (block 2).
        let f = m.func(id);
        let div = f
            .live_insts()
            .find(|&i| matches!(f.inst(i), Inst::Bin { op: BinOp::Div, .. }))
            .unwrap();
        assert!(f.block_of(div) != Function::ENTRY);
    }

    use oraql_ir::module::Function;

    #[test]
    fn restrict_args_allow_hoisting() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
        b.set_noalias(0, true);
        b.set_noalias(1, true);
        let p = b.arg(0);
        let q = b.arg(1);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, i| {
            let c = b.load(Ty::I64, p);
            let v = b.add(c, i);
            let a = b.gep_scaled(q, i, 8, 0);
            b.store(Ty::I64, v, a);
        });
        b.ret(None);
        b.finish();
        let stats = run_licm(&mut m);
        assert_eq!(stats.get("LICM", "loads hoisted or sunk"), 1);
    }
}
