//! Global value numbering: dominance-based redundant-load elimination,
//! store-to-load forwarding (through MemorySSA clobber walks) and global
//! CSE of pure expressions.

use crate::manager::{Pass, PassCx};
use oraql_analysis::domtree::DomTree;
use oraql_analysis::location::{AliasResult, LocationSize, MemoryLocation};
use oraql_analysis::memssa::{MemAccess, MemorySsa};
use oraql_ir::hash::FxHashMap;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::Value;

/// The pass.
pub struct Gvn;

/// Key identifying a load's value: pointer, access type, and the memory
/// state (clobber) it reads from. Two loads with equal keys see the same
/// bytes.
type LoadKey = (Value, Ty, MemAccess);

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "GVN"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let dt = DomTree::build(m.func(fid));
        let mssa = MemorySsa::build(m.func(fid));

        let mut load_table: FxHashMap<LoadKey, InstId> = FxHashMap::default();
        let mut loads_deleted = 0u64;
        let mut forwarded = 0u64;

        // Traverse blocks in reverse postorder so dominating definitions
        // are seen first.
        let rpo: Vec<_> = dt.rpo().to_vec();
        for bb in rpo {
            let inst_ids: Vec<InstId> = m.func(fid).blocks[bb.0 as usize].insts.clone();
            for id in inst_ids {
                let f = m.func(fid);
                let &Inst::Load { ptr, ty, .. } = f.inst(id) else {
                    continue;
                };
                let Some(loc) = MemoryLocation::of_access(f, id) else {
                    continue;
                };
                let start = mssa.defining_access(f, id);
                let clobber = mssa.clobber_walk(m, fid, cx.aa, &loc, start);

                // Store-to-load forwarding: the clobber is a store to the
                // very same location with a matching width.
                if let MemAccess::Def(d) = clobber {
                    let f = m.func(fid);
                    if let Inst::Store { value, ty: sty, .. } = f.inst(d) {
                        let (value, sty) = (*value, *sty);
                        let sloc = MemoryLocation::of_access(f, d).expect("store loc");
                        if sty == ty
                            && loc.size == LocationSize::Precise(ty.size())
                            && cx.aa.alias(m, fid, &sloc, &loc) == AliasResult::MustAlias
                            && dt.inst_dominates(m.func(fid), d, id)
                        {
                            let fm = m.func_mut(fid);
                            fm.replace_all_uses(Value::Inst(id), value);
                            fm.remove_inst(id);
                            forwarded += 1;
                            loads_deleted += 1;
                            continue;
                        }
                    }
                }

                // Redundant-load elimination: an earlier, dominating load
                // of the same pointer reading from the same memory state.
                let key: LoadKey = (ptr, ty, clobber);
                match load_table.get(&key) {
                    Some(&prev)
                        if !matches!(m.func(fid).inst(prev), Inst::Removed)
                            && dt.inst_dominates(m.func(fid), prev, id) =>
                    {
                        let fm = m.func_mut(fid);
                        fm.replace_all_uses(Value::Inst(id), Value::Inst(prev));
                        fm.remove_inst(id);
                        loads_deleted += 1;
                    }
                    _ => {
                        load_table.insert(key, id);
                    }
                }
            }
        }

        cx.stat("GVN", "loads deleted", loads_deleted);
        cx.stat("GVN", "loads forwarded from stores", forwarded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use oraql_analysis::basic::BasicAA;
    use oraql_analysis::AAManager;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_vm::Interpreter;

    fn run_gvn(m: &mut Module) -> Stats {
        let mut aa = AAManager::new();
        aa.add(Box::new(BasicAA::new()));
        let mut stats = Stats::new();
        for fi in 0..m.funcs.len() {
            let mut cx = PassCx {
                aa: &mut aa,
                stats: &mut stats,
            };
            Gvn.run(m, FunctionId(fi as u32), &mut cx);
        }
        oraql_ir::verify::assert_valid(m);
        stats
    }

    #[test]
    fn cross_block_redundant_load_eliminated() {
        // load in entry, re-load in a later block with only a
        // non-aliasing store between them.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(8, "x");
        let y = b.alloca(8, "y");
        b.store(Ty::I64, Value::ConstInt(3), x);
        let l1 = b.load(Ty::I64, x);
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        b.store(Ty::I64, Value::ConstInt(4), y);
        let l2 = b.load(Ty::I64, x); // redundant across blocks
        let s = b.add(l1, l2);
        b.print("{}", vec![s]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_gvn(&mut m);
        assert!(stats.get("GVN", "loads deleted") >= 1, "{}", stats.render());
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stats.loads < before.stats.loads);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(8, "x");
        b.store(Ty::I64, Value::ConstInt(11), x);
        let l = b.load(Ty::I64, x);
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_gvn(&mut m);
        assert_eq!(stats.get("GVN", "loads forwarded from stores"), 1);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "11\n");
        assert_eq!(out.stats.loads, 0);
    }

    #[test]
    fn may_aliasing_store_blocks_elimination() {
        let mut m = Module::new("t");
        let work = {
            let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
            let p = b.arg(0);
            let q = b.arg(1);
            let l1 = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(7), q);
            let l2 = b.load(Ty::I64, p); // q may alias p: keep
            let s = b.add(l1, l2);
            b.print("{}", vec![s]);
            b.ret(None);
            b.finish()
        };
        let g = m.add_global("buf", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.store(Ty::I64, Value::ConstInt(1), Value::Global(g));
        b.call(work, vec![Value::Global(g), Value::Global(g)], None);
        b.ret(None);
        b.finish();
        run_gvn(&mut m);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "8\n"); // 1 + 7, not 1 + 1
    }

    #[test]
    fn noalias_args_enable_elimination() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], Some(Ty::I64));
        b.set_noalias(0, true);
        b.set_noalias(1, true);
        let p = b.arg(0);
        let q = b.arg(1);
        let l1 = b.load(Ty::I64, p);
        b.store(Ty::I64, Value::ConstInt(7), q);
        let l2 = b.load(Ty::I64, p); // restrict: q cannot alias p
        let s = b.add(l1, l2);
        b.ret(Some(s));
        b.finish();
        let stats = run_gvn(&mut m);
        assert_eq!(stats.get("GVN", "loads deleted"), 1);
    }

    use oraql_ir::Ty;

    #[test]
    fn loads_in_loop_not_wrongly_merged_across_stores() {
        // acc pattern: load/store to the same slot each iteration must
        // not collapse to a single load.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let acc = b.alloca(8, "acc");
        b.store(Ty::I64, Value::ConstInt(0), acc);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(5), |b, i| {
            let cur = b.load(Ty::I64, acc);
            let nxt = b.add(cur, i);
            b.store(Ty::I64, nxt, acc);
        });
        let fin = b.load(Ty::I64, acc);
        b.print("{}", vec![fin]);
        b.ret(None);
        b.finish();
        run_gvn(&mut m);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "10\n");
    }
}
