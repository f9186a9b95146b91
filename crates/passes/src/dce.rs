//! Dead-code elimination: removes pure instructions (including loads
//! and unused allocas) whose results are never used. Runs late so the
//! address computations orphaned by GVN's load merging and DSE's store
//! deletion don't survive into the executable.

use crate::manager::{Pass, PassCx};
use oraql_ir::inst::Inst;
use oraql_ir::module::{Edit, Edits, FunctionId, Module};
use oraql_ir::value::Value;

/// The pass.
pub struct Dce;

/// Is the instruction removable when unused? (No side effects, has a
/// result. Loads are removable: our IR has no volatile accesses.)
fn removable(inst: &Inst) -> bool {
    inst.result_ty().is_some()
        && matches!(
            inst,
            Inst::Alloca { .. }
                | Inst::Load { .. }
                | Inst::Gep { .. }
                | Inst::Bin { .. }
                | Inst::Cmp { .. }
                | Inst::Select { .. }
                | Inst::Cast { .. }
                | Inst::Phi { .. }
        )
}

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "DCE"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut removed = 0u64;
        loop {
            // Count uses of every instruction result.
            let f = m.func(fid);
            let mut uses = vec![0u32; f.insts().len()];
            for id in f.live_insts() {
                f.inst(id).for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        uses[d.0 as usize] += 1;
                    }
                });
            }
            let dead: Edits = f
                .live_insts()
                .filter(|&id| uses[id.0 as usize] == 0 && removable(f.inst(id)))
                .map(Edit::Remove)
                .collect();
            if dead.is_empty() {
                break;
            }
            removed += dead.len() as u64;
            m.func_mut(fid).apply(&dead);
        }
        cx.stat("DCE", "instructions removed", removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_pass;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Ty, Value};
    use oraql_vm::Interpreter;

    #[test]
    fn dead_chain_removed_transitively() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let buf = b.alloca(64, "buf");
        b.store(Ty::I64, Value::ConstInt(9), buf);
        // Dead chain: gep -> load -> mul, never used.
        let g = b.gep(buf, 8);
        let l = b.load(Ty::I64, g);
        let _ = b.mul(l, Value::ConstInt(3));
        // Live tail.
        let live = b.load(Ty::I64, buf);
        b.print("{}", vec![live]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m, Dce);
        assert_eq!(stats.get("DCE", "instructions removed"), 3);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stats.host_insts < before.stats.host_insts);
        assert_eq!(after.stats.loads, 1);
    }

    #[test]
    fn unused_alloca_removed() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.alloca(1024, "never_used");
        b.print("ok", vec![]);
        b.ret(None);
        let id = b.finish();
        run_pass(&mut m, Dce);
        let s = oraql_vm::machine::lower_function(&m, id, None).unwrap();
        assert_eq!(s.stack_bytes, 0);
    }

    #[test]
    fn stores_and_calls_never_removed() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.store(Ty::I64, Value::ConstInt(1), Value::Global(g));
        let r = b.call_external("sqrt", vec![Value::const_f64(4.0)], Some(Ty::F64));
        let _ = r; // unused call result: the call still stays
        b.print("done", vec![]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dce);
        assert_eq!(stats.get("DCE", "instructions removed"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "done\n");
    }

    #[test]
    fn used_values_survive() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.add(Value::ConstInt(1), Value::ConstInt(2));
        let y = b.mul(x, Value::ConstInt(3));
        b.print("{}", vec![y]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dce);
        assert_eq!(stats.get("DCE", "instructions removed"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "9\n");
    }

    #[test]
    fn dead_phi_cycle_is_not_removed_but_unused_phi_is() {
        // An unused phi at a join: removable.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![Ty::I1], None);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(b.arg(0), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.phi(
            Ty::I64,
            vec![(t, Value::ConstInt(1)), (e, Value::ConstInt(2))],
        );
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dce);
        assert_eq!(stats.get("DCE", "instructions removed"), 1);
    }
}
