//! Dead-store elimination: removes stores overwritten before any read
//! (per block) and stores into non-escaping locals that are never read
//! anywhere in the function.

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::{AliasResult, LocationSize, MemoryLocation};
use oraql_analysis::pointer::{decompose, PtrBase};
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{Edit, Edits, FunctionId, Module};

/// The pass.
pub struct Dse;

impl Pass for Dse {
    fn name(&self) -> &'static str {
        "DSE"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut deleted = 0u64;
        deleted += overwritten_in_block(m, fid, cx);
        deleted += never_read_locals(m, fid, cx);
        cx.stat("DSE", "stores deleted", deleted);
    }
}

/// A store followed (in its block) by a complete overwrite with no
/// intervening read is dead.
fn overwritten_in_block(m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) -> u64 {
    let mut deleted = 0u64;
    let nblocks = m.func(fid).blocks().len();
    for bi in 0..nblocks {
        let ids: Vec<InstId> = m.func(fid).blocks()[bi].insts.clone();
        'stores: for (pos, &id) in ids.iter().enumerate() {
            if !matches!(m.func(fid).inst(id), Inst::Store { .. }) {
                continue;
            }
            let loc = MemoryLocation::of_access(m.func(fid), id).expect("store loc");
            for &later in &ids[pos + 1..] {
                if matches!(m.func(fid).inst(later), Inst::Removed) {
                    continue;
                }
                if cx.aa.may_read(m, fid, later, &loc) {
                    continue 'stores; // value observed: live
                }
                if let Inst::Store { ty: lty, .. } = m.func(fid).inst(later) {
                    let lsize = lty.size();
                    let lloc = MemoryLocation::of_access(m.func(fid), later).expect("loc");
                    let covers = cx.aa.alias(m, fid, &lloc, &loc) == AliasResult::MustAlias
                        && match loc.size {
                            LocationSize::Precise(s) => lsize >= s,
                            LocationSize::BeforeOrAfterPointer => false,
                        };
                    if covers {
                        m.func_mut(fid).apply(&[Edit::Remove(id)]);
                        deleted += 1;
                        continue 'stores;
                    }
                }
            }
        }
    }
    deleted
}

/// A store whose underlying object is an alloca (function-local
/// lifetime: nothing can observe it after return) and whose stored bytes
/// are never read by any instruction in the function is dead — the
/// whole-function generalization LLVM gets from MemorySSA. The alloca's
/// address may have escaped *within* the function: reads through escaped
/// copies show up as loads of unknown provenance (or calls), which the
/// alias queries below account for conservatively.
fn never_read_locals(m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) -> u64 {
    let f = m.func(fid);
    let readers: Vec<InstId> = f
        .live_insts()
        .filter(|&r| f.inst(r).reads_memory())
        .collect();
    let mut dead = Edits::new();
    for id in f.live_insts() {
        let Inst::Store { ptr, .. } = f.inst(id) else {
            continue;
        };
        if !matches!(decompose(f, *ptr).base, PtrBase::Alloca(_)) {
            continue;
        }
        let loc = MemoryLocation::of_access(f, id).expect("store loc");
        if !readers.iter().any(|&r| cx.aa.may_read(m, fid, r, &loc)) {
            dead.push(Edit::Remove(id));
        }
    }
    m.func_mut(fid).apply(&dead);
    dead.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_pass;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::value::Value;
    use oraql_ir::Ty;
    use oraql_vm::Interpreter;

    #[test]
    fn overwritten_store_deleted() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.store(Ty::I64, Value::ConstInt(1), Value::Global(g)); // dead
        b.store(Ty::I64, Value::ConstInt(2), Value::Global(g));
        let l = b.load(Ty::I64, Value::Global(g));
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dse);
        assert_eq!(stats.get("DSE", "stores deleted"), 1);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "2\n");
        assert_eq!(out.stats.stores, 1);
    }

    #[test]
    fn read_between_keeps_store() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.store(Ty::I64, Value::ConstInt(1), Value::Global(g));
        let l = b.load(Ty::I64, Value::Global(g)); // reads the 1
        b.store(Ty::I64, Value::ConstInt(2), Value::Global(g));
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dse);
        assert_eq!(stats.get("DSE", "stores deleted"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "1\n");
    }

    #[test]
    fn scratch_stores_into_never_read_local_deleted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let scratch = b.alloca(80, "scratch");
        let live = b.alloca(8, "live");
        b.store(Ty::I64, Value::ConstInt(42), live);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            let a = b.gep_scaled(scratch, i, 8, 0);
            b.store(Ty::I64, i, a); // never read anywhere
        });
        let l = b.load(Ty::I64, live);
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dse);
        assert_eq!(stats.get("DSE", "stores deleted"), 1); // the loop store
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "42\n");
    }

    #[test]
    fn may_aliasing_read_keeps_scratch_store() {
        // The scratch pointer escapes through a call: cannot prove dead.
        let mut m = Module::new("t");
        let sink = {
            let mut b = FunctionBuilder::new(&mut m, "sink", vec![Ty::Ptr], None);
            let l = b.load(Ty::I64, b.arg(0));
            b.print("{}", vec![l]);
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let scratch = b.alloca(8, "scratch");
        b.store(Ty::I64, Value::ConstInt(5), scratch);
        b.call(sink, vec![scratch], None);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dse);
        assert_eq!(stats.get("DSE", "stores deleted"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "5\n");
    }

    #[test]
    fn partial_overwrite_is_not_dead() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.store(Ty::I64, Value::ConstInt(-1), Value::Global(g));
        // Only 4 of the 8 bytes are overwritten.
        b.store(Ty::I32, Value::ConstInt(0), Value::Global(g));
        let l = b.load(Ty::I64, Value::Global(g));
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, Dse);
        assert_eq!(stats.get("DSE", "stores deleted"), 0);
    }
}
