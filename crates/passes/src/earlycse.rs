//! Early common-subexpression elimination: a per-block forward scan that
//! value-numbers pure expressions and forwards available loads/stores.

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::{AliasResult, MemoryLocation};
use oraql_ir::hash::FxHashMap;
use oraql_ir::inst::{CallKind, FuncRef, GepOffset, Inst, InstId};
use oraql_ir::module::{Function, FunctionId, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::Value;

/// Structural key of a pure expression (commutative operands are
/// canonicalized).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(oraql_ir::inst::BinOp, Ty, Value, Value),
    Cmp(oraql_ir::inst::CmpPred, Ty, Value, Value),
    GepConst(Value, i64),
    GepScaled(Value, Value, i64, i64),
    Cast(oraql_ir::inst::CastKind, Value, Ty),
    Select(Value, Value, Value, Ty),
}

fn expr_key(inst: &Inst) -> Option<ExprKey> {
    Some(match inst {
        Inst::Bin { op, ty, lhs, rhs } => {
            let (a, b) = if op.commutative() && rhs < lhs {
                (*rhs, *lhs)
            } else {
                (*lhs, *rhs)
            };
            ExprKey::Bin(*op, *ty, a, b)
        }
        Inst::Cmp { pred, ty, lhs, rhs } => ExprKey::Cmp(*pred, *ty, *lhs, *rhs),
        Inst::Gep { base, offset } => match offset {
            GepOffset::Const(c) => ExprKey::GepConst(*base, *c),
            GepOffset::Scaled { index, scale, add } => {
                ExprKey::GepScaled(*base, *index, *scale, *add)
            }
        },
        Inst::Cast { kind, val, to } => ExprKey::Cast(*kind, *val, *to),
        Inst::Select { cond, t, f, ty } => ExprKey::Select(*cond, *t, *f, *ty),
        _ => return None,
    })
}

/// One available memory value: the content of `(loc.ptr, ty)` is
/// `value`. The location keeps the access metadata of the originating
/// load/store, so invalidation queries carry the proper TBAA/scope
/// information.
struct AvailLoad {
    ty: Ty,
    value: Value,
    loc: MemoryLocation,
}

/// The pass.
pub struct EarlyCSE;

impl Pass for EarlyCSE {
    fn name(&self) -> &'static str {
        "early CSE"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let nblocks = m.func(fid).blocks.len();
        let mut eliminated = 0u64;
        let mut exprs: FxHashMap<ExprKey, Value> = FxHashMap::default();
        let mut avail: Vec<AvailLoad> = Vec::new();
        // The block's eliminated instructions, each mapped to its final
        // replacement.
        let mut replace: FxHashMap<InstId, Value> = FxHashMap::default();
        for bi in 0..nblocks {
            exprs.clear();
            avail.clear();
            replace.clear();
            // The scan only reads the module (AA takes `&Module`); the
            // block's rewrite is applied after it.
            let f = m.func(fid);
            for &id in &f.blocks[bi].insts {
                let inst = f.inst(id);

                // Pure-expression CSE.
                if let Some(key) = expr_key(inst) {
                    match exprs.get(&key) {
                        Some(&prev) => {
                            replace.insert(id, resolve(&replace, prev));
                        }
                        None => {
                            exprs.insert(key, Value::Inst(id));
                        }
                    }
                    continue;
                }

                match inst {
                    Inst::Load { ptr, ty, .. } => {
                        if let Some(a) = avail.iter().find(|a| a.loc.ptr == *ptr && a.ty == *ty) {
                            replace.insert(id, resolve(&replace, a.value));
                        } else {
                            avail.push(AvailLoad {
                                ty: *ty,
                                value: Value::Inst(id),
                                loc: MemoryLocation::of_access(f, id).expect("load location"),
                            });
                        }
                    }
                    Inst::Store { value, ty, .. } => {
                        // Kill everything this store may clobber.
                        let sloc = MemoryLocation::of_access(f, id).expect("store location");
                        avail
                            .retain(|a| cx.aa.alias(m, fid, &sloc, &a.loc) == AliasResult::NoAlias);
                        // The stored value is now available.
                        avail.push(AvailLoad {
                            ty: *ty,
                            value: *value,
                            loc: sloc,
                        });
                    }
                    Inst::Call { callee, kind, .. } => {
                        let pure = matches!(
                            (callee, kind),
                            (FuncRef::External(sym), CallKind::Plain)
                                if oraql_analysis::aa::is_pure_external(
                                    m.strings.resolve(*sym)
                                )
                        );
                        if !pure {
                            avail.clear();
                        }
                    }
                    Inst::Memcpy { .. } => {
                        let dloc = MemoryLocation::memcpy_dest(f, id).expect("memcpy dest");
                        avail
                            .retain(|a| cx.aa.alias(m, fid, &dloc, &a.loc) == AliasResult::NoAlias);
                    }
                    _ => {}
                }
            }
            if !replace.is_empty() {
                eliminated += replace.len() as u64;
                rewrite_block(m.func_mut(fid), bi, &replace);
            }
        }
        cx.stat("early CSE", "instructions eliminated", eliminated);
    }
}

/// `to` with every instruction already eliminated in this block
/// replaced by its own replacement, so each recorded entry is final.
fn resolve(replace: &FxHashMap<InstId, Value>, mut to: Value) -> Value {
    while let Value::Inst(t) = to {
        match replace.get(&t) {
            Some(&next) => to = next,
            None => break,
        }
    }
    to
}

/// Applies one block's eliminations: every use of a key of `replace`
/// in the function becomes its replacement (one sweep over the
/// operands), and the eliminated instructions leave the block (one
/// `retain`). The result equals a `replace_all_uses` plus `remove_inst`
/// per entry in recording order, because each replacement is already
/// final.
fn rewrite_block(f: &mut Function, bi: usize, replace: &FxHashMap<InstId, Value>) {
    for data in &mut f.insts {
        data.inst.for_each_operand_mut(|v| {
            if let Value::Inst(i) = *v {
                if let Some(&to) = replace.get(&i) {
                    *v = to;
                }
            }
        });
    }
    f.blocks[bi].insts.retain(|id| !replace.contains_key(id));
    for &id in replace.keys() {
        *f.inst_mut(id) = Inst::Removed;
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

    fn run_pass(m: &mut Module) -> Stats {
        let mut aa = AAManager::new();
        aa.add(Box::new(BasicAA::new()));
        let mut stats = Stats::new();
        for fi in 0..m.funcs.len() {
            let mut cx = PassCx {
                aa: &mut aa,
                stats: &mut stats,
            };
            EarlyCSE.run(m, FunctionId(fi as u32), &mut cx);
        }
        oraql_ir::verify::assert_valid(m);
        stats
    }

    #[test]
    fn duplicate_arithmetic_eliminated() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.add(Value::ConstInt(2), Value::ConstInt(3));
        let y = b.add(Value::ConstInt(3), Value::ConstInt(2)); // commuted dup
        let s = b.add(x, y);
        b.print("{}", vec![s]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m);
        assert_eq!(stats.get("early CSE", "instructions eliminated"), 1);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stats.host_insts < before.stats.host_insts);
    }

    #[test]
    fn redundant_load_eliminated_when_no_clobber() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(8, "x");
        let y = b.alloca(8, "y");
        b.store(Ty::I64, Value::ConstInt(5), x);
        let l1 = b.load(Ty::I64, x);
        b.store(Ty::I64, l1, y); // store to y does not kill x
        let l2 = b.load(Ty::I64, x); // redundant
        let s = b.add(l1, l2);
        b.print("{}", vec![s]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m);
        // l1 is forwarded from the store (store-to-load fwd) and l2 too.
        assert!(stats.get("early CSE", "instructions eliminated") >= 2);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "10\n");
    }

    #[test]
    fn aliasing_store_kills_available_load() {
        // Store through an unknown pointer kills the availability of a
        // load through another unknown pointer.
        let mut m = Module::new("t");
        let g = m.add_global("buf", 16, vec![], false);
        let callee = {
            let mut b = FunctionBuilder::new(&mut m, "work", vec![Ty::Ptr, Ty::Ptr], None);
            let p = b.arg(0);
            let q = b.arg(1);
            let l1 = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(9), q); // may clobber p
            let l2 = b.load(Ty::I64, p); // NOT redundant
            let s = b.add(l1, l2);
            b.print("{}", vec![s]);
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let base = Value::Global(g);
        b.store(Ty::I64, Value::ConstInt(1), base);
        b.call(callee, vec![base, base], None);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, "10\n"); // 1 + 9
        run_pass(&mut m);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(after.stdout, "10\n"); // load not wrongly CSE'd
    }

    use oraql_ir::Ty;

    #[test]
    fn calls_invalidate_available_loads() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, vec![], false);
        let bump = {
            let mut b = FunctionBuilder::new(&mut m, "bump", vec![], None);
            let l = b.load(Ty::I64, Value::Global(g));
            let n = b.add(l, Value::ConstInt(1));
            b.store(Ty::I64, n, Value::Global(g));
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let l1 = b.load(Ty::I64, Value::Global(g));
        b.call(bump, vec![], None);
        let l2 = b.load(Ty::I64, Value::Global(g));
        let s = b.add(l1, l2);
        b.print("{}", vec![s]);
        b.ret(None);
        b.finish();
        run_pass(&mut m);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "1\n"); // 0 + 1, not 0 + 0
    }
}
