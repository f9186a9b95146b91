//! `GlobalsAA`: module-level reasoning about globals whose address is
//! never taken. A pointer of unknown provenance (loaded from memory,
//! returned by a call, passed as an argument) cannot point at a global
//! whose address never escapes into such channels.

use crate::aa::{AliasAnalysis, QueryCtx};
use crate::location::{AliasResult, MemoryLocation};
use crate::pointer::{decompose, PtrBase};
use oraql_ir::hash::FxHashSet;
use oraql_ir::inst::Inst;
use oraql_ir::module::{GlobalId, Module};
use oraql_ir::value::Value;

/// Address-taken analysis over a module's globals, computed once and
/// cached (sound under our transformations, which never introduce new
/// escapes).
pub struct GlobalsAA {
    address_taken: FxHashSet<GlobalId>,
    /// Every global of the module is address-taken, so the one NoAlias
    /// rule can never fire and `alias` answers without decomposing
    /// either pointer.
    all_taken: bool,
    answered: u64,
}

/// Computes the set of globals whose address escapes: stored as a value,
/// passed to any call, returned, or merged through phi/select.
pub fn address_taken_globals(m: &Module) -> FxHashSet<GlobalId> {
    let mut taken = FxHashSet::default();
    for f in &m.funcs {
        for id in f.live_insts() {
            let mut check = |v: Value| {
                if let Value::Global(g) = v {
                    taken.insert(g);
                }
            };
            match f.inst(id) {
                // Using the address as a *stored value* lets it escape.
                Inst::Store { value, .. } => check(*value),
                Inst::Call { args, .. } => args.iter().copied().for_each(&mut check),
                Inst::Ret { val: Some(v) } => check(*v),
                Inst::Phi { incoming, .. } => incoming.iter().for_each(|(_, v)| check(*v)),
                Inst::Select { t, f: fv, .. } => {
                    check(*t);
                    check(*fv);
                }
                _ => {}
            }
        }
    }
    taken
}

impl GlobalsAA {
    /// Builds the analysis for `m` (computes address-taken information).
    pub fn new(m: &Module) -> Self {
        let address_taken = address_taken_globals(m);
        let all_taken = (0..m.globals.len()).all(|g| address_taken.contains(&GlobalId(g as u32)));
        GlobalsAA {
            address_taken,
            all_taken,
            answered: 0,
        }
    }
}

impl AliasAnalysis for GlobalsAA {
    fn name(&self) -> &'static str {
        "GlobalsAA"
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        if self.all_taken {
            return AliasResult::MayAlias;
        }
        let f = ctx.module.func(ctx.func);
        let ba = decompose(f, a.ptr).base;
        let bb = decompose(f, b.ptr).base;
        let pair = |g: PtrBase, o: PtrBase| -> bool {
            // A non-address-taken global vs a pointer that must have come
            // through memory/calls/arguments: no alias.
            match g {
                PtrBase::Global(gid) if !self.address_taken.contains(&gid) => matches!(
                    o,
                    PtrBase::LoadResult(_) | PtrBase::CallResult(_) | PtrBase::Arg { .. }
                ),
                _ => false,
            }
        };
        if pair(ba, bb) || pair(bb, ba) {
            self.answered += 1;
            return AliasResult::NoAlias;
        }
        AliasResult::MayAlias
    }

    fn stats(&self) -> Vec<(String, u64)> {
        vec![("answered".into(), self.answered)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::module::FunctionId;
    use oraql_ir::Ty;

    /// Module with one quiet global and one escaping global.
    fn setup() -> (Module, Value, Value) {
        let mut m = Module::new("t");
        let quiet = m.add_global("quiet", 64, vec![], false);
        let loud = m.add_global("loud", 64, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        // loud escapes: its address is stored through the argument.
        b.store(Ty::Ptr, Value::Global(loud), b.arg(0));
        // quiet is only accessed directly.
        b.store(Ty::I64, Value::ConstInt(1), Value::Global(quiet));
        b.ret(None);
        b.finish();
        (m, Value::Global(quiet), Value::Global(loud))
    }

    #[test]
    fn quiet_global_vs_arg_no_alias() {
        let (m, quiet, _) = setup();
        let mut aa = GlobalsAA::new(&m);
        let ctx = QueryCtx {
            module: &m,
            func: FunctionId(0),
            pass: "t",
        };
        assert_eq!(
            aa.alias(
                &ctx,
                &MemoryLocation::precise(quiet, 8),
                &MemoryLocation::precise(Value::Arg(0), 8)
            ),
            AliasResult::NoAlias
        );
    }

    #[test]
    fn escaped_global_vs_arg_may_alias() {
        let (m, _, loud) = setup();
        let mut aa = GlobalsAA::new(&m);
        let ctx = QueryCtx {
            module: &m,
            func: FunctionId(0),
            pass: "t",
        };
        assert_eq!(
            aa.alias(
                &ctx,
                &MemoryLocation::precise(loud, 8),
                &MemoryLocation::precise(Value::Arg(0), 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn address_taken_computation() {
        // The escape channels besides a store: a call argument, a select
        // and a return each take a global's address, so only the quiet
        // global stays NoAlias against an argument.
        let mut m = Module::new("t");
        let quiet = Value::Global(m.add_global("quiet", 64, vec![], false));
        let called = Value::Global(m.add_global("called", 64, vec![], false));
        let selected = Value::Global(m.add_global("selected", 64, vec![], false));
        let returned = Value::Global(m.add_global("returned", 64, vec![], false));
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], Some(Ty::Ptr));
        b.call_external("sink", vec![called], None);
        let picked = b.select(Ty::Ptr, Value::ConstInt(1), selected, b.arg(0));
        b.store(Ty::I64, Value::ConstInt(1), picked);
        b.store(Ty::I64, Value::ConstInt(1), quiet);
        b.ret(Some(returned));
        b.finish();
        let mut aa = GlobalsAA::new(&m);
        let ctx = QueryCtx {
            module: &m,
            func: FunctionId(0),
            pass: "t",
        };
        let answer = |aa: &mut GlobalsAA, g: Value| {
            aa.alias(
                &ctx,
                &MemoryLocation::precise(g, 8),
                &MemoryLocation::precise(Value::Arg(0), 8),
            )
        };
        assert_eq!(answer(&mut aa, quiet), AliasResult::NoAlias);
        for taken in [called, selected, returned] {
            assert_eq!(answer(&mut aa, taken), AliasResult::MayAlias, "{taken:?}");
        }
    }

    #[test]
    fn all_globals_taken_answers_may_alias() {
        let mut m = Module::new("t");
        let loud = m.add_global("loud", 64, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        b.store(Ty::Ptr, Value::Global(loud), b.arg(0));
        b.ret(None);
        b.finish();
        let mut aa = GlobalsAA::new(&m);
        assert!(aa.all_taken);
        let ctx = QueryCtx {
            module: &m,
            func: FunctionId(0),
            pass: "t",
        };
        assert_eq!(
            aa.alias(
                &ctx,
                &MemoryLocation::precise(Value::Global(loud), 8),
                &MemoryLocation::precise(Value::Arg(0), 8)
            ),
            AliasResult::MayAlias
        );
        assert!(!GlobalsAA::new(&setup().0).all_taken);
    }

    #[test]
    fn global_vs_global_defers_to_basicaa() {
        let (m, quiet, loud) = setup();
        let mut aa = GlobalsAA::new(&m);
        let ctx = QueryCtx {
            module: &m,
            func: FunctionId(0),
            pass: "t",
        };
        // GlobalsAA does not handle global-vs-global; BasicAA does.
        assert_eq!(
            aa.alias(
                &ctx,
                &MemoryLocation::precise(quiet, 8),
                &MemoryLocation::precise(loud, 8)
            ),
            AliasResult::MayAlias
        );
    }
}
