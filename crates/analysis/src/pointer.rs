//! Pointer decomposition: strip GEP chains down to an underlying object
//! plus constant/dynamic offsets. Shared by `BasicAA`, `GlobalsAA` and
//! the points-to analyses.

use oraql_ir::inst::{GepOffset, Inst, InstId};
use oraql_ir::module::{Function, GlobalId};
use oraql_ir::value::Value;

/// The underlying object a pointer was derived from, as far as a local
/// walk over GEPs can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtrBase {
    /// A stack allocation in this function.
    Alloca(InstId),
    /// The `n`-th function argument; `noalias` records its attribute.
    Arg {
        /// Argument index.
        index: u32,
        /// Whether the argument carries the `noalias` attribute.
        noalias: bool,
    },
    /// A module global.
    Global(GlobalId),
    /// A pointer loaded from memory (unknown provenance).
    LoadResult(InstId),
    /// A pointer returned by a call (unknown provenance).
    CallResult(InstId),
    /// A phi or select of pointers (not traced through).
    Merge(InstId),
    /// Anything else (int-to-ptr casts, constants, undef).
    Unknown,
}

impl PtrBase {
    /// The value naming the base: its instruction, argument or global;
    /// `None` when unknown.
    pub fn value(self) -> Option<Value> {
        match self {
            PtrBase::Alloca(i)
            | PtrBase::LoadResult(i)
            | PtrBase::CallResult(i)
            | PtrBase::Merge(i) => Some(Value::Inst(i)),
            PtrBase::Arg { index, .. } => Some(Value::Arg(index)),
            PtrBase::Global(g) => Some(Value::Global(g)),
            PtrBase::Unknown => None,
        }
    }
}

/// A pointer decomposed as `base + const_off + sum(index_i * scale_i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecomposedPtr {
    /// Underlying object.
    pub base: PtrBase,
    /// Constant byte offset accumulated over the GEP chain.
    pub const_off: i64,
    /// Dynamic `(index value, byte scale)` terms, in walk order.
    pub dynamic: Vec<(Value, i64)>,
}

impl DecomposedPtr {
    /// True when the offset is entirely constant.
    pub fn is_const_offset(&self) -> bool {
        self.dynamic.is_empty()
    }

    /// True when both decompositions have the same dynamic terms
    /// (syntactically, same value and scale, order-insensitively).
    pub fn same_dynamic_terms(&self, other: &DecomposedPtr) -> bool {
        if self.dynamic.len() != other.dynamic.len() {
            return false;
        }
        let mut other_terms = other.dynamic.clone();
        for term in &self.dynamic {
            match other_terms.iter().position(|t| t == term) {
                Some(i) => {
                    other_terms.swap_remove(i);
                }
                None => return false,
            }
        }
        true
    }
}

/// Decomposes `ptr` within `f`, walking through GEP instructions.
pub fn decompose(f: &Function, ptr: Value) -> DecomposedPtr {
    let mut const_off: i64 = 0;
    let mut dynamic: Vec<(Value, i64)> = Vec::new();
    let mut cur = ptr;
    // GEP chains are acyclic in SSA (an instruction cannot be its own
    // ancestor operand), so this walk terminates.
    loop {
        match cur {
            Value::Global(g) => {
                return DecomposedPtr {
                    base: PtrBase::Global(g),
                    const_off,
                    dynamic,
                }
            }
            Value::Arg(i) => {
                let noalias = f.params.get(i as usize).map(|p| p.noalias).unwrap_or(false);
                return DecomposedPtr {
                    base: PtrBase::Arg { index: i, noalias },
                    const_off,
                    dynamic,
                };
            }
            Value::Inst(id) => match f.inst(id) {
                Inst::Gep { base, offset } => {
                    match offset {
                        GepOffset::Const(c) => const_off += c,
                        GepOffset::Scaled { index, scale, add } => {
                            const_off += add;
                            match index.as_int() {
                                // Fold constant indices into the constant
                                // offset (common after loop unrolling).
                                Some(ci) => const_off += ci * scale,
                                None => dynamic.push((*index, *scale)),
                            }
                        }
                    }
                    cur = *base;
                }
                Inst::Alloca { .. } => {
                    return DecomposedPtr {
                        base: PtrBase::Alloca(id),
                        const_off,
                        dynamic,
                    }
                }
                Inst::Load { .. } => {
                    return DecomposedPtr {
                        base: PtrBase::LoadResult(id),
                        const_off,
                        dynamic,
                    }
                }
                Inst::Call { .. } => {
                    return DecomposedPtr {
                        base: PtrBase::CallResult(id),
                        const_off,
                        dynamic,
                    }
                }
                Inst::Phi { .. } | Inst::Select { .. } => {
                    return DecomposedPtr {
                        base: PtrBase::Merge(id),
                        const_off,
                        dynamic,
                    }
                }
                _ => {
                    return DecomposedPtr {
                        base: PtrBase::Unknown,
                        const_off,
                        dynamic,
                    }
                }
            },
            _ => {
                return DecomposedPtr {
                    base: PtrBase::Unknown,
                    const_off,
                    dynamic,
                }
            }
        }
    }
}

/// The underlying object of `ptr` (convenience wrapper).
pub fn underlying_object(f: &Function, ptr: Value) -> PtrBase {
    decompose(f, ptr).base
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty};

    #[test]
    fn walks_gep_chain() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::I64], None);
        let p = b.arg(0);
        let i = b.arg(1);
        let a = b.gep(p, 16);
        let c = b.gep_scaled(a, i, 8, 4);
        let d = b.gep(c, -8);
        b.store(Ty::I64, i, d);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dec = decompose(f, Value::Inst(f.blocks()[0].insts[2])); // d
        assert_eq!(
            dec.base,
            PtrBase::Arg {
                index: 0,
                noalias: false
            }
        );
        assert_eq!(dec.const_off, 16 + 4 - 8);
        assert_eq!(dec.dynamic, vec![(i, 8)]);
    }

    #[test]
    fn constant_index_folds() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let g = b.gep_scaled(p, Value::ConstInt(3), 8, 0);
        b.store(Ty::I64, Value::ConstInt(0), g);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dec = decompose(f, Value::Inst(f.blocks()[0].insts[0]));
        assert!(dec.is_const_offset());
        assert_eq!(dec.const_off, 24);
    }

    #[test]
    fn alloca_and_noalias_bases() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        b.set_noalias(0, true);
        let a = b.alloca(64, "buf");
        let g = b.gep(a, 8);
        b.store(Ty::I64, Value::ConstInt(0), g);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dec = decompose(f, Value::Inst(f.blocks()[0].insts[1]));
        assert!(matches!(dec.base, PtrBase::Alloca(_)));
        let argdec = decompose(f, Value::Arg(0));
        assert_eq!(
            argdec.base,
            PtrBase::Arg {
                index: 0,
                noalias: true
            }
        );
    }

    #[test]
    fn same_dynamic_terms_is_order_insensitive() {
        let a = DecomposedPtr {
            base: PtrBase::Unknown,
            const_off: 0,
            dynamic: vec![(Value::Arg(0), 8), (Value::Arg(1), 4)],
        };
        let b = DecomposedPtr {
            base: PtrBase::Unknown,
            const_off: 4,
            dynamic: vec![(Value::Arg(1), 4), (Value::Arg(0), 8)],
        };
        assert!(a.same_dynamic_terms(&b));
        let c = DecomposedPtr {
            base: PtrBase::Unknown,
            const_off: 0,
            dynamic: vec![(Value::Arg(0), 4)],
        };
        assert!(!a.same_dynamic_terms(&c));
    }
}
