//! The instruction set.
//!
//! Instructions live in a per-function arena and are referenced by
//! [`InstId`]. Basic blocks hold an ordered list of instruction ids; a
//! removed instruction stays in the arena (so ids remain stable) but is
//! dropped from its block's list and its data replaced by `Inst::Removed`.

use crate::interner::StrId;
use crate::meta::{AccessMeta, SrcLoc};
use crate::module::FunctionId;
use crate::types::Ty;
use crate::value::{BlockId, Value};

/// Handle to an instruction within a [`crate::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Integer/float binary operators. Operators apply lane-wise to vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; division by zero traps deterministically.
    Div,
    /// Signed remainder.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic shift right.
    Shr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    /// Floating minimum (propagates the first operand on NaN ties).
    FMin,
    /// Floating maximum.
    FMax,
}

impl BinOp {
    /// True for the floating-point operators.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax
        )
    }

    /// True for commutative operators (used by value numbering to
    /// canonicalize operand order).
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::FMin
                | BinOp::FMax
        )
    }
}

/// Comparison predicates (integer and float variants share one enum; the
/// operand type disambiguates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    Eq,
    Ne,
    /// Signed less-than.
    Lt,
    Le,
    Gt,
    Ge,
}

/// Value casts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Signed int -> float.
    SiToFp,
    /// Float -> signed int (truncating).
    FpToSi,
    /// Integer truncation to the target width.
    Trunc,
    /// Zero/sign-preserving extension to i64 semantics (values are stored
    /// widened in registers; this is a no-op marker kept for fidelity).
    Ext,
    /// Pointer -> i64.
    PtrToInt,
    /// i64 -> pointer.
    IntToPtr,
    /// F32 <-> F64 conversion.
    FpCast,
    /// Broadcast a scalar into every lane of the result vector type.
    Splat,
}

/// Address computation performed by a [`Inst::Gep`].
///
/// Pointers are opaque; a GEP adds a byte offset that is either constant
/// or a scaled dynamic index (`base + index * scale + add`). This is rich
/// enough for `BasicAA`-style disjointness reasoning on constant parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GepOffset {
    /// Constant byte offset.
    Const(i64),
    /// `index * scale + add` bytes, with a dynamic `index`.
    Scaled {
        /// Dynamic index value (i64).
        index: Value,
        /// Byte scale (element size).
        scale: i64,
        /// Constant byte addend (e.g. a struct field offset).
        add: i64,
    },
}

/// Callee of a [`Inst::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuncRef {
    /// A function in the same module.
    Internal(FunctionId),
    /// An external routine handled by the VM (`sqrt`, `exp`, ...).
    External(StrId),
}

/// How a call executes. Parallel programming models are modelled
/// structurally: an outlined parallel region or device kernel is a
/// function whose first argument is the thread/work-item id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Ordinary direct call.
    Plain,
    /// OpenMP-style parallel region: the VM invokes the callee once per
    /// thread id `0..threads`, deterministically in order, passing the id
    /// as an implicit leading `i64` argument.
    ParallelRegion {
        /// Number of simulated threads.
        threads: u32,
    },
    /// Device kernel launch: like a parallel region but the callee must
    /// live in a [`crate::Target::Device`] function, invoked once per
    /// work-item id `0..items`.
    KernelLaunch {
        /// Number of simulated work items.
        items: u32,
    },
}

/// The instruction payload. See module docs for conventions.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Stack allocation of `size` bytes; yields a pointer.
    Alloca {
        /// Allocation size in bytes.
        size: u64,
        /// Debug name of the allocated object.
        name: StrId,
    },
    /// Load `ty` from `ptr`.
    Load {
        ptr: Value,
        ty: Ty,
        meta: AccessMeta,
    },
    /// Store `value` (of type `ty`) to `ptr`.
    Store {
        ptr: Value,
        value: Value,
        ty: Ty,
        meta: AccessMeta,
    },
    /// Pointer arithmetic; yields a pointer.
    Gep { base: Value, offset: GepOffset },
    /// Binary arithmetic; operands and result share `ty`.
    Bin {
        op: BinOp,
        ty: Ty,
        lhs: Value,
        rhs: Value,
    },
    /// Comparison; yields `I1`. `ty` is the operand type.
    Cmp {
        pred: CmpPred,
        ty: Ty,
        lhs: Value,
        rhs: Value,
    },
    /// `cond ? t : f`; `ty` is the result type.
    Select {
        cond: Value,
        t: Value,
        f: Value,
        ty: Ty,
    },
    /// Value cast; `to` is the result type.
    Cast { kind: CastKind, val: Value, to: Ty },
    /// Call; `ret` is the result type if the callee returns a value.
    Call {
        callee: FuncRef,
        args: Vec<Value>,
        ret: Option<Ty>,
        kind: CallKind,
    },
    /// Return from the function.
    Ret { val: Option<Value> },
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch on an `I1`.
    CondBr {
        cond: Value,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// SSA phi; `incoming` pairs a predecessor block with the value
    /// flowing in along that edge. `ty` is the result type.
    Phi {
        ty: Ty,
        incoming: Vec<(BlockId, Value)>,
    },
    /// Deterministic formatted output (the verification channel). `fmt`
    /// contains `{}` placeholders consumed left-to-right by `args`.
    Print { fmt: StrId, args: Vec<Value> },
    /// `memcpy(dst, src, bytes)`; byte count may be dynamic.
    Memcpy {
        dst: Value,
        src: Value,
        bytes: Value,
        meta: AccessMeta,
    },
    /// Placeholder left behind by passes that delete instructions.
    Removed,
}

impl Inst {
    /// Result type of the instruction, `None` for void instructions.
    pub fn result_ty(&self) -> Option<Ty> {
        match self {
            Inst::Alloca { .. } | Inst::Gep { .. } => Some(Ty::Ptr),
            Inst::Load { ty, .. } => Some(*ty),
            Inst::Bin { ty, .. } => Some(*ty),
            Inst::Cmp { .. } => Some(Ty::I1),
            Inst::Select { ty, .. } => Some(*ty),
            Inst::Cast { to, .. } => Some(*to),
            Inst::Call { ret, .. } => *ret,
            Inst::Phi { ty, .. } => Some(*ty),
            Inst::Store { .. }
            | Inst::Ret { .. }
            | Inst::Br { .. }
            | Inst::CondBr { .. }
            | Inst::Print { .. }
            | Inst::Memcpy { .. }
            | Inst::Removed => None,
        }
    }

    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Ret { .. } | Inst::Br { .. } | Inst::CondBr { .. }
        )
    }

    /// True when the instruction may read memory.
    pub fn reads_memory(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Call { .. } | Inst::Memcpy { .. }
        )
    }

    /// True when the instruction may write memory.
    pub fn writes_memory(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::Call { .. } | Inst::Memcpy { .. }
        )
    }

    /// Invokes `f` on every value operand, in a stable order.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Alloca { .. } | Inst::Removed | Inst::Br { .. } => {}
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { ptr, value, .. } => {
                f(*ptr);
                f(*value);
            }
            Inst::Gep { base, offset } => {
                f(*base);
                if let GepOffset::Scaled { index, .. } = offset {
                    f(*index);
                }
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Select { cond, t, f: fv, .. } => {
                f(*cond);
                f(*t);
                f(*fv);
            }
            Inst::Cast { val, .. } => f(*val),
            Inst::Call { args, .. } => args.iter().copied().for_each(f),
            Inst::Ret { val } => {
                if let Some(v) = val {
                    f(*v)
                }
            }
            Inst::CondBr { cond, .. } => f(*cond),
            Inst::Phi { incoming, .. } => incoming.iter().for_each(|(_, v)| f(*v)),
            Inst::Print { args, .. } => args.iter().copied().for_each(f),
            Inst::Memcpy {
                dst, src, bytes, ..
            } => {
                f(*dst);
                f(*src);
                f(*bytes);
            }
        }
    }

    /// Invokes `f` on a mutable reference to every value operand; used by
    /// replace-all-uses-with.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Inst::Alloca { .. } | Inst::Removed | Inst::Br { .. } => {}
            Inst::Load { ptr, .. } => f(ptr),
            Inst::Store { ptr, value, .. } => {
                f(ptr);
                f(value);
            }
            Inst::Gep { base, offset } => {
                f(base);
                if let GepOffset::Scaled { index, .. } = offset {
                    f(index);
                }
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Select { cond, t, f: fv, .. } => {
                f(cond);
                f(t);
                f(fv);
            }
            Inst::Cast { val, .. } => f(val),
            Inst::Call { args, .. } => args.iter_mut().for_each(f),
            Inst::Ret { val } => {
                if let Some(v) = val {
                    f(v)
                }
            }
            Inst::CondBr { cond, .. } => f(cond),
            Inst::Phi { incoming, .. } => incoming.iter_mut().for_each(|(_, v)| f(v)),
            Inst::Print { args, .. } => args.iter_mut().for_each(f),
            Inst::Memcpy {
                dst, src, bytes, ..
            } => {
                f(dst);
                f(src);
                f(bytes);
            }
        }
    }

    /// Collects the operands into a vector (convenience for tests and
    /// hashing in value numbering).
    pub fn operands(&self) -> Vec<Value> {
        let mut v = Vec::new();
        self.for_each_operand(|x| v.push(x));
        v
    }
}

/// An instruction together with its metadata as stored in the function
/// arena.
#[derive(Debug, Clone, PartialEq)]
pub struct InstData {
    /// The payload.
    pub inst: Inst,
    /// Block this instruction currently belongs to (kept in sync by the
    /// builder and passes).
    pub block: BlockId,
    /// Optional source location for reports.
    pub loc: Option<SrcLoc>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_types() {
        let l = Inst::Load {
            ptr: Value::Arg(0),
            ty: Ty::F64,
            meta: AccessMeta::default(),
        };
        assert_eq!(l.result_ty(), Some(Ty::F64));
        let s = Inst::Store {
            ptr: Value::Arg(0),
            value: Value::ConstInt(1),
            ty: Ty::I64,
            meta: AccessMeta::default(),
        };
        assert_eq!(s.result_ty(), None);
        assert!(s.writes_memory());
        assert!(!s.reads_memory());
        assert!(l.reads_memory());
    }

    #[test]
    fn operand_iteration_order_is_stable() {
        let i = Inst::Memcpy {
            dst: Value::Arg(0),
            src: Value::Arg(1),
            bytes: Value::ConstInt(16),
            meta: AccessMeta::default(),
        };
        assert_eq!(
            i.operands(),
            vec![Value::Arg(0), Value::Arg(1), Value::ConstInt(16)]
        );
    }

    #[test]
    fn operand_mutation() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            lhs: Value::Arg(0),
            rhs: Value::Arg(1),
        };
        i.for_each_operand_mut(|v| {
            if *v == Value::Arg(0) {
                *v = Value::ConstInt(5)
            }
        });
        assert_eq!(i.operands(), vec![Value::ConstInt(5), Value::Arg(1)]);
    }

    #[test]
    fn gep_scaled_operands() {
        let g = Inst::Gep {
            base: Value::Arg(0),
            offset: GepOffset::Scaled {
                index: Value::Arg(1),
                scale: 8,
                add: 16,
            },
        };
        assert_eq!(g.operands(), vec![Value::Arg(0), Value::Arg(1)]);
        assert_eq!(g.result_ty(), Some(Ty::Ptr));
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.commutative());
        assert!(!BinOp::Sub.commutative());
        assert!(BinOp::FMul.commutative());
        assert!(!BinOp::Div.commutative());
    }

    #[test]
    fn terminators() {
        assert!(Inst::Ret { val: None }.is_terminator());
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(!Inst::Removed.is_terminator());
    }
}
