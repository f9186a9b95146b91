//! SSA values and basic-block handles.

use crate::inst::InstId;
use crate::module::GlobalId;

/// Handle to a basic block within a [`crate::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// An SSA value: either the result of an instruction, a function argument,
/// the address of a global, or a constant.
///
/// `Value` is `Copy` and order-independent hashable so it can serve as the
/// key of alias-query caches (the ORAQL pass caches on unordered pointer
/// pairs, see the paper's Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Result of instruction `InstId` in the current function.
    Inst(InstId),
    /// The `n`-th argument of the current function.
    Arg(u32),
    /// Address of a module-level global.
    Global(GlobalId),
    /// 64-bit integer constant (also used for the boolean constants 0/1).
    ConstInt(i64),
    /// 64-bit float constant, stored as raw bits so `Value` stays `Eq`.
    ConstFloat(u64),
    /// Undefined value (result of removed instructions, padding reads).
    Undef,
}

impl Value {
    /// Convenience constructor for a float constant.
    pub fn const_f64(x: f64) -> Value {
        Value::ConstFloat(x.to_bits())
    }

    /// Extracts an integer constant, if this is one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::ConstInt(i) => Some(i),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_roundtrip() {
        let v = Value::const_f64(3.25);
        let Value::ConstFloat(bits) = v else {
            panic!("{v:?} is not a float constant")
        };
        assert_eq!(f64::from_bits(bits), 3.25);
        assert_eq!(v.as_int(), None);
    }

    #[test]
    fn int_extraction() {
        assert_eq!(Value::ConstInt(7).as_int(), Some(7));
        assert_eq!(Value::Undef.as_int(), None);
    }

    #[test]
    fn nan_constants_are_eq_by_bits() {
        let a = Value::const_f64(f64::NAN);
        let b = Value::const_f64(f64::NAN);
        assert_eq!(a, b); // same bit pattern
    }
}
