//! Runtime values.

/// A value held in a virtual register during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum RtVal {
    /// Integer (all integer widths are held sign-extended in 64 bits;
    /// truncation happens at stores and explicit `Trunc` casts).
    I(i64),
    /// 64-bit float (F32 values are held widened).
    F(f64),
    /// Pointer (byte address in the VM's flat address space).
    P(u64),
    /// Integer vector.
    VI(Vec<i64>),
    /// Float vector.
    VF(Vec<f64>),
}

impl RtVal {
    /// Integer content, or an error string.
    pub fn as_i(&self) -> Result<i64, String> {
        match self {
            RtVal::I(x) => Ok(*x),
            other => Err(format!("expected int, got {other:?}")),
        }
    }

    /// Float content.
    pub fn as_f(&self) -> Result<f64, String> {
        match self {
            RtVal::F(x) => Ok(*x),
            other => Err(format!("expected float, got {other:?}")),
        }
    }

    /// Pointer content.
    pub fn as_p(&self) -> Result<u64, String> {
        match self {
            RtVal::P(x) => Ok(*x),
            other => Err(format!("expected pointer, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(RtVal::I(3).as_i().unwrap(), 3);
        assert_eq!(RtVal::F(2.5).as_f().unwrap(), 2.5);
        assert_eq!(RtVal::P(0x1000).as_p().unwrap(), 0x1000);
        assert!(RtVal::I(3).as_f().is_err());
        assert!(RtVal::F(1.0).as_p().is_err());
    }
}
