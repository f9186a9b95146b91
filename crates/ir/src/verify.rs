//! Structural IR verifier.
//!
//! Checks the invariants the passes and the VM rely on:
//! * every block ends with exactly one terminator, and terminators
//!   appear only at block ends;
//! * operand references point at live instructions, existing arguments
//!   and existing globals;
//! * phis appear only at the head of a block, have one incoming entry
//!   per predecessor, and reference actual predecessors;
//! * instruction `block` back-pointers are consistent;
//! * call signatures match their callees.
//!
//! (Full SSA dominance checking is intentionally omitted: the passes
//! only move instructions in dominance-preserving ways, and the
//! interpreter traps on reads of undefined values, which covers the
//! remaining risk in tests.)

use crate::cfg;
use crate::inst::{FuncRef, Inst};
use crate::module::{FunctionId, Module};
use crate::value::{BlockId, Value};

/// A verifier failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function that failed verification.
    pub func: String,
    /// Description of the violated invariant.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "verify({}): {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function in the module.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for i in 0..m.funcs.len() {
        verify_function(m, FunctionId(i as u32))?;
    }
    Ok(())
}

/// Verifies a single function.
pub fn verify_function(m: &Module, id: FunctionId) -> Result<(), VerifyError> {
    let f = m.func(id);
    let err = |msg: String| {
        Err(VerifyError {
            func: f.name.clone(),
            message: msg,
        })
    };

    if f.blocks().is_empty() {
        return err("function has no blocks".into());
    }

    let preds = cfg::predecessors(f);

    // Collect live instruction ids for operand checking.
    let mut live = vec![false; f.insts().len()];
    for (bi, block) in f.blocks().iter().enumerate() {
        for &iid in &block.insts {
            if iid.0 as usize >= f.insts().len() {
                return err(format!("block {bi} references out-of-range inst {iid:?}"));
            }
            if live[iid.0 as usize] {
                return err(format!("inst {iid:?} appears in more than one position"));
            }
            live[iid.0 as usize] = true;
            if f.insts()[iid.0 as usize].block != BlockId(bi as u32) {
                return err(format!(
                    "inst {iid:?} block back-pointer is {:?}, expected block {bi}",
                    f.insts()[iid.0 as usize].block
                ));
            }
            if matches!(f.inst(iid), Inst::Removed) {
                return err(format!("removed inst {iid:?} still listed in block {bi}"));
            }
        }
    }

    for (bi, block) in f.blocks().iter().enumerate() {
        // Terminator discipline.
        match block.insts.last() {
            None => return err(format!("block {bi} is empty")),
            Some(&last) if !f.inst(last).is_terminator() => {
                return err(format!("block {bi} does not end in a terminator"))
            }
            _ => {}
        }
        for (pos, &iid) in block.insts.iter().enumerate() {
            let inst = f.inst(iid);
            if inst.is_terminator() && pos + 1 != block.insts.len() {
                return err(format!("terminator {iid:?} not at end of block {bi}"));
            }
            if matches!(inst, Inst::Phi { .. }) {
                // Phis must be at the head (possibly several).
                let all_phis_before = block.insts[..pos]
                    .iter()
                    .all(|&p| matches!(f.inst(p), Inst::Phi { .. }));
                if !all_phis_before {
                    return err(format!("phi {iid:?} is not at the head of block {bi}"));
                }
            }

            // Phi incoming edges match predecessors.
            if let Inst::Phi { incoming, .. } = inst {
                let ps = &preds[bi];
                if incoming.len() != ps.len() {
                    return err(format!(
                        "phi {iid:?} in block {bi} has {} incoming edges, block has {} preds",
                        incoming.len(),
                        ps.len()
                    ));
                }
                for (from, _) in incoming {
                    if !ps.contains(from) {
                        return err(format!(
                            "phi {iid:?} has incoming edge from non-predecessor {from:?}"
                        ));
                    }
                }
            }

            // Branch targets exist.
            match inst {
                Inst::Br { target } if target.0 as usize >= f.blocks().len() => {
                    return err(format!("branch to unknown block {target:?}"));
                }
                Inst::CondBr {
                    then_bb, else_bb, ..
                } if (then_bb.0 as usize >= f.blocks().len()
                    || else_bb.0 as usize >= f.blocks().len()) =>
                {
                    return err("conditional branch to unknown block".into());
                }
                _ => {}
            }

            // Operands reference live defs.
            let mut op_err: Option<String> = None;
            inst.for_each_operand(|v| {
                if op_err.is_some() {
                    return;
                }
                match v {
                    Value::Inst(d) => {
                        if d.0 as usize >= f.insts().len() || !live[d.0 as usize] {
                            op_err = Some(format!("{iid:?} uses dead/unknown inst {d:?}"));
                        } else if f.inst(d).result_ty().is_none() {
                            op_err = Some(format!("{iid:?} uses void inst {d:?} as a value"));
                        }
                    }
                    Value::Arg(a) if a as usize >= f.params.len() => {
                        op_err = Some(format!("{iid:?} uses unknown argument {a}"));
                    }
                    Value::Global(g) if g.0 as usize >= m.globals.len() => {
                        op_err = Some(format!("{iid:?} uses unknown global {g:?}"));
                    }
                    _ => {}
                }
            });
            if let Some(msg) = op_err {
                return err(msg);
            }

            // Call signatures.
            if let Inst::Call {
                callee: FuncRef::Internal(cid),
                args,
                ret,
                kind,
            } = inst
            {
                if cid.0 as usize >= m.funcs.len() {
                    return err(format!("call to unknown function {cid:?}"));
                }
                let callee = m.func(*cid);
                // Parallel/kernel calls get an implicit leading i64 id.
                let implicit = match kind {
                    crate::inst::CallKind::Plain => 0,
                    _ => 1,
                };
                if args.len() + implicit != callee.params.len() {
                    return err(format!(
                        "call to {} passes {} args (+{implicit} implicit), callee takes {}",
                        callee.name,
                        args.len(),
                        callee.params.len()
                    ));
                }
                if *ret != callee.ret {
                    return err(format!(
                        "call to {} return type mismatch ({:?} vs {:?})",
                        callee.name, ret, callee.ret
                    ));
                }
            }
        }
    }

    Ok(())
}

/// Panics (with the error) when verification fails. Convenience for
/// tests and pass pipelines in debug mode.
pub fn assert_valid(m: &Module) {
    if let Err(e) = verify_module(m) {
        panic!("IR verification failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::Edit;
    use crate::types::Ty;
    use crate::value::Value;

    #[test]
    fn valid_function_passes() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "ok", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let v = b.load(Ty::I64, p);
        b.store(Ty::I64, v, p);
        b.ret(None);
        let id = b.finish();
        assert!(verify_function(&m, id).is_ok());
    }

    #[test]
    fn missing_terminator_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "bad", vec![Ty::Ptr], None);
        let p = b.arg(0);
        b.load(Ty::I64, p);
        let id = b.finish();
        let e = verify_function(&m, id).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn dangling_use_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "bad", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let v = b.load(Ty::I64, p);
        b.store(Ty::I64, v, p);
        b.ret(None);
        let id = b.finish();
        // Remove the load but leave the store using it.
        let f = m.func_mut(id);
        let load = f.blocks()[0].insts[0];
        f.apply(&[Edit::Remove(load)]);
        let e = verify_function(&m, id).unwrap_err();
        assert!(e.message.contains("dead"), "{e}");
    }

    #[test]
    fn unknown_argument_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "bad", vec![], None);
        b.store(Ty::I64, Value::ConstInt(0), Value::Arg(3));
        b.ret(None);
        let id = b.finish();
        assert!(verify_function(&m, id).is_err());
    }

    #[test]
    fn phi_pred_mismatch_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "bad", vec![], None);
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        // Phi claims two incoming edges but `next` has one predecessor.
        b.phi(
            Ty::I64,
            vec![
                (crate::module::Function::ENTRY, Value::ConstInt(0)),
                (next, Value::ConstInt(1)),
            ],
        );
        b.ret(None);
        let id = b.finish();
        assert!(verify_function(&m, id).is_err());
    }
}
