//! MemCpy optimization: forwards memcpy sources through copy chains and
//! removes trivially dead copies.

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::{AliasResult, MemoryLocation};
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::{Edit, Edits, FunctionId, Module};

/// The pass.
pub struct MemCpyOpt;

impl Pass for MemCpyOpt {
    fn name(&self) -> &'static str {
        "memcpy optimization"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut optimized = 0u64;

        // Remove no-op copies first.
        let f = m.func(fid);
        let noop: Edits = f
            .live_insts()
            .filter(|&id| match f.inst(id) {
                Inst::Memcpy {
                    dst, src, bytes, ..
                } => dst == src || bytes.as_int() == Some(0),
                _ => false,
            })
            .map(Edit::Remove)
            .collect();
        optimized += noop.len() as u64;
        m.func_mut(fid).apply(&noop);

        // Chain forwarding within a block:
        //   memcpy(b, a, n) ... memcpy(c, b, k<=n)  =>  memcpy(c, a, k)
        // provided nothing between the two copies may write `a` or `b`.
        let nblocks = m.func(fid).blocks().len();
        for bi in 0..nblocks {
            let ids: Vec<InstId> = m.func(fid).blocks()[bi].insts.clone();
            for (i, &first) in ids.iter().enumerate() {
                let (b_dst, a_src, n) = match m.func(fid).inst(first) {
                    Inst::Memcpy {
                        dst, src, bytes, ..
                    } => match bytes.as_int() {
                        Some(n) if n > 0 => (*dst, *src, n),
                        _ => continue,
                    },
                    _ => continue,
                };
                // Scan forward for a copy out of b_dst.
                'second: for &second in &ids[i + 1..] {
                    if matches!(m.func(fid).inst(second), Inst::Removed) {
                        continue;
                    }
                    if let Inst::Memcpy {
                        dst, src, bytes, ..
                    } = m.func(fid).inst(second)
                    {
                        let (c_dst, b_src, k) = (*dst, *src, *bytes);
                        if b_src == b_dst && k.as_int().map(|k| k <= n).unwrap_or(false) {
                            // Nothing between may have written a or b.
                            let loc_a = MemoryLocation::precise(a_src, n as u64);
                            let loc_b = MemoryLocation::precise(b_dst, n as u64);
                            let between: Vec<InstId> = ids[i + 1..]
                                .iter()
                                .copied()
                                .take_while(|&x| x != second)
                                .collect();
                            for mid in between {
                                if matches!(m.func(fid).inst(mid), Inst::Removed) {
                                    continue;
                                }
                                if cx.aa.may_clobber(m, fid, mid, &loc_a)
                                    || cx.aa.may_clobber(m, fid, mid, &loc_b)
                                {
                                    break 'second;
                                }
                            }
                            // Also the source regions must not overlap in
                            // a way that changes semantics: a vs c write.
                            let loc_c =
                                MemoryLocation::precise(c_dst, k.as_int().unwrap_or(0) as u64);
                            if cx.aa.alias(m, fid, &loc_a, &loc_c) != AliasResult::NoAlias {
                                break 'second;
                            }
                            if let Inst::Memcpy { src, .. } = m.func_mut(fid).inst_mut(second) {
                                *src = a_src;
                            }
                            optimized += 1;
                            break 'second;
                        }
                        // A copy INTO b_dst between kills the chain.
                        if cx.aa.may_clobber(
                            m,
                            fid,
                            second,
                            &MemoryLocation::precise(b_dst, n as u64),
                        ) {
                            break 'second;
                        }
                    } else if m.func(fid).inst(second).writes_memory() {
                        let loc_b = MemoryLocation::precise(b_dst, n as u64);
                        let loc_a = MemoryLocation::precise(a_src, n as u64);
                        if cx.aa.may_clobber(m, fid, second, &loc_b)
                            || cx.aa.may_clobber(m, fid, second, &loc_a)
                        {
                            break 'second;
                        }
                    }
                }
            }
        }

        cx.stat("memcpy optimization", "memcpys optimized", optimized);
    }
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
    fn chain_is_forwarded() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(16, "a");
        let t = b.alloca(16, "tmp");
        let c = b.alloca(16, "c");
        b.store(Ty::I64, Value::ConstInt(77), a);
        b.memcpy(t, a, Value::ConstInt(16));
        b.memcpy(c, t, Value::ConstInt(16));
        let l = b.load(Ty::I64, c);
        b.print("{}", vec![l]);
        b.ret(None);
        let fid = b.finish();
        let stats = run_pass(&mut m, MemCpyOpt);
        assert_eq!(stats.get("memcpy optimization", "memcpys optimized"), 1);
        // Second copy now reads from a directly.
        let f = m.func(fid);
        let copies: Vec<_> = f
            .live_insts()
            .filter(|&i| matches!(f.inst(i), Inst::Memcpy { .. }))
            .collect();
        match f.inst(copies[1]) {
            Inst::Memcpy { src, .. } => assert_eq!(*src, a),
            _ => unreachable!(),
        }
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "77\n");
    }

    #[test]
    fn interleaved_write_blocks_forwarding() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(16, "a");
        let t = b.alloca(16, "tmp");
        let c = b.alloca(16, "c");
        b.store(Ty::I64, Value::ConstInt(1), a);
        b.memcpy(t, a, Value::ConstInt(16));
        b.store(Ty::I64, Value::ConstInt(2), a); // a changes!
        b.memcpy(c, t, Value::ConstInt(16));
        let l = b.load(Ty::I64, c);
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, MemCpyOpt);
        assert_eq!(stats.get("memcpy optimization", "memcpys optimized"), 0);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "1\n"); // t still holds the old value
    }

    #[test]
    fn self_and_zero_copies_removed() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(16, "a");
        let bp = b.alloca(16, "b");
        b.memcpy(a, a, Value::ConstInt(16));
        b.memcpy(bp, a, Value::ConstInt(0));
        b.print("ok", vec![]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, MemCpyOpt);
        assert_eq!(stats.get("memcpy optimization", "memcpys optimized"), 2);
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "ok\n");
    }
}
