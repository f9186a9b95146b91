//! MemorySSA priming pass: builds MemorySSA for each function and walks
//! every load to its clobber.
//!
//! In LLVM, MemorySSA is an analysis whose construction and walks issue
//! large numbers of alias queries that are then reused by GVN, DSE,
//! LICM and others. The paper found that in Quicksilver 61% of all
//! optimistically answered queries originated from MemorySSA. This pass
//! reproduces that behaviour: it performs the walks (issuing the
//! queries, which warms the ORAQL pass's cache in the process) without
//! transforming anything.

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::MemoryLocation;
use oraql_analysis::memssa::{MemAccess, MemorySsa};
use oraql_ir::inst::Inst;
use oraql_ir::module::{FunctionId, Module};

/// The priming pass.
pub struct MemorySsaPrime;

impl Pass for MemorySsaPrime {
    fn name(&self) -> &'static str {
        "MemorySSA"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let f = m.func(fid);
        let mssa = MemorySsa::build(f, cx.facts.cfg(f));
        let loads: Vec<_> = f
            .live_insts()
            .filter(|&id| matches!(f.inst(id), Inst::Load { .. }))
            .collect();
        let mut walks = 0u64;
        let mut to_entry = 0u64;
        for id in loads {
            let f = m.func(fid);
            let Some(loc) = MemoryLocation::of_access(f, id) else {
                continue;
            };
            let start = mssa.defining_access(f, id);
            let clobber = mssa.clobber_walk(m, fid, cx.aa, &loc, start);
            walks += 1;
            if clobber == MemAccess::LiveOnEntry {
                to_entry += 1;
            }
        }
        cx.stat("MemorySSA", "clobber walks", walks);
        cx.stat("MemorySSA", "walks reaching entry", to_entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use oraql_analysis::basic::BasicAA;
    use oraql_analysis::facts::FunctionFacts;
    use oraql_analysis::AAManager;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Ty, Value};

    #[test]
    fn priming_issues_queries() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::Ptr], None);
        let p = b.arg(0);
        let q = b.arg(1);
        b.store(Ty::I64, Value::ConstInt(1), q);
        let l = b.load(Ty::I64, p); // must query the store to q
        b.store(Ty::I64, l, q);
        b.ret(None);
        let fid = b.finish();
        let mut aa = AAManager::new();
        aa.add(Box::new(BasicAA::new()));
        let mut stats = Stats::new();
        let mut cx = PassCx {
            aa: &mut aa,
            stats: &mut stats,
            facts: &mut FunctionFacts::default(),
        };
        MemorySsaPrime.run(&mut m, fid, &mut cx);
        assert_eq!(stats.get("MemorySSA", "clobber walks"), 1);
        assert!(aa.total_queries >= 1);
    }
}
