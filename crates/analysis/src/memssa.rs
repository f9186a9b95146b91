//! Memory SSA: a sparse representation of memory def-use chains.
//!
//! Loads and stores are threaded through a single memory state; blocks
//! with multiple predecessors get (unpruned) memory phis. The *walker*
//! answers "what is the nearest access that may clobber this location?"
//! by stepping over intervening defs and querying the alias-analysis
//! chain for each — this is where the bulk of MemorySSA's alias queries
//! come from (the paper observes 61% of Quicksilver's optimistic queries
//! originate here).

use crate::aa::AAManager;
use crate::facts::CfgFacts;
use crate::location::MemoryLocation;
use oraql_ir::hash::FxHashSet;
use oraql_ir::inst::InstId;
use oraql_ir::module::{Function, FunctionId, Module};
use oraql_ir::value::BlockId;
use std::rc::Rc;

/// A memory access in the MemorySSA graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccess {
    /// The memory state on function entry.
    LiveOnEntry,
    /// The merged state at the head of a multi-predecessor block.
    Phi(BlockId),
    /// The state produced by a memory-writing instruction.
    Def(InstId),
}

/// MemorySSA form of one function (structure only; clobber walks take
/// the AA manager as a parameter).
///
/// `build` records, for every instruction, how many defs precede it in
/// its block (for a def, its index in the block's def list), so the def
/// before an instruction, and each step of a walk from a def, is one
/// lookup. The record relies on one condition: while the analysis is
/// alive, loads may be removed (GVN deletes loads between its clobber
/// walks; that changes no def count) but defs may not be removed, and
/// no instruction may be inserted or moved.
pub struct MemorySsa {
    /// Memory-writing instructions per block, in order.
    defs_in_block: Vec<Vec<InstId>>,
    /// `defs_before[i]`: the defs before instruction `i` in its block at
    /// build time.
    defs_before: Vec<u32>,
    /// The function's CFG facts (for predecessor lists).
    cfg: Rc<CfgFacts>,
    /// Maximum steps a clobber walk may take before giving up.
    pub walk_budget: usize,
}

impl MemorySsa {
    /// Builds MemorySSA structure for `f` over its CFG facts `cfg`.
    pub fn build(f: &Function, cfg: Rc<CfgFacts>) -> Self {
        let mut defs_in_block = vec![Vec::new(); f.blocks().len()];
        let mut defs_before = vec![0u32; f.insts().len()];
        for (block, defs) in f.blocks().iter().zip(&mut defs_in_block) {
            for &id in &block.insts {
                defs_before[id.0 as usize] = defs.len() as u32;
                if f.inst(id).writes_memory() {
                    defs.push(id);
                }
            }
        }
        MemorySsa {
            defs_in_block,
            defs_before,
            cfg,
            walk_budget: 200,
        }
    }

    /// The memory state at the *entry* of `bb`: follows the chain of
    /// single predecessors without defs. Off the entry's reach that chain
    /// can close into a cycle; after one step per block it must have
    /// revisited a block, and the answer is `Phi(bb)`.
    pub fn entry_access(&self, bb: BlockId) -> MemAccess {
        let mut cur = bb;
        for _ in 0..=self.defs_in_block.len() {
            if cur == Function::ENTRY {
                return MemAccess::LiveOnEntry;
            }
            match self.cfg.preds()[cur.0 as usize].as_slice() {
                [] => return MemAccess::LiveOnEntry, // unreachable block
                [p] if *p != cur => match self.defs_in_block[p.0 as usize].last() {
                    Some(&d) => return MemAccess::Def(d),
                    None => cur = *p,
                },
                _ => return MemAccess::Phi(cur),
            }
        }
        MemAccess::Phi(bb)
    }

    /// The memory state at the *end* of `bb`.
    pub fn end_access(&self, bb: BlockId) -> MemAccess {
        match self.defs_in_block[bb.0 as usize].last() {
            Some(&d) => MemAccess::Def(d),
            None => self.entry_access(bb),
        }
    }

    /// The memory state just before instruction `id` in `f`: the
    /// nearest def strictly before it in its block, else the block's
    /// entry state.
    pub fn defining_access(&self, f: &Function, id: InstId) -> MemAccess {
        let bb = f.block_of(id);
        match self.defs_before[id.0 as usize] {
            0 => self.entry_access(bb),
            k => MemAccess::Def(self.defs_in_block[bb.0 as usize][k as usize - 1]),
        }
    }

    /// Walks upward from `start` to the nearest access that may clobber
    /// `loc`, querying `aa` to step over non-aliasing defs. Returns a
    /// `Phi` when the walk cannot resolve through a merge (conservative),
    /// or when the budget is exhausted at a def.
    pub fn clobber_walk(
        &self,
        m: &Module,
        func: FunctionId,
        aa: &mut AAManager,
        loc: &MemoryLocation,
        start: MemAccess,
    ) -> MemAccess {
        let mut visited_phis = FxHashSet::default();
        let mut budget = self.walk_budget;
        self.walk(m, func, aa, loc, start, &mut visited_phis, &mut budget)
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        m: &Module,
        func: FunctionId,
        aa: &mut AAManager,
        loc: &MemoryLocation,
        mut access: MemAccess,
        visited_phis: &mut FxHashSet<BlockId>,
        budget: &mut usize,
    ) -> MemAccess {
        let f = m.func(func);
        loop {
            match access {
                MemAccess::LiveOnEntry => return MemAccess::LiveOnEntry,
                MemAccess::Def(d) => {
                    if *budget == 0 {
                        return MemAccess::Def(d); // give up: treat as clobber
                    }
                    *budget -= 1;
                    if aa.may_clobber(m, func, d, loc) {
                        return MemAccess::Def(d);
                    }
                    access = self.defining_access(f, d);
                }
                MemAccess::Phi(bb) => {
                    if !visited_phis.insert(bb) || *budget == 0 {
                        return MemAccess::Phi(bb);
                    }
                    // Resolve through the merge only if every incoming
                    // path reaches the same clobber.
                    let mut results: Vec<MemAccess> = Vec::new();
                    for &p in &self.cfg.preds()[bb.0 as usize] {
                        let r =
                            self.walk(m, func, aa, loc, self.end_access(p), visited_phis, budget);
                        results.push(r);
                    }
                    let first = results[0];
                    if results.iter().all(|&r| r == first) {
                        return first;
                    }
                    return MemAccess::Phi(bb);
                }
            }
        }
    }

    /// Total number of memory defs (diagnostic).
    pub fn num_defs(&self) -> usize {
        self.defs_in_block.iter().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicAA;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Edit, Module, Ty, Value};

    fn mgr() -> AAManager {
        let mut aa = AAManager::new();
        aa.add(Box::new(BasicAA::new()));
        aa
    }

    #[test]
    fn straightline_walk_skips_noalias_store() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![], None);
        let x = b.alloca(8, "x");
        let y = b.alloca(8, "y");
        let s1 = b.store(Ty::I64, Value::ConstInt(1), x);
        b.store(Ty::I64, Value::ConstInt(2), y); // does not clobber x
        let l = b.load(Ty::I64, x);
        b.store(Ty::I64, l, y);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let mssa = MemorySsa::build(f, CfgFacts::build(f));
        let load_id = f.blocks()[0].insts[4];
        let loc = MemoryLocation::of_access(f, load_id).unwrap();
        let start = mssa.defining_access(f, load_id);
        // Defining access is the store to y...
        assert!(matches!(start, MemAccess::Def(_)));
        let mut aa = mgr();
        let clobber = mssa.clobber_walk(&m, id, &mut aa, &loc, start);
        // ...but the walk lands on the store to x.
        assert_eq!(clobber, MemAccess::Def(s1));
    }

    #[test]
    fn walk_reaches_live_on_entry() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let x = b.alloca(8, "x");
        b.store(Ty::I64, Value::ConstInt(1), x);
        let l = b.load(Ty::I64, b.arg(0)); // arg cannot alias non-escaping alloca
        b.store(Ty::I64, l, x);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let mssa = MemorySsa::build(f, CfgFacts::build(f));
        let load_id = f.blocks()[0].insts[2];
        let loc = MemoryLocation::of_access(f, load_id).unwrap();
        let start = mssa.defining_access(f, load_id);
        let mut aa = mgr();
        assert_eq!(
            mssa.clobber_walk(&m, id, &mut aa, &loc, start),
            MemAccess::LiveOnEntry
        );
    }

    #[test]
    fn merge_with_divergent_clobbers_stops_at_phi() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::I1, Ty::Ptr], None);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(b.arg(0), t, e);
        b.switch_to(t);
        b.store(Ty::I64, Value::ConstInt(1), b.arg(1)); // clobbers
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        let l = b.load(Ty::I64, b.arg(1));
        b.print("{}", vec![l]);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let mssa = MemorySsa::build(f, CfgFacts::build(f));
        let load_id = f.blocks()[j.0 as usize].insts[0];
        let loc = MemoryLocation::of_access(f, load_id).unwrap();
        let start = mssa.defining_access(f, load_id);
        assert_eq!(start, MemAccess::Phi(j));
        let mut aa = mgr();
        // One path has a clobber, the other reaches entry: unresolved.
        assert_eq!(
            mssa.clobber_walk(&m, id, &mut aa, &loc, start),
            MemAccess::Phi(j)
        );
    }

    #[test]
    fn merge_with_identical_outcome_resolves() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::I1, Ty::Ptr], None);
        let x = b.alloca(8, "x");
        let s0 = b.store(Ty::I64, Value::ConstInt(7), b.arg(1));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(b.arg(0), t, e);
        b.switch_to(t);
        b.store(Ty::I64, Value::ConstInt(1), x); // not aliasing arg
        b.br(j);
        b.switch_to(e);
        b.store(Ty::I64, Value::ConstInt(2), x); // not aliasing arg
        b.br(j);
        b.switch_to(j);
        let l = b.load(Ty::I64, b.arg(1));
        b.print("{}", vec![l]);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let mssa = MemorySsa::build(f, CfgFacts::build(f));
        let load_id = f.blocks()[j.0 as usize].insts[0];
        let loc = MemoryLocation::of_access(f, load_id).unwrap();
        let start = mssa.defining_access(f, load_id);
        let mut aa = mgr();
        // Both paths walk through their alloca stores to the arg store.
        assert_eq!(
            mssa.clobber_walk(&m, id, &mut aa, &loc, start),
            MemAccess::Def(s0)
        );
    }

    #[test]
    fn removing_loads_after_build_matches_a_fresh_build() {
        // GVN deletes loads while it holds the analysis: the kept def
        // counts must answer as rebuilt ones would.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr, Ty::Ptr], None);
        let (p, q) = (b.arg(0), b.arg(1));
        b.store(Ty::I64, Value::ConstInt(1), p);
        let l1 = b.load(Ty::I64, p);
        b.store(Ty::I64, l1, q);
        b.load(Ty::I64, p);
        let l3 = b.load(Ty::I64, q);
        b.store(Ty::I64, l3, p);
        let l4 = b.load(Ty::I64, p);
        b.print("{}", vec![l4]);
        b.ret(None);
        let id = b.finish();
        let mssa = MemorySsa::build(m.func(id), CfgFacts::build(m.func(id)));
        let insts = m.func(id).blocks()[0].insts.clone();
        // Remove the first and third load (the analysis does not need
        // their uses rewritten).
        let f = m.func_mut(id);
        f.apply(&[Edit::Remove(insts[1]), Edit::Remove(insts[4])]);
        let f = m.func(id);
        let fresh = MemorySsa::build(f, CfgFacts::build(f));
        let accesses = f.live_insts().filter(|&i| {
            f.inst(i).writes_memory() || matches!(f.inst(i), oraql_ir::inst::Inst::Load { .. })
        });
        for a in accesses {
            assert_eq!(
                mssa.defining_access(f, a),
                fresh.defining_access(f, a),
                "%{}",
                a.0
            );
        }
        // The last load still sees the store just before it, and the
        // second store sees the first across the removed load.
        assert_eq!(mssa.defining_access(f, insts[6]), MemAccess::Def(insts[5]));
        assert_eq!(mssa.defining_access(f, insts[2]), MemAccess::Def(insts[0]));
        let mut aa = mgr();
        let loc = MemoryLocation::of_access(f, insts[6]).unwrap();
        let start = mssa.defining_access(f, insts[6]);
        assert_eq!(
            mssa.clobber_walk(&m, id, &mut aa, &loc, start),
            fresh.clobber_walk(&m, id, &mut aa, &loc, start)
        );
    }

    #[test]
    fn unreachable_cycle_of_single_predecessors_ends_at_a_phi() {
        // entry returns; x -> y -> x is a cycle no def breaks, off the
        // entry's reach. Following single predecessors would never end.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let (x, y) = (b.new_block(), b.new_block());
        b.ret(None);
        b.switch_to(x);
        let l = b.load(Ty::I64, b.arg(0));
        b.print("{}", vec![l]);
        b.br(y);
        b.switch_to(y);
        b.br(x);
        let id = b.finish();
        oraql_ir::verify::assert_valid(&m);
        let f = m.func(id);
        let mssa = MemorySsa::build(f, CfgFacts::build(f));
        let load_id = f.blocks()[x.0 as usize].insts[0];
        let start = mssa.defining_access(f, load_id);
        assert_eq!(start, MemAccess::Phi(x));
        assert_eq!(mssa.end_access(y), MemAccess::Phi(y));
        let loc = MemoryLocation::of_access(f, load_id).unwrap();
        let mut aa = mgr();
        assert!(matches!(
            mssa.clobber_walk(&m, id, &mut aa, &loc, start),
            MemAccess::Phi(_)
        ));
    }

    #[test]
    fn loop_phi_is_a_barrier() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        b.store(Ty::I64, Value::ConstInt(0), p);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, i| {
            let addr = b.gep_scaled(p, i, 8, 0);
            b.store(Ty::I64, i, addr);
        });
        let l = b.load(Ty::I64, p);
        b.print("{}", vec![l]);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let mssa = MemorySsa::build(f, CfgFacts::build(f));
        assert!(mssa.num_defs() >= 2);
        let exit = f.block_of(f.live_insts().last().unwrap());
        let load_id = f.blocks()[exit.0 as usize].insts[0];
        let loc = MemoryLocation::of_access(f, load_id).unwrap();
        let start = mssa.defining_access(f, load_id);
        let mut aa = mgr();
        let r = mssa.clobber_walk(&m, id, &mut aa, &loc, start);
        // The store in the loop may clobber p[0]; the walk must not
        // claim LiveOnEntry.
        assert_ne!(r, MemAccess::LiveOnEntry);
    }
}
