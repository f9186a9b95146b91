//! Dominator tree: a function's CFG facts ([`CfgFacts`]) plus an index
//! of instruction positions.

use crate::facts::CfgFacts;
use oraql_ir::cfg;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::Function;
use oraql_ir::value::BlockId;
use std::rc::Rc;

/// Immediate-dominator tree of one function's CFG.
///
/// The block-level answers come from shared [`CfgFacts`]. The tree also
/// records every instruction's position within its block, so
/// [`DomTree::inst_dominates`] orders two instructions of one block in
/// O(1). That index relies on one condition: while the tree is alive,
/// instructions may be removed (GVN deletes loads while it holds the
/// tree; removal keeps the relative order of the rest) but not inserted
/// or moved. Block-level queries depend only on the CFG, so passes that
/// move instructions (LICM) may keep using those.
pub struct DomTree {
    cfg: Rc<CfgFacts>,
    /// Each instruction's position within its block at build time
    /// ([`cfg::block_positions`]).
    pos: Vec<u32>,
}

impl DomTree {
    /// Builds the dominator tree of `f` from fresh CFG facts.
    pub fn build(f: &Function) -> Self {
        DomTree::new(CfgFacts::build(f), f)
    }

    /// The dominator tree of `f` over its CFG facts `cfg`, which must
    /// describe `f`'s current edges.
    pub(crate) fn new(cfg: Rc<CfgFacts>, f: &Function) -> Self {
        DomTree {
            cfg,
            pos: cfg::block_positions(f),
        }
    }

    /// The CFG facts the tree answers block-level queries from.
    pub fn cfg(&self) -> &Rc<CfgFacts> {
        &self.cfg
    }

    /// Immediate dominator of `b` (`None` for the entry block and
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.cfg.idom(b)
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.cfg.dominates(a, b)
    }

    /// Does instruction `ia` dominate instruction `ib` (strictly, in
    /// execution order)? A removed instruction neither dominates nor is
    /// dominated.
    pub fn inst_dominates(&self, f: &Function, ia: InstId, ib: InstId) -> bool {
        if matches!(f.inst(ia), Inst::Removed) || matches!(f.inst(ib), Inst::Removed) {
            return false;
        }
        let ba = f.block_of(ia);
        let bb = f.block_of(ib);
        if ba == bb {
            self.pos[ia.0 as usize] < self.pos[ib.0 as usize]
        } else {
            self.dominates(ba, bb)
        }
    }

    /// Reverse postorder of the reachable blocks.
    pub fn rpo(&self) -> &[BlockId] {
        self.cfg.rpo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Edit, Module, Ty, Value};

    /// Diamond: entry -> (t, e) -> join.
    fn diamond() -> (Module, BlockId, BlockId, BlockId) {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "d", vec![Ty::I1], None);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(b.arg(0), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        b.finish();
        (m, t, e, j)
    }

    #[test]
    fn diamond_idoms() {
        let (m, t, e, j) = diamond();
        let f = m.func(oraql_ir::module::FunctionId(0));
        let dt = DomTree::build(f);
        let entry = Function::ENTRY;
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(t), Some(entry));
        assert_eq!(dt.idom(e), Some(entry));
        assert_eq!(dt.idom(j), Some(entry));
        assert!(dt.dominates(entry, j));
        assert!(!dt.dominates(t, j));
        assert!(dt.dominates(j, j));
    }

    #[test]
    fn loop_idoms() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "l", vec![], None);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |_, _| {});
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dt = DomTree::build(f);
        // header (block 1) dominated by entry; body (2) and exit (3) by
        // header.
        assert_eq!(dt.idom(BlockId(1)), Some(Function::ENTRY));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(1)));
        assert!(dt.dominates(BlockId(1), BlockId(2)));
        assert!(!dt.dominates(BlockId(2), BlockId(3)));
    }

    #[test]
    fn inst_dominance_within_block() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let a = b.load(Ty::I64, p);
        b.store(Ty::I64, a, p);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dt = DomTree::build(f);
        let i0 = f.blocks()[0].insts[0];
        let i1 = f.blocks()[0].insts[1];
        assert!(dt.inst_dominates(f, i0, i1));
        assert!(!dt.inst_dominates(f, i1, i0));
        assert!(!dt.inst_dominates(f, i0, i0));
    }

    #[test]
    fn removing_a_load_after_build_matches_a_fresh_build() {
        // GVN deletes loads while it holds the tree.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let next = b.new_block();
        let a = b.load(Ty::I64, p);
        b.load(Ty::I64, p);
        b.store(Ty::I64, a, p);
        b.br(next);
        b.switch_to(next);
        b.load(Ty::I64, p);
        b.ret(None);
        let id = b.finish();
        let dt = DomTree::build(m.func(id));
        let all: Vec<_> = m.func(id).live_insts().collect();
        let removed = m.func(id).blocks()[0].insts[1];
        m.func_mut(id).apply(&[Edit::Remove(removed)]);
        let f = m.func(id);
        let fresh = DomTree::build(f);
        for &x in &all {
            for &y in &all {
                assert_eq!(
                    dt.inst_dominates(f, x, y),
                    fresh.inst_dominates(f, x, y),
                    "%{} vs %{}",
                    x.0,
                    y.0
                );
                if x == removed || y == removed {
                    assert!(!dt.inst_dominates(f, x, y), "%{} vs %{}", x.0, y.0);
                }
            }
        }
        // The store still follows the first load across the gap.
        let (first, store) = (f.blocks()[0].insts[0], f.blocks()[0].insts[1]);
        assert!(dt.inst_dominates(f, first, store));
    }
}
