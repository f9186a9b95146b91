//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

use oraql_ir::cfg;
use oraql_ir::inst::{Inst, InstId};
use oraql_ir::module::Function;
use oraql_ir::value::BlockId;

/// Immediate-dominator tree of one function's CFG.
///
/// `build` also records every instruction's position within its block,
/// so [`DomTree::inst_dominates`] orders two instructions of one block
/// in O(1). That index relies on one condition: while the tree is
/// alive, instructions may be removed (GVN deletes loads while it holds
/// the tree; removal keeps the relative order of the rest) but not
/// inserted or moved. Block-level queries depend only on the CFG, so
/// passes that move instructions (LICM) may keep using those.
pub struct DomTree {
    /// `idom[b]` = immediate dominator of block `b`; entry maps to
    /// itself; unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    /// Depth of each block in the dominator tree (entry = 0).
    depth: Vec<u32>,
    /// Reverse postorder used during construction (reachable blocks).
    rpo: Vec<BlockId>,
    /// Each instruction's position within its block at build time
    /// ([`cfg::block_positions`]).
    pos: Vec<u32>,
}

impl DomTree {
    /// Builds the dominator tree of `f`.
    pub fn build(f: &Function) -> Self {
        let n = f.blocks.len();
        let rpo = cfg::reverse_postorder(f);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        let preds = cfg::predecessors(f);
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[Function::ENTRY.0 as usize] = Some(Function::ENTRY);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
                    a = idom[a.0 as usize].expect("processed");
                }
                while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
                    b = idom[b.0 as usize].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.0 as usize] {
                    if idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }

        // Depths.
        let mut depth = vec![0u32; n];
        for &b in &rpo {
            if b == Function::ENTRY {
                continue;
            }
            if let Some(d) = idom[b.0 as usize] {
                depth[b.0 as usize] = depth[d.0 as usize] + 1;
            }
        }

        DomTree {
            idom,
            depth,
            rpo,
            pos: cfg::block_positions(f),
        }
    }

    /// Immediate dominator of `b` (`None` for the entry block and
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.0 as usize] {
            Some(d) if d != b => Some(d),
            _ => None,
        }
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.0 as usize].is_none() || self.idom[a.0 as usize].is_none() {
            return false; // unreachable blocks dominate nothing
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if self.depth[cur.0 as usize] <= self.depth[a.0 as usize] {
                return false;
            }
            cur = self.idom[cur.0 as usize].expect("reachable");
        }
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

    /// The reverse postorder computed during construction.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty, Value};

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
        let i0 = f.blocks[0].insts[0];
        let i1 = f.blocks[0].insts[1];
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
        let removed = m.func(id).blocks[0].insts[1];
        m.func_mut(id).remove_inst(removed);
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
        let (first, store) = (f.blocks[0].insts[0], f.blocks[0].insts[1]);
        assert!(dt.inst_dominates(f, first, store));
    }
}
