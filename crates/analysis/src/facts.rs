//! CFG facts: what a function's edges determine, computed once per CFG
//! shape and shared across the passes of a pipeline run.
//!
//! [`CfgFacts`] holds the successor snapshot, the predecessor lists, the
//! reverse postorder and the immediate dominators with their depths.
//! Every one of them is a function of the successor lists alone, so
//! facts whose snapshot matches a function's current terminators are
//! exactly the facts a fresh build would compute. [`FunctionFacts`]
//! keeps one function's facts (and its loop forest, once asked for)
//! across passes and checks the snapshot on every request, in
//! O(blocks): a pass that edits an edge (loop deletion, the loop
//! vectorizer) invalidates them without declaring anything.
//!
//! Facts are handed out as `Rc` handles, so a pass can hold them while
//! it queries the alias-analysis chain.

use crate::domtree::DomTree;
use crate::loops::LoopForest;
use oraql_ir::cfg::{self, Successors};
use oraql_ir::module::Function;
use oraql_ir::value::BlockId;
use std::rc::Rc;

/// The edge-derived facts of one function at one CFG shape.
pub struct CfgFacts {
    /// Each block's successors at build time.
    succs: Vec<Successors>,
    /// Predecessor lists, indexed by block id ([`cfg::predecessors`]).
    preds: Vec<Vec<BlockId>>,
    /// Reverse postorder of the reachable blocks
    /// ([`cfg::reverse_postorder`]).
    rpo: Vec<BlockId>,
    /// `idom[b]` = immediate dominator of block `b`; entry maps to
    /// itself; unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    /// Depth of each block in the dominator tree (entry = 0).
    depth: Vec<u32>,
}

impl CfgFacts {
    /// Computes the facts of `f` (dominators by the Cooper–Harvey–Kennedy
    /// iterative algorithm).
    pub fn build(f: &Function) -> Rc<Self> {
        let n = f.blocks().len();
        let succs: Vec<Successors> = (0..n)
            .map(|i| cfg::successors(f, BlockId(i as u32)))
            .collect();
        let mut preds = vec![Vec::new(); n];
        for (i, s) in succs.iter().enumerate() {
            for t in *s {
                preds[t.0 as usize].push(BlockId(i as u32));
            }
        }
        let rpo = cfg::reverse_postorder(f);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
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

        let mut depth = vec![0u32; n];
        for &b in &rpo {
            if b == Function::ENTRY {
                continue;
            }
            if let Some(d) = idom[b.0 as usize] {
                depth[b.0 as usize] = depth[d.0 as usize] + 1;
            }
        }

        Rc::new(CfgFacts {
            succs,
            preds,
            rpo,
            idom,
            depth,
        })
    }

    /// Do `f`'s terminators still name the edges these facts were built
    /// from? O(blocks).
    pub fn matches(&self, f: &Function) -> bool {
        self.succs.len() == f.blocks().len()
            && self
                .succs
                .iter()
                .enumerate()
                .all(|(i, s)| **s == *cfg::successors(f, BlockId(i as u32)))
    }

    /// Predecessor lists, indexed by block id.
    pub fn preds(&self) -> &[Vec<BlockId>] {
        &self.preds
    }

    /// The successors of `bb`.
    pub(crate) fn successors(&self, bb: BlockId) -> Successors {
        self.succs[bb.0 as usize]
    }

    /// Reverse postorder of the blocks reachable from entry.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
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
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
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
}

/// One function's CFG facts, kept across the passes of a pipeline run
/// (the pass manager holds one per function and hands it to each pass
/// through `PassCx`). Every request first checks the kept facts
/// against the function's terminators and rebuilds them, dropping the
/// loop forest, when an edge moved.
#[derive(Default)]
pub struct FunctionFacts {
    cfg: Option<Rc<CfgFacts>>,
    forest: Option<Rc<LoopForest>>,
}

impl FunctionFacts {
    /// The CFG facts of `f`.
    pub fn cfg(&mut self, f: &Function) -> Rc<CfgFacts> {
        if let Some(c) = self.cfg.as_ref().filter(|c| c.matches(f)) {
            return Rc::clone(c);
        }
        let c = CfgFacts::build(f);
        self.cfg = Some(Rc::clone(&c));
        self.forest = None;
        c
    }

    /// A dominator tree of `f`: the kept CFG facts plus a fresh index of
    /// instruction positions (positions move whenever a pass removes,
    /// moves or inserts an instruction).
    pub fn domtree(&mut self, f: &Function) -> DomTree {
        DomTree::new(self.cfg(f), f)
    }

    /// The loop forest of `f`, built the first time a pass asks for it
    /// on the current CFG.
    pub fn loops(&mut self, f: &Function) -> Rc<LoopForest> {
        let cfg = self.cfg(f);
        let forest = self
            .forest
            .get_or_insert_with(|| Rc::new(LoopForest::from_cfg(f, cfg)));
        Rc::clone(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::inst::Inst;
    use oraql_ir::module::FunctionId;
    use oraql_ir::{Edit, Module, Ty, Value};

    #[test]
    fn kept_until_an_edge_moves() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "l", vec![Ty::Ptr], None);
        let p = b.arg(0);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, i| {
            let addr = b.gep_scaled(p, i, 8, 0);
            b.store(Ty::I64, i, addr);
        });
        b.ret(None);
        let id: FunctionId = b.finish();
        let mut facts = FunctionFacts::default();
        let cfg = facts.cfg(m.func(id));
        let forest = facts.loops(m.func(id));
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(cfg.preds(), cfg::predecessors(m.func(id)).as_slice());
        // Removing an instruction keeps every edge: the same facts.
        let f = m.func_mut(id);
        let store = f
            .live_insts()
            .find(|&i| matches!(f.inst(i), Inst::Store { .. }))
            .unwrap();
        f.apply(&[Edit::Remove(store)]);
        assert!(Rc::ptr_eq(&cfg, &facts.cfg(m.func(id))));
        assert!(Rc::ptr_eq(&forest, &facts.loops(m.func(id))));
        // Retargeting the latch removes the back edge: fresh facts, no
        // loop.
        let f = m.func_mut(id);
        let latch = forest.loops[0].latches[0];
        let exit = BlockId(3);
        let t = f.terminator(latch).unwrap();
        *f.inst_mut(t) = Inst::Br { target: exit };
        let fresh = facts.cfg(m.func(id));
        assert!(!Rc::ptr_eq(&cfg, &fresh));
        assert_eq!(fresh.preds(), cfg::predecessors(m.func(id)).as_slice());
        assert!(facts.loops(m.func(id)).loops.is_empty());
    }
}
