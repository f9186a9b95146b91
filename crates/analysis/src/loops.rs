//! Natural-loop detection over the dominator tree.

use crate::domtree::DomTree;
use crate::facts::CfgFacts;
use oraql_ir::cfg;
use oraql_ir::hash::FxHashSet;
use oraql_ir::module::Function;
use oraql_ir::value::BlockId;
use std::rc::Rc;

/// One natural loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Source blocks of the back edges.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header.
    pub blocks: FxHashSet<BlockId>,
    /// Index of the enclosing loop in the forest, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

/// All natural loops of a function, ordered outer-before-inner.
///
/// The forest keeps the CFG facts it was built from, so its answers
/// describe the CFG edges as they were at build time. Passes that move
/// or remove instructions keep them valid; a pass that changes an edge
/// asks for a new forest (`FunctionFacts::loops` rebuilds it) before
/// asking again.
pub struct LoopForest {
    /// The loops; indices are referenced by [`Loop::parent`].
    pub loops: Vec<Loop>,
    cfg: Rc<CfgFacts>,
}

impl LoopForest {
    /// Detects loops in `f` using dominance (`dt` must belong to `f`).
    pub fn build(f: &Function, dt: &DomTree) -> Self {
        LoopForest::from_cfg(f, Rc::clone(dt.cfg()))
    }

    /// Detects loops in `f` from its CFG facts `cfg`.
    pub(crate) fn from_cfg(f: &Function, cfg: Rc<CfgFacts>) -> Self {
        // Find back edges: n -> h where h dominates n.
        let mut raw: Vec<(BlockId, Vec<BlockId>)> = Vec::new(); // (header, latches)
        for bi in 0..f.blocks().len() {
            let n = BlockId(bi as u32);
            for s in cfg.successors(n) {
                if cfg.dominates(s, n) {
                    match raw.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(n),
                        None => raw.push((s, vec![n])),
                    }
                }
            }
        }

        // Compute loop bodies: backward flood from latches, stopping at
        // the header.
        let preds = cfg.preds();
        let mut loops: Vec<Loop> = raw
            .into_iter()
            .map(|(header, latches)| {
                let mut blocks: FxHashSet<BlockId> = FxHashSet::default();
                blocks.insert(header);
                let mut stack: Vec<BlockId> = latches.clone();
                while let Some(b) = stack.pop() {
                    if blocks.insert(b) {
                        for &p in &preds[b.0 as usize] {
                            stack.push(p);
                        }
                    }
                }
                Loop {
                    header,
                    latches,
                    blocks,
                    parent: None,
                    depth: 1,
                }
            })
            .collect();

        // Order outer loops first (larger bodies first), then nest.
        loops.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
        for i in 0..loops.len() {
            // The innermost enclosing loop is the smallest loop (latest in
            // the sorted order) containing this header, other than itself.
            let header = loops[i].header;
            let mut parent: Option<usize> = None;
            for (j, cand) in loops.iter().enumerate() {
                if j == i || !cand.blocks.contains(&header) {
                    continue;
                }
                if cand.blocks.len() <= loops[i].blocks.len() {
                    continue;
                }
                parent = match parent {
                    None => Some(j),
                    Some(p) if cand.blocks.len() < loops[p].blocks.len() => Some(j),
                    p => p,
                };
            }
            loops[i].parent = parent;
        }
        for i in 0..loops.len() {
            let mut d = 1;
            let mut p = loops[i].parent;
            while let Some(j) = p {
                d += 1;
                p = loops[j].parent;
            }
            loops[i].depth = d;
        }

        LoopForest { loops, cfg }
    }

    /// The unique preheader of a loop: the single predecessor of the
    /// header outside the loop. `None` when there are several (LICM then
    /// skips the loop).
    pub fn preheader(&self, l: &Loop) -> Option<BlockId> {
        let mut outside = self.cfg.preds()[l.header.0 as usize]
            .iter()
            .filter(|p| !l.blocks.contains(p));
        match (outside.next(), outside.next()) {
            (Some(&one), None) => Some(one),
            _ => None,
        }
    }

    /// Blocks outside the loop reachable directly from inside (exits).
    pub fn exit_blocks(&self, f: &Function, l: &Loop) -> Vec<BlockId> {
        let mut out = Vec::new();
        for &b in &l.blocks {
            for s in cfg::successors(f, b) {
                if !l.blocks.contains(&s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty, Value};

    #[test]
    fn single_loop_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "l", vec![Ty::Ptr], None);
        let p = b.arg(0);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(8), |b, i| {
            let addr = b.gep_scaled(p, i, 8, 0);
            b.store(Ty::I64, i, addr);
        });
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dt = DomTree::build(f);
        let forest = LoopForest::build(f, &dt);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.depth, 1);
        assert!(l.blocks.contains(&BlockId(2)));
        assert!(!l.blocks.contains(&BlockId(3)));
        assert_eq!(forest.preheader(l), Some(Function::ENTRY));
        assert_eq!(forest.exit_blocks(f, l), vec![BlockId(3)]);
    }

    #[test]
    fn nested_loops() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "n", vec![Ty::Ptr], None);
        let p = b.arg(0);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, i| {
            b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, j| {
                let x = b.mul(i, Value::ConstInt(4));
                let idx = b.add(x, j);
                let addr = b.gep_scaled(p, idx, 8, 0);
                b.store(Ty::I64, idx, addr);
            });
        });
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dt = DomTree::build(f);
        let forest = LoopForest::build(f, &dt);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().find(|l| l.depth == 1).unwrap();
        let inner = forest.loops.iter().find(|l| l.depth == 2).unwrap();
        assert!(outer.blocks.len() > inner.blocks.len());
        assert!(outer.blocks.contains(&inner.header));
        assert_eq!(
            inner.parent.map(|i| forest.loops[i].header),
            Some(outer.header)
        );
    }

    #[test]
    fn no_loops_in_straightline() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "s", vec![], None);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let dt = DomTree::build(f);
        let forest = LoopForest::build(f, &dt);
        assert!(forest.loops.is_empty());
    }
}
