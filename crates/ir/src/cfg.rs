//! CFG utilities: successor/predecessor computation and reverse
//! postorder. Dominators and loops live in `oraql-analysis`.

use crate::inst::Inst;
use crate::module::Function;
use crate::value::BlockId;

/// The successors of one block: at most two, held inline, so asking
/// for them allocates nothing. Derefs to `[BlockId]` and iterates by
/// value.
#[derive(Clone, Copy)]
pub struct Successors {
    targets: [BlockId; 2],
    len: u8,
}

impl Successors {
    fn of(targets: &[BlockId]) -> Self {
        let mut s = Successors {
            targets: [BlockId(0); 2],
            len: targets.len() as u8,
        };
        s.targets[..targets.len()].copy_from_slice(targets);
        s
    }
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.targets[..self.len as usize]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.targets.into_iter().take(self.len as usize)
    }
}

/// Successor blocks of `bb` (0, 1 or 2 entries; a conditional branch
/// with two equal targets has one).
pub fn successors(f: &Function, bb: BlockId) -> Successors {
    match f.terminator(bb).map(|t| f.inst(t)) {
        Some(Inst::Br { target }) => Successors::of(&[*target]),
        Some(Inst::CondBr {
            then_bb, else_bb, ..
        }) => {
            if then_bb == else_bb {
                Successors::of(&[*then_bb])
            } else {
                Successors::of(&[*then_bb, *else_bb])
            }
        }
        _ => Successors::of(&[]),
    }
}

/// Points the edges of `bb`'s terminator that enter `from` at `to`
/// instead. False, with nothing changed, when `bb` has no terminator, or
/// its terminator is neither a branch to `from` nor a conditional branch
/// (whose arms that name `from` are the ones retargeted).
pub fn retarget(f: &mut Function, bb: BlockId, from: BlockId, to: BlockId) -> bool {
    let Some(t) = f.terminator(bb) else {
        return false;
    };
    match f.inst_mut(t) {
        Inst::Br { target } if *target == from => *target = to,
        Inst::CondBr {
            then_bb, else_bb, ..
        } => {
            for arm in [then_bb, else_bb] {
                if *arm == from {
                    *arm = to;
                }
            }
        }
        _ => return false,
    }
    true
}

/// Predecessor lists for every block, indexed by block id.
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks().len()];
    for i in 0..f.blocks().len() {
        let bb = BlockId(i as u32);
        for s in successors(f, bb) {
            preds[s.0 as usize].push(bb);
        }
    }
    preds
}

/// Reverse postorder over the CFG starting at the entry block.
/// Unreachable blocks are not visited.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.blocks().len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-idx).
    let mut stack: Vec<(BlockId, usize)> = vec![(Function::ENTRY, 0)];
    visited[Function::ENTRY.0 as usize] = true;
    while let Some(&mut (bb, ref mut idx)) = stack.last_mut() {
        let succs = successors(f, bb);
        if *idx < succs.len() {
            let s = succs[*idx];
            *idx += 1;
            if !visited[s.0 as usize] {
                visited[s.0 as usize] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(bb);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Each instruction's index within its block's instruction list,
/// indexed by instruction id; `u32::MAX` for arena entries no block
/// lists (removed instructions). Comparing two entries orders two
/// instructions of one block in O(1), and the comparison stays valid
/// while instructions are removed, because removal keeps the relative
/// order of the rest; inserting or moving an instruction invalidates it.
pub fn block_positions(f: &Function) -> Vec<u32> {
    let mut pos = vec![u32::MAX; f.insts().len()];
    for block in f.blocks() {
        for (i, &id) in block.insts.iter().enumerate() {
            pos[id.0 as usize] = i as u32;
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::{Edit, Module};
    use crate::types::Ty;
    use crate::value::Value;

    #[test]
    fn diamond_rpo() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "d", vec![Ty::I1], None);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.arg(0);
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        let rpo = reverse_postorder(f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], Function::ENTRY);
        assert_eq!(*rpo.last().unwrap(), j);
        let preds = predecessors(f);
        assert_eq!(preds[j.0 as usize].len(), 2);
        assert_eq!(rpo.len(), f.blocks().len(), "every block reachable");
    }

    #[test]
    fn same_target_condbr_counts_once() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "s", vec![Ty::I1], None);
        let x = b.new_block();
        let c = b.arg(0);
        b.cond_br(c, x, x);
        b.switch_to(x);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        assert_eq!(*successors(f, Function::ENTRY), [x]);
    }

    #[test]
    fn unreachable_block_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "u", vec![], None);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        assert!(reverse_postorder(f).len() < f.blocks().len());
    }

    #[test]
    fn block_positions_index_each_block() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "p", vec![Ty::Ptr], None);
        let x = b.new_block();
        b.load(Ty::I64, b.arg(0));
        b.br(x);
        b.switch_to(x);
        b.load(Ty::I64, b.arg(0));
        b.load(Ty::I64, b.arg(0));
        b.ret(None);
        let id = b.finish();
        let f = m.func_mut(id);
        let (l0, l1, l2) = (
            f.blocks()[0].insts[0],
            f.blocks()[1].insts[0],
            f.blocks()[1].insts[1],
        );
        let pos = block_positions(f);
        assert_eq!((pos[l0.0 as usize], pos[l1.0 as usize]), (0, 0));
        assert_eq!(pos[l2.0 as usize], 1);
        f.apply(&[Edit::Remove(l1)]);
        let pos = block_positions(f);
        assert_eq!(pos[l1.0 as usize], u32::MAX);
        assert_eq!(pos[l2.0 as usize], 0);
    }

    #[test]
    fn loop_rpo_contains_all() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "l", vec![], None);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |_, _| {});
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        assert_eq!(reverse_postorder(f).len(), f.blocks().len());
    }
}
