//! Functions, globals and modules.

use crate::inst::{Inst, InstData, InstId};
use crate::interner::{StrId, StringInterner};
use crate::meta::{SrcLoc, Target, TbaaTree};
use crate::types::Ty;
use crate::value::{BlockId, Value};

/// Handle to a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u32);

/// Handle to a global within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Value type.
    pub ty: Ty,
    /// `noalias` (C `restrict`) attribute: the pointee is not accessed
    /// through any pointer not derived from this argument.
    pub noalias: bool,
    /// Debug name.
    pub name: String,
}

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Instruction ids in execution order.
    pub insts: Vec<InstId>,
}

/// A function: parameters, a CFG of basic blocks and an instruction arena.
///
/// The block lists and the arena are private. Other code reads them
/// through [`Function::blocks`] and [`Function::insts`] and changes them
/// only through this type's methods: the creation methods
/// ([`Function::push_inst`], [`Function::insert_inst`],
/// [`Function::add_block`]), payload edits through
/// [`Function::inst_mut`], and replacements, removals and moves through
/// one [`Edits`] batch handed to [`Function::apply`]. Those methods keep
/// three invariants:
/// - each live id sits in exactly one block, the one its
///   [`InstData::block`] names;
/// - a removed id stays in the arena as [`Inst::Removed`], so ids stay
///   stable;
/// - the arena never shrinks.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return type, `None` for void.
    pub ret: Option<Ty>,
    /// Basic blocks; `BlockId(i)` indexes this vector. Block 0 is entry.
    blocks: Vec<Block>,
    /// Instruction arena; `InstId(i)` indexes this vector.
    insts: Vec<InstData>,
    /// Compilation target (host or device).
    pub target: Target,
    /// True for compiler-generated outlined bodies (parallel regions,
    /// kernels). Reports print these like LLVM's `.omp_outlined.` names.
    pub outlined: bool,
    /// Source file this function was "compiled" from; ORAQL scoping uses
    /// this to restrict probing to specific files.
    pub src_file: Option<StrId>,
}

/// Where [`Function::apply`] places a moved instruction in its
/// destination block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Just before the terminator, or last when the block has none
    /// (LICM's hoist into a preheader).
    BeforeTerminator,
    /// Just after the leading phis (MachineSink's sink into a successor).
    AfterPhis,
}

/// One entry of an [`Edits`] batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// Every use of the instruction becomes the value, and the
    /// instruction is removed.
    Replace(InstId, Value),
    /// The instruction leaves its block and becomes [`Inst::Removed`].
    Remove(InstId),
    /// The instruction moves to a place in another block.
    Move(InstId, BlockId, Place),
}

impl Edit {
    /// The instruction this entry edits.
    fn id(self) -> InstId {
        let (Edit::Replace(id, _) | Edit::Remove(id) | Edit::Move(id, ..)) = self;
        id
    }
}

/// A batch of edits to one function, in recording order, for
/// [`Function::apply`].
pub type Edits = Vec<Edit>;

impl Function {
    /// Entry block id (always block 0).
    pub const ENTRY: BlockId = BlockId(0);

    /// A host function with an empty entry block and no instructions.
    pub fn new(name: &str, params: Vec<Param>, ret: Option<Ty>) -> Self {
        Function {
            name: name.to_owned(),
            params,
            ret,
            blocks: vec![Block::default()],
            insts: Vec::new(),
            target: Target::Host,
            outlined: false,
            src_file: None,
        }
    }

    /// The basic blocks; `BlockId(i)` indexes this slice.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The instruction arena; `InstId(i)` indexes this slice. Removed
    /// instructions stay as [`Inst::Removed`].
    pub fn insts(&self) -> &[InstData] {
        &self.insts
    }

    /// Immutable access to an instruction payload.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize].inst
    }

    /// Checked access to an instruction payload: `None` when `id` is not
    /// a valid arena index. Consumers that may face malformed IR (the VM,
    /// the machine lowering) use this instead of [`Function::inst`].
    pub fn get_inst(&self, id: InstId) -> Option<&Inst> {
        self.insts.get(id.0 as usize).map(|d| &d.inst)
    }

    /// Mutable access to an instruction payload, for edits that keep the
    /// instruction where it is (a phi's incoming list, a memcpy's
    /// source, a terminator's targets).
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize].inst
    }

    /// Source location of an instruction, if recorded.
    pub fn loc(&self, id: InstId) -> Option<SrcLoc> {
        self.insts[id.0 as usize].loc
    }

    /// Block that currently contains `id`.
    pub fn block_of(&self, id: InstId) -> BlockId {
        self.insts[id.0 as usize].block
    }

    /// Appends a new instruction to the arena and to the end of `block`.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst, loc: Option<SrcLoc>) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { inst, block, loc });
        self.blocks[block.0 as usize].insts.push(id);
        id
    }

    /// Inserts a new instruction into the arena and places it at `pos`
    /// within `block`'s instruction list.
    pub fn insert_inst(
        &mut self,
        block: BlockId,
        pos: usize,
        inst: Inst,
        loc: Option<SrcLoc>,
    ) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { inst, block, loc });
        self.blocks[block.0 as usize].insts.insert(pos, id);
        id
    }

    /// Applies a batch: one sweep over every operand when it replaces
    /// anything, one `retain` per block an instruction leaves, then the
    /// moves. Replaced and removed ids become [`Inst::Removed`].
    ///
    /// Each replacement value is first resolved through the batch's
    /// other replacements, so the result equals applying the entries one
    /// at a time in recording order. That holds for every batch that
    /// names only instructions live when their entry is recorded, moves
    /// no phi or terminator, and has no cycle of replacements.
    pub fn apply(&mut self, edits: &[Edit]) {
        let mut replace = Vec::new();
        let mut gone = Vec::with_capacity(edits.len());
        let mut touched = Vec::with_capacity(edits.len());
        for &e in edits {
            if let Edit::Replace(id, v) = e {
                replace.push((id, v));
            }
            gone.push(e.id());
            touched.push(self.block_of(e.id()));
        }
        replace.sort_unstable_by_key(|&(id, _)| id);
        let (lo, hi) = match (replace.first(), replace.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (lo, hi),
            _ => (InstId(u32::MAX), InstId(0)),
        };
        let find = |r: &[(InstId, Value)], v: Value| match v {
            Value::Inst(i) if lo <= i && i <= hi => r.binary_search_by_key(&i, |e| e.0).ok(),
            _ => None,
        };
        for k in 0..replace.len() {
            for _ in 0..replace.len() {
                let Some(j) = find(&replace, replace[k].1) else {
                    break;
                };
                replace[k].1 = replace[j].1;
            }
            debug_assert!(find(&replace, replace[k].1).is_none(), "replacement cycle");
        }
        if !replace.is_empty() {
            for data in &mut self.insts {
                data.inst.for_each_operand_mut(|v| {
                    if let Some(j) = find(&replace, *v) {
                        *v = replace[j].1;
                    }
                });
            }
        }

        gone.sort_unstable();
        touched.sort_unstable();
        touched.dedup();
        for bb in touched {
            let list = &mut self.blocks[bb.0 as usize].insts;
            list.retain(|id| gone.binary_search(id).is_err());
        }
        for (k, &e) in edits.iter().enumerate() {
            let Edit::Move(id, to, place) = e else {
                self.insts[e.id().0 as usize].inst = Inst::Removed;
                continue;
            };
            self.insts[id.0 as usize].block = to;
            if edits[k + 1..].iter().any(|later| later.id() == id) {
                continue; // moved again or removed later
            }
            let list = &self.blocks[to.0 as usize].insts;
            let at = match place {
                Place::BeforeTerminator => list.len() - usize::from(self.terminator(to).is_some()),
                Place::AfterPhis => list
                    .iter()
                    .take_while(|&&x| matches!(self.inst(x), Inst::Phi { .. }))
                    .count(),
            };
            self.blocks[to.0 as usize].insts.insert(at, id);
        }
    }

    /// The instruction list of block `bb`, writable without any check.
    /// It exists only for the malformed-IR tests of the interpreter and
    /// the machine lowering, which put an out-of-range id into a block
    /// list; everything else edits through [`Function::apply`].
    #[doc(hidden)]
    pub fn malformed_block_list(&mut self, bb: BlockId) -> &mut Vec<InstId> {
        &mut self.blocks[bb.0 as usize].insts
    }

    /// Adds a fresh empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        id
    }

    /// The terminator of `bb`, if the block is non-empty and well formed.
    pub fn terminator(&self, bb: BlockId) -> Option<InstId> {
        self.blocks[bb.0 as usize]
            .insts
            .last()
            .copied()
            .filter(|&id| self.inst(id).is_terminator())
    }

    /// Iterates over all live (non-removed) instruction ids in block
    /// order, then instruction order.
    pub fn live_insts(&self) -> impl Iterator<Item = InstId> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter().copied())
            .filter(|&id| !matches!(self.inst(id), Inst::Removed))
    }

    /// Counts live instructions (the "IR size" statistic).
    pub fn live_inst_count(&self) -> usize {
        self.live_insts().count()
    }
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Optional initial bytes (zero-filled when shorter than `size`).
    pub init: Vec<u8>,
    /// `true` for read-only data.
    pub constant: bool,
}

/// A compilation unit: functions, globals, interned strings and the TBAA
/// type tree.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (for reports).
    pub name: String,
    /// Functions; `FunctionId(i)` indexes this vector.
    pub funcs: Vec<Function>,
    /// Globals; `GlobalId(i)` indexes this vector.
    pub globals: Vec<Global>,
    /// Interned strings (file names, formats, external symbols).
    pub strings: StringInterner,
    /// TBAA type tree shared by all functions.
    pub tbaa: TbaaTree,
    /// Number of alias scopes allocated so far.
    pub num_scopes: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_owned(),
            funcs: Vec::new(),
            globals: Vec::new(),
            strings: StringInterner::new(),
            tbaa: TbaaTree::new(),
            num_scopes: 0,
        }
    }

    /// Immutable access to a function.
    pub fn func(&self, id: FunctionId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Checked access to a function: `None` when `id` is not a valid
    /// index (malformed IR must not panic consumers such as the VM).
    pub fn get_func(&self, id: FunctionId) -> Option<&Function> {
        self.funcs.get(id.0 as usize)
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FunctionId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Finds a function by name.
    pub fn find_func(&self, name: &str) -> Option<FunctionId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FunctionId(i as u32))
    }

    /// Adds a global and returns its handle.
    pub fn add_global(&mut self, name: &str, size: u64, init: Vec<u8>, constant: bool) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global {
            name: name.to_owned(),
            size,
            init,
            constant,
        });
        id
    }

    /// Allocates a fresh alias scope id.
    pub fn new_scope(&mut self) -> crate::meta::ScopeId {
        let id = crate::meta::ScopeId(self.num_scopes);
        self.num_scopes += 1;
        id
    }

    /// Global lookup by handle.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Total live instruction count across all functions.
    pub fn live_inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.live_inst_count()).sum()
    }

    /// Functions compiled for `target`.
    pub fn funcs_for_target(&self, target: Target) -> impl Iterator<Item = FunctionId> + '_ {
        self.funcs
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.target == target)
            .map(|(i, _)| FunctionId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::meta::AccessMeta;

    fn empty_func() -> Function {
        Function::new("f", vec![], None)
    }

    #[test]
    fn push_and_remove() {
        let mut f = empty_func();
        let a = f.push_inst(
            Function::ENTRY,
            Inst::Alloca {
                size: 8,
                name: StrId(0),
            },
            None,
        );
        let r = f.push_inst(Function::ENTRY, Inst::Ret { val: None }, None);
        assert_eq!(f.live_inst_count(), 2);
        assert_eq!(f.terminator(Function::ENTRY), Some(r));
        f.apply(&[Edit::Remove(a)]);
        assert_eq!(f.live_inst_count(), 1);
        assert!(matches!(f.inst(a), Inst::Removed));
    }

    #[test]
    fn replace_rewrites_every_use() {
        let mut f = empty_func();
        let a = f.push_inst(
            Function::ENTRY,
            Inst::Alloca {
                size: 8,
                name: StrId(0),
            },
            None,
        );
        let l = f.push_inst(
            Function::ENTRY,
            Inst::Load {
                ptr: Value::Inst(a),
                ty: Ty::I64,
                meta: AccessMeta::default(),
            },
            None,
        );
        f.apply(&[Edit::Replace(a, Value::Arg(0))]);
        match f.inst(l) {
            Inst::Load { ptr, .. } => assert_eq!(*ptr, Value::Arg(0)),
            _ => unreachable!(),
        }
        assert!(matches!(f.inst(a), Inst::Removed));
        assert_eq!(f.blocks()[0].insts, vec![l]);
    }

    #[test]
    fn module_find_func() {
        let mut m = Module::new("m");
        m.funcs.push(empty_func());
        assert_eq!(m.find_func("f"), Some(FunctionId(0)));
        assert_eq!(m.find_func("g"), None);
    }

    #[test]
    fn scopes_are_fresh() {
        let mut m = Module::new("m");
        let a = m.new_scope();
        let b = m.new_scope();
        assert_ne!(a, b);
        assert_eq!(m.num_scopes, 2);
    }

    #[test]
    fn move_before_terminator() {
        let mut f = empty_func();
        let bb2 = f.add_block();
        let a = f.push_inst(
            bb2,
            Inst::Alloca {
                size: 8,
                name: StrId(0),
            },
            None,
        );
        f.push_inst(Function::ENTRY, Inst::Br { target: bb2 }, None);
        f.push_inst(bb2, Inst::Ret { val: None }, None);
        // Move the alloca from bb2 into entry, before the branch.
        f.apply(&[Edit::Move(a, Function::ENTRY, Place::BeforeTerminator)]);
        assert_eq!(f.block_of(a), Function::ENTRY);
        assert_eq!(f.blocks()[0].insts.len(), 2);
        assert_eq!(f.blocks()[0].insts[0], a);
    }
}
