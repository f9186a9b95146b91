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
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return type, `None` for void.
    pub ret: Option<Ty>,
    /// Basic blocks; `BlockId(i)` indexes this vector. Block 0 is entry.
    pub blocks: Vec<Block>,
    /// Instruction arena; `InstId(i)` indexes this vector. Removed
    /// instructions stay as `Inst::Removed` so ids remain stable.
    pub insts: Vec<InstData>,
    /// Compilation target (host or device).
    pub target: Target,
    /// True for compiler-generated outlined bodies (parallel regions,
    /// kernels). Reports print these like LLVM's `.omp_outlined.` names.
    pub outlined: bool,
    /// Source file this function was "compiled" from; ORAQL scoping uses
    /// this to restrict probing to specific files.
    pub src_file: Option<StrId>,
}

impl Function {
    /// Entry block id (always block 0).
    pub const ENTRY: BlockId = BlockId(0);

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

    /// Mutable access to an instruction payload.
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

    /// Removes `id` from its block and marks it `Removed`. Uses of its
    /// result become dangling; callers must have rewritten them first
    /// (asserted by the verifier in debug builds).
    pub fn remove_inst(&mut self, id: InstId) {
        let bb = self.insts[id.0 as usize].block;
        self.blocks[bb.0 as usize].insts.retain(|&i| i != id);
        self.insts[id.0 as usize].inst = Inst::Removed;
    }

    /// Moves `id` from its current position to the end of `to`, placing
    /// it just before the terminator. Used by LICM hoisting/sinking.
    pub fn move_inst_before_terminator(&mut self, id: InstId, to: BlockId) {
        let from = self.insts[id.0 as usize].block;
        self.blocks[from.0 as usize].insts.retain(|&i| i != id);
        let dest = &mut self.blocks[to.0 as usize].insts;
        let pos = dest.len().saturating_sub(1);
        // The destination block always has a terminator for well-formed
        // functions; insert before it.
        dest.insert(pos, id);
        self.insts[id.0 as usize].block = to;
    }

    /// Replaces every use of `from` with `to` across the whole function.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for data in &mut self.insts {
            data.inst.for_each_operand_mut(|v| {
                if *v == from {
                    *v = to;
                }
            });
        }
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
        Function {
            name: "f".into(),
            params: vec![],
            ret: None,
            blocks: vec![Block::default()],
            insts: vec![],
            target: Target::Host,
            outlined: false,
            src_file: None,
        }
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
        f.remove_inst(a);
        assert_eq!(f.live_inst_count(), 1);
        assert!(matches!(f.inst(a), Inst::Removed));
    }

    #[test]
    fn replace_all_uses() {
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
        f.replace_all_uses(Value::Inst(a), Value::Arg(0));
        match f.inst(l) {
            Inst::Load { ptr, .. } => assert_eq!(*ptr, Value::Arg(0)),
            _ => unreachable!(),
        }
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
        f.move_inst_before_terminator(a, Function::ENTRY);
        assert_eq!(f.block_of(a), Function::ENTRY);
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert_eq!(f.blocks[0].insts[0], a);
    }
}
