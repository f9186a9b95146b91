//! Textual IR printer, LLVM-flavoured, and the executable key derived
//! from the same fields. The text serves reports, debugging and golden
//! tests. There is deliberately no parser: modules are built
//! programmatically (workload generators / builder API).
//!
//! Each level (value, instruction, function, module) has one writer
//! that appends to a caller's `String`, with no intermediate `String`
//! or `Vec` per operand, argument list, instruction or function.
//! [`value_str`], [`inst_str`], [`function_str`] and [`module_str`] are
//! thin wrappers over them.
//!
//! [`module_key`] is the probing driver's executable-cache key: it
//! walks the fields [`write_module`] prints, in the same order, packs
//! each into 64-bit words and hashes the words in one pass, without
//! printing. Two modules of one case get equal keys exactly when their
//! texts are equal (`tests/module_key.rs` checks this on every probe
//! compile of the 16 configurations and a generated corpus).

use crate::inst::{CallKind, FuncRef, GepOffset, Inst, InstId};
use crate::module::{Function, FunctionId, Module};
use crate::types::Ty;
use crate::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// Formats a value in place (see [`write_value`]).
struct Val<'a>(Value, &'a Module);

impl fmt::Display for Val<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Inst(i) => {
                out.write_char('%')?;
                fmt::Display::fmt(&i.0, out)
            }
            Value::Arg(a) => {
                out.write_str("%arg")?;
                fmt::Display::fmt(&a, out)
            }
            Value::Global(g) => write!(out, "@{}", self.1.global(g).name),
            Value::ConstInt(c) => write!(out, "{c}"),
            Value::ConstFloat(bits) => write!(out, "{:?}", f64::from_bits(bits)),
            Value::Undef => out.write_str("undef"),
        }
    }
}

/// Formats a comma-separated value list in place.
struct Vals<'a>(&'a [Value], &'a Module);

impl fmt::Display for Vals<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &v) in self.0.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            fmt::Display::fmt(&Val(v, self.1), out)?;
        }
        Ok(())
    }
}

/// Appends a value like `%12`, `%arg0`, `@g`, `42`, `3.5`.
pub fn write_value(s: &mut String, v: Value, m: &Module) {
    let _ = write!(s, "{}", Val(v, m));
}

/// Appends one instruction (without trailing newline).
pub fn write_inst(s: &mut String, f: &Function, m: &Module, id: InstId) {
    let v = |x: Value| Val(x, m);
    let inst = f.inst(id);
    if inst.result_ty().is_some() {
        let _ = write!(s, "%{} = ", id.0);
    }
    match inst {
        Inst::Alloca { size, name } => {
            let _ = write!(s, "alloca {size} ; {}", m.strings.resolve(*name));
        }
        Inst::Load { ptr, ty, meta } => {
            let _ = write!(s, "load {ty}, ptr {}", v(*ptr));
            if let Some(t) = meta.tbaa {
                let _ = write!(s, ", !tbaa {}", m.tbaa.name(t));
            }
        }
        Inst::Store {
            ptr,
            value,
            ty,
            meta,
        } => {
            let _ = write!(s, "store {ty} {}, ptr {}", v(*value), v(*ptr));
            if let Some(t) = meta.tbaa {
                let _ = write!(s, ", !tbaa {}", m.tbaa.name(t));
            }
        }
        Inst::Gep { base, offset } => match offset {
            GepOffset::Const(c) => {
                let _ = write!(s, "gep ptr {}, {c}", v(*base));
            }
            GepOffset::Scaled { index, scale, add } => {
                let _ = write!(s, "gep ptr {}, {} x {scale} + {add}", v(*base), v(*index));
            }
        },
        Inst::Bin { op, ty, lhs, rhs } => {
            let _ = write!(s, "{op:?} {ty} {}, {}", v(*lhs), v(*rhs));
        }
        Inst::Cmp { pred, ty, lhs, rhs } => {
            let _ = write!(s, "cmp {pred:?} {ty} {}, {}", v(*lhs), v(*rhs));
        }
        Inst::Select { cond, t, f: fv, ty } => {
            let _ = write!(s, "select {ty} {}, {}, {}", v(*cond), v(*t), v(*fv));
        }
        Inst::Cast { kind, val, to } => {
            let _ = write!(s, "cast {kind:?} {} to {to}", v(*val));
        }
        Inst::Call {
            callee, args, kind, ..
        } => {
            let name = match callee {
                FuncRef::Internal(fid) => m.func(*fid).name.as_str(),
                FuncRef::External(sym) => m.strings.resolve(*sym),
            };
            let prefix = match kind {
                CallKind::Plain => "call",
                CallKind::ParallelRegion { .. } => "parallel_call",
                CallKind::KernelLaunch { .. } => "kernel_launch",
            };
            let _ = write!(s, "{prefix} @{name}({})", Vals(args, m));
            if let CallKind::ParallelRegion { threads } = kind {
                let _ = write!(s, " threads({threads})");
            }
            if let CallKind::KernelLaunch { items } = kind {
                let _ = write!(s, " items({items})");
            }
        }
        Inst::Ret { val } => match val {
            Some(x) => {
                let _ = write!(s, "ret {}", v(*x));
            }
            None => s.push_str("ret void"),
        },
        Inst::Br { target } => {
            let _ = write!(s, "br bb{}", target.0);
        }
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            let _ = write!(s, "condbr {}, bb{}, bb{}", v(*cond), then_bb.0, else_bb.0);
        }
        Inst::Phi { ty, incoming } => {
            let _ = write!(s, "phi {ty} ");
            for (i, (bb, val)) in incoming.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[bb{}: {}]", bb.0, v(*val));
            }
        }
        Inst::Print { fmt, args } => {
            let _ = write!(s, "print {:?}({})", m.strings.resolve(*fmt), Vals(args, m));
        }
        Inst::Memcpy {
            dst, src, bytes, ..
        } => {
            let _ = write!(s, "memcpy ptr {}, ptr {}, {}", v(*dst), v(*src), v(*bytes));
        }
        Inst::Removed => s.push_str("<removed>"),
    }
    if let Some(loc) = f.loc(id) {
        let _ = write!(
            s,
            " ; {}:{}:{}",
            m.strings.resolve(loc.file),
            loc.line,
            loc.col
        );
    }
}

/// Appends a whole function.
pub fn write_function(s: &mut String, m: &Module, id: FunctionId) {
    let f = m.func(id);
    s.push_str("define ");
    match f.ret {
        Some(t) => {
            let _ = write!(s, "{t}");
        }
        None => s.push_str("void"),
    }
    let _ = write!(s, " @{}(", f.name);
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let noalias = if p.noalias { " noalias" } else { "" };
        let _ = write!(s, "{}{noalias} %{}", p.ty, p.name);
    }
    let outlined = if f.outlined { " outlined" } else { "" };
    let _ = writeln!(s, ") target({}){outlined} {{", f.target.name());
    for (bi, block) in f.blocks().iter().enumerate() {
        let _ = writeln!(s, "bb{bi}:");
        for &iid in &block.insts {
            s.push_str("  ");
            write_inst(s, f, m, iid);
            s.push('\n');
        }
    }
    s.push_str("}\n");
}

/// Appends a whole module.
pub fn write_module(s: &mut String, m: &Module) {
    let _ = writeln!(s, "; module {}", m.name);
    for g in &m.globals {
        let _ = writeln!(
            s,
            "@{} = {} global [{} bytes]",
            g.name,
            if g.constant { "constant" } else { "mutable" },
            g.size
        );
    }
    for i in 0..m.funcs.len() {
        s.push('\n');
        write_function(s, m, FunctionId(i as u32));
    }
}

/// Renders a value (see [`write_value`]).
pub fn value_str(v: Value, m: &Module) -> String {
    let mut s = String::new();
    write_value(&mut s, v, m);
    s
}

/// Renders one instruction (see [`write_inst`]).
pub fn inst_str(f: &Function, m: &Module, id: InstId) -> String {
    let mut s = String::new();
    write_inst(&mut s, f, m, id);
    s
}

/// Renders a whole function (see [`write_function`]).
pub fn function_str(m: &Module, id: FunctionId) -> String {
    let mut s = String::new();
    write_function(&mut s, m, id);
    s
}

/// Renders a whole module (see [`write_module`]).
pub fn module_str(m: &Module) -> String {
    let mut s = String::new();
    write_module(&mut s, m);
    s
}

/// Bytes [`module_key`] hands the hasher per write: a whole number of
/// words, buffered on the stack.
const KEY_BLOCK: usize = 512;

/// The word stream of [`module_key`]: each field packed into a `u64`,
/// buffered into fixed-size blocks so the hasher sees few large writes
/// and the key allocates nothing.
struct KeyWords {
    h: DefaultHasher,
    buf: [u8; KEY_BLOCK],
    len: usize,
}

// Opcodes, the low byte of an instruction's head word.
const OP_ALLOCA: u64 = 1;
const OP_LOAD: u64 = 2;
const OP_STORE: u64 = 3;
const OP_GEP_CONST: u64 = 4;
const OP_GEP_SCALED: u64 = 5;
const OP_BIN: u64 = 6;
const OP_CMP: u64 = 7;
const OP_SELECT: u64 = 8;
const OP_CAST: u64 = 9;
const OP_CALL: u64 = 10;
const OP_RET: u64 = 11;
const OP_BR: u64 = 12;
const OP_CONDBR: u64 = 13;
const OP_PHI: u64 = 14;
const OP_PRINT: u64 = 15;
const OP_MEMCPY: u64 = 16;
const OP_REMOVED: u64 = 17;

// Flags, bits 28..32 of the head word: what the text prints optionally.
const HAS_RESULT: u64 = 1;
const HAS_TBAA: u64 = 2;
const HAS_LOC: u64 = 4;

// Value tags, the top byte of a value's word.
const V_INST: u64 = 1 << 56;
const V_ARG: u64 = 2 << 56;
const V_GLOBAL: u64 = 3 << 56;
const V_INT: u64 = 4 << 56;
const V_FLOAT: u64 = 5 << 56;
const V_UNDEF: u64 = 6 << 56;

/// A type in 12 bits: the kind in the low nibble, vector lanes above;
/// 0 is "no type".
fn ty_code(t: Option<Ty>) -> u64 {
    match t {
        None => 0,
        Some(Ty::I1) => 1,
        Some(Ty::I8) => 2,
        Some(Ty::I16) => 3,
        Some(Ty::I32) => 4,
        Some(Ty::I64) => 5,
        Some(Ty::F32) => 6,
        Some(Ty::F64) => 7,
        Some(Ty::Ptr) => 8,
        Some(Ty::VecI64(n)) => 9 | u64::from(n) << 4,
        Some(Ty::VecF64(n)) => 10 | u64::from(n) << 4,
    }
}

impl KeyWords {
    fn new(salt: u64) -> Self {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        KeyWords {
            h,
            buf: [0; KEY_BLOCK],
            len: 0,
        }
    }

    fn word(&mut self, w: u64) {
        if self.len == KEY_BLOCK {
            self.h.write(&self.buf);
            self.len = 0;
        }
        self.buf[self.len..self.len + 8].copy_from_slice(&w.to_le_bytes());
        self.len += 8;
    }

    /// A string: its length, then its bytes eight to a word.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// A value: one word, plus the constant's bits for constants. Every
    /// NaN prints as `NaN`, so every NaN packs alike.
    fn value(&mut self, v: Value) {
        match v {
            Value::Inst(i) => self.word(V_INST | u64::from(i.0)),
            Value::Arg(a) => self.word(V_ARG | u64::from(a)),
            Value::Global(g) => self.word(V_GLOBAL | u64::from(g.0)),
            Value::ConstInt(c) => {
                self.word(V_INT);
                self.word(c as u64);
            }
            Value::ConstFloat(bits) => {
                self.word(V_FLOAT);
                let x = f64::from_bits(bits);
                self.word(if x.is_nan() { f64::NAN.to_bits() } else { bits });
            }
            Value::Undef => self.word(V_UNDEF),
        }
    }

    fn values(&mut self, vs: &[Value]) {
        for &v in vs {
            self.value(v);
        }
    }

    /// One instruction, as [`write_inst`] prints it. The head word holds
    /// the opcode, a sub-opcode (operator, predicate, cast or call kind),
    /// the printed type, the flags and the result id.
    fn inst(&mut self, f: &Function, id: InstId) {
        let inst = f.inst(id);
        let loc = f.loc(id);
        let (op, sub, ty, tbaa) = match inst {
            Inst::Alloca { .. } => (OP_ALLOCA, 0, None, None),
            Inst::Load { ty, meta, .. } => (OP_LOAD, 0, Some(*ty), meta.tbaa),
            Inst::Store { ty, meta, .. } => (OP_STORE, 0, Some(*ty), meta.tbaa),
            Inst::Gep {
                offset: GepOffset::Const(_),
                ..
            } => (OP_GEP_CONST, 0, None, None),
            Inst::Gep { .. } => (OP_GEP_SCALED, 0, None, None),
            Inst::Bin { op, ty, .. } => (OP_BIN, *op as u64, Some(*ty), None),
            Inst::Cmp { pred, ty, .. } => (OP_CMP, *pred as u64, Some(*ty), None),
            Inst::Select { ty, .. } => (OP_SELECT, 0, Some(*ty), None),
            Inst::Cast { kind, to, .. } => (OP_CAST, *kind as u64, Some(*to), None),
            Inst::Call { callee, kind, .. } => {
                let kind = match kind {
                    CallKind::Plain => 0,
                    CallKind::ParallelRegion { .. } => 1,
                    CallKind::KernelLaunch { .. } => 2,
                };
                let external = matches!(callee, FuncRef::External(_));
                (OP_CALL, kind | u64::from(external) << 2, None, None)
            }
            Inst::Ret { val } => (OP_RET, u64::from(val.is_some()), None, None),
            Inst::Br { .. } => (OP_BR, 0, None, None),
            Inst::CondBr { .. } => (OP_CONDBR, 0, None, None),
            Inst::Phi { ty, .. } => (OP_PHI, 0, Some(*ty), None),
            Inst::Print { .. } => (OP_PRINT, 0, None, None),
            Inst::Memcpy { .. } => (OP_MEMCPY, 0, None, None),
            Inst::Removed => (OP_REMOVED, 0, None, None),
        };
        let result = inst.result_ty().is_some();
        let mut flags = 0;
        if result {
            flags |= HAS_RESULT;
        }
        if tbaa.is_some() {
            flags |= HAS_TBAA;
        }
        if loc.is_some() {
            flags |= HAS_LOC;
        }
        let result_id = if result { u64::from(id.0) } else { 0 };
        self.word(op | sub << 8 | ty_code(ty) << 16 | flags << 28 | result_id << 32);
        match inst {
            Inst::Alloca { size, name } => {
                self.word(*size);
                self.word(u64::from(name.0));
            }
            Inst::Load { ptr, .. } => self.value(*ptr),
            Inst::Store { ptr, value, .. } => {
                self.value(*value);
                self.value(*ptr);
            }
            Inst::Gep { base, offset } => {
                self.value(*base);
                match offset {
                    GepOffset::Const(c) => self.word(*c as u64),
                    GepOffset::Scaled { index, scale, add } => {
                        self.value(*index);
                        self.word(*scale as u64);
                        self.word(*add as u64);
                    }
                }
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                self.value(*lhs);
                self.value(*rhs);
            }
            Inst::Select { cond, t, f: fv, .. } => {
                self.value(*cond);
                self.value(*t);
                self.value(*fv);
            }
            Inst::Cast { val, .. } => self.value(*val),
            Inst::Call {
                callee, args, kind, ..
            } => {
                let callee = match callee {
                    FuncRef::Internal(fid) => fid.0,
                    FuncRef::External(sym) => sym.0,
                };
                self.word(u64::from(callee) | (args.len() as u64) << 32);
                self.values(args);
                match kind {
                    CallKind::Plain => {}
                    CallKind::ParallelRegion { threads: n }
                    | CallKind::KernelLaunch { items: n } => self.word(u64::from(*n)),
                }
            }
            Inst::Ret { val } => {
                if let Some(x) = val {
                    self.value(*x);
                }
            }
            Inst::Br { target } => self.word(u64::from(target.0)),
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                self.value(*cond);
                self.word(u64::from(then_bb.0) | u64::from(else_bb.0) << 32);
            }
            Inst::Phi { incoming, .. } => {
                self.word(incoming.len() as u64);
                for &(bb, v) in incoming {
                    self.word(u64::from(bb.0));
                    self.value(v);
                }
            }
            Inst::Print { fmt, args } => {
                self.word(u64::from(fmt.0) | (args.len() as u64) << 32);
                self.values(args);
            }
            Inst::Memcpy {
                dst, src, bytes, ..
            } => {
                self.value(*dst);
                self.value(*src);
                self.value(*bytes);
            }
            Inst::Removed => {}
        }
        if let Some(t) = tbaa {
            self.word(u64::from(t.0));
        }
        if let Some(loc) = loc {
            self.word(u64::from(loc.file.0) | u64::from(loc.line) << 32);
            self.word(u64::from(loc.col));
        }
    }

    /// One function, as [`write_function`] prints it.
    fn function(&mut self, f: &Function) {
        let target = f.target as u64;
        self.word(
            ty_code(f.ret)
                | target << 12
                | u64::from(f.outlined) << 13
                | (f.params.len() as u64) << 32,
        );
        self.str(&f.name);
        for p in &f.params {
            self.word(ty_code(Some(p.ty)) | u64::from(p.noalias) << 12);
            self.str(&p.name);
        }
        self.word(f.blocks().len() as u64);
        for block in f.blocks() {
            self.word(block.insts.len() as u64);
            for &id in &block.insts {
                self.inst(f, id);
            }
        }
    }

    fn finish(mut self) -> u64 {
        self.h.write(&self.buf[..self.len]);
        self.h.finish()
    }
}

/// The executable-cache key of `m` under `salt`: the fields
/// [`write_module`] prints, in its order, packed into 64-bit words and
/// hashed in one [`DefaultHasher`] pass after the salt.
///
/// It leaves out what the text leaves out (alias scopes, a call's
/// return type, global initial bytes, a function's source file), so
/// modules whose texts are equal get equal keys, and it includes every
/// field the text prints, so modules whose texts differ get different
/// keys (up to 64-bit collisions). Names the text prints through an id
/// (interned strings, callees, globals, TBAA tags) enter as the id: the
/// interner keeps one id per string, and within one module distinct
/// functions, globals and tags are taken to have distinct names. A
/// changed word layout changes every key, which silently empties every
/// journal's executable-hash records.
pub fn module_key(salt: u64, m: &Module) -> u64 {
    let mut k = KeyWords::new(salt);
    k.str(&m.name);
    k.word(m.globals.len() as u64);
    for g in &m.globals {
        k.str(&g.name);
        k.word(u64::from(g.constant));
        k.word(g.size);
    }
    k.word(m.funcs.len() as u64);
    for f in &m.funcs {
        k.function(f);
    }
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::Edit;
    use crate::types::Ty;

    #[test]
    fn prints_function() {
        let mut m = Module::new("t");
        let g = m.add_global("tbl", 64, vec![], true);
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], Some(Ty::F64));
        let p = b.arg(0);
        let x = b.load(Ty::F64, p);
        let addr = b.gep(Value::Global(g), 8);
        b.store(Ty::F64, x, addr);
        b.ret(Some(x));
        let id = b.finish();
        let text = function_str(&m, id);
        assert!(text.contains("define f64 @f(ptr %arg0)"), "{text}");
        assert!(text.contains("load f64, ptr %arg0"), "{text}");
        assert!(text.contains("@tbl"), "{text}");
        let mtext = module_str(&m);
        assert!(mtext.contains("constant global [64 bytes]"), "{mtext}");
    }

    use crate::value::Value;

    /// One module with every instruction kind the printer prints, a
    /// TBAA tag, a source location, a device function, a `noalias`
    /// parameter and each kind of value.
    fn every_kind() -> Module {
        use crate::inst::{BinOp, CastKind, CmpPred};
        use crate::meta::{Target, TbaaTag};
        let mut m = Module::new("kinds");
        let g = m.add_global("tbl", 32, vec![1, 2], false);
        let int = m.tbaa.add("int", TbaaTag::ROOT);
        let kernel = {
            let mut b = FunctionBuilder::new(&mut m, "k", vec![Ty::I64, Ty::Ptr], None);
            b.set_target(Target::Device);
            b.set_outlined(true);
            b.set_noalias(1, true);
            let addr = b.gep_scaled(b.arg(1), b.arg(0), 8, 16);
            b.store_tbaa(Ty::I64, b.arg(0), addr, int);
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], Some(Ty::I64));
        b.set_loc("kinds.c", 3, 7);
        let x = b.alloca(64, "x");
        let v = b.load_tbaa(Ty::I64, Value::Global(g), int);
        let s = b.bin(BinOp::Mul, Ty::I64, v, Value::ConstInt(-3));
        let c = b.cmp(CmpPred::Le, Ty::I64, s, Value::ConstInt(9));
        let f = b.cast(CastKind::SiToFp, s, Ty::F64);
        let sel = b.select(Ty::F64, c, f, Value::const_f64(0.5));
        let root = b.call_external("sqrt", vec![sel], Some(Ty::F64)).unwrap();
        b.print("{} {}", vec![root, Value::Undef]);
        b.memcpy(x, Value::Global(g), Value::ConstInt(16));
        b.parallel_region(kernel, vec![x], 4);
        b.kernel_launch(kernel, vec![x], 8);
        let (then_bb, join) = (b.new_block(), b.new_block());
        b.cond_br(c, then_bb, join);
        b.switch_to(then_bb);
        let y = b.gep(x, 8);
        b.store(Ty::I64, s, y);
        b.br(join);
        b.switch_to(join);
        let phi = b.phi(
            Ty::I64,
            vec![(Function::ENTRY, Value::ConstInt(1)), (then_bb, s)],
        );
        b.ret(Some(phi));
        b.finish();
        crate::verify::assert_valid(&m);
        m
    }

    /// Pins the key's word layout. A changed constant means every key
    /// moved, which silently empties every journal's executable-hash
    /// records (decisions-digest records still answer): change it only
    /// on purpose, with an upgrade note. It also catches a toolchain
    /// whose `DefaultHasher` output moves.
    #[test]
    fn module_key_format_is_pinned() {
        assert_eq!(module_key(0, &every_kind()), 7_484_625_143_450_251_385);
    }

    #[test]
    fn module_key_follows_the_text() {
        let m = every_kind();
        let key = module_key(7, &m);
        assert_ne!(key, module_key(8, &m), "the salt enters the key");

        // What the text leaves out leaves the key alone.
        let mut quiet = m.clone();
        quiet.globals[0].init = vec![9; 4];
        let main = quiet.find_func("main").unwrap();
        let f = quiet.func_mut(main);
        f.src_file = Some(crate::interner::StrId(0));
        let call = f
            .live_insts()
            .find(|&i| matches!(f.inst(i), Inst::Call { .. }))
            .unwrap();
        if let Inst::Call { ret, .. } = f.inst_mut(call) {
            *ret = Some(Ty::I64);
        }
        assert_eq!(module_str(&quiet), module_str(&m));
        assert_eq!(module_key(7, &quiet), key);

        // What it prints moves the key: a constant, a flipped branch, an
        // attribute, a removed instruction.
        let edits: [fn(&mut Function); 4] = [
            |f| {
                *f.inst_mut(InstId(1)) = Inst::Load {
                    ptr: Value::ConstInt(0),
                    ty: Ty::I64,
                    meta: Default::default(),
                }
            },
            |f| {
                let t = f.terminator(Function::ENTRY).unwrap();
                if let Inst::CondBr {
                    then_bb, else_bb, ..
                } = f.inst_mut(t)
                {
                    std::mem::swap(then_bb, else_bb);
                }
            },
            |f| f.outlined = true,
            |f| {
                let last = *f.blocks()[1].insts.first().unwrap();
                f.apply(&[Edit::Remove(last)]);
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut e = m.clone();
            edit(e.func_mut(main));
            assert_ne!(module_str(&e), module_str(&m), "edit {i}");
            assert_ne!(module_key(7, &e), key, "edit {i}");
        }
    }

    #[test]
    fn prints_source_locations() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        b.set_loc("sna.cpp", 609, 60);
        let p = b.arg(0);
        b.load(Ty::F64, p);
        b.ret(None);
        let id = b.finish();
        let text = function_str(&m, id);
        assert!(text.contains("sna.cpp:609:60"), "{text}");
    }
}
