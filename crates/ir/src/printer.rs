//! Textual IR printer, LLVM-flavoured. Used in reports, debugging and
//! golden tests, and as the executable-cache key: the probing driver
//! hashes [`module_str`] after every probe compile. There is
//! deliberately no parser: modules are built programmatically (workload
//! generators / builder API).
//!
//! Each level (value, instruction, function, module) has one writer
//! that appends to a caller's `String`, with no intermediate `String`
//! or `Vec` per operand, argument list, instruction or function.
//! [`value_str`], [`inst_str`], [`function_str`] and [`module_str`] are
//! thin wrappers over them.

use crate::inst::{CallKind, FuncRef, GepOffset, Inst, InstId};
use crate::module::{Function, FunctionId, Module};
use crate::value::Value;
use std::fmt::{self, Write as _};

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
    for (bi, block) in f.blocks.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
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
