//! An ergonomic function builder used by tests and the workload
//! generators.

use crate::inst::{BinOp, CallKind, CastKind, CmpPred, FuncRef, GepOffset, Inst, InstId};
use crate::meta::{AccessMeta, SrcLoc, Target, TbaaTag};
use crate::module::{Function, FunctionId, Module, Param};
use crate::types::Ty;
use crate::value::{BlockId, Value};

/// Builds one [`Function`] with a cursor ("current block") model, then
/// installs it into the module via [`FunctionBuilder::finish`].
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    func: Function,
    cur: BlockId,
    loc: Option<SrcLoc>,
}

impl<'m> FunctionBuilder<'m> {
    /// Starts a new host function with the given signature. All
    /// parameters default to non-`noalias`; use [`Self::set_noalias`].
    pub fn new(module: &'m mut Module, name: &str, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        FunctionBuilder {
            module,
            func: Function::new(name, plain_params(params), ret),
            cur: Function::ENTRY,
            loc: None,
        }
    }

    /// Access to the module being extended (e.g. to intern strings or add
    /// TBAA tags while building).
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    /// Marks the function as compiled for `target`.
    pub fn set_target(&mut self, target: Target) {
        self.func.target = target;
    }

    /// Marks the function as compiler-outlined (parallel region body).
    pub fn set_outlined(&mut self, outlined: bool) {
        self.func.outlined = outlined;
    }

    /// Records the source file the function belongs to.
    pub fn set_src_file(&mut self, file: &str) {
        let id = self.module.strings.intern(file);
        self.func.src_file = Some(id);
    }

    /// Sets the `noalias` attribute on parameter `i`.
    pub fn set_noalias(&mut self, i: usize, noalias: bool) {
        self.func.params[i].noalias = noalias;
    }

    /// Sets the source location attached to subsequently built
    /// instructions (pass `None` to clear).
    pub fn set_loc(&mut self, file: &str, line: u32, col: u32) {
        let file = self.module.strings.intern(file);
        self.loc = Some(SrcLoc { file, line, col });
    }

    /// The `i`-th argument as a value.
    pub fn arg(&self, i: u32) -> Value {
        Value::Arg(i)
    }

    /// Creates a new empty block (does not move the cursor).
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Moves the cursor to `bb`.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.cur = bb;
    }

    /// The block the cursor is currently in.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Emits `inst` at the cursor and returns its id.
    pub fn emit(&mut self, inst: Inst) -> InstId {
        self.func.push_inst(self.cur, inst, self.loc)
    }

    /// Emits `inst` and wraps the result as a [`Value`].
    pub fn emit_value(&mut self, inst: Inst) -> Value {
        Value::Inst(self.emit(inst))
    }

    // ---- memory ---------------------------------------------------------

    /// Stack allocation of `size` bytes with a debug name.
    pub fn alloca(&mut self, size: u64, name: &str) -> Value {
        let name = self.module.strings.intern(name);
        self.emit_value(Inst::Alloca { size, name })
    }

    /// Plain load.
    pub fn load(&mut self, ty: Ty, ptr: Value) -> Value {
        self.emit_value(Inst::Load {
            ptr,
            ty,
            meta: AccessMeta::default(),
        })
    }

    /// Load with access metadata (TBAA / scopes).
    pub fn load_meta(&mut self, ty: Ty, ptr: Value, meta: AccessMeta) -> Value {
        self.emit_value(Inst::Load { ptr, ty, meta })
    }

    /// Load with just a TBAA tag.
    pub fn load_tbaa(&mut self, ty: Ty, ptr: Value, tag: TbaaTag) -> Value {
        self.load_meta(ty, ptr, AccessMeta::tbaa(tag))
    }

    /// Plain store.
    pub fn store(&mut self, ty: Ty, value: Value, ptr: Value) -> InstId {
        self.emit(Inst::Store {
            ptr,
            value,
            ty,
            meta: AccessMeta::default(),
        })
    }

    /// Store with access metadata.
    pub fn store_meta(&mut self, ty: Ty, value: Value, ptr: Value, meta: AccessMeta) -> InstId {
        self.emit(Inst::Store {
            ptr,
            value,
            ty,
            meta,
        })
    }

    /// Store with just a TBAA tag.
    pub fn store_tbaa(&mut self, ty: Ty, value: Value, ptr: Value, tag: TbaaTag) -> InstId {
        self.store_meta(ty, value, ptr, AccessMeta::tbaa(tag))
    }

    /// `base + bytes` (constant GEP).
    pub fn gep(&mut self, base: Value, bytes: i64) -> Value {
        self.emit_value(Inst::Gep {
            base,
            offset: GepOffset::Const(bytes),
        })
    }

    /// `base + index * scale + add` (scaled GEP).
    pub fn gep_scaled(&mut self, base: Value, index: Value, scale: i64, add: i64) -> Value {
        self.emit_value(Inst::Gep {
            base,
            offset: GepOffset::Scaled { index, scale, add },
        })
    }

    /// `memcpy(dst, src, bytes)`.
    pub fn memcpy(&mut self, dst: Value, src: Value, bytes: Value) -> InstId {
        self.emit(Inst::Memcpy {
            dst,
            src,
            bytes,
            meta: AccessMeta::default(),
        })
    }

    // ---- arithmetic ------------------------------------------------------

    /// Generic binary operation.
    pub fn bin(&mut self, op: BinOp, ty: Ty, lhs: Value, rhs: Value) -> Value {
        self.emit_value(Inst::Bin { op, ty, lhs, rhs })
    }

    /// i64 addition.
    pub fn add(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Add, Ty::I64, lhs, rhs)
    }

    /// i64 subtraction.
    pub fn sub(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Sub, Ty::I64, lhs, rhs)
    }

    /// i64 multiplication.
    pub fn mul(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Mul, Ty::I64, lhs, rhs)
    }

    /// i64 signed division.
    pub fn div(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Div, Ty::I64, lhs, rhs)
    }

    /// i64 remainder.
    pub fn rem(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Rem, Ty::I64, lhs, rhs)
    }

    /// f64 addition.
    pub fn fadd(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FAdd, Ty::F64, lhs, rhs)
    }

    /// f64 subtraction.
    pub fn fsub(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FSub, Ty::F64, lhs, rhs)
    }

    /// f64 multiplication.
    pub fn fmul(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FMul, Ty::F64, lhs, rhs)
    }

    /// f64 division.
    pub fn fdiv(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FDiv, Ty::F64, lhs, rhs)
    }

    /// Comparison producing an `i1`.
    pub fn cmp(&mut self, pred: CmpPred, ty: Ty, lhs: Value, rhs: Value) -> Value {
        self.emit_value(Inst::Cmp { pred, ty, lhs, rhs })
    }

    /// Select.
    pub fn select(&mut self, ty: Ty, cond: Value, t: Value, f: Value) -> Value {
        self.emit_value(Inst::Select { cond, t, f, ty })
    }

    /// Cast.
    pub fn cast(&mut self, kind: CastKind, val: Value, to: Ty) -> Value {
        self.emit_value(Inst::Cast { kind, val, to })
    }

    /// `i64 -> f64` convenience.
    pub fn si_to_fp(&mut self, val: Value) -> Value {
        self.cast(CastKind::SiToFp, val, Ty::F64)
    }

    // ---- control flow -----------------------------------------------------

    /// Unconditional branch; does not move the cursor.
    pub fn br(&mut self, target: BlockId) -> InstId {
        self.emit(Inst::Br { target })
    }

    /// Conditional branch; does not move the cursor.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) -> InstId {
        self.emit(Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        })
    }

    /// Phi with initial incoming list; more edges can be patched later
    /// via [`Self::add_phi_incoming`].
    pub fn phi(&mut self, ty: Ty, incoming: Vec<(BlockId, Value)>) -> Value {
        self.emit_value(Inst::Phi { ty, incoming })
    }

    /// Adds an incoming edge to an existing phi.
    pub fn add_phi_incoming(&mut self, phi: Value, from: BlockId, val: Value) {
        let Value::Inst(id) = phi else {
            panic!("add_phi_incoming on non-instruction value")
        };
        match self.func.inst_mut(id) {
            Inst::Phi { incoming, .. } => incoming.push((from, val)),
            other => panic!("add_phi_incoming on non-phi {other:?}"),
        }
    }

    /// Return.
    pub fn ret(&mut self, val: Option<Value>) -> InstId {
        self.emit(Inst::Ret { val })
    }

    // ---- calls & I/O -------------------------------------------------------

    /// Plain direct call to an internal function.
    pub fn call(&mut self, callee: FunctionId, args: Vec<Value>, ret: Option<Ty>) -> Option<Value> {
        let id = self.emit(Inst::Call {
            callee: FuncRef::Internal(callee),
            args,
            ret,
            kind: CallKind::Plain,
        });
        ret.map(|_| Value::Inst(id))
    }

    /// Call to an external routine resolved by the VM (e.g. `"sqrt"`).
    pub fn call_external(
        &mut self,
        name: &str,
        args: Vec<Value>,
        ret: Option<Ty>,
    ) -> Option<Value> {
        let sym = self.module.strings.intern(name);
        let id = self.emit(Inst::Call {
            callee: FuncRef::External(sym),
            args,
            ret,
            kind: CallKind::Plain,
        });
        ret.map(|_| Value::Inst(id))
    }

    /// OpenMP-style parallel region: invokes `callee(tid, args...)` for
    /// every `tid` in `0..threads`.
    pub fn parallel_region(
        &mut self,
        callee: FunctionId,
        args: Vec<Value>,
        threads: u32,
    ) -> InstId {
        self.emit(Inst::Call {
            callee: FuncRef::Internal(callee),
            args,
            ret: None,
            kind: CallKind::ParallelRegion { threads },
        })
    }

    /// Device kernel launch: invokes `callee(gid, args...)` for every
    /// work item `gid` in `0..items`.
    pub fn kernel_launch(&mut self, callee: FunctionId, args: Vec<Value>, items: u32) -> InstId {
        self.emit(Inst::Call {
            callee: FuncRef::Internal(callee),
            args,
            ret: None,
            kind: CallKind::KernelLaunch { items },
        })
    }

    /// Deterministic formatted print (the verification output channel).
    pub fn print(&mut self, fmt: &str, args: Vec<Value>) -> InstId {
        let fmt = self.module.strings.intern(fmt);
        self.emit(Inst::Print { fmt, args })
    }

    // ---- structured helpers -----------------------------------------------

    /// Builds a counted loop `for (i = start; i < end; i += 1)`.
    ///
    /// The closure receives the builder (positioned in the loop body) and
    /// the induction variable; it may create extra blocks but must leave
    /// the cursor in the block that should fall through to the latch. The
    /// cursor ends up in the exit block. Returns the induction phi.
    pub fn counted_loop(
        &mut self,
        start: Value,
        end: Value,
        body: impl FnOnce(&mut Self, Value),
    ) -> Value {
        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        let pre = self.cur;
        self.br(header);

        self.switch_to(header);
        let iv = self.phi(Ty::I64, vec![(pre, start)]);
        let cond = self.cmp(CmpPred::Lt, Ty::I64, iv, end);
        self.cond_br(cond, body_bb, exit);

        self.switch_to(body_bb);
        body(self, iv);
        // Latch: wherever the body left the cursor.
        let latch = self.cur;
        let next = self.add(iv, Value::ConstInt(1));
        self.br(header);
        self.add_phi_incoming(iv, latch, next);

        self.switch_to(exit);
        iv
    }

    // ---- aliasing-motif emission (used by `oraql-gen` and tests) ----------

    /// The observable "red square" hazard: `l1 = load i64 p; store
    /// `stored` to q; l2 = load i64 p`, returning `l1 + l2` (callers
    /// print it). If `(p, q)` alias and an optimizer believes a wrong
    /// no-alias answer, it forwards `l1` into `l2` across the store and
    /// the printed sum changes — which is exactly what makes the pair's
    /// ground-truth label *checkable*: a wrong optimistic answer cannot
    /// survive output verification. Keep `stored` different from the
    /// value at `p` or the divergence is invisible.
    pub fn hazard_probe(&mut self, p: Value, q: Value, stored: i64) -> Value {
        self.hazard_probe_typed(Ty::I64, p, Ty::I64, Value::ConstInt(stored), q)
    }

    /// [`Self::hazard_probe`] with independent load/store types — the
    /// type-punned variant (`load_ty` reads through `p`, `store_ty`
    /// writes `stored` through `q`), for motifs where one buffer is
    /// accessed through two typed views. Returns the reloaded sum
    /// (`fadd` for `F64` loads, `add` otherwise).
    pub fn hazard_probe_typed(
        &mut self,
        load_ty: Ty,
        p: Value,
        store_ty: Ty,
        stored: Value,
        q: Value,
    ) -> Value {
        let l1 = self.load(load_ty, p);
        self.store(store_ty, stored, q);
        let l2 = self.load(load_ty, p);
        match load_ty {
            Ty::F64 => self.fadd(l1, l2),
            _ => self.add(l1, l2),
        }
    }

    /// A strided two-pointer loop with a per-iteration printed hazard:
    /// for `i in 0..n`, `xg = x + i*stride + off_x` and
    /// `yg = y + i*stride + off_y`, then
    /// `print(hazard_probe(xg, yg, stored))`. This is the AoS/SoA
    /// shape: two field streams walking the same stride whose alias
    /// relation is a pure function of how the caller wired
    /// `x`/`y`/offsets. Returns the `(xg, yg)` gep values — the loop
    /// body is emitted once, so these are exactly the SSA values later
    /// alias queries are keyed on.
    #[allow(clippy::too_many_arguments)]
    pub fn strided_hazard_loop(
        &mut self,
        x: Value,
        y: Value,
        n: i64,
        stride: i64,
        off_x: i64,
        off_y: i64,
        stored: i64,
    ) -> (Value, Value) {
        let mut pair = (Value::Undef, Value::Undef);
        self.counted_loop(Value::ConstInt(0), Value::ConstInt(n), |b, i| {
            let xg = b.gep_scaled(x, i, stride, off_x);
            let yg = b.gep_scaled(y, i, stride, off_y);
            let s = b.hazard_probe(xg, yg, stored);
            b.print("{}", vec![s]);
            pair = (xg, yg);
        });
        pair
    }

    /// An 8-byte-element copy loop `dst[i] = src[i]` for `i in 0..n`
    /// (halo-exchange pack/unpack shape). Returns the `(src_gep,
    /// dst_gep)` values for ground-truth labelling.
    pub fn copy_loop8(&mut self, dst: Value, src: Value, n: i64) -> (Value, Value) {
        let mut pair = (Value::Undef, Value::Undef);
        self.counted_loop(Value::ConstInt(0), Value::ConstInt(n), |b, i| {
            let sg = b.gep_scaled(src, i, 8, 0);
            let dg = b.gep_scaled(dst, i, 8, 0);
            let v = b.load(Ty::I64, sg);
            b.store(Ty::I64, v, dg);
            pair = (sg, dg);
        });
        pair
    }

    /// An indirect gather `out[i] = vals[idx[i]]` for `i in 0..n` over
    /// 8-byte elements — the CSR-neighbor-array shape, where the
    /// `vals`-side pointer depends on loaded data and its alias
    /// relation to `out` is genuinely runtime-dependent. Returns the
    /// `(idx_gep, val_gep, out_gep)` values for labelling.
    pub fn gather_loop8(
        &mut self,
        vals: Value,
        idx: Value,
        out: Value,
        n: i64,
    ) -> (Value, Value, Value) {
        let mut ptrs = (Value::Undef, Value::Undef, Value::Undef);
        self.counted_loop(Value::ConstInt(0), Value::ConstInt(n), |b, i| {
            let ig = b.gep_scaled(idx, i, 8, 0);
            let c = b.load(Ty::I64, ig);
            let vg = b.gep_scaled(vals, c, 8, 0);
            let v = b.load(Ty::I64, vg);
            let og = b.gep_scaled(out, i, 8, 0);
            b.store(Ty::I64, v, og);
            ptrs = (ig, vg, og);
        });
        ptrs
    }

    /// Finalizes the function and installs it in the module.
    pub fn finish(self) -> FunctionId {
        let id = FunctionId(self.module.funcs.len() as u32);
        self.module.funcs.push(self.func);
        id
    }
}

/// Declares a function signature up-front (so forward calls can reference
/// it) and returns its id; [`Function::push_inst`] fills in its body.
///
/// This is needed when building mutually recursive or forward-referenced
/// functions: `FunctionBuilder::finish` appends, so ids must be known
/// before bodies referencing them are built.
pub fn declare_function(
    module: &mut Module,
    name: &str,
    params: Vec<Ty>,
    ret: Option<Ty>,
) -> FunctionId {
    let id = FunctionId(module.funcs.len() as u32);
    module
        .funcs
        .push(Function::new(name, plain_params(params), ret));
    id
}

/// Non-`noalias` parameters named `arg0`, `arg1`, ... of the given types.
fn plain_params(tys: Vec<Ty>) -> Vec<Param> {
    tys.into_iter()
        .enumerate()
        .map(|(i, ty)| Param {
            ty,
            noalias: false,
            name: format!("arg{i}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straightline() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], Some(Ty::F64));
        let p = b.arg(0);
        let x = b.load(Ty::F64, p);
        let y = b.fadd(x, Value::const_f64(1.0));
        b.store(Ty::F64, y, p);
        b.ret(Some(y));
        let id = b.finish();
        assert_eq!(m.func(id).live_inst_count(), 4);
        assert_eq!(m.func(id).name, "f");
    }

    #[test]
    fn counted_loop_shape() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "loop", vec![Ty::Ptr], None);
        let p = b.arg(0);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            let addr = b.gep_scaled(p, i, 8, 0);
            b.store(Ty::I64, i, addr);
        });
        b.ret(None);
        let id = b.finish();
        let f = m.func(id);
        // preheader(entry) + header + body + exit
        assert_eq!(f.blocks().len(), 4);
        // Phi has two incoming edges after patching.
        let phi = f
            .live_insts()
            .find(|&i| matches!(f.inst(i), Inst::Phi { .. }))
            .unwrap();
        match f.inst(phi) {
            Inst::Phi { incoming, .. } => assert_eq!(incoming.len(), 2),
            _ => unreachable!(),
        }
        assert!(crate::verify::verify_function(&m, id).is_ok());
    }

    #[test]
    fn motif_helpers_emit_verifiable_ir() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "w", vec![Ty::Ptr, Ty::Ptr, Ty::Ptr], None);
        let (p, q, r) = (b.arg(0), b.arg(1), b.arg(2));
        let s = b.hazard_probe(p, q, 100);
        b.print("{}", vec![s]);
        let (xg, yg) = b.strided_hazard_loop(p, q, 4, 16, 0, 8, 7);
        let (sg, dg) = b.copy_loop8(q, p, 3);
        let (ig, vg, og) = b.gather_loop8(p, q, r, 3);
        b.ret(None);
        let id = b.finish();
        // Every returned value is a distinct gep instruction from the
        // (single-emission) loop bodies — the keys labels attach to.
        for v in [xg, yg, sg, dg, ig, vg, og] {
            assert!(matches!(v, Value::Inst(_)), "{v:?}");
        }
        let mut uniq = [xg, yg, sg, dg, ig, vg, og].to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 7);
        assert!(crate::verify::verify_function(&m, id).is_ok());
    }

    #[test]
    fn declare_then_call() {
        let mut m = Module::new("t");
        let callee = declare_function(&mut m, "callee", vec![Ty::I64], Some(Ty::I64));
        let mut b = FunctionBuilder::new(&mut m, "caller", vec![], Some(Ty::I64));
        let r = b
            .call(callee, vec![Value::ConstInt(3)], Some(Ty::I64))
            .unwrap();
        b.ret(Some(r));
        let caller = b.finish();
        // Fill in the declared body.
        let ret = Inst::Ret {
            val: Some(Value::Arg(0)),
        };
        m.func_mut(callee).push_inst(Function::ENTRY, ret, None);
        assert_eq!(m.func(caller).name, "caller");
        assert_eq!(m.func(callee).live_inst_count(), 1);
    }
}
