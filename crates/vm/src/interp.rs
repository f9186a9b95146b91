//! The IR interpreter: deterministic execution, output capture and the
//! cost model.
//!
//! Two executors share this file: the tree-walk over `Inst` payloads
//! (`exec_function`, the reference) and the pre-decoded executor
//! (`exec_function_decoded`, the default; see [`crate::decode`]). A
//! decoded frame is an array of slots, each a [`Tag`] and 64 payload
//! bits read and written one field at a time, so an op's result is two
//! scalar stores and never an enum staged through a stack temporary
//! (see `Slot`). Decoded ops take scalar fast paths on (tag, bits) pairs
//! when the operand tags match the op: `Bin`, `Cmp`, `Select`, 8-byte
//! `Load`/`Store` and GEPs. Everything else (vectors, narrow and f32
//! accesses, casts, calls, and operands whose tag does not match the
//! op) takes the generic [`RtVal`] path through the helpers the
//! tree-walk uses (`exec_bin`, `exec_cast`, `store_typed`,
//! `exec_call`), so errors keep the tree-walk's text and precedence.
//! Error values are built out of line (`#[cold]`).

use crate::decode::{decode_function, DecodedFunction, Jump, Op, Opd, Tag, NO_EDGE};
use crate::memory::{MemError, Memory};
use crate::rtval::RtVal;
use oraql_ir::inst::{BinOp, CallKind, CastKind, CmpPred, FuncRef, GepOffset, Inst, InstId};
use oraql_ir::meta::Target;
use oraql_ir::module::{Function, FunctionId, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::{BlockId, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::rc::Rc;

/// Default fuel budget (instructions before
/// [`RuntimeError::FuelExhausted`]), shared by [`Interpreter::new`] and
/// the driver's test-case configuration so `run_main` and driver probes
/// execute under the same budget.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// Which execution engine the interpreter uses. Both engines are
/// observationally identical (stdout, [`ExecStats`], [`RuntimeError`]
/// classification); the pre-decoded engine is the default because every
/// ORAQL probe pays one interpreted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpMode {
    /// Execute pre-decoded basic blocks (see [`crate::decode`]).
    #[default]
    Decoded,
    /// Walk the IR instruction payloads directly (the reference
    /// semantics; kept for differential testing).
    TreeWalk,
}

/// Execution statistics — the `perf` / kernel-timer stand-in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// IR instructions executed on the host (a vector op counts once,
    /// which is exactly why vectorization lowers this number).
    pub host_insts: u64,
    /// IR instructions executed in device-target functions.
    pub device_insts: u64,
    /// Modelled host cycles (see the cost table in [`inst_cost`]);
    /// parallel regions contribute their slowest thread.
    pub host_cycles: u64,
    /// Modelled device cycles (kernel launches contribute launch
    /// overhead plus work divided across the modelled SM parallelism).
    pub device_cycles: u64,
    /// Scalar/vector loads executed.
    pub loads: u64,
    /// Scalar/vector stores executed.
    pub stores: u64,
    /// Parallel regions + kernel launches executed.
    pub launches: u64,
}

impl ExecStats {
    /// Total executed instructions across host and device.
    pub fn total_insts(&self) -> u64 {
        self.host_insts + self.device_insts
    }
}

/// A runtime failure. Miscompiled programs (from wrong optimistic
/// answers) either produce different output or trap with one of these;
/// both count as verification failures for the ORAQL driver.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Memory fault.
    Mem(MemError),
    /// An instruction read a value that was never defined on this path.
    UndefRead(String),
    /// Integer division/remainder by zero.
    DivByZero,
    /// The fuel budget was exhausted (runaway loop in a miscompile).
    FuelExhausted,
    /// Structural problem (should not happen on verified IR).
    BadProgram(String),
    /// A chaos-testing fault injected via [`Interpreter::with_fault`].
    /// Never produced by real execution; the probing driver classifies
    /// it as a transient probe failure, not a verification verdict.
    Injected(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Mem(e) => write!(f, "memory error: {e}"),
            RuntimeError::UndefRead(s) => write!(f, "undefined value read: {s}"),
            RuntimeError::DivByZero => write!(f, "division by zero"),
            RuntimeError::FuelExhausted => write!(f, "fuel exhausted"),
            RuntimeError::BadProgram(s) => write!(f, "bad program: {s}"),
            RuntimeError::Injected(s) => write!(f, "injected fault: {s}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<MemError> for RuntimeError {
    fn from(e: MemError) -> Self {
        RuntimeError::Mem(e)
    }
}

/// A fault injected into one interpreter run (chaos testing; see the
/// `oraql-faults` crate). Both execution engines honor it identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmFault {
    /// [`Interpreter::run`] returns [`RuntimeError::Injected`] without
    /// executing anything.
    Trap,
    /// The fuel budget is capped at this value, so healthy long-running
    /// programs report [`RuntimeError::FuelExhausted`]. A program that
    /// completes anyway produced its genuine (trustworthy) output: fuel
    /// only bounds execution, it never changes semantics.
    FuelLie(u64),
}

/// Result of a complete program run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Captured output of all `print` instructions.
    pub stdout: String,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Modelled cycle cost of one executed instruction.
pub fn inst_cost(inst: &Inst) -> u64 {
    match inst {
        Inst::Load { .. } => 4,
        Inst::Store { .. } => 4,
        Inst::Gep { .. } => 1,
        Inst::Bin { op, .. } => match op {
            BinOp::FDiv => 12,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FMin | BinOp::FMax => 2,
            BinOp::Div | BinOp::Rem => 8,
            _ => 1,
        },
        Inst::Cmp { .. } | Inst::Select { .. } | Inst::Cast { .. } => 1,
        Inst::Br { .. } | Inst::CondBr { .. } => 1,
        Inst::Phi { .. } => 0,
        Inst::Call { .. } => 5,
        Inst::Ret { .. } => 1,
        Inst::Alloca { .. } => 1,
        Inst::Print { .. } => 2,
        Inst::Memcpy { .. } => 4, // plus a per-byte cost added inline
        Inst::Removed => 0,
    }
}

/// Fork/join overhead charged per thread of a parallel region.
const THREAD_OVERHEAD: u64 = 50;
/// Fixed overhead of a device kernel launch.
const LAUNCH_OVERHEAD: u64 = 1_000;
/// Modelled device parallelism (work items executing concurrently).
/// Deliberately small relative to our miniature launch sizes so kernel
/// time is throughput-dominated (as on a saturated GPU), not dominated
/// by the single slowest item.
const DEVICE_PARALLELISM: u64 = 16;

/// One observed memory access, for the dynamic-soundness harness: a
/// claim of `NoAlias` between two accesses of the same function
/// invocation is falsified if their recorded ranges overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Which function invocation (monotonic id across the run).
    pub frame: u64,
    /// The executing function.
    pub func: FunctionId,
    /// The load/store instruction.
    pub inst: InstId,
    /// Start address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub is_store: bool,
}

/// The interpreter. One instance executes one program run.
pub struct Interpreter<'m> {
    m: &'m Module,
    mem: Memory,
    out: String,
    stats: ExecStats,
    fuel: u64,
    in_device: bool,
    trace: Option<Vec<AccessEvent>>,
    next_frame: u64,
    mode: InterpMode,
    /// Pending injected trap (chaos testing): checked once, at the next
    /// top-level [`Interpreter::run`].
    injected_trap: bool,
    /// Lazily built pre-decoded bodies, indexed by function id.
    decoded: Vec<Option<Rc<DecodedFunction>>>,
    /// Retired decoded-mode frames, reused by later calls (call-heavy
    /// programs otherwise pay an allocator round-trip per call).
    frame_pool: Vec<SlotBufs>,
    /// The incoming phi values of the block being entered, read before
    /// any phi slot is written (parallel-copy semantics); the vectors
    /// among them sit in `staged_vecs`, indexed by the bits.
    staged: Vec<(Tag, u64)>,
    staged_vecs: Vec<RtVal>,
    /// Retired argument vectors, reused across calls, external calls
    /// and per-thread/per-item launch argument lists.
    arg_pool: Vec<Vec<RtVal>>,
}

/// A tree-walk frame.
struct Frame {
    values: Vec<Option<RtVal>>,
    args: Vec<RtVal>,
}

/// The storage of a decoded-mode frame, pooled across calls.
#[derive(Default)]
struct SlotBufs {
    slots: Vec<Slot>,
    vecs: Vec<RtVal>,
}

/// One frame slot: a [`Tag`] and 64 payload bits. The executor reads
/// and writes the two fields one at a time, so an op's result is two
/// scalar stores: an enum slot (`Option<RtVal>`, or a 16-byte `Copy`
/// enum) is built in a stack temporary and copied in with one wide
/// reload, which stalls on the narrower stores that built it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: Tag,
    bits: u64,
}

/// A decoded-mode frame.
struct Slots<'a> {
    slots: &'a mut [Slot],
    /// The value of each [`Tag::Vec`] slot, by slot index: grown on the
    /// first vector write, so a frame holds at most one vector per slot.
    vecs: &'a mut Vec<RtVal>,
    /// The value of the `Ret` that ended the function.
    ret: Option<RtVal>,
}

/// Control transfer produced by one decoded op.
enum Flow {
    /// Fall through to the next op.
    Next,
    /// Branch to `block`, arriving via incoming edge `edge`.
    Jump { block: u32, edge: u32 },
    /// Return from the function (the value is in [`Slots::ret`]).
    Ret,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter over `m` with the default fuel budget and
    /// the default (pre-decoded) execution mode.
    pub fn new(m: &'m Module) -> Self {
        Interpreter {
            mem: Memory::new(m),
            m,
            out: String::new(),
            stats: ExecStats::default(),
            fuel: DEFAULT_FUEL,
            in_device: false,
            trace: None,
            next_frame: 0,
            mode: InterpMode::default(),
            injected_trap: false,
            decoded: vec![None; m.funcs.len()],
            frame_pool: Vec::new(),
            staged: Vec::new(),
            staged_vecs: Vec::new(),
            arg_pool: Vec::new(),
        }
    }

    /// Selects the execution engine (see [`InterpMode`]).
    pub fn with_mode(mut self, mode: InterpMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables recording of every scalar load/store address (used by the
    /// dynamic alias-soundness tests). Costly; off by default.
    pub fn with_access_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// The recorded access events (empty unless tracing was enabled).
    pub fn access_trace(&self) -> &[AccessEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Overrides the fuel budget (instructions before
    /// [`RuntimeError::FuelExhausted`]).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Arms an injected fault for the next [`Interpreter::run`] (chaos
    /// testing; `None` is a no-op so call sites can thread an optional
    /// plan through unconditionally).
    pub fn with_fault(mut self, fault: Option<VmFault>) -> Self {
        match fault {
            Some(VmFault::Trap) => self.injected_trap = true,
            Some(VmFault::FuelLie(cap)) => self.fuel = self.fuel.min(cap),
            None => {}
        }
        self
    }

    /// Runs the module's `main` function (no arguments) and returns the
    /// captured output and statistics.
    pub fn run_main(m: &'m Module) -> Result<RunOutcome, RuntimeError> {
        let main = m
            .find_func("main")
            .ok_or_else(|| RuntimeError::BadProgram("no main function".into()))?;
        let mut interp = Interpreter::new(m);
        interp.call(main, Vec::new())?;
        Ok(interp.into_outcome())
    }

    /// The captured output and statistics, the output moved rather
    /// than copied.
    pub fn into_outcome(self) -> RunOutcome {
        RunOutcome {
            stdout: self.out,
            stats: self.stats,
        }
    }

    /// Runs `entry` with `args`, returning its return value.
    pub fn run(
        &mut self,
        entry: FunctionId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, RuntimeError> {
        if self.injected_trap {
            self.injected_trap = false;
            return Err(RuntimeError::Injected("trap before execution".into()));
        }
        self.call(entry, args)
    }

    /// Output captured so far.
    pub fn stdout(&self) -> &str {
        &self.out
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    fn charge(&mut self, inst: &Inst) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        let c = inst_cost(inst);
        if self.in_device {
            self.stats.device_insts += 1;
            self.stats.device_cycles += c;
        } else {
            self.stats.host_insts += 1;
            self.stats.host_cycles += c;
        }
        match inst {
            Inst::Load { .. } => self.stats.loads += 1,
            Inst::Store { .. } => self.stats.stores += 1,
            _ => {}
        }
        Ok(())
    }

    fn call(&mut self, fid: FunctionId, args: Vec<RtVal>) -> Result<Option<RtVal>, RuntimeError> {
        let f = self.m.get_func(fid).ok_or_else(|| {
            RuntimeError::BadProgram(format!("call to missing function f{}", fid.0))
        })?;
        if args.len() != f.params.len() {
            return Err(RuntimeError::BadProgram(format!(
                "call to {} with {} args, expected {}",
                f.name,
                args.len(),
                f.params.len()
            )));
        }
        let was_device = self.in_device;
        if f.target == Target::Device {
            self.in_device = true;
        }
        let mark = self.mem.stack_mark();
        let result = match self.mode {
            InterpMode::TreeWalk => self.exec_function(fid, f, args),
            InterpMode::Decoded => {
                let dfn = self.decoded_fn(fid, f);
                self.exec_function_decoded(fid, dfn, args)
            }
        };
        self.mem.stack_release(mark);
        self.in_device = was_device;
        result
    }

    /// The cached pre-decoded body of `fid`, building it on first use.
    fn decoded_fn(&mut self, fid: FunctionId, f: &'m Function) -> Rc<DecodedFunction> {
        let idx = fid.0 as usize;
        if let Some(d) = self.decoded.get(idx).and_then(|o| o.as_ref()) {
            return Rc::clone(d);
        }
        if self.decoded.len() <= idx {
            self.decoded.resize(idx + 1, None);
        }
        let d = Rc::new(decode_function(self.m, f, self.mem.global_bases()));
        self.decoded[idx] = Some(Rc::clone(&d));
        d
    }

    fn eval(&self, frame: &Frame, v: Value) -> Result<RtVal, RuntimeError> {
        match v {
            Value::ConstInt(i) => Ok(RtVal::I(i)),
            Value::ConstFloat(bits) => Ok(RtVal::F(f64::from_bits(bits))),
            Value::Global(g) => self
                .mem
                .try_global_base(g.0 as usize)
                .map(RtVal::P)
                .ok_or_else(|| RuntimeError::BadProgram(format!("global @{} out of range", g.0))),
            Value::Arg(i) => frame
                .args
                .get(i as usize)
                .cloned()
                .ok_or_else(|| RuntimeError::BadProgram(format!("missing arg {i}"))),
            Value::Inst(id) => frame
                .values
                .get(id.0 as usize)
                .ok_or_else(|| {
                    RuntimeError::BadProgram(format!("instruction id %{} out of range", id.0))
                })?
                .clone()
                .ok_or_else(|| RuntimeError::UndefRead(format!("%{}", id.0))),
            Value::Undef => Err(RuntimeError::UndefRead("undef".into())),
        }
    }

    fn exec_function(
        &mut self,
        fid: FunctionId,
        f: &'m Function,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, RuntimeError> {
        let frame_id = self.next_frame;
        self.next_frame += 1;
        let mut frame = Frame {
            values: vec![None; f.insts().len()],
            args,
        };
        let mut block = Function::ENTRY;
        let mut pred: Option<BlockId> = None;
        loop {
            // Phase 1: evaluate all phis of this block against the
            // incoming edge (parallel-copy semantics).
            let insts = &f
                .blocks()
                .get(block.0 as usize)
                .ok_or_else(|| RuntimeError::BadProgram(format!("missing block bb{}", block.0)))?
                .insts;
            let mut phi_vals: Vec<(InstId, RtVal)> = Vec::new();
            for &id in insts {
                match f.get_inst(id) {
                    None => {
                        return Err(RuntimeError::BadProgram(format!(
                            "instruction id %{} out of range",
                            id.0
                        )))
                    }
                    Some(Inst::Phi { incoming, .. }) => {
                        let from = pred
                            .ok_or_else(|| RuntimeError::BadProgram("phi in entry block".into()))?;
                        let (_, v) =
                            incoming.iter().find(|(bb, _)| *bb == from).ok_or_else(|| {
                                RuntimeError::BadProgram(format!(
                                    "phi %{} lacks edge from bb{}",
                                    id.0, from.0
                                ))
                            })?;
                        phi_vals.push((id, self.eval(&frame, *v)?));
                    }
                    Some(_) => break,
                }
            }
            for (id, v) in phi_vals {
                self.charge(f.inst(id))?;
                frame.values[id.0 as usize] = Some(v);
            }

            // Phase 2: execute the rest of the block.
            let mut next: Option<BlockId> = None;
            for &id in insts {
                let inst = f.get_inst(id).ok_or_else(|| {
                    RuntimeError::BadProgram(format!("instruction id %{} out of range", id.0))
                })?;
                if matches!(inst, Inst::Phi { .. }) {
                    continue;
                }
                self.charge(inst)?;
                match inst {
                    Inst::Phi { .. } => unreachable!(),
                    Inst::Removed => {
                        return Err(RuntimeError::BadProgram(format!(
                            "removed instruction %{} executed",
                            id.0
                        )))
                    }
                    Inst::Alloca { size, .. } => {
                        let addr = self.mem.alloca(*size)?;
                        frame.values[id.0 as usize] = Some(RtVal::P(addr));
                    }
                    Inst::Load { ptr, ty, .. } => {
                        let addr = self
                            .eval(&frame, *ptr)?
                            .as_p()
                            .map_err(RuntimeError::UndefRead)?;
                        if let Some(t) = &mut self.trace {
                            t.push(AccessEvent {
                                frame: frame_id,
                                func: fid,
                                inst: id,
                                addr,
                                size: ty.size(),
                                is_store: false,
                            });
                        }
                        let v = self.load_typed(addr, *ty)?;
                        frame.values[id.0 as usize] = Some(v);
                    }
                    Inst::Store { ptr, value, ty, .. } => {
                        let addr = self
                            .eval(&frame, *ptr)?
                            .as_p()
                            .map_err(RuntimeError::UndefRead)?;
                        if let Some(t) = &mut self.trace {
                            t.push(AccessEvent {
                                frame: frame_id,
                                func: fid,
                                inst: id,
                                addr,
                                size: ty.size(),
                                is_store: true,
                            });
                        }
                        let v = self.eval(&frame, *value)?;
                        self.store_typed(addr, *ty, &v)?;
                    }
                    Inst::Gep { base, offset } => {
                        let b = self
                            .eval(&frame, *base)?
                            .as_p()
                            .map_err(RuntimeError::UndefRead)?;
                        let off: i64 = match offset {
                            GepOffset::Const(c) => *c,
                            GepOffset::Scaled { index, scale, add } => {
                                let i = self
                                    .eval(&frame, *index)?
                                    .as_i()
                                    .map_err(RuntimeError::UndefRead)?;
                                i.wrapping_mul(*scale).wrapping_add(*add)
                            }
                        };
                        frame.values[id.0 as usize] =
                            Some(RtVal::P((b as i64).wrapping_add(off) as u64));
                    }
                    Inst::Bin { op, ty, lhs, rhs } => {
                        let a = self.eval(&frame, *lhs)?;
                        let b = self.eval(&frame, *rhs)?;
                        frame.values[id.0 as usize] = Some(exec_bin(*op, *ty, &a, &b)?);
                    }
                    Inst::Cmp {
                        pred: p, lhs, rhs, ..
                    } => {
                        let a = self.eval(&frame, *lhs)?;
                        let b = self.eval(&frame, *rhs)?;
                        frame.values[id.0 as usize] = Some(RtVal::I(exec_cmp(*p, &a, &b)? as i64));
                    }
                    Inst::Select { cond, t, f: fv, .. } => {
                        let c = self
                            .eval(&frame, *cond)?
                            .as_i()
                            .map_err(RuntimeError::UndefRead)?;
                        let v = if c != 0 {
                            self.eval(&frame, *t)?
                        } else {
                            self.eval(&frame, *fv)?
                        };
                        frame.values[id.0 as usize] = Some(v);
                    }
                    Inst::Cast { kind, val, to } => {
                        let v = self.eval(&frame, *val)?;
                        frame.values[id.0 as usize] = Some(exec_cast(*kind, &v, *to)?);
                    }
                    Inst::Call {
                        callee,
                        args: cargs,
                        kind,
                        ..
                    } => {
                        let mut vals = Vec::with_capacity(cargs.len());
                        for a in cargs {
                            vals.push(self.eval(&frame, *a)?);
                        }
                        let r = self.exec_call(*callee, *kind, vals)?;
                        frame.values[id.0 as usize] = r;
                    }
                    Inst::Print { fmt, args: pargs } => {
                        let fmt = self
                            .m
                            .strings
                            .try_resolve(*fmt)
                            .ok_or_else(|| {
                                RuntimeError::BadProgram(format!(
                                    "string id {} out of range",
                                    fmt.0
                                ))
                            })?
                            .to_owned();
                        let mut vals = Vec::with_capacity(pargs.len());
                        for a in pargs {
                            vals.push(self.eval(&frame, *a)?);
                        }
                        self.exec_print(&fmt, &vals);
                    }
                    Inst::Memcpy {
                        dst, src, bytes, ..
                    } => {
                        let d = self
                            .eval(&frame, *dst)?
                            .as_p()
                            .map_err(RuntimeError::UndefRead)?;
                        let s = self
                            .eval(&frame, *src)?
                            .as_p()
                            .map_err(RuntimeError::UndefRead)?;
                        let n = self
                            .eval(&frame, *bytes)?
                            .as_i()
                            .map_err(RuntimeError::UndefRead)?;
                        if n < 0 {
                            return Err(RuntimeError::BadProgram("negative memcpy size".into()));
                        }
                        // Per-byte cost.
                        let extra = n as u64 / 16;
                        if self.in_device {
                            self.stats.device_cycles += extra;
                        } else {
                            self.stats.host_cycles += extra;
                        }
                        self.mem.copy(d, s, n as u64)?;
                    }
                    Inst::Ret { val } => {
                        return match val {
                            Some(v) => Ok(Some(self.eval(&frame, *v)?)),
                            None => Ok(None),
                        };
                    }
                    Inst::Br { target } => {
                        next = Some(*target);
                        break;
                    }
                    Inst::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self
                            .eval(&frame, *cond)?
                            .as_i()
                            .map_err(RuntimeError::UndefRead)?;
                        next = Some(if c != 0 { *then_bb } else { *else_bb });
                        break;
                    }
                }
            }
            match next {
                Some(b) => {
                    pred = Some(block);
                    block = b;
                }
                None => {
                    return Err(RuntimeError::BadProgram(format!(
                        "block bb{} of {} fell through without terminator",
                        block.0,
                        self.m.func(fid).name
                    )))
                }
            }
        }
    }

    /// Executes `fid`'s pre-decoded body. Must be observationally
    /// identical to [`Interpreter::exec_function`] — including the
    /// point at which fuel runs out and the `ExecStats` left behind by
    /// a failing run — which is what the batched-accounting refunds
    /// below are for.
    fn exec_function_decoded(
        &mut self,
        fid: FunctionId,
        dfn: Rc<DecodedFunction>,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, RuntimeError> {
        let frame_id = self.next_frame;
        self.next_frame += 1;
        let mut bufs = self.frame_pool.pop().unwrap_or_default();
        let result = self.exec_blocks(fid, frame_id, &dfn, &mut bufs, args);
        bufs.vecs.clear();
        self.frame_pool.push(bufs);
        result
    }

    /// The block loop of [`Interpreter::exec_function_decoded`].
    fn exec_blocks(
        &mut self,
        fid: FunctionId,
        frame_id: u64,
        dfn: &DecodedFunction,
        bufs: &mut SlotBufs,
        mut args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, RuntimeError> {
        let mut fr = Slots::new(bufs, dfn.n_slots);
        for (i, a) in args.drain(..).enumerate() {
            fr.put((dfn.first_arg + i) as u32, a);
        }
        self.arg_pool.push(args);
        let mut block: u32 = 0;
        let mut edge: u32 = NO_EDGE;
        let msgs = &dfn.msgs;
        loop {
            let db = *dfn
                .blocks
                .get(block as usize)
                .ok_or_else(|| RuntimeError::BadProgram(format!("missing block bb{block}")))?;

            // Phase 1: parallel phi copies along the incoming edge.
            // Order matters for error equivalence: copies evaluate
            // first (a missing incoming entry is a `Bad` copy), then a
            // bad id in the phi prefix faults, and only then is the
            // batch charged.
            let phis = &dfn.phi_slots[db.phis.0 as usize..db.phis.1 as usize];
            if !phis.is_empty() {
                if edge == NO_EDGE {
                    return Err(RuntimeError::BadProgram("phi in entry block".into()));
                }
                let e = &dfn.edges[(db.edges.0 + edge) as usize];
                let copies = &dfn.copies[e.copies.0 as usize..e.copies.1 as usize];
                fr.stage(copies, msgs, &mut self.staged, &mut self.staged_vecs)?;
            }
            if let Some(mi) = db.scan_err {
                return Err(bad(msgs, mi));
            }
            if !phis.is_empty() {
                // Batched phi charge (phi cost is 0, so only fuel and
                // the instruction counter move; on exhaustion the
                // counter advances by the fuel actually consumed, as
                // per-instruction charging would).
                let n = phis.len() as u64;
                let counted = n.min(self.fuel);
                if self.in_device {
                    self.stats.device_insts += counted;
                } else {
                    self.stats.host_insts += counted;
                }
                if self.fuel < n {
                    self.fuel = 0;
                    return Err(RuntimeError::FuelExhausted);
                }
                self.fuel -= n;
                fr.commit(phis, &self.staged, &mut self.staged_vecs);
            }

            // Phase 2: the block body, segment by segment.
            let mut start = db.ops.0 as usize;
            let mut flow = Flow::Next;
            'body: for seg in &dfn.segs[db.segs.0 as usize..db.segs.1 as usize] {
                let end = seg.end as usize;
                let n = (end - start) as u64;
                if self.fuel >= n {
                    // Fast path: charge the whole segment up front.
                    self.fuel -= n;
                    if self.in_device {
                        self.stats.device_insts += n;
                        self.stats.device_cycles += seg.cycles;
                    } else {
                        self.stats.host_insts += n;
                        self.stats.host_cycles += seg.cycles;
                    }
                    self.stats.loads += seg.loads as u64;
                    self.stats.stores += seg.stores as u64;
                    for (k, op) in dfn.ops[start..end].iter().enumerate() {
                        match self.step_op(op, &mut fr, fid, frame_id, msgs) {
                            Ok(Flow::Next) => {}
                            Ok(f) => {
                                flow = f;
                                break 'body;
                            }
                            Err(e) => {
                                // Give back the charges for the ops
                                // that never ran (including the
                                // faulting op itself when the
                                // tree-walk faults before charging).
                                let j = start + k;
                                let from = match op {
                                    Op::Bad { charged: false, .. } => j,
                                    _ => j + 1,
                                };
                                self.refund(dfn, from, end);
                                return Err(e);
                            }
                        }
                    }
                } else {
                    // Not enough fuel for the batch: per-op accounting
                    // so exhaustion strikes at the same instruction it
                    // would in the tree-walk.
                    for j in start..end {
                        let op = &dfn.ops[j];
                        if let Op::Bad {
                            msg,
                            charged: false,
                        } = op
                        {
                            return Err(bad(msgs, *msg));
                        }
                        if self.fuel == 0 {
                            return Err(RuntimeError::FuelExhausted);
                        }
                        self.fuel -= 1;
                        let c = dfn.costs[j] as u64;
                        if self.in_device {
                            self.stats.device_insts += 1;
                            self.stats.device_cycles += c;
                        } else {
                            self.stats.host_insts += 1;
                            self.stats.host_cycles += c;
                        }
                        self.stats.loads += op.is_load() as u64;
                        self.stats.stores += op.is_store() as u64;
                        match self.step_op(op, &mut fr, fid, frame_id, msgs)? {
                            Flow::Next => {}
                            f => {
                                flow = f;
                                break 'body;
                            }
                        }
                    }
                }
                start = end;
            }
            match flow {
                Flow::Ret => return Ok(fr.ret.take()),
                Flow::Jump { block: b, edge: e } => {
                    block = b;
                    edge = e;
                }
                Flow::Next => {
                    return Err(RuntimeError::BadProgram(format!(
                        "block bb{block} of {} fell through without terminator",
                        self.m.func(fid).name
                    )))
                }
            }
        }
    }

    /// Reverses the pre-charged accounting for ops `from..end` (indices
    /// into the function's op arena) of a segment whose execution
    /// faulted partway through.
    fn refund(&mut self, dfn: &DecodedFunction, from: usize, end: usize) {
        let n = (end - from) as u64;
        let mut cycles = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        for j in from..end {
            cycles += dfn.costs[j] as u64;
            loads += dfn.ops[j].is_load() as u64;
            stores += dfn.ops[j].is_store() as u64;
        }
        self.fuel += n;
        if self.in_device {
            self.stats.device_insts -= n;
            self.stats.device_cycles -= cycles;
        } else {
            self.stats.host_insts -= n;
            self.stats.host_cycles -= cycles;
        }
        self.stats.loads -= loads;
        self.stats.stores -= stores;
    }

    /// Executes one decoded op. Operand evaluation order mirrors the
    /// tree-walk arms exactly (it is observable through error
    /// precedence). Scalar operands of the expected tag take a fast
    /// path that reads and writes (tag, bits) pairs; vectors and
    /// mismatched tags take the generic [`RtVal`] path, which raises
    /// the tree-walk's errors.
    ///
    /// Inlined into both segment loops: an outlined version pays a call
    /// plus a by-memory `Result<Flow>` return per executed op, which
    /// measurably caps interpretation throughput.
    #[inline(always)]
    fn step_op(
        &mut self,
        op: &Op,
        fr: &mut Slots<'_>,
        fid: FunctionId,
        frame_id: u64,
        msgs: &[Box<str>],
    ) -> Result<Flow, RuntimeError> {
        match op {
            Op::Alloca { size, dst } => {
                let addr = self.mem.alloca(*size)?;
                fr.set(*dst, Tag::P, addr);
            }
            Op::Load { ptr, ty, dst } => {
                let addr = fr.ptr(ptr, msgs)?;
                self.note_access(frame_id, fid, InstId(*dst), addr, *ty, false);
                match ty {
                    Ty::I64 => fr.set(*dst, Tag::I, self.mem.read_u64(addr)?),
                    Ty::F64 => fr.set(*dst, Tag::F, self.mem.read_u64(addr)?),
                    Ty::Ptr => fr.set(*dst, Tag::P, self.mem.read_u64(addr)?),
                    _ => {
                        let v = self.load_typed(addr, *ty)?;
                        fr.put(*dst, v);
                    }
                }
            }
            Op::Store { ptr, val, ty, id } => {
                let addr = fr.ptr(ptr, msgs)?;
                self.note_access(frame_id, fid, *id, addr, *ty, true);
                match (ty, fr.get(val)) {
                    (Ty::I64, (Tag::I, x)) | (Ty::F64, (Tag::F, x)) | (Ty::Ptr, (Tag::P, x)) => {
                        self.mem.write_u64(addr, x)?
                    }
                    _ => self.store_typed(addr, *ty, &*fr.value_ref(val, msgs)?)?,
                }
            }
            Op::GepConst { base, off, dst } => {
                let b = fr.ptr(base, msgs)?;
                fr.set(*dst, Tag::P, b.wrapping_add(*off as u64));
            }
            Op::GepScaled {
                base,
                index,
                scale,
                add,
                dst,
            } => {
                let b = fr.ptr(base, msgs)?;
                let i = fr.int(index, msgs)?;
                let off = i.wrapping_mul(*scale).wrapping_add(*add);
                fr.set(*dst, Tag::P, b.wrapping_add(off as u64));
            }
            Op::Bin {
                op: bop,
                ty,
                lhs,
                rhs,
                dst,
            } => match (fr.get(lhs), fr.get(rhs)) {
                ((Tag::I, a), (Tag::I, b)) if ty.is_int() && !ty.is_vector() => {
                    fr.set(*dst, Tag::I, int_bin(*bop, a as i64, b as i64)? as u64)
                }
                ((Tag::F, a), (Tag::F, b)) if ty.is_float() && !ty.is_vector() => {
                    let r = float_bin(*bop, f64::from_bits(a), f64::from_bits(b))?;
                    fr.set(*dst, Tag::F, r.to_bits())
                }
                _ => {
                    let r = exec_bin(
                        *bop,
                        *ty,
                        &*fr.value_ref(lhs, msgs)?,
                        &*fr.value_ref(rhs, msgs)?,
                    )?;
                    fr.put(*dst, r);
                }
            },
            Op::Cmp {
                pred,
                lhs,
                rhs,
                dst,
            } => {
                let ord = match (fr.get(lhs), fr.get(rhs)) {
                    ((Tag::I, a), (Tag::I, b)) => Some((a as i64).cmp(&(b as i64))),
                    ((Tag::P, a), (Tag::P, b)) => Some(a.cmp(&b)),
                    ((Tag::F, a), (Tag::F, b)) => f64::from_bits(a).partial_cmp(&f64::from_bits(b)),
                    _ => rt_ordering(&*fr.value_ref(lhs, msgs)?, &*fr.value_ref(rhs, msgs)?),
                };
                fr.set(*dst, Tag::I, pred_holds(*pred, ord) as u64);
            }
            Op::Select { cond, t, f, dst } => {
                let c = fr.int(cond, msgs)?;
                fr.copy(*dst, if c != 0 { t } else { f }, msgs)?;
            }
            Op::Cast { kind, val, to, dst } => {
                let v = exec_cast(*kind, &*fr.value_ref(val, msgs)?, *to)?;
                fr.put(*dst, v);
            }
            Op::Call {
                callee,
                kind,
                args: cargs,
                dst,
            } => {
                let mut vals = self.arg_pool.pop().unwrap_or_default();
                vals.clear();
                vals.reserve(cargs.len());
                for a in cargs.iter() {
                    vals.push(fr.value(a, msgs)?);
                }
                match self.exec_call(*callee, *kind, vals)? {
                    Some(v) => fr.put(*dst, v),
                    None => fr.set(*dst, Tag::Undef, 0),
                }
            }
            Op::Print { fmt, args: pargs } => {
                let mut vals = self.arg_pool.pop().unwrap_or_default();
                vals.clear();
                vals.reserve(pargs.len());
                for a in pargs.iter() {
                    vals.push(fr.value(a, msgs)?);
                }
                self.exec_print(fmt, &vals);
                vals.clear();
                self.arg_pool.push(vals);
            }
            Op::Memcpy { dst, src, bytes } => {
                let d = fr.ptr(dst, msgs)?;
                let s = fr.ptr(src, msgs)?;
                let n = fr.int(bytes, msgs)?;
                if n < 0 {
                    return Err(RuntimeError::BadProgram("negative memcpy size".into()));
                }
                let extra = n as u64 / 16;
                if self.in_device {
                    self.stats.device_cycles += extra;
                } else {
                    self.stats.host_cycles += extra;
                }
                self.mem.copy(d, s, n as u64)?;
            }
            Op::Ret { val } => {
                fr.ret = match val {
                    Some(o) => Some(fr.value(o, msgs)?),
                    None => None,
                };
                return Ok(Flow::Ret);
            }
            Op::Br { jump } => return jump_flow(jump, msgs),
            Op::CondBr { cond, then_, else_ } => {
                let c = fr.int(cond, msgs)?;
                return jump_flow(if c != 0 { then_ } else { else_ }, msgs);
            }
            Op::Bad { msg, .. } => return Err(bad(msgs, *msg)),
        }
        Ok(Flow::Next)
    }

    /// Records one decoded-mode memory access when tracing is on.
    #[inline(always)]
    fn note_access(
        &mut self,
        frame: u64,
        func: FunctionId,
        inst: InstId,
        addr: u64,
        ty: Ty,
        is_store: bool,
    ) {
        if let Some(t) = &mut self.trace {
            t.push(AccessEvent {
                frame,
                func,
                inst,
                addr,
                size: ty.size(),
                is_store,
            });
        }
    }

    fn exec_call(
        &mut self,
        callee: FuncRef,
        kind: CallKind,
        mut args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, RuntimeError> {
        match callee {
            FuncRef::External(sym) => {
                // The interner borrow lives as long as the module, so no
                // per-call name allocation is needed.
                let name = self.m.strings.try_resolve(sym).ok_or_else(|| {
                    RuntimeError::BadProgram(format!("string id {} out of range", sym.0))
                })?;
                // Math-library routines dominate real HPC kernels;
                // charge them realistic latencies so optimizations that
                // remove a load here and there do not dwarf the math.
                let extra = match name {
                    "sqrt" => 20,
                    "exp" | "log" | "sin" | "cos" => 40,
                    "pow" => 60,
                    _ => 0,
                };
                if self.in_device {
                    self.stats.device_cycles += extra;
                } else {
                    self.stats.host_cycles += extra;
                }
                let r = if name == "clock" {
                    // Reads the simulated cycle counter of the current
                    // target — the analogue of a benchmark's timer call.
                    // Its value legitimately differs between differently
                    // optimized executables, which is exactly why the
                    // verification harness needs ignore patterns.
                    Ok(Some(RtVal::I(self.cur_cycles() as i64)))
                } else {
                    exec_external(name, &args)
                };
                args.clear();
                self.arg_pool.push(args);
                r
            }
            FuncRef::Internal(fid) => match kind {
                CallKind::Plain => self.call(fid, args),
                CallKind::ParallelRegion { threads } => {
                    self.stats.launches += 1;
                    let base_cycles = self.cur_cycles();
                    let mut max_thread = 0u64;
                    let mut running = 0u64;
                    for tid in 0..threads {
                        let before = self.cur_cycles();
                        let mut targs = self.arg_pool.pop().unwrap_or_default();
                        targs.clear();
                        targs.reserve(args.len() + 1);
                        targs.push(RtVal::I(tid as i64));
                        targs.extend(args.iter().cloned());
                        self.call(fid, targs)?;
                        let spent = self.cur_cycles() - before;
                        max_thread = max_thread.max(spent);
                        running += spent;
                    }
                    // Threads run concurrently: wall time is the slowest
                    // thread plus fork/join overhead, not the sum.
                    let serial = self.cur_cycles() - base_cycles;
                    debug_assert_eq!(serial, running);
                    let parallel = max_thread + THREAD_OVERHEAD * threads as u64;
                    self.set_cur_cycles(base_cycles + parallel.min(serial.max(1)));
                    args.clear();
                    self.arg_pool.push(args);
                    Ok(None)
                }
                CallKind::KernelLaunch { items } => {
                    self.stats.launches += 1;
                    let before = self.stats.device_cycles;
                    let mut max_item = 0u64;
                    for gid in 0..items {
                        let b = self.stats.device_cycles;
                        let mut targs = self.arg_pool.pop().unwrap_or_default();
                        targs.clear();
                        targs.reserve(args.len() + 1);
                        targs.push(RtVal::I(gid as i64));
                        targs.extend(args.iter().cloned());
                        self.call(fid, targs)?;
                        max_item = max_item.max(self.stats.device_cycles - b);
                    }
                    let serial = self.stats.device_cycles - before;
                    // Items are spread across the modelled parallelism:
                    // the kernel takes the larger of its critical item
                    // and its throughput-limited total.
                    let lanes = DEVICE_PARALLELISM.min(items.max(1) as u64);
                    let parallel = LAUNCH_OVERHEAD + max_item.max(serial / lanes);
                    self.stats.device_cycles = before + parallel;
                    args.clear();
                    self.arg_pool.push(args);
                    Ok(None)
                }
            },
        }
    }

    fn cur_cycles(&self) -> u64 {
        if self.in_device {
            self.stats.device_cycles
        } else {
            self.stats.host_cycles
        }
    }

    fn set_cur_cycles(&mut self, c: u64) {
        if self.in_device {
            self.stats.device_cycles = c;
        } else {
            self.stats.host_cycles = c;
        }
    }

    fn exec_print(&mut self, fmt: &str, args: &[RtVal]) {
        let mut out = String::with_capacity(fmt.len() + args.len() * 8);
        let mut ai = 0;
        let mut rest = fmt;
        while let Some(pos) = rest.find("{}") {
            out.push_str(&rest[..pos]);
            if let Some(v) = args.get(ai) {
                match v {
                    RtVal::I(x) => out.push_str(&x.to_string()),
                    // Shortest-roundtrip formatting: deterministic and
                    // precise enough for checksum verification.
                    RtVal::F(x) => out.push_str(&format!("{x:?}")),
                    RtVal::P(x) => out.push_str(&format!("{x:#x}")),
                    RtVal::VI(xs) => out.push_str(&format!("{xs:?}")),
                    RtVal::VF(xs) => out.push_str(&format!("{xs:?}")),
                }
            }
            ai += 1;
            rest = &rest[pos + 2..];
        }
        out.push_str(rest);
        self.out.push_str(&out);
        self.out.push('\n');
    }

    fn load_typed(&mut self, addr: u64, ty: Ty) -> Result<RtVal, RuntimeError> {
        Ok(match ty {
            Ty::I1 | Ty::I8 => {
                let mut b = [0u8; 1];
                self.mem.read(addr, &mut b)?;
                RtVal::I(b[0] as i8 as i64)
            }
            Ty::I16 => {
                let mut b = [0u8; 2];
                self.mem.read(addr, &mut b)?;
                RtVal::I(i16::from_le_bytes(b) as i64)
            }
            Ty::I32 => {
                let mut b = [0u8; 4];
                self.mem.read(addr, &mut b)?;
                RtVal::I(i32::from_le_bytes(b) as i64)
            }
            Ty::I64 => {
                let mut b = [0u8; 8];
                self.mem.read(addr, &mut b)?;
                RtVal::I(i64::from_le_bytes(b))
            }
            Ty::F32 => {
                let mut b = [0u8; 4];
                self.mem.read(addr, &mut b)?;
                RtVal::F(f32::from_le_bytes(b) as f64)
            }
            Ty::F64 => {
                let mut b = [0u8; 8];
                self.mem.read(addr, &mut b)?;
                RtVal::F(f64::from_le_bytes(b))
            }
            Ty::Ptr => {
                let mut b = [0u8; 8];
                self.mem.read(addr, &mut b)?;
                RtVal::P(u64::from_le_bytes(b))
            }
            Ty::VecI64(n) => {
                let mut xs = Vec::with_capacity(n as usize);
                for i in 0..n as u64 {
                    let mut b = [0u8; 8];
                    self.mem.read(addr + 8 * i, &mut b)?;
                    xs.push(i64::from_le_bytes(b));
                }
                RtVal::VI(xs)
            }
            Ty::VecF64(n) => {
                let mut xs = Vec::with_capacity(n as usize);
                for i in 0..n as u64 {
                    let mut b = [0u8; 8];
                    self.mem.read(addr + 8 * i, &mut b)?;
                    xs.push(f64::from_le_bytes(b));
                }
                RtVal::VF(xs)
            }
        })
    }

    fn store_typed(&mut self, addr: u64, ty: Ty, v: &RtVal) -> Result<(), RuntimeError> {
        let badty = || RuntimeError::BadProgram(format!("store of {v:?} as {ty}"));
        match ty {
            Ty::I1 | Ty::I8 => {
                let x = v.as_i().map_err(|_| badty())?;
                self.mem.write(addr, &[(x as u8)])?;
            }
            Ty::I16 => {
                let x = v.as_i().map_err(|_| badty())?;
                self.mem.write(addr, &(x as i16).to_le_bytes())?;
            }
            Ty::I32 => {
                let x = v.as_i().map_err(|_| badty())?;
                self.mem.write(addr, &(x as i32).to_le_bytes())?;
            }
            Ty::I64 => {
                let x = v.as_i().map_err(|_| badty())?;
                self.mem.write(addr, &x.to_le_bytes())?;
            }
            Ty::F32 => {
                let x = v.as_f().map_err(|_| badty())?;
                self.mem.write(addr, &(x as f32).to_le_bytes())?;
            }
            Ty::F64 => {
                let x = v.as_f().map_err(|_| badty())?;
                self.mem.write(addr, &x.to_le_bytes())?;
            }
            Ty::Ptr => {
                let x = v.as_p().map_err(|_| badty())?;
                self.mem.write(addr, &x.to_le_bytes())?;
            }
            Ty::VecI64(n) => match v {
                RtVal::VI(xs) if xs.len() == n as usize => {
                    for (i, x) in xs.iter().enumerate() {
                        self.mem.write(addr + 8 * i as u64, &x.to_le_bytes())?;
                    }
                }
                _ => return Err(badty()),
            },
            Ty::VecF64(n) => match v {
                RtVal::VF(xs) if xs.len() == n as usize => {
                    for (i, x) in xs.iter().enumerate() {
                        self.mem.write(addr + 8 * i as u64, &x.to_le_bytes())?;
                    }
                }
                _ => return Err(badty()),
            },
        }
        Ok(())
    }
}

impl<'a> Slots<'a> {
    /// A frame of `n` slots, all undefined, in `bufs`.
    fn new(bufs: &'a mut SlotBufs, n: usize) -> Self {
        bufs.slots.clear();
        bufs.slots.resize(
            n,
            Slot {
                tag: Tag::Undef,
                bits: 0,
            },
        );
        Slots {
            slots: &mut bufs.slots,
            vecs: &mut bufs.vecs,
            ret: None,
        }
    }

    /// An operand's (tag, bits): the named slot's, or the immediate's
    /// own. Slot indices are validated at decode time.
    #[inline(always)]
    fn get(&self, o: &Opd) -> (Tag, u64) {
        if o.tag == Tag::Slot {
            let s = &self.slots[o.bits as usize];
            (s.tag, s.bits)
        } else {
            (o.tag, o.bits)
        }
    }

    #[inline(always)]
    fn set(&mut self, dst: u32, tag: Tag, bits: u64) {
        let s = &mut self.slots[dst as usize];
        s.tag = tag;
        s.bits = bits;
    }

    /// Writes a generic-path value into slot `dst`.
    fn put(&mut self, dst: u32, v: RtVal) {
        match v {
            RtVal::I(x) => self.set(dst, Tag::I, x as u64),
            RtVal::F(x) => self.set(dst, Tag::F, x.to_bits()),
            RtVal::P(x) => self.set(dst, Tag::P, x),
            RtVal::VI(_) | RtVal::VF(_) => {
                let s = dst as usize;
                if self.vecs.len() <= s {
                    self.vecs.resize(s + 1, RtVal::I(0));
                }
                self.vecs[s] = v;
                self.set(dst, Tag::Vec, s as u64);
            }
        }
    }

    /// Copies operand `o` into slot `dst`.
    #[inline(always)]
    fn copy(&mut self, dst: u32, o: &Opd, msgs: &[Box<str>]) -> Result<(), RuntimeError> {
        match self.get(o) {
            (tag @ (Tag::I | Tag::F | Tag::P), bits) => self.set(dst, tag, bits),
            _ => {
                let v = self.value(o, msgs)?;
                self.put(dst, v);
            }
        }
        Ok(())
    }

    /// An operand as an [`RtVal`] for the generic path, borrowing a
    /// vector in place; an undefined or malformed operand raises the
    /// tree-walk's error.
    fn value_ref(&self, o: &Opd, msgs: &[Box<str>]) -> Result<Cow<'_, RtVal>, RuntimeError> {
        let (tag, bits) = self.get(o);
        Ok(Cow::Owned(match tag {
            Tag::I => RtVal::I(bits as i64),
            Tag::F => RtVal::F(f64::from_bits(bits)),
            Tag::P => RtVal::P(bits),
            Tag::Vec => return Ok(Cow::Borrowed(&self.vecs[bits as usize])),
            // Immediates are never `Undef`, so `o` names the slot.
            Tag::Undef => return Err(undef_read(format!("%{}", o.bits))),
            Tag::UndefLit => return Err(undef_read("undef".into())),
            Tag::Bad => return Err(bad(msgs, bits as u32)),
            Tag::Slot => unreachable!("a slot never holds a slot reference"),
        }))
    }

    /// An operand as an owned [`RtVal`] (call and print arguments,
    /// return values, vector copies).
    fn value(&self, o: &Opd, msgs: &[Box<str>]) -> Result<RtVal, RuntimeError> {
        Ok(self.value_ref(o, msgs)?.into_owned())
    }

    /// An integer operand: the tree-walk's `eval(..)?.as_i()`.
    #[inline(always)]
    fn int(&self, o: &Opd, msgs: &[Box<str>]) -> Result<i64, RuntimeError> {
        match self.get(o) {
            (Tag::I, x) => Ok(x as i64),
            _ => self.want(o, msgs, RtVal::as_i),
        }
    }

    /// A pointer operand: the tree-walk's `eval(..)?.as_p()`.
    #[inline(always)]
    fn ptr(&self, o: &Opd, msgs: &[Box<str>]) -> Result<u64, RuntimeError> {
        match self.get(o) {
            (Tag::P, x) => Ok(x),
            _ => self.want(o, msgs, RtVal::as_p),
        }
    }

    /// The slow path of [`Slots::int`] and [`Slots::ptr`]: the
    /// undefined read first, then the type mismatch.
    #[cold]
    #[inline(never)]
    fn want<T>(
        &self,
        o: &Opd,
        msgs: &[Box<str>],
        as_t: fn(&RtVal) -> Result<T, String>,
    ) -> Result<T, RuntimeError> {
        as_t(&*self.value_ref(o, msgs)?).map_err(RuntimeError::UndefRead)
    }

    /// Phase 1 of a block entry: reads every phi's incoming operand, in
    /// order, into `staged` before any phi slot is written.
    fn stage(
        &self,
        copies: &[Opd],
        msgs: &[Box<str>],
        staged: &mut Vec<(Tag, u64)>,
        staged_vecs: &mut Vec<RtVal>,
    ) -> Result<(), RuntimeError> {
        staged.clear();
        staged_vecs.clear();
        for o in copies {
            match self.get(o) {
                (tag @ (Tag::I | Tag::F | Tag::P), bits) => staged.push((tag, bits)),
                _ => {
                    staged.push((Tag::Vec, staged_vecs.len() as u64));
                    staged_vecs.push(self.value(o, msgs)?);
                }
            }
        }
        Ok(())
    }

    /// Phase 2 of a block entry: writes the staged values into the phi
    /// slots.
    fn commit(&mut self, phis: &[u32], staged: &[(Tag, u64)], staged_vecs: &mut [RtVal]) {
        for (&dst, &(tag, bits)) in phis.iter().zip(staged) {
            if tag == Tag::Vec {
                let v = std::mem::replace(&mut staged_vecs[bits as usize], RtVal::I(0));
                self.put(dst, v);
            } else {
                self.set(dst, tag, bits);
            }
        }
    }
}

#[inline(always)]
fn jump_flow(j: &Jump, msgs: &[Box<str>]) -> Result<Flow, RuntimeError> {
    match j {
        Jump::To { block, edge } => Ok(Flow::Jump {
            block: *block,
            edge: *edge,
        }),
        Jump::Bad(mi) => Err(bad(msgs, *mi)),
    }
}

/// `BadProgram` with decoded message `i`.
#[cold]
fn bad(msgs: &[Box<str>], i: u32) -> RuntimeError {
    RuntimeError::BadProgram(msgs[i as usize].to_string())
}

#[cold]
fn undef_read(what: String) -> RuntimeError {
    RuntimeError::UndefRead(what)
}

fn exec_external(name: &str, args: &[RtVal]) -> Result<Option<RtVal>, RuntimeError> {
    let f1 = |f: fn(f64) -> f64| -> Result<Option<RtVal>, RuntimeError> {
        let x = args
            .first()
            .ok_or_else(|| RuntimeError::BadProgram(format!("{name} needs 1 arg")))?
            .as_f()
            .map_err(RuntimeError::UndefRead)?;
        Ok(Some(RtVal::F(f(x))))
    };
    match name {
        "sqrt" => f1(f64::sqrt),
        "exp" => f1(f64::exp),
        "log" => f1(f64::ln),
        "sin" => f1(f64::sin),
        "cos" => f1(f64::cos),
        "fabs" => f1(f64::abs),
        "floor" => f1(f64::floor),
        "ceil" => f1(f64::ceil),
        "pow" => {
            let [x, y, ..] = args else {
                return Err(RuntimeError::BadProgram("pow needs 2 args".into()));
            };
            let x = x.as_f().map_err(RuntimeError::UndefRead)?;
            let y = y.as_f().map_err(RuntimeError::UndefRead)?;
            Ok(Some(RtVal::F(x.powf(y))))
        }
        other => Err(RuntimeError::BadProgram(format!(
            "unknown external function {other}"
        ))),
    }
}

/// Scalar integer arithmetic (the lanes of integer vectors too).
#[inline(always)]
fn int_bin(op: BinOp, x: i64, y: i64) -> Result<i64, RuntimeError> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(RuntimeError::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(RuntimeError::DivByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
        _ => return Err(bad_op("int", op)),
    })
}

/// Scalar float arithmetic (the lanes of float vectors too).
#[inline(always)]
fn float_bin(op: BinOp, x: f64, y: f64) -> Result<f64, RuntimeError> {
    Ok(match op {
        BinOp::FAdd => x + y,
        BinOp::FSub => x - y,
        BinOp::FMul => x * y,
        BinOp::FDiv => x / y,
        BinOp::FMin => x.min(y),
        BinOp::FMax => x.max(y),
        _ => return Err(bad_op("float", op)),
    })
}

#[cold]
fn bad_op(class: &str, op: BinOp) -> RuntimeError {
    RuntimeError::BadProgram(format!("{class} {op:?}"))
}

fn exec_bin(op: BinOp, ty: Ty, a: &RtVal, b: &RtVal) -> Result<RtVal, RuntimeError> {
    match (ty, a, b) {
        (t, RtVal::I(x), RtVal::I(y)) if t.is_int() && !t.is_vector() => {
            Ok(RtVal::I(int_bin(op, *x, *y)?))
        }
        (t, RtVal::F(x), RtVal::F(y)) if t.is_float() && !t.is_vector() => {
            Ok(RtVal::F(float_bin(op, *x, *y)?))
        }
        // Pointer arithmetic through Add/Sub (rare; GEP is preferred).
        (Ty::I64, RtVal::P(x), RtVal::I(y)) => Ok(RtVal::P(match op {
            BinOp::Add => x.wrapping_add(*y as u64),
            BinOp::Sub => x.wrapping_sub(*y as u64),
            _ => return Err(RuntimeError::BadProgram("pointer bin".into())),
        })),
        (Ty::VecI64(_), RtVal::VI(xs), RtVal::VI(ys)) if xs.len() == ys.len() => {
            let mut out = Vec::with_capacity(xs.len());
            for (x, y) in xs.iter().zip(ys) {
                out.push(int_bin(op, *x, *y)?);
            }
            Ok(RtVal::VI(out))
        }
        (Ty::VecF64(_), RtVal::VF(xs), RtVal::VF(ys)) if xs.len() == ys.len() => {
            let mut out = Vec::with_capacity(xs.len());
            for (x, y) in xs.iter().zip(ys) {
                out.push(float_bin(op, *x, *y)?);
            }
            Ok(RtVal::VF(out))
        }
        _ => Err(RuntimeError::BadProgram(format!(
            "bin {op:?} type mismatch: {a:?} vs {b:?} as {ty}"
        ))),
    }
}

fn exec_cmp(p: CmpPred, a: &RtVal, b: &RtVal) -> Result<bool, RuntimeError> {
    Ok(pred_holds(p, rt_ordering(a, b)))
}

/// The order of two scalars of one kind; `None` for NaN, mismatched
/// kinds and vectors.
fn rt_ordering(a: &RtVal, b: &RtVal) -> Option<Ordering> {
    match (a, b) {
        (RtVal::I(x), RtVal::I(y)) => x.partial_cmp(y),
        (RtVal::P(x), RtVal::P(y)) => x.partial_cmp(y),
        (RtVal::F(x), RtVal::F(y)) => x.partial_cmp(y),
        _ => None,
    }
}

#[inline(always)]
fn pred_holds(p: CmpPred, ord: Option<Ordering>) -> bool {
    match (p, ord) {
        (CmpPred::Eq, Some(o)) => o == Ordering::Equal,
        (CmpPred::Ne, Some(o)) => o != Ordering::Equal,
        (CmpPred::Lt, Some(o)) => o == Ordering::Less,
        (CmpPred::Le, Some(o)) => o != Ordering::Greater,
        (CmpPred::Gt, Some(o)) => o == Ordering::Greater,
        (CmpPred::Ge, Some(o)) => o != Ordering::Less,
        // NaN comparisons are all false except Ne.
        (CmpPred::Ne, None) => true,
        (_, None) => false,
    }
}

fn exec_cast(kind: CastKind, v: &RtVal, to: Ty) -> Result<RtVal, RuntimeError> {
    Ok(match kind {
        CastKind::SiToFp => RtVal::F(v.as_i().map_err(RuntimeError::UndefRead)? as f64),
        CastKind::FpToSi => RtVal::I(v.as_f().map_err(RuntimeError::UndefRead)? as i64),
        CastKind::Trunc => {
            let x = v.as_i().map_err(RuntimeError::UndefRead)?;
            RtVal::I(match to {
                Ty::I1 => (x != 0) as i64,
                Ty::I8 => x as i8 as i64,
                Ty::I16 => x as i16 as i64,
                Ty::I32 => x as i32 as i64,
                _ => x,
            })
        }
        CastKind::Ext => v.clone(),
        CastKind::PtrToInt => RtVal::I(v.as_p().map_err(RuntimeError::UndefRead)? as i64),
        CastKind::IntToPtr => RtVal::P(v.as_i().map_err(RuntimeError::UndefRead)? as u64),
        CastKind::FpCast => match to {
            Ty::F32 => RtVal::F(v.as_f().map_err(RuntimeError::UndefRead)? as f32 as f64),
            _ => RtVal::F(v.as_f().map_err(RuntimeError::UndefRead)?),
        },
        CastKind::Splat => match (v, to) {
            (RtVal::I(x), Ty::VecI64(n)) => RtVal::VI(vec![*x; n as usize]),
            (RtVal::F(x), Ty::VecF64(n)) => RtVal::VF(vec![*x; n as usize]),
            _ => return Err(RuntimeError::BadProgram(format!("splat of {v:?} to {to}"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;

    #[test]
    fn straightline_arithmetic() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(8, "x");
        b.store(Ty::I64, Value::ConstInt(20), x);
        let l = b.load(Ty::I64, x);
        let s = b.add(l, Value::ConstInt(22));
        b.print("answer={}", vec![s]);
        b.ret(None);
        b.finish();
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "answer=42\n");
        assert!(out.stats.host_insts >= 5);
        assert_eq!(out.stats.loads, 1);
        assert_eq!(out.stats.stores, 1);
    }

    #[test]
    fn loop_sums() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let acc = b.alloca(8, "acc");
        b.store(Ty::I64, Value::ConstInt(0), acc);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(10), |b, i| {
            let cur = b.load(Ty::I64, acc);
            let nxt = b.add(cur, i);
            b.store(Ty::I64, nxt, acc);
        });
        let fin = b.load(Ty::I64, acc);
        b.print("sum={}", vec![fin]);
        b.ret(None);
        b.finish();
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "sum=45\n");
    }

    #[test]
    fn float_math_and_externals() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.fmul(Value::const_f64(3.0), Value::const_f64(12.0));
        let r = b.call_external("sqrt", vec![x], Some(Ty::F64)).unwrap();
        b.print("r={}", vec![r]);
        b.ret(None);
        b.finish();
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "r=6.0\n");
    }

    #[test]
    fn parallel_region_runs_all_threads() {
        let mut m = Module::new("t");
        let body = oraql_ir::builder::declare_function(
            &mut m,
            ".omp_outlined.",
            vec![Ty::I64, Ty::Ptr],
            None,
        );
        {
            // body: arr[tid] = tid * 2
            use oraql_ir::inst::Inst as I;
            let f = m.func_mut(body);
            f.outlined = true;
            let gep = f.push_inst(
                Function::ENTRY,
                I::Gep {
                    base: Value::Arg(1),
                    offset: GepOffset::Scaled {
                        index: Value::Arg(0),
                        scale: 8,
                        add: 0,
                    },
                },
                None,
            );
            let dbl = f.push_inst(
                Function::ENTRY,
                I::Bin {
                    op: BinOp::Mul,
                    ty: Ty::I64,
                    lhs: Value::Arg(0),
                    rhs: Value::ConstInt(2),
                },
                None,
            );
            f.push_inst(
                Function::ENTRY,
                I::Store {
                    ptr: Value::Inst(gep),
                    value: Value::Inst(dbl),
                    ty: Ty::I64,
                    meta: Default::default(),
                },
                None,
            );
            f.push_inst(Function::ENTRY, I::Ret { val: None }, None);
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let arr = b.alloca(8 * 4, "arr");
        b.parallel_region(body, vec![arr], 4);
        for i in 0..4 {
            let a = b.gep(arr, 8 * i);
            let v = b.load(Ty::I64, a);
            b.print("{}", vec![v]);
        }
        b.ret(None);
        b.finish();
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "0\n2\n4\n6\n");
        assert_eq!(out.stats.launches, 1);
    }

    #[test]
    fn device_kernel_accumulates_device_stats() {
        let mut m = Module::new("t");
        let kern =
            oraql_ir::builder::declare_function(&mut m, "kernel", vec![Ty::I64, Ty::Ptr], None);
        {
            use oraql_ir::inst::Inst as I;
            let f = m.func_mut(kern);
            f.target = Target::Device;
            let gep = f.push_inst(
                Function::ENTRY,
                I::Gep {
                    base: Value::Arg(1),
                    offset: GepOffset::Scaled {
                        index: Value::Arg(0),
                        scale: 8,
                        add: 0,
                    },
                },
                None,
            );
            f.push_inst(
                Function::ENTRY,
                I::Store {
                    ptr: Value::Inst(gep),
                    value: Value::Arg(0),
                    ty: Ty::I64,
                    meta: Default::default(),
                },
                None,
            );
            f.push_inst(Function::ENTRY, I::Ret { val: None }, None);
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let buf = b.alloca(8 * 8, "buf");
        b.kernel_launch(kern, vec![buf], 8);
        let a7 = b.gep(buf, 8 * 7);
        let v = b.load(Ty::I64, a7);
        b.print("{}", vec![v]);
        b.ret(None);
        b.finish();
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "7\n");
        assert!(out.stats.device_insts > 0);
        assert!(out.stats.device_cycles >= 1_000);
        assert!(out.stats.host_insts > 0);
    }

    #[test]
    fn undef_read_traps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.print("{}", vec![Value::Undef]);
        b.ret(None);
        b.finish();
        assert!(matches!(
            Interpreter::run_main(&m),
            Err(RuntimeError::UndefRead(_))
        ));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let d = b.div(Value::ConstInt(1), Value::ConstInt(0));
        b.print("{}", vec![d]);
        b.ret(None);
        b.finish();
        assert!(matches!(
            Interpreter::run_main(&m),
            Err(RuntimeError::DivByZero)
        ));
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let hdr = b.new_block();
        b.br(hdr);
        b.switch_to(hdr);
        b.br(hdr); // infinite loop
        let id = b.finish();
        let mut interp = Interpreter::new(&m).with_fuel(1000);
        assert!(matches!(
            interp.run(id, vec![]),
            Err(RuntimeError::FuelExhausted)
        ));
    }

    #[test]
    fn vector_ops_roundtrip() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let buf = b.alloca(32, "buf");
        for i in 0..4i64 {
            let a = b.gep(buf, 8 * i);
            b.store(Ty::F64, Value::const_f64(i as f64), a);
        }
        let v = b.load(Ty::VecF64(4), buf);
        let two = b.cast(CastKind::Splat, Value::const_f64(2.0), Ty::VecF64(4));
        let d = b.bin(BinOp::FMul, Ty::VecF64(4), v, two);
        b.store(Ty::VecF64(4), d, buf);
        let a3 = b.gep(buf, 24);
        let x3 = b.load(Ty::F64, a3);
        b.print("{}", vec![x3]);
        b.ret(None);
        b.finish();
        let out = Interpreter::run_main(&m).unwrap();
        assert_eq!(out.stdout, "6.0\n");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(800, "x");
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(100), |b, i| {
            let a = b.gep_scaled(x, i, 8, 0);
            let f = b.si_to_fp(i);
            let r = b.call_external("sin", vec![f], Some(Ty::F64)).unwrap();
            b.store(Ty::F64, r, a);
        });
        let a99 = b.gep(x, 8 * 99);
        let v = b.load(Ty::F64, a99);
        b.print("{}", vec![v]);
        b.ret(None);
        b.finish();
        let a = Interpreter::run_main(&m).unwrap();
        let b2 = Interpreter::run_main(&m).unwrap();
        assert_eq!(a.stdout, b2.stdout);
        assert_eq!(a.stats, b2.stats);
    }
}
