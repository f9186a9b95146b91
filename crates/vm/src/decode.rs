//! Pre-decoded function bodies.
//!
//! The tree-walking interpreter re-matches `Inst` payloads, re-computes
//! `inst_cost` and re-searches phi incoming lists on every executed
//! instruction. Since every ORAQL probe is one full interpreted run,
//! that structural overhead is paid hundreds of times per module. This
//! module lowers a function once into a dense, execution-oriented form:
//!
//! * a frame is an array of slots, each a [`Tag`] and 64 payload bits:
//!   one slot per instruction result, then one per function argument.
//!   An operand ([`Opd`]) has the same (tag, bits) shape: either
//!   [`Tag::Slot`] naming a slot, or an immediate held inline. Global
//!   addresses become immediate pointers because the global layout is a
//!   pure function of the module, and print format strings are resolved
//!   out of the interner once,
//! * each block's phi incoming lists are compiled into per-predecessor
//!   parallel-copy tables ([`Edge`]), turning the O(preds) `find` on
//!   every loop backedge into an index carried by the branch,
//! * per-op cycle costs are precomputed and summed per segment
//!   ([`Seg`]) so fuel and cycle accounting is batched instead of
//!   per-instruction. A segment never extends past a `Call`: callees
//!   share the fuel budget and the `clock` external observes the cycle
//!   counters mid-run, so charging beyond a call would be visible.
//!
//! All variable-length data (ops, costs, segments, phi slots, edges,
//! copy tables, error messages) lives in flat per-function arenas
//! indexed by ranges in [`DBlock`]: decoding a function performs a
//! handful of allocations rather than several per block, and the ops
//! array is a single dense run the executor walks with no pointer
//! chasing. Error messages sit in a side table ([`DecodedFunction::
//! msgs`]) so the hot [`Opd`]/[`Jump`] types stay small.
//!
//! The contract is exact equivalence with the tree-walk: identical
//! stdout, identical [`crate::ExecStats`], and identical
//! [`crate::RuntimeError`] classification (including message strings),
//! even on malformed IR. Malformed constructs decode into [`Tag::Bad`]
//! operands (a missing phi edge among them), [`Jump::Bad`] or
//! [`Op::Bad`] carrying the exact error message the tree-walk raises at
//! the same point of execution.

use crate::interp::inst_cost;
use oraql_ir::inst::{BinOp, CallKind, CastKind, CmpPred, FuncRef, GepOffset, Inst, InstId};
use oraql_ir::module::{Function, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::Value;

/// Sentinel edge index for the initial entry into a function (the entry
/// block has no incoming edge on its first visit, even when it is also
/// a loop target).
pub const NO_EDGE: u32 = u32::MAX;

/// What a frame slot or an operand holds: the meaning of its 64 payload
/// bits. `Undef` and the four value tags occur in slots; operands use
/// the value tags for immediates plus the three operand-only tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// A slot not written on this path: reading it is an undefined read
    /// of `%slot`.
    Undef,
    /// Integer (`i64` bits; all widths held sign-extended).
    I,
    /// Float (`f64::to_bits`; F32 values held widened).
    F,
    /// Pointer.
    P,
    /// Integer or float vector, held out of line in the frame; the bits
    /// are the slot's own index.
    Vec,
    /// Operand only: the value of the slot whose index is the bits.
    Slot,
    /// Operand only: `Value::Undef`, an undefined read of `undef`.
    UndefLit,
    /// Operand only: statically malformed; evaluating it raises
    /// `BadProgram` with message [`DecodedFunction::msgs`]`[bits]`
    /// (matching the tree-walk).
    Bad,
}

/// A pre-resolved operand: a slot reference ([`Tag::Slot`]) or an
/// immediate in a slot's own (tag, bits) form, so reading either is two
/// scalar loads. IR constants are always scalar; vectors only arise at
/// runtime.
#[derive(Debug, Clone, Copy)]
pub struct Opd {
    /// How to read `bits`.
    pub tag: Tag,
    /// Payload, or the slot index for [`Tag::Slot`].
    pub bits: u64,
}

impl Opd {
    fn new(tag: Tag, bits: u64) -> Self {
        Opd { tag, bits }
    }

    fn bad(msg: u32) -> Self {
        Opd::new(Tag::Bad, msg as u64)
    }
}

/// A pre-resolved branch target: the destination block plus the edge
/// index to present to the destination's [`Edge`] table.
#[derive(Debug, Clone, Copy)]
pub enum Jump {
    /// Branch to `block`, arriving via incoming edge `edge`.
    To {
        /// Destination block index.
        block: u32,
        /// Index into the destination's edge table.
        edge: u32,
    },
    /// Branch to a nonexistent block (raises `BadProgram` with message
    /// [`DecodedFunction::msgs`]`[i]`).
    Bad(u32),
}

/// One pre-decoded non-phi instruction.
#[derive(Debug, Clone)]
pub enum Op {
    /// Stack allocation.
    Alloca {
        /// Allocation size in bytes.
        size: u64,
        /// Result slot.
        dst: u32,
    },
    /// Typed load (`dst` is also the instruction id, for access
    /// traces).
    Load { ptr: Opd, ty: Ty, dst: u32 },
    /// Typed store.
    Store {
        ptr: Opd,
        val: Opd,
        ty: Ty,
        id: InstId,
    },
    /// Pointer plus constant byte offset.
    GepConst { base: Opd, off: i64, dst: u32 },
    /// Pointer plus `index * scale + add` bytes.
    GepScaled {
        base: Opd,
        index: Opd,
        scale: i64,
        add: i64,
        dst: u32,
    },
    /// Binary arithmetic.
    Bin {
        op: BinOp,
        ty: Ty,
        lhs: Opd,
        rhs: Opd,
        dst: u32,
    },
    /// Comparison.
    Cmp {
        pred: CmpPred,
        lhs: Opd,
        rhs: Opd,
        dst: u32,
    },
    /// Lazy select.
    Select { cond: Opd, t: Opd, f: Opd, dst: u32 },
    /// Value cast.
    Cast {
        kind: CastKind,
        val: Opd,
        to: Ty,
        dst: u32,
    },
    /// Call. `dst` is always written (with `None` for void callees),
    /// exactly like the tree-walk does.
    Call {
        callee: FuncRef,
        kind: CallKind,
        args: Box<[Opd]>,
        dst: u32,
    },
    /// Formatted output; the format string is resolved at decode time.
    Print { fmt: Box<str>, args: Box<[Opd]> },
    /// `memcpy(dst, src, bytes)`.
    Memcpy { dst: Opd, src: Opd, bytes: Opd },
    /// Return.
    Ret { val: Option<Opd> },
    /// Unconditional branch.
    Br { jump: Jump },
    /// Conditional branch.
    CondBr { cond: Opd, then_: Jump, else_: Jump },
    /// A position the tree-walk faults at: an out-of-range `InstId` in
    /// the block's list (`charged: false` — the fault fires before the
    /// fuel charge), a `Removed` placeholder, or a `Print` whose format
    /// string id is out of range (both `charged: true` — the tree-walk
    /// charges the op, then faults before evaluating operands).
    Bad {
        /// Index of the `BadProgram` message in
        /// [`DecodedFunction::msgs`].
        msg: u32,
        /// Whether the op is fuel-charged before the fault.
        charged: bool,
    },
}

impl Op {
    /// True for ops counted in `ExecStats::loads`.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load { .. })
    }

    /// True for ops counted in `ExecStats::stores`.
    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store { .. })
    }
}

/// The parallel-copy table for one incoming edge of a block: the
/// `copies` range (into [`DecodedFunction::copies`]) is parallel to the
/// block's phi range. A phi lacking an entry for this predecessor
/// copies a [`Tag::Bad`] operand (a `BadProgram` at runtime, matching
/// the tree-walk's failed `find`).
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Range of per-phi incoming operands in
    /// [`DecodedFunction::copies`].
    pub copies: (u32, u32),
}

/// A run of ops whose fuel/cycle accounting is charged in one batch.
/// Segments end after every `Call` op (and at the end of the block).
#[derive(Debug, Clone, Copy)]
pub struct Seg {
    /// One past the last op of the segment, as an absolute index into
    /// [`DecodedFunction::ops`] (`start` is the previous segment's
    /// `end`, or the block's op-range start for the first segment).
    pub end: u32,
    /// Sum of per-op cycle costs over the segment.
    pub cycles: u64,
    /// Number of `Load` ops in the segment.
    pub loads: u32,
    /// Number of `Store` ops in the segment.
    pub stores: u32,
}

/// One pre-decoded basic block: ranges into the function-level arenas.
#[derive(Debug, Clone, Copy)]
pub struct DBlock {
    /// Result slots of the leading phis: range in
    /// [`DecodedFunction::phi_slots`].
    pub phis: (u32, u32),
    /// Incoming-edge tables: range in [`DecodedFunction::edges`].
    pub edges: (u32, u32),
    /// The non-phi body, ending at the first terminator (or truncated
    /// at an [`Op::Bad`], past which nothing can execute): range in
    /// [`DecodedFunction::ops`] / [`DecodedFunction::costs`].
    pub ops: (u32, u32),
    /// Batched-accounting segments covering `ops`: range in
    /// [`DecodedFunction::segs`].
    pub segs: (u32, u32),
    /// Set (as a message index) when an out-of-range `InstId` sits
    /// inside the leading-phi prefix: the tree-walk faults there during
    /// phi scanning — after evaluating the earlier phi copies, before
    /// charging any of them.
    pub scan_err: Option<u32>,
}

/// A function lowered for direct execution. The arenas stay `Vec`s
/// rather than boxed slices: a `Vec -> Box<[T]>` conversion reallocates
/// whenever capacity exceeds length, and with seven arenas per function
/// those copies are a measurable share of first-call decode latency.
#[derive(Debug, Clone)]
pub struct DecodedFunction {
    /// Blocks, indexed by block id.
    pub blocks: Vec<DBlock>,
    /// All blocks' op arrays, one dense run.
    pub ops: Vec<Op>,
    /// Per-op cycle cost, parallel to `ops` (max `inst_cost` is 12).
    pub costs: Vec<u8>,
    /// All blocks' accounting segments.
    pub segs: Vec<Seg>,
    /// All blocks' leading-phi result slots.
    pub phi_slots: Vec<u32>,
    /// All blocks' incoming-edge tables.
    pub edges: Vec<Edge>,
    /// All edges' parallel-copy operands.
    pub copies: Vec<Opd>,
    /// `BadProgram` messages referenced by [`Tag::Bad`] operands,
    /// `Jump::Bad`, `Op::Bad` and `DBlock::scan_err`.
    pub msgs: Vec<Box<str>>,
    /// First argument slot (`Function::insts.len()`): argument `i`
    /// lives in slot `first_arg + i`.
    pub first_arg: usize,
    /// Frame size: one slot per instruction, then one per parameter.
    pub n_slots: usize,
}

/// Interns a `BadProgram` message, returning its index.
fn msg(msgs: &mut Vec<Box<str>>, s: String) -> u32 {
    msgs.push(s.into());
    (msgs.len() - 1) as u32
}

#[inline(always)]
fn decode_opd(f: &Function, global_bases: &[u64], v: Value, msgs: &mut Vec<Box<str>>) -> Opd {
    let n_insts = f.insts().len();
    match v {
        Value::ConstInt(i) => Opd::new(Tag::I, i as u64),
        Value::ConstFloat(bits) => Opd::new(Tag::F, bits),
        Value::Global(g) => match global_bases.get(g.0 as usize) {
            Some(&base) => Opd::new(Tag::P, base),
            None => Opd::bad(msg(msgs, format!("global @{} out of range", g.0))),
        },
        // A call always passes exactly `params.len()` arguments, so an
        // index past them is statically missing.
        Value::Arg(i) if (i as usize) < f.params.len() => {
            Opd::new(Tag::Slot, (n_insts + i as usize) as u64)
        }
        Value::Arg(i) => Opd::bad(msg(msgs, format!("missing arg {i}"))),
        Value::Inst(id) if (id.0 as usize) < n_insts => Opd::new(Tag::Slot, id.0 as u64),
        Value::Inst(id) => Opd::bad(msg(msgs, format!("instruction id %{} out of range", id.0))),
        Value::Undef => Opd::new(Tag::UndefLit, 0),
    }
}

/// Finds the first terminator the tree-walk's phase 2 would execute:
/// the first `Ret`/`Br`/`CondBr` among the block's resolvable
/// instructions. Invalid ids and `Removed` placeholders are scanned
/// past here — if one precedes the terminator, execution faults before
/// branching, so over-approximating the successor set is harmless.
fn first_terminator<'a>(f: &'a Function, insts: &[InstId]) -> Option<&'a Inst> {
    insts
        .iter()
        .filter_map(|&id| f.get_inst(id))
        .find(|i| i.is_terminator())
}

/// Predecessor lists for every block, in one flat CSR-style arena
/// (block `b`'s predecessors are `flat[starts[b]..starts[b+1]]`). One
/// allocation pair instead of one `Vec` per block — block count exceeds
/// instruction count in kernel-heavy modules, so per-block allocations
/// dominate decode latency.
struct Preds {
    starts: Vec<u32>,
    flat: Vec<u32>,
}

impl Preds {
    fn of(&self, block: u32) -> &[u32] {
        match self.starts.get(block as usize..block as usize + 2) {
            Some(w) => &self.flat[w[0] as usize..w[1] as usize],
            None => &[],
        }
    }
}

fn edge_of(preds: &Preds, cur: u32, target: u32, msgs: &mut Vec<Box<str>>) -> Jump {
    match preds.of(target).iter().position(|&p| p == cur) {
        Some(e) => Jump::To {
            block: target,
            edge: e as u32,
        },
        // A known target always lists `cur` (pass 1 records every
        // terminator pass 2 emits), so `None` means a missing block;
        // kept non-panicking either way.
        None => Jump::Bad(msg(msgs, format!("missing block bb{target}"))),
    }
}

/// Lowers `f` into its pre-decoded form. Never fails: malformed IR
/// decodes into `Bad` ops/operands/jumps that reproduce the tree-walk's
/// runtime errors exactly.
pub fn decode_function(m: &Module, f: &Function, global_bases: &[u64]) -> DecodedFunction {
    let n_blocks = f.blocks().len();

    // Pass 1: predecessor lists, giving each (pred, target) pair a
    // stable edge index (first occurrence; a CondBr with both arms on
    // the same target shares one edge, matching the tree-walk's
    // find-by-predecessor). Since every block contributes at most two
    // distinct in-range targets, successors fit a fixed pair and the
    // lists build in two counting passes over one flat arena.
    const NONE: u32 = u32::MAX;
    let succs: Vec<[u32; 2]> = f
        .blocks()
        .iter()
        .map(|block| match first_terminator(f, &block.insts) {
            Some(Inst::Br { target }) if (target.0 as usize) < n_blocks => [target.0, NONE],
            Some(Inst::CondBr {
                then_bb, else_bb, ..
            }) => {
                let t = if (then_bb.0 as usize) < n_blocks {
                    then_bb.0
                } else {
                    NONE
                };
                let e = if (else_bb.0 as usize) < n_blocks && else_bb.0 != t {
                    else_bb.0
                } else {
                    NONE
                };
                [t, e]
            }
            _ => [NONE, NONE],
        })
        .collect();
    let mut starts = vec![0u32; n_blocks + 1];
    for s in &succs {
        for &t in s {
            if t != NONE {
                starts[t as usize + 1] += 1;
            }
        }
    }
    for i in 0..n_blocks {
        starts[i + 1] += starts[i];
    }
    let mut flat = vec![0u32; *starts.last().unwrap_or(&0) as usize];
    let mut fill = starts.clone();
    for (b, s) in succs.iter().enumerate() {
        for &t in s {
            if t != NONE {
                flat[fill[t as usize] as usize] = b as u32;
                fill[t as usize] += 1;
            }
        }
    }
    let preds = Preds { starts, flat };

    // Pass 2: decode each block into the shared arenas.
    let mut blocks: Vec<DBlock> = Vec::with_capacity(n_blocks);
    let mut ops: Vec<Op> = Vec::with_capacity(f.insts().len());
    let mut costs: Vec<u8> = Vec::with_capacity(f.insts().len());
    let mut segs: Vec<Seg> = Vec::new();
    let mut phi_slots: Vec<u32> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut copies: Vec<Opd> = Vec::new();
    let mut msgs: Vec<Box<str>> = Vec::new();
    let mut phi_incoming = Vec::new();
    for (b, block) in f.blocks().iter().enumerate() {
        // Leading phis (the only ones the tree-walk ever evaluates).
        let phi_start = phi_slots.len() as u32;
        phi_incoming.clear();
        let mut scan_err: Option<u32> = None;
        for &id in &block.insts {
            match f.get_inst(id) {
                None => {
                    scan_err = Some(msg(
                        &mut msgs,
                        format!("instruction id %{} out of range", id.0),
                    ));
                    break;
                }
                Some(Inst::Phi { incoming, .. }) => {
                    phi_slots.push(id.0);
                    phi_incoming.push((id, incoming));
                }
                Some(_) => break,
            }
        }

        let edge_start = edges.len() as u32;
        for &p in preds.of(b as u32) {
            let copy_start = copies.len() as u32;
            for (id, incoming) in &phi_incoming {
                copies.push(match incoming.iter().find(|(bb, _)| bb.0 == p) {
                    Some(&(_, v)) => decode_opd(f, global_bases, v, &mut msgs),
                    None => Opd::bad(msg(
                        &mut msgs,
                        format!("phi %{} lacks edge from bb{p}", id.0),
                    )),
                });
            }
            edges.push(Edge {
                copies: (copy_start, copies.len() as u32),
            });
        }

        // Body: everything from the start of the block (phis are
        // skipped exactly as the tree-walk does) up to and including
        // the first terminator, truncated at the first position the
        // tree-walk would fault at. Batch-accounting segments (runs
        // ending after each Call) accumulate in the same pass.
        let ops_start = ops.len() as u32;
        let seg_start = segs.len() as u32;
        let mut seg = Seg {
            end: ops_start,
            cycles: 0,
            loads: 0,
            stores: 0,
        };
        if scan_err.is_none() {
            for &id in &block.insts {
                let (op, cost) = match f.get_inst(id) {
                    None => (
                        Op::Bad {
                            msg: msg(&mut msgs, format!("instruction id %{} out of range", id.0)),
                            charged: false,
                        },
                        0,
                    ),
                    Some(Inst::Phi { .. }) => continue,
                    Some(inst) => (
                        decode_op(m, f, global_bases, &preds, b as u32, id, inst, &mut msgs),
                        inst_cost(inst) as u8,
                    ),
                };
                let stop = matches!(
                    op,
                    Op::Bad { .. } | Op::Ret { .. } | Op::Br { .. } | Op::CondBr { .. }
                );
                seg.cycles += cost as u64;
                seg.loads += op.is_load() as u32;
                seg.stores += op.is_store() as u32;
                let close = matches!(op, Op::Call { .. });
                ops.push(op);
                costs.push(cost);
                seg.end = ops.len() as u32;
                if close {
                    segs.push(seg);
                    seg = Seg {
                        end: seg.end,
                        cycles: 0,
                        loads: 0,
                        stores: 0,
                    };
                }
                if stop {
                    break;
                }
            }
        }
        let closed = segs[seg_start as usize..]
            .last()
            .map_or(ops_start, |s| s.end);
        if closed as usize != ops.len() {
            segs.push(seg);
        }

        blocks.push(DBlock {
            phis: (phi_start, phi_slots.len() as u32),
            edges: (edge_start, edges.len() as u32),
            ops: (ops_start, ops.len() as u32),
            segs: (seg_start, segs.len() as u32),
            scan_err,
        });
    }

    DecodedFunction {
        blocks,
        ops,
        costs,
        segs,
        phi_slots,
        edges,
        copies,
        msgs,
        first_arg: f.insts().len(),
        n_slots: f.insts().len() + f.params.len(),
    }
}

// Single call site (the block body loop): inlining avoids a call and a
// by-value `Op` return per decoded instruction.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn decode_op(
    m: &Module,
    f: &Function,
    global_bases: &[u64],
    preds: &Preds,
    cur_block: u32,
    id: InstId,
    inst: &Inst,
    msgs: &mut Vec<Box<str>>,
) -> Op {
    let dst = id.0;
    match inst {
        Inst::Alloca { size, .. } => Op::Alloca { size: *size, dst },
        Inst::Load { ptr, ty, .. } => Op::Load {
            ptr: decode_opd(f, global_bases, *ptr, msgs),
            ty: *ty,
            dst,
        },
        Inst::Store { ptr, value, ty, .. } => Op::Store {
            ptr: decode_opd(f, global_bases, *ptr, msgs),
            val: decode_opd(f, global_bases, *value, msgs),
            ty: *ty,
            id,
        },
        Inst::Gep { base, offset } => match offset {
            GepOffset::Const(c) => Op::GepConst {
                base: decode_opd(f, global_bases, *base, msgs),
                off: *c,
                dst,
            },
            GepOffset::Scaled { index, scale, add } => Op::GepScaled {
                base: decode_opd(f, global_bases, *base, msgs),
                index: decode_opd(f, global_bases, *index, msgs),
                scale: *scale,
                add: *add,
                dst,
            },
        },
        Inst::Bin { op, ty, lhs, rhs } => Op::Bin {
            op: *op,
            ty: *ty,
            lhs: decode_opd(f, global_bases, *lhs, msgs),
            rhs: decode_opd(f, global_bases, *rhs, msgs),
            dst,
        },
        Inst::Cmp {
            pred: p, lhs, rhs, ..
        } => Op::Cmp {
            pred: *p,
            lhs: decode_opd(f, global_bases, *lhs, msgs),
            rhs: decode_opd(f, global_bases, *rhs, msgs),
            dst,
        },
        Inst::Select { cond, t, f: fv, .. } => Op::Select {
            cond: decode_opd(f, global_bases, *cond, msgs),
            t: decode_opd(f, global_bases, *t, msgs),
            f: decode_opd(f, global_bases, *fv, msgs),
            dst,
        },
        Inst::Cast { kind, val, to } => Op::Cast {
            kind: *kind,
            val: decode_opd(f, global_bases, *val, msgs),
            to: *to,
            dst,
        },
        Inst::Call {
            callee, args, kind, ..
        } => Op::Call {
            callee: *callee,
            kind: *kind,
            args: args
                .iter()
                .map(|&a| decode_opd(f, global_bases, a, msgs))
                .collect(),
            dst,
        },
        // The tree-walk resolves the format string before evaluating
        // any argument, so a bad id faults (charged) with no operand
        // side effects — exactly an `Op::Bad { charged: true }`.
        Inst::Print { fmt, args } => match m.strings.try_resolve(*fmt) {
            Some(s) => Op::Print {
                fmt: s.into(),
                args: args
                    .iter()
                    .map(|&a| decode_opd(f, global_bases, a, msgs))
                    .collect(),
            },
            None => Op::Bad {
                msg: msg(msgs, format!("string id {} out of range", fmt.0)),
                charged: true,
            },
        },
        Inst::Memcpy {
            dst: d, src, bytes, ..
        } => Op::Memcpy {
            dst: decode_opd(f, global_bases, *d, msgs),
            src: decode_opd(f, global_bases, *src, msgs),
            bytes: decode_opd(f, global_bases, *bytes, msgs),
        },
        Inst::Ret { val } => Op::Ret {
            val: val.map(|v| decode_opd(f, global_bases, v, msgs)),
        },
        Inst::Br { target } => Op::Br {
            jump: edge_of(preds, cur_block, target.0, msgs),
        },
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => Op::CondBr {
            cond: decode_opd(f, global_bases, *cond, msgs),
            then_: edge_of(preds, cur_block, then_bb.0, msgs),
            else_: edge_of(preds, cur_block, else_bb.0, msgs),
        },
        Inst::Removed => Op::Bad {
            msg: msg(msgs, format!("removed instruction %{} executed", id.0)),
            charged: true,
        },
        Inst::Phi { .. } => unreachable!("phis are skipped by the caller"),
    }
}
