//! Innermost-loop vectorizer (VF = 4).
//!
//! Recognizes the canonical counted-loop shape, proves there are no
//! loop-carried memory dependences — the step where alias queries are
//! issued and where optimistic no-alias answers unlock vectorization
//! (the paper's MiniGMG rows: 9 → 12 vectorized loops) — and emits a
//! vector main loop followed by the original scalar loop as remainder.
//!
//! Legality is deliberately strict (consecutive unit-stride accesses,
//! element-wise `i64`/`f64` arithmetic, no reductions): rejecting
//! floating-point reductions keeps transformed programs bit-identical
//! to the scalar version, which the verification harness relies on.

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::{AliasResult, MemoryLocation};
use oraql_analysis::loops::LoopForest;
use oraql_ir::cfg;
use oraql_ir::hash::FxHashMap;
use oraql_ir::inst::{BinOp, CastKind, CmpPred, GepOffset, Inst, InstId};
use oraql_ir::module::{Function, FunctionId, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::{BlockId, Value};

/// Vectorization factor.
pub const VF: i64 = 4;

/// The pass.
pub struct LoopVectorize;

impl Pass for LoopVectorize {
    fn name(&self) -> &'static str {
        "loop vectorizer"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut vectorized = 0u64;
        // Vectorizing appends blocks and edges; collect candidates
        // once, before any transform, while the forest's predecessor
        // lists still describe the function.
        let forest = cx.facts.loops(m.func(fid));
        let candidates: Vec<CanonLoop> = forest
            .loops
            .iter()
            .filter_map(|l| recognize(m.func(fid), &forest, l))
            .collect();
        for canon in candidates {
            if let Some(plan) = legalize(m, fid, cx, &canon) {
                transform(m, fid, &canon, &plan);
                vectorized += 1;
            }
        }
        cx.stat("loop vectorizer", "vectorized loops", vectorized);
    }
}

/// A recognized canonical counted loop:
/// `for (iv = start; iv < end; iv++) body`.
struct CanonLoop {
    pre: BlockId,
    header: BlockId,
    body: BlockId,
    iv_phi: InstId,
    start: Value,
    end: Value,
    next_add: InstId,
}

fn recognize(
    f: &Function,
    forest: &LoopForest,
    l: &oraql_analysis::loops::Loop,
) -> Option<CanonLoop> {
    if l.blocks.len() != 2 || l.latches.len() != 1 {
        return None;
    }
    let header = l.header;
    let body = l.latches[0];
    if !l.blocks.contains(&body) || body == header {
        return None;
    }
    let pre = forest.preheader(l)?;
    // Header must be exactly [phi, cmp, condbr].
    let h = &f.blocks()[header.0 as usize].insts;
    if h.len() != 3 {
        return None;
    }
    let (iv_phi, cmp_id, br_id) = (h[0], h[1], h[2]);
    let Inst::Phi {
        ty: Ty::I64,
        incoming,
    } = f.inst(iv_phi)
    else {
        return None;
    };
    if incoming.len() != 2 {
        return None;
    }
    let mut start = None;
    let mut next = None;
    for (bb, v) in incoming {
        if *bb == pre {
            start = Some(*v);
        } else if *bb == body {
            next = Some(*v);
        }
    }
    let start = start?;
    let Value::Inst(next_add) = next? else {
        return None;
    };
    let Inst::Cmp {
        pred: CmpPred::Lt,
        ty: Ty::I64,
        lhs,
        rhs,
    } = f.inst(cmp_id)
    else {
        return None;
    };
    if *lhs != Value::Inst(iv_phi) {
        return None;
    }
    let end = *rhs;
    // `end` must be loop-invariant.
    if let Value::Inst(e) = end {
        if l.blocks.contains(&f.block_of(e)) {
            return None;
        }
    }
    let Inst::CondBr {
        cond,
        then_bb,
        else_bb,
    } = f.inst(br_id)
    else {
        return None;
    };
    if *cond != Value::Inst(cmp_id) || *then_bb != body || l.blocks.contains(else_bb) {
        return None;
    }
    // Body ends with a branch back to the header; next_add = iv + 1.
    let b = &f.blocks()[body.0 as usize].insts;
    match f.inst(*b.last()?) {
        Inst::Br { target } if *target == header => {}
        _ => return None,
    }
    match f.inst(next_add) {
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            lhs,
            rhs,
        } if (*lhs == Value::Inst(iv_phi) && *rhs == Value::ConstInt(1))
            || (*rhs == Value::Inst(iv_phi) && *lhs == Value::ConstInt(1)) => {}
        _ => return None,
    }
    if f.block_of(next_add) != body {
        return None;
    }
    Some(CanonLoop {
        pre,
        header,
        body,
        iv_phi,
        start,
        end,
        next_add,
    })
}

/// How one body instruction will be vectorized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// `gep base, iv*scale + add` used only as a unit-stride address.
    AddrGep,
    /// Unit-stride load.
    ConsecLoad,
    /// Unit-stride store.
    ConsecStore,
    /// Element-wise arithmetic.
    Lanewise,
    /// Pure instruction with only loop-invariant operands (cloned as a
    /// scalar and splatted where used).
    Uniform,
    /// Load through a loop-invariant pointer.
    UniformLoad,
    /// The `iv + 1` increment (rebuilt with step VF).
    Increment,
}

struct Plan {
    roles: FxHashMap<InstId, Role>,
}

/// Is `v` defined outside the loop body/header?
fn invariant(f: &Function, canon: &CanonLoop, v: Value) -> bool {
    match v {
        Value::Inst(i) => {
            let bb = f.block_of(i);
            bb != canon.body && bb != canon.header
        }
        _ => true,
    }
}

/// A unit-stride address: `gep base, iv*scale + add` with invariant base.
fn consec_gep(f: &Function, canon: &CanonLoop, id: InstId) -> Option<(Value, i64, i64)> {
    match f.inst(id) {
        Inst::Gep {
            base,
            offset: GepOffset::Scaled { index, scale, add },
        } if *index == Value::Inst(canon.iv_phi) && invariant(f, canon, *base) => {
            Some((*base, *scale, *add))
        }
        _ => None,
    }
}

fn legalize(m: &Module, fid: FunctionId, cx: &mut PassCx<'_>, canon: &CanonLoop) -> Option<Plan> {
    // Re-borrow the function locally for the pure structural phase.
    let mut roles: FxHashMap<InstId, Role> = FxHashMap::default();
    {
        let f = m.func(fid);
        let body = &f.blocks()[canon.body.0 as usize].insts;
        for &id in &body[..body.len() - 1] {
            if id == canon.next_add {
                roles.insert(id, Role::Increment);
                continue;
            }
            let inst = f.inst(id);
            let role = if let Some((_, _, _)) = consec_gep(f, canon, id) {
                Role::AddrGep
            } else {
                match inst {
                    Inst::Load { ptr, ty, .. } => {
                        if !ty.vectorizable() {
                            return None;
                        }
                        match ptr {
                            Value::Inst(g) if roles.get(g) == Some(&Role::AddrGep) => {
                                let (_, scale, _) = consec_gep(f, canon, *g)?;
                                if scale != ty.size() as i64 {
                                    return None; // strided
                                }
                                Role::ConsecLoad
                            }
                            p if invariant(f, canon, *p)
                                || matches!(p, Value::Inst(g) if roles.get(g) == Some(&Role::Uniform)) =>
                            {
                                Role::UniformLoad
                            }
                            _ => return None,
                        }
                    }
                    Inst::Store { ptr, value, ty, .. } => {
                        if !ty.vectorizable() {
                            return None;
                        }
                        let Value::Inst(g) = ptr else { return None };
                        if roles.get(g) != Some(&Role::AddrGep) {
                            return None;
                        }
                        let (_, scale, _) = consec_gep(f, canon, *g)?;
                        if scale != ty.size() as i64 {
                            return None;
                        }
                        // Stored value must be lanewise-computable.
                        let ok = match value {
                            v if invariant(f, canon, *v) => true,
                            Value::Inst(d) => matches!(
                                roles.get(d),
                                Some(
                                    Role::ConsecLoad
                                        | Role::Lanewise
                                        | Role::Uniform
                                        | Role::UniformLoad
                                )
                            ),
                            _ => false,
                        };
                        if !ok {
                            return None;
                        }
                        Role::ConsecStore
                    }
                    Inst::Bin { op, ty, lhs, rhs } => {
                        if !ty.vectorizable() || matches!(op, BinOp::Div | BinOp::Rem) {
                            return None;
                        }
                        let operand_ok = |v: &Value| -> bool {
                            if invariant(f, canon, *v) {
                                return true;
                            }
                            match v {
                                Value::Inst(d) => matches!(
                                    roles.get(d),
                                    Some(
                                        Role::ConsecLoad
                                            | Role::Lanewise
                                            | Role::Uniform
                                            | Role::UniformLoad
                                    )
                                ),
                                _ => false,
                            }
                        };
                        if !operand_ok(lhs) || !operand_ok(rhs) {
                            return None;
                        }
                        // Fully-invariant arithmetic is uniform.
                        if invariant(f, canon, *lhs) && invariant(f, canon, *rhs) {
                            Role::Uniform
                        } else {
                            Role::Lanewise
                        }
                    }
                    Inst::Gep { base, offset } => {
                        // Non-iv gep: uniform only when fully invariant.
                        let off_inv = match offset {
                            GepOffset::Const(_) => true,
                            GepOffset::Scaled { index, .. } => invariant(f, canon, *index),
                        };
                        if invariant(f, canon, *base) && off_inv {
                            Role::Uniform
                        } else {
                            return None;
                        }
                    }
                    _ => return None,
                }
            };
            roles.insert(id, role);
        }

        // The IV may only feed addresses, the increment and the compare.
        for uid in f.live_insts() {
            let mut uses_iv = false;
            f.inst(uid).for_each_operand(|v| {
                uses_iv |= v == Value::Inst(canon.iv_phi);
            });
            if !uses_iv {
                continue;
            }
            let allowed = uid == canon.next_add
                || roles.get(&uid) == Some(&Role::AddrGep)
                || f.block_of(uid) == canon.header; // cmp
            if !allowed {
                return None;
            }
        }

        // No body-defined value may be used outside the loop.
        for uid in f.live_insts() {
            let ub = f.block_of(uid);
            if ub == canon.body || ub == canon.header {
                continue;
            }
            let mut bad = false;
            f.inst(uid).for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    bad |= roles.contains_key(&d);
                }
            });
            if bad {
                return None;
            }
        }
    }

    // Dependence phase: issues alias queries.
    let accesses: Vec<(InstId, Role)> = roles
        .iter()
        .filter(|(_, r)| matches!(r, Role::ConsecLoad | Role::ConsecStore | Role::UniformLoad))
        .map(|(&i, &r)| (i, r))
        .collect();
    for &(s, rs) in &accesses {
        if rs != Role::ConsecStore {
            continue;
        }
        for &(a, ra) in &accesses {
            if a == s {
                continue;
            }
            let f = m.func(fid);
            let (sb, ss, sa) = {
                let Inst::Store {
                    ptr: Value::Inst(g),
                    ..
                } = f.inst(s)
                else {
                    unreachable!()
                };
                consec_gep(f, canon, *g).expect("store gep")
            };
            match ra {
                Role::ConsecStore | Role::ConsecLoad => {
                    let gid = match f.inst(a) {
                        Inst::Store {
                            ptr: Value::Inst(g),
                            ..
                        } => *g,
                        Inst::Load {
                            ptr: Value::Inst(g),
                            ..
                        } => *g,
                        _ => unreachable!(),
                    };
                    let (ab, as_, aa) = consec_gep(f, canon, gid).expect("gep");
                    if ab == sb && as_ == ss {
                        // Same array, same stride: only the lane-aligned
                        // case is safe without widening the dependence
                        // window.
                        if sa != aa {
                            return None;
                        }
                    } else {
                        let sloc = MemoryLocation::of_access(f, s).expect("loc");
                        let aloc = MemoryLocation::of_access(f, a).expect("loc");
                        if cx.aa.alias(m, fid, &sloc, &aloc) != AliasResult::NoAlias {
                            return None;
                        }
                    }
                }
                Role::UniformLoad => {
                    let sloc = MemoryLocation::of_access(f, s).expect("loc");
                    let aloc = MemoryLocation::of_access(f, a).expect("loc");
                    if cx.aa.alias(m, fid, &sloc, &aloc) != AliasResult::NoAlias {
                        return None;
                    }
                }
                _ => {}
            }
        }
    }

    Some(Plan { roles })
}

fn transform(m: &mut Module, fid: FunctionId, canon: &CanonLoop, plan: &Plan) {
    let f = m.func_mut(fid);
    // 1. Trip-count math in the preheader.
    let pre = canon.pre;
    let mut at = f.blocks()[pre.0 as usize].insts.len() - 1;
    let emit_pre = |f: &mut Function, inst: Inst, at: &mut usize| -> Value {
        let id = f.insert_inst(pre, *at, inst, None);
        *at += 1;
        Value::Inst(id)
    };
    let n = emit_pre(
        f,
        Inst::Bin {
            op: BinOp::Sub,
            ty: Ty::I64,
            lhs: canon.end,
            rhs: canon.start,
        },
        &mut at,
    );
    let q = emit_pre(
        f,
        Inst::Bin {
            op: BinOp::Div,
            ty: Ty::I64,
            lhs: n,
            rhs: Value::ConstInt(VF),
        },
        &mut at,
    );
    let vn = emit_pre(
        f,
        Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::I64,
            lhs: q,
            rhs: Value::ConstInt(VF),
        },
        &mut at,
    );
    let vlimit = emit_pre(
        f,
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            lhs: canon.start,
            rhs: vn,
        },
        &mut at,
    );

    // 2. New blocks.
    let vh = f.add_block();
    let vb = f.add_block();
    let mid = f.add_block();

    // 3. Preheader now enters the vector loop.
    let retargeted = cfg::retarget(f, pre, canon.header, vh);
    assert!(retargeted, "unexpected preheader terminator");

    // 4. Vector header.
    let viv = f.push_inst(
        vh,
        Inst::Phi {
            ty: Ty::I64,
            incoming: vec![(pre, canon.start)],
        },
        None,
    );
    let vc = f.push_inst(
        vh,
        Inst::Cmp {
            pred: CmpPred::Lt,
            ty: Ty::I64,
            lhs: Value::Inst(viv),
            rhs: vlimit,
        },
        None,
    );
    f.push_inst(
        vh,
        Inst::CondBr {
            cond: Value::Inst(vc),
            then_bb: vb,
            else_bb: mid,
        },
        None,
    );

    // 5. Vector body: clone lane-wise.
    let body_ids: Vec<InstId> = f.blocks()[canon.body.0 as usize].insts.clone();
    let mut vec_map: FxHashMap<InstId, Value> = FxHashMap::default(); // vector values
    let mut uni_map: FxHashMap<InstId, Value> = FxHashMap::default(); // scalar clones
    let mut splat_cache: FxHashMap<(Value, Ty), Value> = FxHashMap::default();

    // Local helper: vectorize an operand (splat invariants/uniforms).
    fn vec_operand(
        f: &mut Function,
        vb: BlockId,
        v: Value,
        scalar_ty: Ty,
        vec_map: &FxHashMap<InstId, Value>,
        uni_map: &FxHashMap<InstId, Value>,
        splat_cache: &mut FxHashMap<(Value, Ty), Value>,
    ) -> Value {
        if let Value::Inst(d) = v {
            if let Some(&vv) = vec_map.get(&d) {
                return vv;
            }
            if let Some(&sv) = uni_map.get(&d) {
                return splat(f, vb, sv, scalar_ty, splat_cache);
            }
        }
        splat(f, vb, v, scalar_ty, splat_cache)
    }
    fn splat(
        f: &mut Function,
        vb: BlockId,
        v: Value,
        scalar_ty: Ty,
        cache: &mut FxHashMap<(Value, Ty), Value>,
    ) -> Value {
        if let Some(&s) = cache.get(&(v, scalar_ty)) {
            return s;
        }
        let id = f.push_inst(
            vb,
            Inst::Cast {
                kind: CastKind::Splat,
                val: v,
                to: scalar_ty.vec_of(VF as u8),
            },
            None,
        );
        cache.insert((v, scalar_ty), Value::Inst(id));
        Value::Inst(id)
    }
    // Resolve an operand that must stay scalar in the uniform clone.
    fn uni_operand(v: Value, uni_map: &FxHashMap<InstId, Value>) -> Value {
        match v {
            Value::Inst(d) => uni_map.get(&d).copied().unwrap_or(v),
            _ => v,
        }
    }

    for &id in &body_ids[..body_ids.len() - 1] {
        let Some(&role) = plan.roles.get(&id) else {
            continue;
        };
        let inst = f.inst(id).clone();
        match role {
            Role::AddrGep | Role::Increment => {} // regenerated
            Role::Uniform => {
                let mut cloned = inst.clone();
                cloned.for_each_operand_mut(|v| *v = uni_operand(*v, &uni_map));
                let nid = f.push_inst(vb, cloned, None);
                uni_map.insert(id, Value::Inst(nid));
            }
            Role::UniformLoad => {
                let Inst::Load { ptr, ty, meta } = inst else {
                    unreachable!()
                };
                let nid = f.push_inst(
                    vb,
                    Inst::Load {
                        ptr: uni_operand(ptr, &uni_map),
                        ty,
                        meta,
                    },
                    None,
                );
                uni_map.insert(id, Value::Inst(nid));
            }
            Role::ConsecLoad => {
                let Inst::Load { ptr, ty, meta } = inst else {
                    unreachable!()
                };
                let Value::Inst(g) = ptr else { unreachable!() };
                let Inst::Gep {
                    base,
                    offset: GepOffset::Scaled { scale, add, .. },
                } = *f.inst(g)
                else {
                    unreachable!()
                };
                let ng = f.push_inst(
                    vb,
                    Inst::Gep {
                        base,
                        offset: GepOffset::Scaled {
                            index: Value::Inst(viv),
                            scale,
                            add,
                        },
                    },
                    None,
                );
                let nl = f.push_inst(
                    vb,
                    Inst::Load {
                        ptr: Value::Inst(ng),
                        ty: ty.vec_of(VF as u8),
                        meta,
                    },
                    None,
                );
                vec_map.insert(id, Value::Inst(nl));
            }
            Role::Lanewise => {
                let Inst::Bin { op, ty, lhs, rhs } = inst else {
                    unreachable!()
                };
                let vl = vec_operand(f, vb, lhs, ty, &vec_map, &uni_map, &mut splat_cache);
                let vr = vec_operand(f, vb, rhs, ty, &vec_map, &uni_map, &mut splat_cache);
                let nb = f.push_inst(
                    vb,
                    Inst::Bin {
                        op,
                        ty: ty.vec_of(VF as u8),
                        lhs: vl,
                        rhs: vr,
                    },
                    None,
                );
                vec_map.insert(id, Value::Inst(nb));
            }
            Role::ConsecStore => {
                let Inst::Store {
                    ptr,
                    value,
                    ty,
                    meta,
                } = inst
                else {
                    unreachable!()
                };
                let Value::Inst(g) = ptr else { unreachable!() };
                let Inst::Gep {
                    base,
                    offset: GepOffset::Scaled { scale, add, .. },
                } = *f.inst(g)
                else {
                    unreachable!()
                };
                let ng = f.push_inst(
                    vb,
                    Inst::Gep {
                        base,
                        offset: GepOffset::Scaled {
                            index: Value::Inst(viv),
                            scale,
                            add,
                        },
                    },
                    None,
                );
                let vv = vec_operand(f, vb, value, ty, &vec_map, &uni_map, &mut splat_cache);
                f.push_inst(
                    vb,
                    Inst::Store {
                        ptr: Value::Inst(ng),
                        value: vv,
                        ty: ty.vec_of(VF as u8),
                        meta,
                    },
                    None,
                );
            }
        }
    }
    let vnext = f.push_inst(
        vb,
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            lhs: Value::Inst(viv),
            rhs: Value::ConstInt(VF),
        },
        None,
    );
    f.push_inst(vb, Inst::Br { target: vh }, None);
    // Close the vector phi.
    match f.inst_mut(viv) {
        Inst::Phi { incoming, .. } => incoming.push((vb, Value::Inst(vnext))),
        _ => unreachable!(),
    }

    // 6. MID falls through to the scalar remainder loop.
    f.push_inst(
        mid,
        Inst::Br {
            target: canon.header,
        },
        None,
    );

    // 7. The scalar loop now starts where the vector loop stopped.
    match f.inst_mut(canon.iv_phi) {
        Inst::Phi { incoming, .. } => {
            for (bb, v) in incoming.iter_mut() {
                if *bb == canon.pre {
                    *bb = mid;
                    *v = Value::Inst(viv);
                }
            }
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_pass;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_vm::Interpreter;

    /// out[i] = a[i] * k + b[i], distinct local arrays, n = 10 (so a
    /// scalar remainder of 2 runs).
    fn axpy(n: i64) -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(8 * n as u64, "a");
        let bb = b.alloca(8 * n as u64, "b");
        let out = b.alloca(8 * n as u64, "out");
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(n), |b, i| {
            let fi = b.si_to_fp(i);
            let ai = b.gep_scaled(a, i, 8, 0);
            b.store(Ty::F64, fi, ai);
            let bi = b.gep_scaled(bb, i, 8, 0);
            let f2 = b.fmul(fi, Value::const_f64(2.0));
            b.store(Ty::F64, f2, bi);
        });
        // The kernel loop (vectorizable).
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(n), |b, i| {
            let ai = b.gep_scaled(a, i, 8, 0);
            let av = b.load(Ty::F64, ai);
            let sc = b.fmul(av, Value::const_f64(3.0));
            let bi = b.gep_scaled(bb, i, 8, 0);
            let bv = b.load(Ty::F64, bi);
            let s = b.fadd(sc, bv);
            let oi = b.gep_scaled(out, i, 8, 0);
            b.store(Ty::F64, s, oi);
        });
        // Checksum.
        let acc = b.alloca(8, "acc");
        b.store(Ty::F64, Value::const_f64(0.0), acc);
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(n), |b, i| {
            let oi = b.gep_scaled(out, i, 8, 0);
            let v = b.load(Ty::F64, oi);
            let c = b.load(Ty::F64, acc);
            let s = b.fadd(c, v);
            b.store(Ty::F64, s, acc);
        });
        let fin = b.load(Ty::F64, acc);
        b.print("checksum={}", vec![fin]);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn kernel_loop_vectorized_and_output_identical() {
        let mut m = axpy(10);
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m, LoopVectorize);
        // Kernel loop vectorizes. The init loop uses si_to_fp(i) (an iv
        // use outside addresses) and the checksum loop is a reduction
        // through memory (uniform-address store): both rejected.
        assert_eq!(stats.get("loop vectorizer", "vectorized loops"), 1);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        // 10 iterations become 2 vector iterations + 2 scalar.
        assert!(
            after.stats.host_insts < before.stats.host_insts,
            "insts {} -> {}",
            before.stats.host_insts,
            after.stats.host_insts
        );
    }

    #[test]
    fn short_trip_count_still_correct() {
        // n = 3 < VF: vector loop must not execute.
        let mut m = axpy(3);
        let before = Interpreter::run_main(&m).unwrap();
        run_pass(&mut m, LoopVectorize);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
    }

    #[test]
    fn exact_multiple_trip_count() {
        let mut m = axpy(8);
        let before = Interpreter::run_main(&m).unwrap();
        run_pass(&mut m, LoopVectorize);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
    }

    #[test]
    fn may_aliasing_arrays_reject_vectorization() {
        // Arrays come in as plain pointer args: may alias, must reject.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "kern", vec![Ty::Ptr, Ty::Ptr, Ty::I64], None);
        let a = b.arg(0);
        let o = b.arg(1);
        let n = b.arg(2);
        b.counted_loop(Value::ConstInt(0), n, |b, i| {
            let ai = b.gep_scaled(a, i, 8, 0);
            let v = b.load(Ty::F64, ai);
            let w = b.fmul(v, Value::const_f64(2.0));
            let oi = b.gep_scaled(o, i, 8, 0);
            b.store(Ty::F64, w, oi);
        });
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, LoopVectorize);
        assert_eq!(stats.get("loop vectorizer", "vectorized loops"), 0);
    }

    #[test]
    fn restrict_args_allow_vectorization() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "kern", vec![Ty::Ptr, Ty::Ptr, Ty::I64], None);
        b.set_noalias(0, true);
        b.set_noalias(1, true);
        let a = b.arg(0);
        let o = b.arg(1);
        let n = b.arg(2);
        b.counted_loop(Value::ConstInt(0), n, |b, i| {
            let ai = b.gep_scaled(a, i, 8, 0);
            let v = b.load(Ty::F64, ai);
            let w = b.fmul(v, Value::const_f64(2.0));
            let oi = b.gep_scaled(o, i, 8, 0);
            b.store(Ty::F64, w, oi);
        });
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, LoopVectorize);
        assert_eq!(stats.get("loop vectorizer", "vectorized loops"), 1);
    }

    #[test]
    fn shifted_same_array_rejected() {
        // a[i+1] = a[i] * 2 has a loop-carried dependence: must reject.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "kern", vec![Ty::Ptr, Ty::I64], None);
        b.set_noalias(0, true);
        let a = b.arg(0);
        let n = b.arg(1);
        b.counted_loop(Value::ConstInt(0), n, |b, i| {
            let src = b.gep_scaled(a, i, 8, 0);
            let v = b.load(Ty::F64, src);
            let w = b.fmul(v, Value::const_f64(2.0));
            let dst = b.gep_scaled(a, i, 8, 8); // a[i+1]
            b.store(Ty::F64, w, dst);
        });
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, LoopVectorize);
        assert_eq!(stats.get("loop vectorizer", "vectorized loops"), 0);
    }

    #[test]
    fn in_place_update_is_vectorizable() {
        // a[i] = a[i] * 2: lane-aligned, safe.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(8 * 8, "a");
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(8), |b, i| {
            let ai = b.gep_scaled(a, i, 8, 0);
            b.store(Ty::I64, i, ai);
        });
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(8), |b, i| {
            let ai = b.gep_scaled(a, i, 8, 0);
            let v = b.load(Ty::I64, ai);
            let w = b.mul(v, Value::ConstInt(2));
            let ai2 = b.gep_scaled(a, i, 8, 0);
            b.store(Ty::I64, w, ai2);
        });
        let a7 = b.gep(a, 56);
        let l = b.load(Ty::I64, a7);
        b.print("{}", vec![l]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m, LoopVectorize);
        assert!(stats.get("loop vectorizer", "vectorized loops") >= 1);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert_eq!(after.stdout, "14\n");
    }
}
