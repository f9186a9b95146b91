//! Superword-level parallelism (SLP) vectorizer: packs runs of adjacent
//! scalar store/compute/load lanes within one block into vector
//! instructions — the unrolled `re`/`im` struct-field pattern common in
//! HPC kernels (the paper's MiniFE row: +33% vector instructions).

use crate::manager::{Pass, PassCx};
use oraql_analysis::location::MemoryLocation;
use oraql_analysis::pointer::decompose;
use oraql_ir::inst::{BinOp, CastKind, Inst, InstId};
use oraql_ir::module::{Edit, Edits, FunctionId, Module};
use oraql_ir::types::Ty;
use oraql_ir::value::Value;

/// The pass.
pub struct SlpVectorize;

/// One vectorizable lane group discovered in a block.
struct Group {
    stores: Vec<InstId>,
    bins: Vec<InstId>,
    /// lhs lane loads (empty when lhs is a shared scalar).
    lhs_loads: Vec<InstId>,
    rhs_loads: Vec<InstId>,
    op: BinOp,
    ty: Ty,
    /// Shared scalar operands (when a side is not a load lane).
    lhs_shared: Option<Value>,
    rhs_shared: Option<Value>,
}

impl Group {
    /// The scalar instructions the group's vector code replaces.
    fn members(&self) -> impl Iterator<Item = InstId> + '_ {
        let loads = self.lhs_loads.iter().chain(&self.rhs_loads);
        self.stores.iter().chain(&self.bins).chain(loads).copied()
    }
}

impl Pass for SlpVectorize {
    fn name(&self) -> &'static str {
        "SLP"
    }

    fn run(&mut self, m: &mut Module, fid: FunctionId, cx: &mut PassCx<'_>) {
        let mut generated = 0u64;
        let nblocks = m.func(fid).blocks().len();
        for bi in 0..nblocks {
            // Repeatedly harvest groups from this block until none fit.
            while let Some(group) = find_group(m, fid, bi, cx) {
                generated += apply_group(m, fid, bi, &group);
            }
        }
        cx.stat("SLP", "vector instructions generated", generated);
    }
}

/// A store lane: `store ty (bin op ...), base+off`.
struct Lane {
    store: InstId,
    bin: InstId,
    off: i64,
}

fn const_addr(f: &oraql_ir::module::Function, ptr: Value) -> Option<(Value, i64)> {
    let d = decompose(f, ptr);
    if !d.is_const_offset() {
        return None;
    }
    // Re-anchor on the base as a value for grouping.
    Some((d.base.value()?, d.const_off))
}

/// Number of uses of each instruction across the function, indexed by
/// [`InstId`].
fn use_counts(f: &oraql_ir::module::Function) -> Vec<u32> {
    let mut n = vec![0; f.insts().len()];
    for id in f.live_insts() {
        f.inst(id).for_each_operand(|v| {
            if let Value::Inst(used) = v {
                if let Some(c) = n.get_mut(used.0 as usize) {
                    *c += 1;
                }
            }
        });
    }
    n
}

fn find_group(m: &Module, fid: FunctionId, bi: usize, cx: &mut PassCx<'_>) -> Option<Group> {
    let f = m.func(fid);
    let ids = &f.blocks()[bi].insts;
    // The scan edits nothing, so one count serves every candidate;
    // taken at the first candidate that needs it.
    let mut counts = None;
    let mut use_count = |id: InstId| counts.get_or_insert_with(|| use_counts(f))[id.0 as usize];

    // Collect candidate store lanes.
    let mut lanes_by_base: Vec<(Value, Ty, BinOp, Vec<Lane>)> = Vec::new();
    for &id in ids {
        let Inst::Store { ptr, value, ty, .. } = f.inst(id) else {
            continue;
        };
        if !ty.vectorizable() {
            continue;
        }
        let Some((base, off)) = const_addr(f, *ptr) else {
            continue;
        };
        let Value::Inst(bin) = value else { continue };
        let Inst::Bin { op, ty: bty, .. } = f.inst(*bin) else {
            continue;
        };
        if bty != ty || matches!(op, BinOp::Div | BinOp::Rem) {
            continue;
        }
        if f.block_of(*bin) != f.block_of(id) || use_count(*bin) != 1 {
            continue;
        }
        let op = *op;
        match lanes_by_base
            .iter_mut()
            .find(|(b, t, o, _)| *b == base && *t == *ty && *o == op)
        {
            Some((_, _, _, lanes)) => lanes.push(Lane {
                store: id,
                bin: *bin,
                off,
            }),
            None => lanes_by_base.push((
                base,
                *ty,
                op,
                vec![Lane {
                    store: id,
                    bin: *bin,
                    off,
                }],
            )),
        }
    }

    for (_, ty, op, mut lanes) in lanes_by_base {
        if lanes.len() < 2 {
            continue;
        }
        lanes.sort_by_key(|l| l.off);
        let sz = ty.size() as i64;
        // Find a run of 2 or 4 consecutive offsets.
        for width in [4usize, 2] {
            if lanes.len() < width {
                continue;
            }
            'runs: for w in lanes.windows(width) {
                if !w
                    .iter()
                    .enumerate()
                    .all(|(i, l)| l.off == w[0].off + i as i64 * sz)
                {
                    continue;
                }
                // Match the operand shape across lanes.
                let mut side = |get: fn(&Inst) -> Value| -> Option<(Vec<InstId>, Option<Value>)> {
                    let first = get(f.inst(w[0].bin));
                    // Shared scalar: every lane uses the same value, and
                    // that value is defined before the insertion point.
                    if w.iter().all(|l| get(f.inst(l.bin)) == first) {
                        let ok = match first {
                            Value::Inst(d) => {
                                // Must not be one of the lane loads.
                                f.block_of(d) != f.block_of(w[0].store)
                                    || position(f, bi, d) < position(f, bi, w[0].store)
                            }
                            _ => true,
                        };
                        if ok && width > 1 {
                            return Some((Vec::new(), Some(first)));
                        }
                    }
                    // Load lanes: consecutive loads matching store lanes.
                    let mut loads = Vec::new();
                    let mut base0 = None;
                    let mut off0 = 0i64;
                    for (i, l) in w.iter().enumerate() {
                        let Value::Inst(ld) = get(f.inst(l.bin)) else {
                            return None;
                        };
                        let Inst::Load { ptr, ty: lty, .. } = f.inst(ld) else {
                            return None;
                        };
                        if *lty != ty || use_count(ld) != 1 || f.block_of(ld) != f.block_of(l.store)
                        {
                            return None;
                        }
                        let (b, o) = const_addr(f, *ptr)?;
                        match base0 {
                            None => {
                                base0 = Some(b);
                                off0 = o;
                            }
                            Some(b0) => {
                                if b != b0 || o != off0 + i as i64 * sz {
                                    return None;
                                }
                            }
                        }
                        loads.push(ld);
                    }
                    Some((loads, None))
                };
                let lhs_of = |i: &Inst| match i {
                    Inst::Bin { lhs, .. } => *lhs,
                    _ => Value::Undef,
                };
                let rhs_of = |i: &Inst| match i {
                    Inst::Bin { rhs, .. } => *rhs,
                    _ => Value::Undef,
                };
                let Some((lhs_loads, lhs_shared)) = side(lhs_of) else {
                    continue 'runs;
                };
                let Some((rhs_loads, rhs_shared)) = side(rhs_of) else {
                    continue 'runs;
                };

                let group = Group {
                    stores: w.iter().map(|l| l.store).collect(),
                    bins: w.iter().map(|l| l.bin).collect(),
                    lhs_loads,
                    rhs_loads,
                    op,
                    ty,
                    lhs_shared,
                    rhs_shared,
                };
                if group_safe(m, fid, bi, cx, &group) {
                    return Some(group);
                }
            }
        }
    }
    None
}

fn position(f: &oraql_ir::module::Function, bi: usize, id: InstId) -> usize {
    f.blocks()[bi]
        .insts
        .iter()
        .position(|&x| x == id)
        .unwrap_or(usize::MAX)
}

/// Safety: all group loads move down to the last store's position and
/// the stores move there too. Any non-group memory instruction in the
/// affected window must not interfere (alias queries).
fn group_safe(m: &Module, fid: FunctionId, bi: usize, cx: &mut PassCx<'_>, g: &Group) -> bool {
    let f = m.func(fid);
    let members: Vec<InstId> = g.members().collect();
    let first = members.iter().map(|&i| position(f, bi, i)).min().unwrap();
    let last = members.iter().map(|&i| position(f, bi, i)).max().unwrap();

    // Intra-group: loads must not read lanes written by earlier lanes
    // (shifted in-place patterns). Same base ⇒ offsets must match
    // lane-for-lane or ranges must be disjoint; `side()` established the
    // loads are consecutive from off0, so comparing the first lane's
    // addresses suffices.
    let store_addr = |s: InstId| match f.inst(s) {
        Inst::Store { ptr, .. } => const_addr(f, *ptr),
        _ => None,
    };
    let load_addr = |l: InstId| match f.inst(l) {
        Inst::Load { ptr, .. } => const_addr(f, *ptr),
        _ => None,
    };
    let (sb, so) = store_addr(g.stores[0]).expect("store addr");
    let sz = g.ty.size() as i64;
    let width = g.stores.len() as i64;
    for lanes in [&g.lhs_loads, &g.rhs_loads] {
        if lanes.is_empty() {
            continue;
        }
        let (lb, lo) = load_addr(lanes[0]).expect("load addr");
        if lb == sb {
            let disjoint = lo + width * sz <= so || so + width * sz <= lo;
            if lo != so && !disjoint {
                return false;
            }
        }
    }

    // External instructions inside the window.
    let window: Vec<InstId> = f.blocks()[bi].insts[first..=last]
        .iter()
        .copied()
        .filter(|id| !members.contains(id))
        .collect();
    for x in window {
        let f = m.func(fid);
        if !f.inst(x).reads_memory() && !f.inst(x).writes_memory() {
            continue;
        }
        // Against every group load (loads move down past x) and every
        // group store (stores move down past x: x must not read them —
        // but x executing before the moved store now reads pre-store
        // memory, so x must not read the store locations).
        for &l in g.lhs_loads.iter().chain(&g.rhs_loads) {
            let loc = MemoryLocation::of_access(m.func(fid), l).expect("load");
            if cx.aa.may_clobber(m, fid, x, &loc) {
                return false;
            }
        }
        for &s in &g.stores {
            let loc = MemoryLocation::of_access(m.func(fid), s).expect("store");
            if cx.aa.may_read(m, fid, x, &loc) {
                return false;
            }
            // x writing the store's target would be reordered too.
            if cx.aa.may_clobber(m, fid, x, &loc) {
                return false;
            }
        }
    }
    true
}

fn apply_group(m: &mut Module, fid: FunctionId, bi: usize, g: &Group) -> u64 {
    let width = g.stores.len() as u8;
    let vty = g.ty.vec_of(width);
    let f = m.func_mut(fid);
    let bb = oraql_ir::value::BlockId(bi as u32);
    let last_store = *g.stores.last().unwrap();
    let mut at = position(f, bi, last_store);
    let mut generated = 0u64;

    let vec_side = |f: &mut oraql_ir::module::Function,
                    at: &mut usize,
                    loads: &[InstId],
                    shared: Option<Value>,
                    generated: &mut u64|
     -> Value {
        if let Some(s) = shared {
            let id = f.insert_inst(
                bb,
                *at,
                Inst::Cast {
                    kind: CastKind::Splat,
                    val: s,
                    to: vty,
                },
                None,
            );
            *at += 1;
            *generated += 1;
            Value::Inst(id)
        } else {
            let lane0_ptr = match f.inst(loads[0]) {
                Inst::Load { ptr, .. } => *ptr,
                _ => unreachable!(),
            };
            let id = f.insert_inst(
                bb,
                *at,
                Inst::Load {
                    ptr: lane0_ptr,
                    ty: vty,
                    meta: Default::default(),
                },
                None,
            );
            *at += 1;
            *generated += 1;
            Value::Inst(id)
        }
    };

    let vl = vec_side(f, &mut at, &g.lhs_loads, g.lhs_shared, &mut generated);
    let vr = vec_side(f, &mut at, &g.rhs_loads, g.rhs_shared, &mut generated);
    let vbin = f.insert_inst(
        bb,
        at,
        Inst::Bin {
            op: g.op,
            ty: vty,
            lhs: vl,
            rhs: vr,
        },
        None,
    );
    at += 1;
    generated += 1;
    let lane0_store_ptr = match f.inst(g.stores[0]) {
        Inst::Store { ptr, .. } => *ptr,
        _ => unreachable!(),
    };
    f.insert_inst(
        bb,
        at,
        Inst::Store {
            ptr: lane0_store_ptr,
            value: Value::Inst(vbin),
            ty: vty,
            meta: Default::default(),
        },
        None,
    );
    generated += 1;

    let scalars: Edits = g.members().map(Edit::Remove).collect();
    f.apply(&scalars);
    generated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_pass;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_vm::Interpreter;

    /// out[k] = a[k] + b[k] for k in 0..4, fully unrolled.
    fn unrolled(distinct_out: bool) -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(32, "a");
        let bb = b.alloca(32, "b");
        let out = if distinct_out { b.alloca(32, "out") } else { a };
        for k in 0..4i64 {
            let ak = b.gep(a, 8 * k);
            b.store(Ty::F64, Value::const_f64(k as f64), ak);
            let bk = b.gep(bb, 8 * k);
            b.store(Ty::F64, Value::const_f64(10.0 * k as f64), bk);
        }
        for k in 0..4i64 {
            let ak = b.gep(a, 8 * k);
            let av = b.load(Ty::F64, ak);
            let bk = b.gep(bb, 8 * k);
            let bv = b.load(Ty::F64, bk);
            let s = b.fadd(av, bv);
            let ok = b.gep(out, 8 * k);
            b.store(Ty::F64, s, ok);
        }
        let mut acc = Value::const_f64(0.0);
        for k in 0..4i64 {
            let ok = b.gep(out, 8 * k);
            let v = b.load(Ty::F64, ok);
            acc = b.fadd(acc, v);
        }
        b.print("sum={}", vec![acc]);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn unrolled_lanes_packed() {
        let mut m = unrolled(true);
        let before = Interpreter::run_main(&m).unwrap();
        let stats = run_pass(&mut m, SlpVectorize);
        assert!(
            stats.get("SLP", "vector instructions generated") >= 4,
            "{}",
            stats.render()
        );
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
        assert!(after.stats.host_insts < before.stats.host_insts);
    }

    #[test]
    fn in_place_lane_aligned_packed() {
        // out == a (lane-aligned in-place): still safe.
        let mut m = unrolled(false);
        let before = Interpreter::run_main(&m).unwrap();
        run_pass(&mut m, SlpVectorize);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, after.stdout);
    }

    #[test]
    fn shared_scalar_operand_splatted() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(16, "a");
        let out = b.alloca(16, "out");
        for k in 0..2i64 {
            let ak = b.gep(a, 8 * k);
            b.store(Ty::F64, Value::const_f64(1.0 + k as f64), ak);
        }
        for k in 0..2i64 {
            let ak = b.gep(a, 8 * k);
            let av = b.load(Ty::F64, ak);
            let s = b.fmul(av, Value::const_f64(3.0));
            let ok = b.gep(out, 8 * k);
            b.store(Ty::F64, s, ok);
        }
        let o0 = b.gep(out, 0);
        let v0 = b.load(Ty::F64, o0);
        let o1 = b.gep(out, 8);
        let v1 = b.load(Ty::F64, o1);
        let s = b.fadd(v0, v1);
        b.print("{}", vec![s]);
        b.ret(None);
        b.finish();
        let stats = run_pass(&mut m, SlpVectorize);
        assert!(stats.get("SLP", "vector instructions generated") >= 3);
        let out2 = Interpreter::run_main(&m).unwrap();
        assert_eq!(out2.stdout, "9.0\n");
    }

    #[test]
    fn shifted_in_place_rejected() {
        // out lanes overlap input lanes shifted by one: unsafe.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let a = b.alloca(40, "a");
        for k in 0..5i64 {
            let ak = b.gep(a, 8 * k);
            b.store(Ty::F64, Value::const_f64(k as f64), ak);
        }
        // a[k+1] = a[k] + 1  (unrolled, carries between lanes)
        for k in 0..2i64 {
            let src = b.gep(a, 8 * k);
            let v = b.load(Ty::F64, src);
            let s = b.fadd(v, Value::const_f64(1.0));
            let dst = b.gep(a, 8 * (k + 1));
            b.store(Ty::F64, s, dst);
        }
        let a2 = b.gep(a, 16);
        let v = b.load(Ty::F64, a2);
        b.print("{}", vec![v]);
        b.ret(None);
        b.finish();
        let before = Interpreter::run_main(&m).unwrap();
        assert_eq!(before.stdout, "2.0\n"); // 0+1 -> a1, a1+1 -> a2
        let stats = run_pass(&mut m, SlpVectorize);
        assert_eq!(stats.get("SLP", "vector instructions generated"), 0);
        let after = Interpreter::run_main(&m).unwrap();
        assert_eq!(after.stdout, "2.0\n");
    }
}
