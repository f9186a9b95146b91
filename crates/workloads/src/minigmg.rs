//! MiniGMG — compact geometric multigrid benchmark (paper §V-G), in the
//! `ompif` (worksharing loops), `omptask` (worksharing + tasks) and
//! `sse` (explicit intrinsics) configurations.
//!
//! MiniGMG's original build uses `icc -fno-alias`, i.e. it *assumes* no
//! aliasing globally — so all three configurations verify fully
//! optimistically. The interesting outcome is performance: the `ompif`
//! smoother loops become vectorizable with optimistic answers (the
//! paper's 8% speedup and 9 → 12 vectorized loops), the `sse` variant is
//! already hand-vectorized and barely moves, and `omptask` sits in
//! between.

use crate::toolkit::*;
use oraql::compile::Scope;
use oraql::TestCase;
use oraql_ir::builder::FunctionBuilder;
use oraql_ir::inst::{BinOp, CastKind};
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::value::Value;
use oraql_ir::Ty;

/// Grid points per box.
const POINTS: i64 = 64;
/// Smoother sweeps.
const SWEEPS: i64 = 3;

/// Variant selector.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// OpenMP worksharing (`operators.ompif.c`).
    OmpIf,
    /// OpenMP worksharing + tasks (`operators.omptask.c`).
    OmpTask,
    /// Explicit SSE intrinsics (`operators.sse.c`).
    Sse,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::OmpIf => "minigmg_ompif",
            Variant::OmpTask => "minigmg_omptask",
            Variant::Sse => "minigmg_sse",
        }
    }
    fn src(self) -> &'static str {
        match self {
            Variant::OmpIf => "operators.ompif",
            Variant::OmpTask => "operators.omptask",
            Variant::Sse => "operators.sse",
        }
    }
}

/// The Jacobi-ish smoother: `out[i] = (a[i] + b[i]) * w + c[i]`.
/// Scalar for the OpenMP variants (vectorizable only with optimistic
/// alias answers); explicit 2-wide vectors for the SSE variant.
fn emit_smoother(m: &mut Module, ctx: &Ctx, v: Variant, idx: usize) -> FunctionId {
    let mut b = FunctionBuilder::new(m, &format!("smooth_{idx}"), vec![Ty::I64, Ty::Ptr], None);
    b.set_outlined(true);
    b.set_src_file(v.src());
    b.set_loc(v.src(), 120 + idx as u32 * 40, 3);
    let tid = b.arg(0);
    let cp = b.arg(1);
    let tag = ctx.tag_data;
    let (a_n, b_n, o_n) = match idx {
        0 => ("phi", "rhs", "tmp"),
        1 => ("tmp", "beta", "phi"),
        _ => ("phi", "beta", "res"),
    };
    let (lo, hi) = chunk_bounds(&mut b, tid, POINTS, 4);
    match v {
        Variant::Sse => {
            // Hand-vectorized: 2-wide vector ops with a manual stride-2
            // loop (`_mm_load_pd` style).
            let half_lo = b.div(lo, Value::ConstInt(2));
            let half_hi = b.div(hi, Value::ConstInt(2));
            let ap = dptr(&mut b, ctx, cp, a_n);
            let bp = dptr(&mut b, ctx, cp, b_n);
            let op = dptr(&mut b, ctx, cp, o_n);
            b.counted_loop(half_lo, half_hi, |b, k| {
                let ai = b.gep_scaled(ap, k, 16, 0);
                let av = b.load_tbaa(Ty::VecF64(2), ai, tag);
                let bi = b.gep_scaled(bp, k, 16, 0);
                let bv = b.load_tbaa(Ty::VecF64(2), bi, tag);
                let s = b.bin(BinOp::FAdd, Ty::VecF64(2), av, bv);
                let w = b.cast(CastKind::Splat, Value::const_f64(0.9), Ty::VecF64(2));
                let sw = b.bin(BinOp::FMul, Ty::VecF64(2), s, w);
                let oi = b.gep_scaled(op, k, 16, 0);
                b.store_tbaa(Ty::VecF64(2), sw, oi, tag);
            });
        }
        _ => {
            let ap = dptr(&mut b, ctx, cp, a_n);
            let bp = dptr(&mut b, ctx, cp, b_n);
            let op = dptr(&mut b, ctx, cp, o_n);
            // The task variant's third smoother carries the tasking
            // runtime's per-element completion check (a branch), which
            // keeps that one loop out of the vectorizer — the reason
            // the paper's omptask gains less than ompif (22% vs 33%
            // more vectorized loops, ~1% vs ~8% runtime).
            let branchy = v == Variant::OmpTask && idx == 2;
            b.counted_loop(lo, hi, |b, i| {
                let ai = b.gep_scaled(ap, i, 8, 0);
                let av = b.load_tbaa(Ty::F64, ai, tag);
                let bi = b.gep_scaled(bp, i, 8, 0);
                let bv = b.load_tbaa(Ty::F64, bi, tag);
                let s = b.fadd(av, bv);
                let sw = if branchy {
                    let parity = b.rem(i, Value::ConstInt(2));
                    let c = b.cmp(
                        oraql_ir::inst::CmpPred::Eq,
                        Ty::I64,
                        parity,
                        Value::ConstInt(0),
                    );
                    let even = b.new_block();
                    let odd = b.new_block();
                    let join = b.new_block();
                    b.cond_br(c, even, odd);
                    b.switch_to(even);
                    let se = b.fmul(s, Value::const_f64(0.9));
                    b.br(join);
                    b.switch_to(odd);
                    let so = b.fmul(s, Value::const_f64(0.9));
                    b.br(join);
                    b.switch_to(join);
                    b.phi(Ty::F64, vec![(even, se), (odd, so)])
                } else {
                    b.fmul(s, Value::const_f64(0.9))
                };
                let oi = b.gep_scaled(op, i, 8, 0);
                b.store_tbaa(Ty::F64, sw, oi, tag);
            });
        }
    }
    b.ret(None);
    b.finish()
}

fn build(v: Variant) -> Module {
    let mut m = Module::new(v.name());
    let bytes = 8 * POINTS as u64;
    let ctx = make_ctx(
        &mut m,
        "gmg",
        &[
            ("phi", bytes),
            ("rhs", bytes),
            ("beta", bytes),
            ("tmp", bytes),
            ("res", bytes),
        ],
        &[],
    );
    let smoothers: Vec<FunctionId> = (0..3).map(|i| emit_smoother(&mut m, &ctx, v, i)).collect();
    // The task variant wraps each smoother call in an extra task shim
    // (one more indirection layer, like the paper's omptask).
    let task_shims: Vec<FunctionId> = if v == Variant::OmpTask {
        smoothers
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut b =
                    FunctionBuilder::new(&mut m, &format!("task_shim_{i}"), vec![Ty::Ptr], None);
                b.set_src_file(v.src());
                let cp = b.arg(0);
                b.parallel_region(s, vec![cp], 4);
                b.ret(None);
                b.finish()
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut b = main_builder(&mut m, "miniGMG-main");
    init_ctx(&mut b, &ctx);
    fill_array(&mut b, &ctx, "phi", POINTS, 1.0, 0.03);
    fill_array(&mut b, &ctx, "rhs", POINTS, 0.5, -0.01);
    fill_array(&mut b, &ctx, "beta", POINTS, 0.25, 0.005);
    fill_array(&mut b, &ctx, "tmp", POINTS, 0.0, 0.0);
    fill_array(&mut b, &ctx, "res", POINTS, 0.0, 0.0);
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(SWEEPS), |b, _| {
        if v == Variant::OmpTask {
            for &shim in &task_shims {
                b.call(shim, vec![Value::Global(ctx.global)], None);
            }
        } else {
            for &s in &smoothers {
                b.parallel_region(s, vec![Value::Global(ctx.global)], 4);
            }
        }
    });
    checksum(&mut b, &ctx, "res", POINTS, "residual");
    checksum(&mut b, &ctx, "phi", POINTS, "phi");
    timing_epilogue(&mut b, "DOF/s");
    b.ret(None);
    b.finish();
    m
}

/// The three MiniGMG test cases.
pub fn cases() -> Vec<TestCase> {
    [Variant::OmpIf, Variant::OmpTask, Variant::Sse]
        .into_iter()
        .map(|v| {
            let mut c = TestCase::new(v.name(), move || build(v));
            c.scope = Scope::files(vec![v.src().into()]);
            c.ignore_patterns = standard_ignore_patterns();
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_vm::Interpreter;

    #[test]
    fn all_variants_run_and_agree() {
        let grab = |m: &Module| {
            let out = Interpreter::run_main(m).unwrap();
            out.stdout
                .lines()
                .filter(|l| l.starts_with("checksum"))
                .collect::<Vec<_>>()
                .join("|")
        };
        let a = grab(&build(Variant::OmpIf));
        let b = grab(&build(Variant::OmpTask));
        let c = grab(&build(Variant::Sse));
        assert_eq!(a, b);
        assert_eq!(a, c); // hand-vectorized math is lane-exact here
    }

    #[test]
    fn sse_variant_uses_vector_ops() {
        let m = build(Variant::Sse);
        let uses_vec = m.funcs.iter().any(|f| {
            f.insts().iter().any(|d| {
                matches!(
                    d.inst,
                    oraql_ir::inst::Inst::Load {
                        ty: Ty::VecF64(2),
                        ..
                    }
                )
            })
        });
        assert!(uses_vec);
    }
}
