//! Cross-pass interplay tests: the full standard pipeline on targeted
//! patterns, checking both the transformation statistics and the
//! preserved semantics.

use oraql_analysis::basic::BasicAA;
use oraql_analysis::globals::GlobalsAA;
use oraql_analysis::scoped::ScopedNoAliasAA;
use oraql_analysis::tbaa::TypeBasedAA;
use oraql_analysis::AAManager;
use oraql_ir::builder::FunctionBuilder;
use oraql_ir::{Module, Ty, Value};
use oraql_passes::{standard_pipeline, Stats};
use oraql_vm::Interpreter;

fn compile(m: &mut Module) -> Stats {
    let mut aa = AAManager::new();
    aa.add(Box::new(BasicAA::new()));
    aa.add(Box::new(ScopedNoAliasAA::new()));
    aa.add(Box::new(TypeBasedAA::new()));
    aa.add(Box::new(GlobalsAA::new(m)));
    let mut stats = Stats::new();
    let mut pm = standard_pipeline();
    pm.verify_each = true;
    pm.run(m, &mut aa, &mut stats);
    stats
}

fn run(m: &Module) -> (String, u64) {
    let out = Interpreter::run_main(m).unwrap();
    (out.stdout, out.stats.total_insts())
}

#[test]
fn gvn_merge_lets_dce_remove_the_orphaned_gep() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let buf = b.alloca(64, "buf");
    b.store(Ty::I64, Value::ConstInt(5), buf);
    // Two identical loads through two distinct geps.
    let g1 = b.gep(buf, 0);
    let l1 = b.load(Ty::I64, g1);
    let g2 = b.gep(buf, 0);
    let l2 = b.load(Ty::I64, g2);
    let s = b.add(l1, l2);
    b.print("{}", vec![s]);
    b.ret(None);
    b.finish();
    let (before_out, before_insts) = run(&m);
    let stats = compile(&mut m);
    let (after_out, after_insts) = run(&m);
    assert_eq!(before_out, after_out);
    assert_eq!(after_out, "10\n");
    assert!(after_insts < before_insts);
    // EarlyCSE (or GVN) merged; DCE cleaned the dead gep.
    assert!(
        stats.get("DCE", "instructions removed") >= 1,
        "{}",
        stats.render()
    );
}

#[test]
fn licm_hoists_from_nested_loops_in_stages() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let k = b.alloca(8, "k");
    let out = b.alloca(8 * 64, "out");
    b.store(Ty::F64, Value::const_f64(2.5), k);
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(8), |b, i| {
        b.counted_loop(Value::ConstInt(0), Value::ConstInt(8), |b, j| {
            // Invariant w.r.t. both loops.
            let c = b.load(Ty::F64, k);
            let fi = b.si_to_fp(i);
            let fj = b.si_to_fp(j);
            let x = b.fmul(fi, c);
            let y = b.fadd(x, fj);
            let lin = b.mul(i, Value::ConstInt(8));
            let idx = b.add(lin, j);
            let addr = b.gep_scaled(out, idx, 8, 0);
            b.store(Ty::F64, y, addr);
        });
    });
    // Checksum.
    let acc = b.alloca(8, "acc");
    b.store(Ty::F64, Value::const_f64(0.0), acc);
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(64), |b, i| {
        let addr = b.gep_scaled(out, i, 8, 0);
        let v = b.load(Ty::F64, addr);
        let cur = b.load(Ty::F64, acc);
        let s = b.fadd(cur, v);
        b.store(Ty::F64, s, acc);
    });
    let fin = b.load(Ty::F64, acc);
    b.print("{}", vec![fin]);
    b.ret(None);
    b.finish();
    let (before_out, before_insts) = run(&m);
    let stats = compile(&mut m);
    let (after_out, after_insts) = run(&m);
    assert_eq!(before_out, after_out);
    // The k-load leaves the inner loop, then the outer loop entirely.
    assert!(stats.get("LICM", "loads hoisted or sunk") >= 1);
    assert!(after_insts < before_insts);
}

#[test]
fn slp_packs_four_wide_when_lanes_allow() {
    let mut m = Module::new("t");
    {
        let mut b = FunctionBuilder::new(&mut m, "consume", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let mut acc = Value::const_f64(0.0);
        for k in 0..4i64 {
            let pk = b.gep(p, 8 * k);
            let v = b.load(Ty::F64, pk);
            acc = b.fadd(acc, v);
        }
        b.print("{}", vec![acc]);
        b.ret(None);
        b.finish();
    }
    let consume = m.find_func("consume").unwrap();
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let a = b.alloca(32, "a");
    let bb = b.alloca(32, "b");
    let out = b.alloca(32, "out");
    // Initialize through loops so constants cannot be forwarded into
    // the kernel lanes (the loop phi is a forwarding barrier).
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(4), |b, k| {
        let fk = b.si_to_fp(k);
        let ak = b.gep_scaled(a, k, 8, 0);
        b.store(Ty::F64, fk, ak);
        let half = b.fmul(fk, Value::const_f64(0.5));
        let bk = b.gep_scaled(bb, k, 8, 0);
        b.store(Ty::F64, half, bk);
    });
    for k in 0..4i64 {
        let ak = b.gep(a, 8 * k);
        let av = b.load(Ty::F64, ak);
        let bk = b.gep(bb, 8 * k);
        let bv = b.load(Ty::F64, bk);
        let s = b.fadd(av, bv);
        let ok = b.gep(out, 8 * k);
        b.store(Ty::F64, s, ok);
    }
    // Consume `out` in a separate function so the kernel stores cannot
    // be store-to-load forwarded away (a call is a forwarding barrier).
    b.call(consume, vec![out], None);
    b.ret(None);
    b.finish();
    let (before_out, _) = run(&m);
    let stats = compile(&mut m);
    let (after_out, _) = run(&m);
    assert_eq!(before_out, after_out);
    assert!(
        stats.get("SLP", "vector instructions generated") >= 4,
        "{}",
        stats.render()
    );
    // The packed store must be 4-wide (one <4 x f64> store remains in
    // the kernel region).
    let f = m.func(m.find_func("main").unwrap());
    let has_vec4 = f.live_insts().any(|i| {
        matches!(
            f.inst(i),
            oraql_ir::inst::Inst::Store {
                ty: Ty::VecF64(4),
                ..
            }
        )
    });
    assert!(has_vec4);
}

#[test]
fn vectorized_loop_plus_dse_and_loop_deletion_compose() {
    // One vectorizable kernel loop, one dead scratch loop: both effects
    // in one function.
    let mut m = Module::new("t");
    let esc = {
        let mut b = FunctionBuilder::new(&mut m, "escape", vec![Ty::Ptr], None);
        b.ret(None);
        b.finish()
    };
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let a = b.alloca(8 * 16, "a");
    let out = b.alloca(8 * 16, "out");
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(16), |b, i| {
        let ai = b.gep_scaled(a, i, 8, 0);
        b.store(Ty::I64, i, ai);
    });
    // Dead scratch loop (escaped alloca, never read).
    let scratch = b.alloca(8 * 16, "scratch");
    b.call(esc, vec![scratch], None);
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(16), |b, i| {
        let si = b.gep_scaled(scratch, i, 8, 0);
        let tripled = b.mul(i, Value::ConstInt(3));
        b.store(Ty::I64, tripled, si);
    });
    // Vectorizable kernel.
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(16), |b, i| {
        let ai = b.gep_scaled(a, i, 8, 0);
        let v = b.load(Ty::I64, ai);
        let w = b.mul(v, Value::ConstInt(2));
        let oi = b.gep_scaled(out, i, 8, 0);
        b.store(Ty::I64, w, oi);
    });
    let p15 = b.gep(out, 8 * 15);
    let v15 = b.load(Ty::I64, p15);
    b.print("{}", vec![v15]);
    b.ret(None);
    b.finish();
    let (before_out, before_insts) = run(&m);
    let stats = compile(&mut m);
    let (after_out, after_insts) = run(&m);
    assert_eq!(before_out, after_out);
    assert_eq!(after_out, "30\n");
    assert!(stats.get("loop vectorizer", "vectorized loops") >= 1);
    // The scratch store is dead only with the aliasing proven — here
    // BasicAA can prove it (distinct allocas... except scratch escaped).
    // Either way the loop must not be *wrongly* deleted; semantics hold.
    assert!(after_insts < before_insts);
}

#[test]
fn second_gvn_round_picks_up_licm_exposure() {
    // A load that becomes redundant only after LICM hoists its twin out
    // of the loop: the second GVN round (after LICM in the pipeline)
    // catches it.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let k = b.alloca(8, "k");
    let out = b.alloca(8 * 8, "out");
    b.store(Ty::I64, Value::ConstInt(3), k);
    let pre = b.load(Ty::I64, k); // before the loop
    b.counted_loop(Value::ConstInt(0), Value::ConstInt(8), |b, i| {
        let c = b.load(Ty::I64, k); // invariant: hoisted, then merged
        let v = b.mul(c, i);
        let addr = b.gep_scaled(out, i, 8, 0);
        b.store(Ty::I64, v, addr);
    });
    let p = b.gep(out, 8 * 7);
    let last = b.load(Ty::I64, p);
    let s = b.add(pre, last);
    b.print("{}", vec![s]);
    b.ret(None);
    b.finish();
    let (before_out, _) = run(&m);
    compile(&mut m);
    let (after_out, after_insts) = run(&m);
    assert_eq!(before_out, after_out);
    assert_eq!(after_out, "24\n"); // 3 + 21
                                   // Only one load of k should remain dynamically.
    let f = m.func(m.find_func("main").unwrap());
    let k_loads = f
        .live_insts()
        .filter(|&i| {
            matches!(f.inst(i), oraql_ir::inst::Inst::Load { ptr, .. } if {
                // loads whose pointer is the k alloca
                oraql_analysis::pointer::underlying_object(f, *ptr)
                    == oraql_analysis::pointer::underlying_object(f, {
                        // the first alloca in the function is k
                        oraql_ir::value::Value::Inst(f.blocks()[0].insts[0])
                    })
            })
        })
        .count();
    assert!(k_loads <= 1, "k loaded {k_loads} times statically");
    let _ = after_insts;
}
