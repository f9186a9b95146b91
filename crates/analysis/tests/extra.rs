//! Additional analysis-crate scenarios: interprocedural points-to flow
//! through memcpy, returns and externals; MemorySSA walk budgets; loop
//! and dominator edge cases; deep TBAA hierarchies.

use oraql_analysis::aa::QueryCtx;
use oraql_analysis::andersen::AndersenAA;
use oraql_analysis::basic::BasicAA;
use oraql_analysis::domtree::DomTree;
use oraql_analysis::facts::CfgFacts;
use oraql_analysis::loops::LoopForest;
use oraql_analysis::memssa::{MemAccess, MemorySsa};
use oraql_analysis::steens::SteensgaardAA;
use oraql_analysis::{AAManager, AliasAnalysis, AliasResult, MemoryLocation};
use oraql_ir::builder::{declare_function, FunctionBuilder};
use oraql_ir::module::FunctionId;
use oraql_ir::{Module, TbaaTag, Ty, Value};

fn ctx(m: &Module, f: FunctionId) -> QueryCtx<'_> {
    QueryCtx {
        module: m,
        func: f,
        pass: "test",
    }
}

#[test]
fn andersen_tracks_pointers_through_memcpy() {
    // A pointer stored in one buffer, memcpy'd into another, loaded
    // back: the loaded pointer must be related to the original target.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let src_buf = b.alloca(8, "src");
    let dst_buf = b.alloca(8, "dst");
    let obj = b.alloca(64, "obj");
    let other = b.alloca(64, "other");
    b.store(Ty::Ptr, obj, src_buf);
    b.memcpy(dst_buf, src_buf, Value::ConstInt(8));
    let l = b.load(Ty::Ptr, dst_buf);
    b.store(Ty::I64, Value::ConstInt(1), l);
    b.store(Ty::I64, Value::ConstInt(2), other);
    b.ret(None);
    let f = b.finish();
    let mut aa = AndersenAA::new(&m);
    // l may point to obj (through the copy)...
    assert_eq!(
        aa.alias(
            &ctx(&m, f),
            &MemoryLocation::precise(l, 8),
            &MemoryLocation::precise(obj, 8)
        ),
        AliasResult::MayAlias
    );
    // ...but provably not to `other`.
    assert_eq!(
        aa.alias(
            &ctx(&m, f),
            &MemoryLocation::precise(l, 8),
            &MemoryLocation::precise(other, 8)
        ),
        AliasResult::NoAlias
    );
}

#[test]
fn andersen_returned_pointers_flow_to_call_sites() {
    let mut m = Module::new("t");
    let getter = declare_function(&mut m, "get", vec![Ty::Ptr], Some(Ty::Ptr));
    {
        use oraql_ir::inst::Inst;
        let f = m.func_mut(getter);
        f.push_inst(
            oraql_ir::module::Function::ENTRY,
            Inst::Ret {
                val: Some(Value::Arg(0)),
            },
            None,
        );
    }
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let x = b.alloca(64, "x");
    let y = b.alloca(64, "y");
    let r = b.call(getter, vec![x], Some(Ty::Ptr)).unwrap();
    b.store(Ty::I64, Value::ConstInt(1), r);
    b.store(Ty::I64, Value::ConstInt(2), y);
    b.ret(None);
    let f = b.finish();
    let mut aa = AndersenAA::new(&m);
    // r is x (through the identity function): may alias x, not y.
    assert_eq!(
        aa.alias(
            &ctx(&m, f),
            &MemoryLocation::precise(r, 8),
            &MemoryLocation::precise(x, 8)
        ),
        AliasResult::MayAlias
    );
    assert_eq!(
        aa.alias(
            &ctx(&m, f),
            &MemoryLocation::precise(r, 8),
            &MemoryLocation::precise(y, 8)
        ),
        AliasResult::NoAlias
    );
}

#[test]
fn steensgaard_returned_pointers_unify() {
    let mut m = Module::new("t");
    let getter = declare_function(&mut m, "get", vec![Ty::Ptr], Some(Ty::Ptr));
    {
        use oraql_ir::inst::Inst;
        let f = m.func_mut(getter);
        f.push_inst(
            oraql_ir::module::Function::ENTRY,
            Inst::Ret {
                val: Some(Value::Arg(0)),
            },
            None,
        );
    }
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let x = b.alloca(64, "x");
    let r = b.call(getter, vec![x], Some(Ty::Ptr)).unwrap();
    b.store(Ty::I64, Value::ConstInt(1), r);
    b.store(Ty::I64, Value::ConstInt(2), x);
    b.ret(None);
    let f = b.finish();
    let mut aa = SteensgaardAA::new(&m);
    assert_eq!(
        aa.alias(
            &ctx(&m, f),
            &MemoryLocation::precise(r, 8),
            &MemoryLocation::precise(x, 8)
        ),
        AliasResult::MayAlias
    );
}

#[test]
fn memssa_walk_budget_gives_conservative_answer() {
    // A long chain of non-aliasing stores before the load: with a tiny
    // budget the walk must stop at a Def (conservative), never claim
    // LiveOnEntry.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
    let target = b.arg(0);
    let scratch = b.alloca(8 * 64, "scratch");
    for i in 0..64i64 {
        let p = b.gep(scratch, 8 * i);
        b.store(Ty::I64, Value::ConstInt(i), p);
    }
    let l = b.load(Ty::I64, target);
    b.print("{}", vec![l]);
    b.ret(None);
    let id = b.finish();
    let f = m.func(id);
    let mut mssa = MemorySsa::build(f, CfgFacts::build(f));
    mssa.walk_budget = 5;
    let load = f
        .live_insts()
        .find(|&i| matches!(f.inst(i), oraql_ir::inst::Inst::Load { ty: Ty::I64, .. }))
        .unwrap();
    let loc = MemoryLocation::of_access(f, load).unwrap();
    let start = mssa.defining_access(f, load);
    let mut aa = AAManager::new();
    aa.add(Box::new(BasicAA::new()));
    let r = mssa.clobber_walk(&m, id, &mut aa, &loc, start);
    assert!(matches!(r, MemAccess::Def(_)), "budget must stop at a def");
    // With the default budget the walk sees through all 64 stores.
    let mssa2 = MemorySsa::build(f, CfgFacts::build(f));
    let r2 = mssa2.clobber_walk(&m, id, &mut aa, &loc, start);
    assert_eq!(r2, MemAccess::LiveOnEntry);
}

#[test]
fn tbaa_deep_hierarchy() {
    let mut m = Module::new("t");
    let agg = m.tbaa.add("struct Particle", TbaaTag::ROOT);
    let fx = m.tbaa.add("Particle::x", agg);
    let fe = m.tbaa.add("Particle::e", agg);
    let fxx = m.tbaa.add("Particle::x::lo", fx);
    assert!(m.tbaa.compatible(fx, fxx));
    assert!(m.tbaa.compatible(agg, fxx));
    assert!(!m.tbaa.compatible(fe, fxx));
    assert!(!m.tbaa.compatible(fe, fx));
    assert!(m.tbaa.compatible(TbaaTag::ROOT, fe));
}

#[test]
fn loop_without_unique_preheader_is_skipped_by_helpers() {
    // Two distinct outside edges into the header: no preheader.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::I1], None);
    let header = b.new_block();
    let body = b.new_block();
    let other = b.new_block();
    let exit = b.new_block();
    b.cond_br(b.arg(0), header, other);
    b.switch_to(other);
    b.br(header);
    b.switch_to(header);
    b.cond_br(b.arg(0), body, exit);
    b.switch_to(body);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    let id = b.finish();
    let f = m.func(id);
    let dt = DomTree::build(f);
    let forest = LoopForest::build(f, &dt);
    assert_eq!(forest.loops.len(), 1);
    assert_eq!(forest.preheader(&forest.loops[0]), None);
}

#[test]
fn chain_order_determines_answerer() {
    // BasicAA resolves alloca-vs-alloca before TBAA even though both
    // could; BasicAA's slot counts the answer.
    let mut m = Module::new("t");
    let int_tag = m.tbaa.add("int", TbaaTag::ROOT);
    let dbl_tag = m.tbaa.add("double", TbaaTag::ROOT);
    let mut b = FunctionBuilder::new(&mut m, "f", vec![], None);
    let x = b.alloca(8, "x");
    let y = b.alloca(8, "y");
    b.store_tbaa(Ty::I64, Value::ConstInt(1), x, int_tag);
    b.store_tbaa(Ty::F64, Value::const_f64(1.0), y, dbl_tag);
    b.ret(None);
    let id = b.finish();
    let mut aa = AAManager::new();
    aa.add(Box::new(BasicAA::new()));
    aa.add(Box::new(oraql_analysis::tbaa::TypeBasedAA::new()));
    let f = m.func(id);
    let s0 = f.blocks()[0].insts[2];
    let s1 = f.blocks()[0].insts[3];
    let la = MemoryLocation::of_access(f, s0).unwrap();
    let lb = MemoryLocation::of_access(f, s1).unwrap();
    assert_eq!(aa.alias(&m, id, &la, &lb), AliasResult::NoAlias);
    let counts = aa.answer_counts();
    assert_eq!(counts[0].no_alias, 1, "BasicAA answered");
    assert_eq!(counts[1].no_alias, 0, "TBAA was never asked");
}

#[test]
fn external_call_arguments_escape_in_andersen() {
    // A pointer passed to an unknown external could be stored anywhere:
    // loads through unknown pointers may alias it afterwards.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![Ty::Ptr], None);
    let x = b.alloca(64, "x");
    // Pass x's address to an external (not one of the pure math fns).
    let sym_exists = b.call_external(
        "pow",
        vec![Value::const_f64(1.0), Value::const_f64(2.0)],
        Some(Ty::F64),
    );
    let _ = sym_exists;
    b.store(Ty::I64, Value::ConstInt(0), x);
    let via_arg = b.arg(0);
    b.store(Ty::I64, Value::ConstInt(1), via_arg);
    b.ret(None);
    let f = b.finish();
    let mut aa = AndersenAA::new(&m);
    // Root-function arg points to universal: may alias anything.
    assert_eq!(
        aa.alias(
            &ctx(&m, f),
            &MemoryLocation::precise(via_arg, 8),
            &MemoryLocation::precise(x, 8)
        ),
        AliasResult::MayAlias
    );
}
