//! Differential testing of the two interpreter modes.
//!
//! The pre-decoded executor ([`oraql_vm::decode`]) must be observably
//! identical to the tree-walk reference: same return value / error,
//! byte-identical stdout, identical [`ExecStats`] — on well-formed
//! programs, on malformed-but-type-checked IR, and under any fuel
//! budget. These tests pin that contract three ways:
//!
//! 1. randomized programs (loops/phis, branches, calls, parallel
//!    regions, floats, externals) from the deterministic generator in
//!    `common`, at several fuel budgets including mid-block exhaustion;
//! 2. all sixteen registered workload configurations: the raw module,
//!    the baseline-compiled one, and the driver's all-optimistic first
//!    probe, which miscompiles the nine with aliasing pairs;
//! 3. hand-mutilated IR reproducing every robustness fix of this
//!    change: out-of-range instruction ids (as operands and in block
//!    lists), executed `Removed` placeholders, branches to missing
//!    blocks, phi edge/entry violations, bad string and global ids, and
//!    calls to missing functions — all must report `BadProgram`
//!    identically in both modes instead of panicking;
//! 4. typed random programs: vector loads, arithmetic, selects, phis
//!    and call arguments, i1/i8/i16/i32/f32 accesses and the casts
//!    between them, scaled GEPs, memcpy and phi swaps, at several fuel
//!    budgets and across a full fuel sweep, plus operands whose runtime
//!    type does not match their op; address-space edge cases (wrapped
//!    addresses, huge allocas and copies); and the CI gen plan's
//!    corpus, raw and compiled.

mod common;

use common::Gen;
use oraql_suite::gen::GenPlan;
use oraql_suite::ir::builder::FunctionBuilder;
use oraql_suite::ir::inst::{FuncRef, Inst, InstId};
use oraql_suite::ir::interner::StrId;
use oraql_suite::ir::module::FunctionId;
use oraql_suite::ir::{BlockId, GlobalId, Module, Ty, Value};
use oraql_suite::oraql::compile::{compile, CompileOptions};
use oraql_suite::oraql::{Decisions, Verifier};
use oraql_suite::vm::memory::{MemError, GLOBAL_BASE};
use oraql_suite::vm::{lower_function, ExecStats, InterpMode, Interpreter, RtVal, RuntimeError};
use oraql_suite::workloads;

type Observed = (Result<Option<RtVal>, RuntimeError>, String, ExecStats);

fn run_mode(m: &Module, mode: InterpMode, fuel: u64) -> Observed {
    let main = m.find_func("main").expect("module has a main");
    let mut interp = Interpreter::new(m).with_fuel(fuel).with_mode(mode);
    let result = interp.run(main, vec![]);
    (result, interp.stdout().to_owned(), interp.stats())
}

/// Runs `m` in both modes and asserts the full observable behaviour
/// matches; returns the (shared) observation for extra assertions.
fn assert_modes_agree(m: &Module, fuel: u64, ctx: &str) -> Observed {
    let tree = run_mode(m, InterpMode::TreeWalk, fuel);
    let dec = run_mode(m, InterpMode::Decoded, fuel);
    assert_eq!(tree.0, dec.0, "{ctx}: result/error mismatch");
    assert_eq!(tree.1, dec.1, "{ctx}: stdout mismatch");
    assert_eq!(tree.2, dec.2, "{ctx}: ExecStats mismatch");
    dec
}

// ---- randomized programs ----------------------------------------------

/// One step of a generated kernel body (same op family as
/// `prop_pipeline`, plus branchy steps so phis and `select` get
/// exercised outside the loop header).
#[derive(Debug, Clone)]
enum Step {
    StoreConst {
        dst: usize,
        off: u8,
        val: i8,
    },
    LoadPrint {
        src: usize,
        off: u8,
    },
    Combine {
        dst: usize,
        a: usize,
        b: usize,
    },
    Copy {
        dst: usize,
        src: usize,
    },
    /// Diamond: branch on `slots[src][0] < k`, merge with a phi, print.
    Diamond {
        src: usize,
        k: i8,
    },
    /// `print(sqrt(float(slots[src][0])))` — float + external coverage.
    FloatExt {
        src: usize,
    },
    /// `print(select(slots[a][0] < slots[b][0], a0, b0))`.
    SelectMin {
        a: usize,
        b: usize,
    },
}

fn random_step(g: &mut Gen) -> Step {
    match g.range_u64(0, 7) {
        0 => Step::StoreConst {
            dst: g.range_usize(0, 4),
            off: g.range_u64(0, 3) as u8,
            val: g.next_u64() as i8,
        },
        1 => Step::LoadPrint {
            src: g.range_usize(0, 4),
            off: g.range_u64(0, 3) as u8,
        },
        2 => Step::Combine {
            dst: g.range_usize(0, 4),
            a: g.range_usize(0, 4),
            b: g.range_usize(0, 4),
        },
        3 => Step::Copy {
            dst: g.range_usize(0, 4),
            src: g.range_usize(0, 4),
        },
        4 => Step::Diamond {
            src: g.range_usize(0, 4),
            k: g.next_u64() as i8,
        },
        5 => Step::FloatExt {
            src: g.range_usize(0, 4),
        },
        _ => Step::SelectMin {
            a: g.range_usize(0, 4),
            b: g.range_usize(0, 4),
        },
    }
}

fn emit_step(b: &mut FunctionBuilder, slots: &[Value], step: &Step) {
    use oraql_suite::ir::inst::CmpPred;
    match *step {
        Step::StoreConst { dst, off, val } => {
            let p = b.gep(slots[dst], 8 * off as i64);
            b.store(Ty::I64, Value::ConstInt(val as i64), p);
        }
        Step::LoadPrint { src, off } => {
            let p = b.gep(slots[src], 8 * off as i64);
            let v = b.load(Ty::I64, p);
            b.print("{}", vec![v]);
        }
        Step::Combine { dst, a, b: bb } => {
            let pa = b.gep(slots[a], 0);
            let va = b.load(Ty::I64, pa);
            let pb = b.gep(slots[bb], 8);
            let vb = b.load(Ty::I64, pb);
            let s = b.add(va, vb);
            let pd = b.gep(slots[dst], 16);
            b.store(Ty::I64, s, pd);
        }
        Step::Copy { dst, src } => {
            b.memcpy(slots[dst], slots[src], Value::ConstInt(16));
        }
        Step::Diamond { src, k } => {
            let p = b.gep(slots[src], 0);
            let v = b.load(Ty::I64, p);
            let c = b.cmp(CmpPred::Lt, Ty::I64, v, Value::ConstInt(k as i64));
            let then_bb = b.new_block();
            let else_bb = b.new_block();
            let merge = b.new_block();
            b.cond_br(c, then_bb, else_bb);
            b.switch_to(then_bb);
            let t = b.add(v, Value::ConstInt(1));
            b.br(merge);
            b.switch_to(else_bb);
            let e = b.mul(v, Value::ConstInt(3));
            b.br(merge);
            b.switch_to(merge);
            let phi = b.phi(Ty::I64, vec![(then_bb, t), (else_bb, e)]);
            b.print("d{}", vec![phi]);
        }
        Step::FloatExt { src } => {
            let p = b.gep(slots[src], 0);
            let v = b.load(Ty::I64, p);
            let f = b.si_to_fp(v);
            let sq = b.fmul(f, f);
            let r = b.call_external("sqrt", vec![sq], Some(Ty::F64)).unwrap();
            b.print("f{}", vec![r]);
        }
        Step::SelectMin { a, b: bb } => {
            let pa = b.gep(slots[a], 0);
            let va = b.load(Ty::I64, pa);
            let pb = b.gep(slots[bb], 0);
            let vb = b.load(Ty::I64, pb);
            let c = b.cmp(CmpPred::Lt, Ty::I64, va, vb);
            let m = b.select(Ty::I64, c, va, vb);
            b.print("m{}", vec![m]);
        }
    }
}

/// Four 32-byte global buffers, a kernel over opaque (possibly
/// aliasing) pointer parameters, run in a parallel region so call-kind
/// dispatch and per-thread stats are covered too.
fn build_random_program(steps: &[Step], wiring: [u8; 4], loop_trip: u8, threads: u32) -> Module {
    let mut m = Module::new("diff");
    let kern = {
        // Parallel regions pass the thread id as implicit leading arg.
        let mut b = FunctionBuilder::new(&mut m, "kernel", vec![Ty::I64, Ty::Ptr, Ty::Ptr], None);
        let slots: Vec<Value> = vec![b.arg(1), b.arg(2), b.arg(1), b.arg(2)];
        if loop_trip > 0 {
            b.counted_loop(
                Value::ConstInt(0),
                Value::ConstInt(loop_trip as i64),
                |b, _| {
                    for s in steps {
                        emit_step(b, &slots, s);
                    }
                },
            );
        } else {
            for s in steps {
                emit_step(&mut b, &slots, s);
            }
        }
        b.ret(None);
        b.finish()
    };
    let g = m.add_global("buffers", 4 * 32, vec![], false);
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    for i in 0..16i64 {
        let p = b.gep(Value::Global(g), 8 * i);
        b.store(Ty::I64, Value::ConstInt(i * 5 + 2), p);
    }
    let args: Vec<Value> = wiring
        .iter()
        .take(2)
        .map(|&w| b.gep(Value::Global(g), 32 * (w as i64 % 4)))
        .collect();
    if threads > 1 {
        b.parallel_region(kern, args, threads);
    } else {
        let mut full = vec![Value::ConstInt(0)];
        full.extend(args);
        b.call(kern, full, None);
    }
    // Final state dump so silent divergence is visible.
    for i in 0..16i64 {
        let p = b.gep(Value::Global(g), 8 * i);
        let v = b.load(Ty::I64, p);
        b.print("{}", vec![v]);
    }
    b.ret(None);
    b.finish();
    m
}

/// Random programs agree in both modes, at a generous budget and at
/// tiny budgets that exhaust fuel mid-block, mid-phi-batch and
/// mid-segment.
#[test]
fn fuzz_differential_random_programs() {
    for seed in 0..48u64 {
        let mut g = Gen::new(seed);
        let n = g.range_usize(1, 10);
        let steps: Vec<Step> = (0..n).map(|_| random_step(&mut g)).collect();
        let wiring = [g.range_u64(0, 4) as u8, g.range_u64(0, 4) as u8, 0, 0];
        let loop_trip = g.range_u64(0, 4) as u8;
        let threads = g.range_u64(1, 4) as u32;
        let m = build_random_program(&steps, wiring, loop_trip, threads);
        for fuel in [1_000_000u64, 23, 7] {
            let _ = assert_modes_agree(&m, fuel, &format!("seed {seed} fuel {fuel}"));
        }
    }
}

/// Fuel-exhaustion boundary sweep on one looping program: every budget
/// in a contiguous range, so the batched per-segment accounting of the
/// decoded mode is checked at every possible cut point.
#[test]
fn fuel_boundary_sweep() {
    let mut g = Gen::new(0xf0e1);
    let steps: Vec<Step> = (0..6).map(|_| random_step(&mut g)).collect();
    let m = build_random_program(&steps, [0, 1, 2, 3], 3, 2);
    for fuel in 0..300u64 {
        let _ = assert_modes_agree(&m, fuel, &format!("fuel {fuel}"));
    }
}

// ---- workload configurations ------------------------------------------

/// All sixteen registered workload configurations execute identically
/// in both modes — raw and baseline-compiled.
#[test]
fn workloads_differential_all_configs() {
    let mut miscompiled = Vec::new();
    for info in &workloads::CASE_INFOS {
        let case = workloads::find_case(info.name).expect("registered case");
        let raw = (case.build)();
        let _ = assert_modes_agree(&raw, case.fuel, &format!("{} (raw)", info.name));
        let compiled = compile(&*case.build, &CompileOptions::baseline());
        let (_, reference, _) = assert_modes_agree(
            &compiled.module,
            case.fuel,
            &format!("{} (baseline-compiled)", info.name),
        );
        // The driver's first probe answers every query optimistically,
        // which miscompiles each configuration with an aliasing pair:
        // the modes must agree on the wrong program too.
        let optimistic = compile(
            &*case.build,
            &case.oraql_options(Decisions::all_optimistic()),
        );
        let (result, stdout, _) = assert_modes_agree(
            &optimistic.module,
            case.fuel,
            &format!("{} (all-optimistic)", info.name),
        );
        let mut references = vec![reference];
        references.extend(case.extra_references.iter().cloned());
        let verifier = Verifier::new(references, &case.ignore_patterns);
        if result.is_err() || verifier.check(&stdout).is_err() {
            miscompiled.push(info.name);
        }
    }
    assert_eq!(miscompiled.len(), 9, "miscompiled: {miscompiled:?}");
}

// ---- malformed-but-type-checked IR ------------------------------------

/// A minimal well-formed module to mutilate: main stores, adds, prints,
/// and returns. Returns the module and the ids of its instructions in
/// emission order.
fn well_formed() -> (Module, Vec<InstId>) {
    let mut m = Module::new("mal");
    let g = m.add_global("g", 16, vec![], false);
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    b.store(Ty::I64, Value::ConstInt(7), Value::Global(g)); // 0
    let v = b.load(Ty::I64, Value::Global(g)); // 1
    let s = b.add(v, Value::ConstInt(1)); // 2
    b.print("{}", vec![s]); // 3
    b.ret(None); // 4
    let fid = b.finish();
    let ids = (0..m.func(fid).insts().len() as u32).map(InstId).collect();
    (m, ids)
}

fn expect_bad_program(m: &Module, ctx: &str) {
    let (result, _, _) = assert_modes_agree(m, 1_000_000, ctx);
    match result {
        Err(RuntimeError::BadProgram(_)) => {}
        other => panic!("{ctx}: expected BadProgram, got {other:?}"),
    }
}

/// Out-of-range instruction id used as an operand (the `eval` panic
/// this change fixes) traps as `BadProgram` in both modes.
#[test]
fn bad_inst_id_operand_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    if let Inst::Print { args, .. } = m.func_mut(fid).inst_mut(ids[3]) {
        args[0] = Value::Inst(InstId(999));
    } else {
        panic!("expected print");
    }
    expect_bad_program(&m, "bad operand id");
}

/// Out-of-range instruction id in a block's instruction list.
#[test]
fn bad_inst_id_in_block_list_traps() {
    let (mut m, _) = well_formed();
    let fid = m.find_func("main").unwrap();
    m.func_mut(fid)
        .malformed_block_list(BlockId(0))
        .insert(2, InstId(999));
    expect_bad_program(&m, "bad block-list id");
}

/// An executed `Removed` placeholder traps instead of panicking.
#[test]
fn removed_instruction_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    *m.func_mut(fid).inst_mut(ids[0]) = Inst::Removed;
    expect_bad_program(&m, "executed Removed");
}

/// Branch to a block id the function does not have.
#[test]
fn branch_to_missing_block_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    *m.func_mut(fid).inst_mut(ids[4]) = Inst::Br {
        target: BlockId(99),
    };
    expect_bad_program(&m, "missing block");
}

/// A phi whose incoming list lacks the edge actually taken.
#[test]
fn phi_missing_edge_traps() {
    let mut m = Module::new("mal");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let bb1 = b.new_block();
    b.br(bb1);
    b.switch_to(bb1);
    // Incoming only from bb1 itself — never from the entry block.
    let p = b.phi(Ty::I64, vec![(bb1, Value::ConstInt(1))]);
    b.print("{}", vec![p]);
    b.ret(None);
    b.finish();
    expect_bad_program(&m, "phi missing edge");
}

/// A phi in the entry block of a called function has no incoming edge.
#[test]
fn phi_in_entry_block_traps() {
    let mut m = Module::new("mal");
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    let p = b.phi(Ty::I64, vec![(BlockId(0), Value::ConstInt(1))]);
    b.print("{}", vec![p]);
    b.ret(None);
    b.finish();
    expect_bad_program(&m, "phi in entry");
}

/// Print with an out-of-range format-string id.
#[test]
fn bad_string_id_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    if let Inst::Print { fmt, .. } = m.func_mut(fid).inst_mut(ids[3]) {
        *fmt = StrId(999);
    } else {
        panic!("expected print");
    }
    expect_bad_program(&m, "bad string id");
}

/// An operand naming a global the module does not have.
#[test]
fn bad_global_id_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    if let Inst::Store { ptr, .. } = m.func_mut(fid).inst_mut(ids[0]) {
        *ptr = Value::Global(GlobalId(99));
    } else {
        panic!("expected store");
    }
    expect_bad_program(&m, "bad global id");
}

/// Calls to missing internal functions and unresolvable external
/// symbols trap identically.
#[test]
fn bad_callee_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    *m.func_mut(fid).inst_mut(ids[3]) = Inst::Call {
        callee: FuncRef::Internal(oraql_suite::ir::module::FunctionId(99)),
        args: vec![],
        ret: None,
        kind: oraql_suite::ir::inst::CallKind::Plain,
    };
    expect_bad_program(&m, "missing internal callee");

    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    *m.func_mut(fid).inst_mut(ids[3]) = Inst::Call {
        callee: FuncRef::External(StrId(999)),
        args: vec![],
        ret: None,
        kind: oraql_suite::ir::inst::CallKind::Plain,
    };
    expect_bad_program(&m, "bad external symbol id");
}

/// Malformed IR also fails machine lowering with an error — the spill
/// and operand-indexing paths in `machine.rs` must not panic either.
#[test]
fn machine_lowering_rejects_malformed_ir() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    if let Inst::Print { args, .. } = m.func_mut(fid).inst_mut(ids[3]) {
        args[0] = Value::Inst(InstId(999));
    } else {
        panic!("expected print");
    }
    assert!(lower_function(&m, fid, None).is_err(), "bad operand id");

    let (mut m, _) = well_formed();
    let fid = m.find_func("main").unwrap();
    m.func_mut(fid)
        .malformed_block_list(BlockId(0))
        .insert(2, InstId(999));
    assert!(lower_function(&m, fid, None).is_err(), "bad block-list id");

    // Well-formed modules still lower, including under register
    // pressure that forces spills.
    let (m, _) = well_formed();
    let fid = m.find_func("main").unwrap();
    assert!(lower_function(&m, fid, None).is_ok());
    assert!(lower_function(&m, fid, Some(1)).is_ok());
}

// ---- typed programs: vectors, narrow types, scaled GEPs, memcpy --------

/// One step of a typed kernel body: the shapes the decoded executor
/// handles on its (tag, bits) fast paths next to the ones it leaves to
/// the generic path (vectors, narrow integers, f32), and phi swaps whose
/// copies must be staged.
#[derive(Debug, Clone)]
enum TStep {
    /// `slots[dst][0..2] = slots[a][0..2] op slots[b][2..4] op splat`,
    /// in integer or float lanes.
    VecBin {
        dst: usize,
        a: usize,
        b: usize,
        float: bool,
    },
    /// A vector select on `slots[a][0] < k`, stored to `slots[dst]`.
    VecSelect {
        dst: usize,
        a: usize,
        b: usize,
        k: i8,
    },
    /// A diamond whose arms compute vectors, merged by a vector phi.
    VecPhi { dst: usize, src: usize, k: i8 },
    /// A vector passed to and returned from an internal call.
    VecCall { dst: usize, src: usize },
    /// A narrow load, arithmetic and casts, and a narrow store.
    Narrow {
        dst: usize,
        src: usize,
        ty: Ty,
        off: u8,
    },
    /// Scaled GEPs (positive and negative scale) indexed by data, and a
    /// pointer round trip through an integer.
    Scaled { dst: usize, src: usize },
    /// `memcpy` between possibly aliasing slots; `len: None` takes the
    /// length from the data.
    Memcpy {
        dst: usize,
        src: usize,
        doff: u8,
        soff: u8,
        len: Option<u8>,
    },
    /// A loop whose header phis swap two integers and two vectors, so
    /// their copies read phi slots written earlier in the same edge.
    PhiSwap { dst: usize, src: usize, trips: u8 },
    /// Prints a float vector.
    PrintVec { src: usize },
}

const NARROW_TYS: [Ty; 5] = [Ty::I1, Ty::I8, Ty::I16, Ty::I32, Ty::F32];

fn random_tstep(g: &mut Gen) -> TStep {
    let slot = |g: &mut Gen| g.range_usize(0, 4);
    match g.range_u64(0, 9) {
        0 => TStep::VecBin {
            dst: slot(g),
            a: slot(g),
            b: slot(g),
            float: g.bool(),
        },
        1 => TStep::VecSelect {
            dst: slot(g),
            a: slot(g),
            b: slot(g),
            k: g.next_u64() as i8,
        },
        2 => TStep::VecPhi {
            dst: slot(g),
            src: slot(g),
            k: g.next_u64() as i8,
        },
        3 => TStep::VecCall {
            dst: slot(g),
            src: slot(g),
        },
        4 => TStep::Narrow {
            dst: slot(g),
            src: slot(g),
            ty: *g.pick(&NARROW_TYS),
            off: g.range_u64(0, 4) as u8,
        },
        5 => TStep::Scaled {
            dst: slot(g),
            src: slot(g),
        },
        6 => TStep::Memcpy {
            dst: slot(g),
            src: slot(g),
            doff: g.range_u64(0, 17) as u8,
            soff: g.range_u64(0, 17) as u8,
            len: g.bool().then(|| g.range_u64(0, 16) as u8),
        },
        7 => TStep::PhiSwap {
            dst: slot(g),
            src: slot(g),
            trips: g.range_u64(0, 4) as u8,
        },
        _ => TStep::PrintVec { src: slot(g) },
    }
}

/// One of each step kind, for the fuel sweep.
fn every_tstep() -> Vec<TStep> {
    let mut steps = vec![
        TStep::VecBin {
            dst: 0,
            a: 1,
            b: 2,
            float: false,
        },
        TStep::VecBin {
            dst: 3,
            a: 0,
            b: 1,
            float: true,
        },
        TStep::VecSelect {
            dst: 2,
            a: 1,
            b: 3,
            k: 9,
        },
        TStep::VecPhi {
            dst: 1,
            src: 2,
            k: 4,
        },
        TStep::VecCall { dst: 0, src: 3 },
    ];
    for (i, &ty) in NARROW_TYS.iter().enumerate() {
        steps.push(TStep::Narrow {
            dst: i % 4,
            src: (i + 1) % 4,
            ty,
            off: i as u8 % 4,
        });
    }
    steps.extend([
        TStep::Scaled { dst: 2, src: 0 },
        TStep::Memcpy {
            dst: 0,
            src: 2,
            doff: 3,
            soff: 5,
            len: Some(11),
        },
        TStep::Memcpy {
            dst: 1,
            src: 1,
            doff: 0,
            soff: 9,
            len: None,
        },
        TStep::PhiSwap {
            dst: 3,
            src: 1,
            trips: 3,
        },
        TStep::PrintVec { src: 2 },
    ]);
    steps
}

/// Internal functions the typed steps call.
#[derive(Clone, Copy)]
struct Helpers {
    /// `vtwice(v: <2 x i64>) -> <2 x i64>`: `v + v`.
    vtwice: FunctionId,
}

fn emit_tstep(b: &mut FunctionBuilder, slots: &[Value], h: Helpers, step: &TStep) {
    use oraql_suite::ir::inst::{BinOp, CastKind, CmpPred};
    let vi = Ty::VecI64(2);
    match *step {
        TStep::VecBin {
            dst,
            a,
            b: bb,
            float,
        } => {
            let (vt, st, op) = if float {
                (Ty::VecF64(2), Ty::F64, BinOp::FAdd)
            } else {
                (vi, Ty::I64, BinOp::Add)
            };
            let va = b.load(vt, slots[a]);
            let pb = b.gep(slots[bb], 16);
            let vb = b.load(vt, pb);
            let s = b.load(st, slots[bb]);
            let splat = b.cast(CastKind::Splat, s, vt);
            let r = b.bin(op, vt, va, vb);
            let r = b.bin(op, vt, r, splat);
            b.store(vt, r, slots[dst]);
        }
        TStep::VecSelect { dst, a, b: bb, k } => {
            let va = b.load(vi, slots[a]);
            let pb = b.gep(slots[bb], 16);
            let vb = b.load(vi, pb);
            let x = b.load(Ty::I64, slots[a]);
            let c = b.cmp(CmpPred::Lt, Ty::I64, x, Value::ConstInt(k as i64));
            let v = b.select(vi, c, va, vb);
            let pd = b.gep(slots[dst], 16);
            b.store(vi, v, pd);
        }
        TStep::VecPhi { dst, src, k } => {
            let x = b.load(Ty::I64, slots[src]);
            let c = b.cmp(CmpPred::Ge, Ty::I64, x, Value::ConstInt(k as i64));
            let then_bb = b.new_block();
            let else_bb = b.new_block();
            let merge = b.new_block();
            b.cond_br(c, then_bb, else_bb);
            b.switch_to(then_bb);
            let t = b.load(vi, slots[src]);
            b.br(merge);
            b.switch_to(else_bb);
            let p = b.gep(slots[src], 16);
            let e = b.load(vi, p);
            let e = b.bin(BinOp::Mul, vi, e, e);
            b.br(merge);
            b.switch_to(merge);
            let phi = b.phi(vi, vec![(then_bb, t), (else_bb, e)]);
            b.store(vi, phi, slots[dst]);
        }
        TStep::VecCall { dst, src } => {
            let v = b.load(vi, slots[src]);
            let r = b.call(h.vtwice, vec![v], Some(vi)).expect("vtwice returns");
            let pd = b.gep(slots[dst], 16);
            b.store(vi, r, pd);
        }
        TStep::Narrow { dst, src, ty, off } => {
            let off = off as i64 * ty.size() as i64;
            let p = b.gep(slots[src], off);
            let v = b.load(ty, p);
            let r = if ty == Ty::F32 {
                let d = b.fmul(v, Value::const_f64(1.5));
                let r = b.cast(CastKind::FpCast, d, Ty::F32);
                let i = b.cast(CastKind::FpToSi, r, Ty::I64);
                let f = b.cast(CastKind::SiToFp, i, Ty::F64);
                b.print("n{} {}", vec![i, f]);
                r
            } else {
                let w = b.mul(v, Value::ConstInt(3));
                let w = b.add(w, Value::ConstInt(100));
                let w = b.cast(CastKind::Ext, w, Ty::I64);
                b.cast(CastKind::Trunc, w, ty)
            };
            b.print("n{}", vec![r]);
            let q = b.gep(slots[dst], off + ty.size() as i64);
            b.store(ty, r, q);
        }
        TStep::Scaled { dst, src } => {
            let x = b.load(Ty::I64, slots[src]);
            let i = b.bin(BinOp::And, Ty::I64, x, Value::ConstInt(3));
            let p = b.gep_scaled(slots[dst], i, 8, 0);
            let v = b.load(Ty::I64, p);
            let v = b.add(v, i);
            b.store(Ty::I64, v, p);
            let top = b.gep(slots[dst], 24);
            let q = b.gep_scaled(top, i, -8, 0);
            let w = b.load(Ty::I64, q);
            let a = b.cast(CastKind::PtrToInt, slots[dst], Ty::I64);
            let a = b.add(a, Value::ConstInt(8));
            let r = b.cast(CastKind::IntToPtr, a, Ty::Ptr);
            let z = b.load(Ty::I64, r);
            b.print("g{} {}", vec![w, z]);
        }
        TStep::Memcpy {
            dst,
            src,
            doff,
            soff,
            len,
        } => {
            let d = b.gep(slots[dst], doff as i64);
            let s = b.gep(slots[src], soff as i64);
            let n = match len {
                Some(n) => Value::ConstInt(n as i64),
                None => {
                    let x = b.load(Ty::I64, slots[src]);
                    b.bin(BinOp::And, Ty::I64, x, Value::ConstInt(15))
                }
            };
            b.memcpy(d, s, n);
        }
        TStep::PhiSwap { dst, src, trips } => {
            let x0 = b.load(Ty::I64, slots[src]);
            let p = b.gep(slots[src], 8);
            let y0 = b.load(Ty::I64, p);
            let p = b.gep(slots[src], 16);
            let v0 = b.load(vi, p);
            let w0 = b.bin(BinOp::Add, vi, v0, v0);
            let pre = b.current_block();
            let header = b.new_block();
            let body = b.new_block();
            let exit = b.new_block();
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Ty::I64, vec![(pre, Value::ConstInt(0))]);
            let x = b.phi(Ty::I64, vec![(pre, x0)]);
            let y = b.phi(Ty::I64, vec![(pre, y0)]);
            let v = b.phi(vi, vec![(pre, v0)]);
            let w = b.phi(vi, vec![(pre, w0)]);
            let c = b.cmp(CmpPred::Lt, Ty::I64, i, Value::ConstInt(trips as i64));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let i1 = b.add(i, Value::ConstInt(1));
            b.br(header);
            b.add_phi_incoming(i, body, i1);
            b.add_phi_incoming(x, body, y);
            b.add_phi_incoming(y, body, x);
            b.add_phi_incoming(v, body, w);
            b.add_phi_incoming(w, body, v);
            b.switch_to(exit);
            b.print("s{} {}", vec![x, y]);
            b.store(vi, w, slots[dst]);
        }
        TStep::PrintVec { src } => {
            let v = b.load(Ty::VecF64(2), slots[src]);
            b.print("v{}", vec![v]);
        }
    }
}

/// An operand whose runtime type does not match its op. Most trap, and
/// the decoded executor must raise the tree-walk's error, text included;
/// the rest are legal mixes that compute a value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mismatch {
    FaddOnInts,
    AddOnFloats,
    FaddAsF32,
    MulOnPtr,
    PtrPlusInt,
    CmpIntFloat,
    CmpVectors,
    SelectOnFloat,
    StoreFloatAsI64,
    StoreIntAsPtr,
    StoreIntAsF32,
    GepOnInt,
    GepIndexFloat,
    LoadViaFloat,
    SqrtOfInt,
    PowOneArg,
    TruncOfFloat,
    VecStoreWrongLanes,
    VecBinMixed,
    SplatOfPtr,
    ExtOfPtr,
    CondBrOnPtr,
    MemcpyFloatLen,
    UndefOperand,
}

const MISMATCHES: [Mismatch; 24] = [
    Mismatch::FaddOnInts,
    Mismatch::AddOnFloats,
    Mismatch::FaddAsF32,
    Mismatch::MulOnPtr,
    Mismatch::PtrPlusInt,
    Mismatch::CmpIntFloat,
    Mismatch::CmpVectors,
    Mismatch::SelectOnFloat,
    Mismatch::StoreFloatAsI64,
    Mismatch::StoreIntAsPtr,
    Mismatch::StoreIntAsF32,
    Mismatch::GepOnInt,
    Mismatch::GepIndexFloat,
    Mismatch::LoadViaFloat,
    Mismatch::SqrtOfInt,
    Mismatch::PowOneArg,
    Mismatch::TruncOfFloat,
    Mismatch::VecStoreWrongLanes,
    Mismatch::VecBinMixed,
    Mismatch::SplatOfPtr,
    Mismatch::ExtOfPtr,
    Mismatch::CondBrOnPtr,
    Mismatch::MemcpyFloatLen,
    Mismatch::UndefOperand,
];

impl Mismatch {
    /// Whether the mix is legal (computes a value) rather than a trap.
    fn computes(self) -> bool {
        matches!(
            self,
            Mismatch::FaddAsF32
                | Mismatch::PtrPlusInt
                | Mismatch::CmpIntFloat
                | Mismatch::CmpVectors
                | Mismatch::ExtOfPtr
        )
    }
}

fn emit_mismatch(b: &mut FunctionBuilder, slots: &[Value], m: Mismatch) {
    use oraql_suite::ir::inst::{BinOp, CastKind, CmpPred};
    let vi = Ty::VecI64(2);
    let int = b.load(Ty::I64, slots[0]);
    let float = b.si_to_fp(int);
    let ptr = slots[1];
    let r = match m {
        Mismatch::FaddOnInts => b.bin(BinOp::FAdd, Ty::I64, int, int),
        Mismatch::AddOnFloats => b.bin(BinOp::Add, Ty::I64, float, float),
        Mismatch::FaddAsF32 => b.bin(BinOp::FAdd, Ty::F32, float, float),
        Mismatch::MulOnPtr => b.bin(BinOp::Mul, Ty::I64, ptr, int),
        Mismatch::PtrPlusInt => {
            let p = b.bin(BinOp::Add, Ty::I64, ptr, Value::ConstInt(8));
            b.load(Ty::I64, p)
        }
        Mismatch::CmpIntFloat => {
            let lt = b.cmp(CmpPred::Lt, Ty::I64, int, float);
            let ne = b.cmp(CmpPred::Ne, Ty::I64, int, float);
            b.add(lt, ne)
        }
        Mismatch::CmpVectors => {
            let v = b.load(vi, ptr);
            b.cmp(CmpPred::Eq, vi, v, v)
        }
        Mismatch::SelectOnFloat => b.select(Ty::I64, float, int, int),
        Mismatch::StoreFloatAsI64 => {
            b.store(Ty::I64, float, ptr);
            int
        }
        Mismatch::StoreIntAsPtr => {
            b.store(Ty::Ptr, int, ptr);
            int
        }
        Mismatch::StoreIntAsF32 => {
            b.store(Ty::F32, int, ptr);
            int
        }
        Mismatch::GepOnInt => b.gep(int, 8),
        Mismatch::GepIndexFloat => b.gep_scaled(ptr, float, 8, 0),
        Mismatch::LoadViaFloat => b.load(Ty::I64, float),
        Mismatch::SqrtOfInt => b
            .call_external("sqrt", vec![int], Some(Ty::F64))
            .expect("sqrt returns"),
        Mismatch::PowOneArg => b
            .call_external("pow", vec![float], Some(Ty::F64))
            .expect("pow returns"),
        Mismatch::TruncOfFloat => b.cast(CastKind::Trunc, float, Ty::I32),
        Mismatch::VecStoreWrongLanes => {
            let v = b.load(vi, ptr);
            b.store(Ty::VecI64(4), v, ptr);
            int
        }
        Mismatch::VecBinMixed => {
            let v = b.load(vi, ptr);
            let w = b.load(Ty::VecF64(2), ptr);
            b.bin(BinOp::Add, vi, v, w)
        }
        Mismatch::SplatOfPtr => b.cast(CastKind::Splat, ptr, vi),
        Mismatch::ExtOfPtr => b.cast(CastKind::Ext, ptr, Ty::I64),
        Mismatch::CondBrOnPtr => {
            let then_bb = b.new_block();
            let merge = b.new_block();
            b.cond_br(ptr, then_bb, merge);
            b.switch_to(then_bb);
            b.br(merge);
            b.switch_to(merge);
            int
        }
        Mismatch::MemcpyFloatLen => {
            b.memcpy(ptr, ptr, float);
            int
        }
        Mismatch::UndefOperand => b.add(Value::Undef, int),
    };
    b.print("x{}", vec![r]);
}

/// A typed program: [`build_random_program`]'s four global buffers,
/// wiring, loop and parallel region, with a body of typed steps and at
/// most one mismatch inserted before step `at`.
fn build_typed_program(
    steps: &[TStep],
    mismatch: Option<(usize, Mismatch)>,
    wiring: [u8; 2],
    loop_trip: u8,
    threads: u32,
) -> Module {
    let mut m = Module::new("typed");
    let vi = Ty::VecI64(2);
    let vtwice = {
        let mut b = FunctionBuilder::new(&mut m, "vtwice", vec![vi], Some(vi));
        let v = b.arg(0);
        let r = b.bin(oraql_suite::ir::inst::BinOp::Add, vi, v, v);
        b.ret(Some(r));
        b.finish()
    };
    let h = Helpers { vtwice };
    let kern = {
        let mut b = FunctionBuilder::new(&mut m, "kernel", vec![Ty::I64, Ty::Ptr, Ty::Ptr], None);
        let slots: Vec<Value> = vec![b.arg(1), b.arg(2), b.arg(1), b.arg(2)];
        let body = |b: &mut FunctionBuilder| {
            for (i, s) in steps.iter().enumerate() {
                if let Some((_, m)) = mismatch.filter(|&(at, _)| at == i) {
                    emit_mismatch(b, &slots, m);
                }
                emit_tstep(b, &slots, h, s);
            }
            if let Some((_, m)) = mismatch.filter(|&(at, _)| at >= steps.len()) {
                emit_mismatch(b, &slots, m);
            }
        };
        if loop_trip > 0 {
            b.counted_loop(
                Value::ConstInt(0),
                Value::ConstInt(loop_trip as i64),
                |b, _| body(b),
            );
        } else {
            body(&mut b);
        }
        b.ret(None);
        b.finish()
    };
    let g = m.add_global("buffers", 4 * 32, vec![], false);
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    for i in 0..16i64 {
        let p = b.gep(Value::Global(g), 8 * i);
        b.store(Ty::I64, Value::ConstInt(i * 7 - 40), p);
    }
    let args: Vec<Value> = wiring
        .iter()
        .map(|&w| b.gep(Value::Global(g), 32 * (w as i64 % 4)))
        .collect();
    if threads > 1 {
        b.parallel_region(kern, args, threads);
    } else {
        let mut full = vec![Value::ConstInt(0)];
        full.extend(args);
        b.call(kern, full, None);
    }
    for i in 0..16i64 {
        let p = b.gep(Value::Global(g), 8 * i);
        let v = b.load(Ty::I64, p);
        b.print("{}", vec![v]);
    }
    b.ret(None);
    b.finish();
    m
}

/// Random typed programs agree in both modes at a generous budget and
/// at budgets that run out mid-block; a third of them also carry one
/// mismatched operand.
#[test]
fn fuzz_differential_typed_programs() {
    let (mut trapped, mut completed) = (0, 0);
    for seed in 0..64u64 {
        let mut g = Gen::new(0x7e57 + seed);
        let n = g.range_usize(1, 10);
        let steps: Vec<TStep> = (0..n).map(|_| random_tstep(&mut g)).collect();
        let mismatch = g
            .chance(1, 3)
            .then(|| (g.range_usize(0, n + 1), *g.pick(&MISMATCHES)));
        let wiring = [g.range_u64(0, 4) as u8, g.range_u64(0, 4) as u8];
        let loop_trip = g.range_u64(0, 3) as u8;
        let threads = g.range_u64(1, 3) as u32;
        let m = build_typed_program(&steps, mismatch, wiring, loop_trip, threads);
        for fuel in [1_000_000u64, 41, 9] {
            let (result, _, _) = assert_modes_agree(&m, fuel, &format!("seed {seed} fuel {fuel}"));
            if fuel == 1_000_000 {
                match result {
                    Ok(_) => completed += 1,
                    Err(_) => trapped += 1,
                }
            }
        }
    }
    assert!(
        completed > 32 && trapped > 4,
        "{completed} completed, {trapped} trapped"
    );
}

/// Every fuel budget from zero to past the end of a program holding
/// each typed step kind, with and without a trap after the last step:
/// the batched accounting must cut at the tree-walk's instruction and
/// leave its statistics, including when an op faults mid-segment.
#[test]
fn fuel_boundary_sweep_typed() {
    let steps = every_tstep();
    for mismatch in [None, Some((steps.len(), Mismatch::VecBinMixed))] {
        let m = build_typed_program(&steps, mismatch, [0, 1], 2, 2);
        let (result, _, stats) = assert_modes_agree(&m, DEFAULT_TEST_FUEL, "full run");
        assert_eq!(result.is_ok(), mismatch.is_none(), "{result:?}");
        let total = stats.total_insts();
        assert!(total > 150, "{total} instructions");
        for fuel in 0..=total + 1 {
            let _ = assert_modes_agree(&m, fuel, &format!("{mismatch:?} fuel {fuel}"));
        }
    }
}

const DEFAULT_TEST_FUEL: u64 = 1_000_000;

/// Each mismatched operand on its own: the traps raise the tree-walk's
/// error in both modes and the legal mixes compute the same value.
#[test]
fn mismatched_operand_types_agree() {
    let steps = [TStep::PrintVec { src: 0 }];
    for m in MISMATCHES {
        let module = build_typed_program(&steps, Some((0, m)), [0, 1], 0, 1);
        let (result, stdout, _) = assert_modes_agree(&module, DEFAULT_TEST_FUEL, &format!("{m:?}"));
        assert_eq!(result.is_ok(), m.computes(), "{m:?}: {result:?}");
        if m.computes() {
            assert!(stdout.starts_with('x'), "{m:?}: {stdout}");
        }
    }
}

// ---- address-space edge cases -----------------------------------------

/// `main` running `body` against a 16-byte global, for the memory traps.
fn with_global(body: impl FnOnce(&mut FunctionBuilder, Value)) -> Module {
    let mut m = Module::new("mem");
    let g = m.add_global("g", 16, vec![], false);
    let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
    body(&mut b, Value::Global(g));
    b.print("unreachable", vec![]);
    b.ret(None);
    b.finish();
    m
}

fn expect_mem_error(m: &Module, want: MemError, ctx: &str) {
    let (result, _, _) = assert_modes_agree(m, DEFAULT_TEST_FUEL, ctx);
    assert_eq!(result, Err(RuntimeError::Mem(want)), "{ctx}");
}

/// An address that wraps past 2^64, a huge alloca and a huge memcpy
/// trap as memory errors in both modes instead of panicking or
/// aborting the process.
#[test]
fn address_space_edge_cases_trap() {
    // 6 bytes below 2^64: `addr + 8` wraps into the global segment.
    let m = with_global(|b, g| {
        let p = b.gep(g, -0x10006);
        b.load(Ty::I64, p);
    });
    let addr = 0u64.wrapping_sub(6);
    expect_mem_error(&m, MemError::OutOfBounds { addr, size: 8 }, "wrapped load");
    let m = with_global(|b, g| {
        let p = b.gep(g, -0x10006);
        b.store(Ty::I64, Value::ConstInt(1), p);
    });
    expect_mem_error(&m, MemError::OutOfBounds { addr, size: 8 }, "wrapped store");

    let m = with_global(|b, _| {
        let p = b.alloca(u64::MAX - 3, "huge");
        b.store(Ty::I64, Value::ConstInt(1), p);
    });
    expect_mem_error(&m, MemError::StackOverflow, "huge alloca");

    let m = with_global(|b, g| {
        b.memcpy(g, g, Value::ConstInt(1 << 40));
    });
    let addr = GLOBAL_BASE;
    expect_mem_error(
        &m,
        MemError::OutOfBounds {
            addr,
            size: 1 << 40,
        },
        "huge memcpy",
    );
}

/// `pow` with one argument is a `BadProgram`, like the unary externals
/// called with none.
#[test]
fn pow_with_too_few_args_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    let pow = m.strings.intern("pow");
    *m.func_mut(fid).inst_mut(ids[3]) = Inst::Call {
        callee: FuncRef::External(pow),
        args: vec![Value::const_f64(2.0)],
        ret: Some(Ty::F64),
        kind: oraql_suite::ir::inst::CallKind::Plain,
    };
    let (result, _, _) = assert_modes_agree(&m, DEFAULT_TEST_FUEL, "pow with 1 arg");
    assert_eq!(
        result,
        Err(RuntimeError::BadProgram("pow needs 2 args".into()))
    );
}

// ---- the CI gen plan ----------------------------------------------------

/// The generated corpus the CI smoke runs executes identically in both
/// modes: raw, baseline-compiled and all-optimistic-compiled.
#[test]
fn gen_corpus_differential_ci_plan() {
    let plan = GenPlan::parse("seed=2024,cases=64,per=3").expect("plan");
    let (cases, _) = oraql_suite::gen::suite(&plan);
    assert_eq!(cases.len(), 64);
    let mut miscompiled = 0;
    for case in &cases {
        let raw = (case.build)();
        let _ = assert_modes_agree(&raw, case.fuel, &format!("{} (raw)", case.name));
        let compiled = compile(&*case.build, &CompileOptions::baseline());
        let (_, reference, _) = assert_modes_agree(
            &compiled.module,
            case.fuel,
            &format!("{} (baseline-compiled)", case.name),
        );
        let optimistic = compile(
            &*case.build,
            &case.oraql_options(Decisions::all_optimistic()),
        );
        let (result, stdout, _) = assert_modes_agree(
            &optimistic.module,
            case.fuel,
            &format!("{} (all-optimistic)", case.name),
        );
        let mut references = vec![reference];
        references.extend(case.extra_references.iter().cloned());
        let verifier = Verifier::new(references, &case.ignore_patterns);
        miscompiled += (result.is_err() || verifier.check(&stdout).is_err()) as usize;
    }
    // The motifs plant aliasing pairs, so answering every query
    // optimistically must break some cases: the modes were compared on
    // wrong programs too.
    assert!(miscompiled > 0, "no generated case miscompiled");
}
