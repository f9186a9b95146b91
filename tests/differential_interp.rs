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
//!    identically in both modes instead of panicking.

mod common;

use common::Gen;
use oraql_suite::ir::builder::FunctionBuilder;
use oraql_suite::ir::inst::{FuncRef, Inst, InstId};
use oraql_suite::ir::interner::StrId;
use oraql_suite::ir::{BlockId, GlobalId, Module, Ty, Value};
use oraql_suite::oraql::compile::{compile, CompileOptions};
use oraql_suite::oraql::{Decisions, Verifier};
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
        let probe = CompileOptions {
            oraql: Some((Decisions::all_optimistic(), case.scope.clone())),
            use_cfl: case.use_cfl,
            optimism: case.optimism,
            ..CompileOptions::default()
        };
        let optimistic = compile(&*case.build, &probe);
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
    let ids = (0..m.func(fid).insts.len() as u32).map(InstId).collect();
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
    if let Inst::Print { args, .. } = &mut m.func_mut(fid).insts[ids[3].0 as usize].inst {
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
    m.func_mut(fid).blocks[0].insts.insert(2, InstId(999));
    expect_bad_program(&m, "bad block-list id");
}

/// An executed `Removed` placeholder traps instead of panicking.
#[test]
fn removed_instruction_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    m.func_mut(fid).insts[ids[0].0 as usize].inst = Inst::Removed;
    expect_bad_program(&m, "executed Removed");
}

/// Branch to a block id the function does not have.
#[test]
fn branch_to_missing_block_traps() {
    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    m.func_mut(fid).insts[ids[4].0 as usize].inst = Inst::Br {
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
    if let Inst::Print { fmt, .. } = &mut m.func_mut(fid).insts[ids[3].0 as usize].inst {
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
    if let Inst::Store { ptr, .. } = &mut m.func_mut(fid).insts[ids[0].0 as usize].inst {
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
    m.func_mut(fid).insts[ids[3].0 as usize].inst = Inst::Call {
        callee: FuncRef::Internal(oraql_suite::ir::module::FunctionId(99)),
        args: vec![],
        ret: None,
        kind: oraql_suite::ir::inst::CallKind::Plain,
    };
    expect_bad_program(&m, "missing internal callee");

    let (mut m, ids) = well_formed();
    let fid = m.find_func("main").unwrap();
    m.func_mut(fid).insts[ids[3].0 as usize].inst = Inst::Call {
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
    if let Inst::Print { args, .. } = &mut m.func_mut(fid).insts[ids[3].0 as usize].inst {
        args[0] = Value::Inst(InstId(999));
    } else {
        panic!("expected print");
    }
    assert!(lower_function(&m, fid, None).is_err(), "bad operand id");

    let (mut m, _) = well_formed();
    let fid = m.find_func("main").unwrap();
    m.func_mut(fid).blocks[0].insts.insert(2, InstId(999));
    assert!(lower_function(&m, fid, None).is_err(), "bad block-list id");

    // Well-formed modules still lower, including under register
    // pressure that forces spills.
    let (m, _) = well_formed();
    let fid = m.find_func("main").unwrap();
    assert!(lower_function(&m, fid, None).is_ok());
    assert!(lower_function(&m, fid, Some(1)).is_ok());
}
