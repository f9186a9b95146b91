//! Mini machine backend: block linearization, live intervals, linear-scan
//! register allocation and stack-frame layout.
//!
//! This produces the *static* code properties the paper reports:
//! `# machine instructions generated` (Fig. 6, "asm printer"),
//! `# register spills inserted` (Fig. 6, "register allocation") and the
//! per-kernel `# registers` / `# bytes stack frame` of Fig. 7. Better
//! alias information changes these numbers indirectly: eliminated and
//! hoisted loads change live ranges and therefore pressure, spills and
//! instruction counts — the same indirect mechanism the paper observes.

use oraql_ir::inst::{Inst, InstId};
use oraql_ir::meta::Target;
use oraql_ir::module::{FunctionId, Module};
use oraql_ir::value::Value;

/// Register-file size modelled for host code (x86-64 GPR-ish).
pub const HOST_REGS: u32 = 16;
/// Register-file size modelled for device code. Real CUDA allows up to
/// 255 registers per thread; we model the register budget of a
/// high-occupancy launch (and our kernels are miniature), so a smaller
/// file keeps spill behaviour observable at this scale.
pub const DEVICE_REGS: u32 = 24;

/// Static properties of one lowered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSummary {
    /// Function name.
    pub name: String,
    /// Number of physical registers used (peak live pressure, capped by
    /// the register file).
    pub registers: u32,
    /// Stack frame size in bytes: allocas plus spill slots.
    pub stack_bytes: u64,
    /// Number of machine instructions after expansion, including spill
    /// code.
    pub machine_insts: u64,
    /// Register spills inserted.
    pub spills: u32,
}

/// Why lowering a function failed. Lowering runs on every probe
/// variant, including adversarially miscompiled ones, so structural
/// problems must surface as errors rather than panics that would
/// abort the probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// Structurally malformed IR (out-of-range instruction or block
    /// ids).
    BadIr(String),
    /// Linear scan lost track of the farthest-end interval while
    /// selecting a spill candidate (an allocator invariant violation).
    SpillSelection {
        /// Function being lowered.
        name: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::BadIr(s) => write!(f, "malformed IR: {s}"),
            LowerError::SpillSelection { name } => {
                write!(f, "spill selection lost the farthest interval in {name}")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Expansion factor of one IR instruction into machine instructions.
fn expansion(inst: &Inst) -> u64 {
    match inst {
        Inst::Removed | Inst::Alloca { .. } => 0, // folded into the frame
        Inst::Phi { .. } => 1,                    // a move after critical-edge splitting
        Inst::Select { .. } => 2,                 // cmp + cmov
        Inst::Call { args, .. } => 1 + args.len() as u64,
        Inst::Print { args, .. } => 2 + args.len() as u64,
        Inst::Memcpy { .. } => 4,
        Inst::CondBr { .. } => 2,
        _ => 1,
    }
}

/// Lowers `fid` and reports its static machine properties.
///
/// The register budget defaults by target ([`HOST_REGS`] /
/// [`DEVICE_REGS`]); pass `Some(k)` to override (used by tests).
/// Malformed IR yields a [`LowerError`] instead of panicking.
pub fn lower_function(
    m: &Module,
    fid: FunctionId,
    regs: Option<u32>,
) -> Result<MachineSummary, LowerError> {
    let f = m
        .get_func(fid)
        .ok_or_else(|| LowerError::BadIr(format!("missing function f{}", fid.0)))?;
    let k = regs.unwrap_or(match f.target {
        Target::Host => HOST_REGS,
        Target::Device => DEVICE_REGS,
    });

    // 0. Validate every id the lowering will index with, so the passes
    //    below can use plain indexing on a known-consistent function.
    for (b, block) in f.blocks().iter().enumerate() {
        for &id in &block.insts {
            let inst = f.get_inst(id).ok_or_else(|| {
                LowerError::BadIr(format!(
                    "instruction id %{} out of range in {} bb{}",
                    id.0, f.name, b
                ))
            })?;
            if let Inst::Phi { incoming, .. } = inst {
                for (bb, _) in incoming {
                    if bb.0 as usize >= f.blocks().len() {
                        return Err(LowerError::BadIr(format!(
                            "phi %{} of {} references missing block bb{}",
                            id.0, f.name, bb.0
                        )));
                    }
                }
            }
            let mut operand_err = None;
            inst.for_each_operand(|v| {
                if operand_err.is_some() {
                    return;
                }
                match v {
                    Value::Inst(i) if i.0 as usize >= f.insts().len() => {
                        operand_err = Some(format!(
                            "instruction id %{} out of range in {} bb{}",
                            i.0, f.name, b
                        ));
                    }
                    Value::Arg(a) if a as usize >= f.params.len() => {
                        operand_err =
                            Some(format!("argument {} out of range in {} bb{}", a, f.name, b));
                    }
                    _ => {}
                }
            });
            if let Some(msg) = operand_err {
                return Err(LowerError::BadIr(msg));
            }
        }
    }

    // 1. Linearize: position of every live instruction in block order.
    let mut pos_of = vec![usize::MAX; f.insts().len()];
    let mut order: Vec<InstId> = Vec::new();
    for block in f.blocks() {
        for &id in &block.insts {
            pos_of[id.0 as usize] = order.len();
            order.push(id);
        }
    }
    let block_end: Vec<usize> = f
        .blocks()
        .iter()
        .map(|b| b.insts.last().map(|&i| pos_of[i.0 as usize]).unwrap_or(0))
        .collect();

    // 2. Live intervals [def, last_use] per value (args def at 0). A use
    //    inside a phi is charged at the end of the incoming block, which
    //    approximates liveness across back edges.
    let n_vals = f.insts().len() + f.params.len();
    let val_index = |v: Value| -> Option<usize> {
        match v {
            Value::Inst(i) => Some(i.0 as usize),
            Value::Arg(a) => Some(f.insts().len() + a as usize),
            _ => None,
        }
    };
    let mut start = vec![usize::MAX; n_vals];
    let mut end = vec![0usize; n_vals];
    for a in 0..f.params.len() {
        start[f.insts().len() + a] = 0;
    }
    for &id in &order {
        let p = pos_of[id.0 as usize];
        let inst = f.inst(id);
        if inst.result_ty().is_some() {
            let vi = id.0 as usize;
            start[vi] = start[vi].min(p);
            end[vi] = end[vi].max(p);
        }
        match inst {
            Inst::Phi { incoming, .. } => {
                for (bb, v) in incoming {
                    if let Some(vi) = val_index(*v) {
                        let use_pos = block_end[bb.0 as usize];
                        end[vi] = end[vi].max(use_pos);
                        start[vi] = start[vi].min(use_pos);
                    }
                }
            }
            _ => {
                inst.for_each_operand(|v| {
                    if let Some(vi) = val_index(v) {
                        end[vi] = end[vi].max(p);
                        start[vi] = start[vi].min(p);
                    }
                });
            }
        }
    }

    // 3. Linear scan: peak pressure and farthest-end spilling.
    let mut intervals: Vec<(usize, usize)> = (0..n_vals)
        .filter(|&i| start[i] != usize::MAX && end[i] >= start[i])
        .map(|i| (start[i], end[i]))
        .collect();
    intervals.sort_unstable();
    let mut active: Vec<usize> = Vec::new(); // interval end positions
    let mut peak: u32 = 0;
    let mut spills: u32 = 0;
    for &(s, e) in &intervals {
        active.retain(|&ae| ae >= s);
        if active.len() as u32 == k {
            // Spill the interval with the farthest end (it, or us).
            let far = active.iter().copied().max().unwrap_or(e).max(e);
            spills += 1;
            if far != e {
                // Evict the farthest and take its place. `far` was
                // taken from `active` (it differs from `e`, so the
                // max() chain picked an active end); its absence means
                // the allocator state is corrupt, which must be an
                // error, not a panic.
                let idx = active.iter().position(|&ae| ae == far).ok_or_else(|| {
                    LowerError::SpillSelection {
                        name: f.name.clone(),
                    }
                })?;
                active.remove(idx);
                active.push(e);
            }
        } else {
            active.push(e);
        }
        peak = peak.max(active.len() as u32);
    }

    // 4. Frame layout: allocas (16-byte aligned each) plus 8-byte spill
    //    slots.
    let mut frame: u64 = 0;
    for id in f.live_insts() {
        if let Inst::Alloca { size, .. } = f.inst(id) {
            frame += (size + 15) & !15;
        }
    }
    frame += 8 * spills as u64;

    // 5. Instruction count with spill code (a store at the spill, a
    //    reload per later use — approximated as 2 per spill).
    let mut insts: u64 = 0;
    for &id in &order {
        insts += expansion(f.inst(id));
    }
    insts += 2 * spills as u64;

    Ok(MachineSummary {
        name: f.name.clone(),
        registers: peak.min(k),
        stack_bytes: frame,
        machine_insts: insts,
        spills,
    })
}

/// Lowers every function of a target once and sums the two Fig. 6
/// statistics: `(machine instructions, register spills)`, the "asm
/// printer: # machine instructions generated" and "register allocation:
/// # register spills inserted" counters. Functions that fail to lower
/// contribute nothing (their miscompile surfaces through the runtime
/// verification channel instead).
pub fn module_machine_stats(m: &Module, target: Target) -> (u64, u64) {
    m.funcs_for_target(target)
        .filter_map(|fid| lower_function(m, fid, None).ok())
        .fold((0, 0), |(insts, spills), s| {
            (insts + s.machine_insts, spills + u64::from(s.spills))
        })
}

/// The machine-instruction half of [`module_machine_stats`].
pub fn module_machine_insts(m: &Module, target: Target) -> u64 {
    module_machine_stats(m, target).0
}

/// The register-spill half of [`module_machine_stats`].
pub fn module_spills(m: &Module, target: Target) -> u64 {
    module_machine_stats(m, target).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Edit, Ty, Value};

    #[test]
    fn small_function_uses_few_registers() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], None);
        let p = b.arg(0);
        let x = b.load(Ty::F64, p);
        let y = b.fadd(x, Value::const_f64(1.0));
        b.store(Ty::F64, y, p);
        b.ret(None);
        let id = b.finish();
        let s = lower_function(&m, id, None).unwrap();
        assert!(s.registers <= 4, "{s:?}");
        assert_eq!(s.spills, 0);
        assert_eq!(s.stack_bytes, 0);
        assert!(s.machine_insts >= 4);
    }

    #[test]
    fn high_pressure_spills() {
        // 24 values all live simultaneously with only 8 registers.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], Some(Ty::I64));
        let p = b.arg(0);
        let vals: Vec<Value> = (0..24)
            .map(|i| {
                let a = b.gep(p, 8 * i);
                b.load(Ty::I64, a)
            })
            .collect();
        // Use them all at the end so every interval spans the sums.
        let mut acc = vals[0];
        for v in &vals[1..] {
            acc = b.add(acc, *v);
        }
        b.ret(Some(acc));
        let id = b.finish();
        let s = lower_function(&m, id, Some(8)).unwrap();
        assert!(s.spills > 0, "{s:?}");
        assert_eq!(s.registers, 8);
        assert!(s.stack_bytes >= 8 * s.spills as u64);
    }

    #[test]
    fn allocas_count_toward_frame() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![], None);
        b.alloca(100, "buf"); // rounds to 112
        b.ret(None);
        let id = b.finish();
        let s = lower_function(&m, id, None).unwrap();
        assert_eq!(s.stack_bytes, 112);
    }

    #[test]
    fn eliminating_a_load_reduces_machine_insts() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", vec![Ty::Ptr], Some(Ty::I64));
        let p = b.arg(0);
        let l1 = b.load(Ty::I64, p);
        let l2 = b.load(Ty::I64, p);
        let s = b.add(l1, l2);
        b.ret(Some(s));
        let id = b.finish();
        let before = lower_function(&m, id, None).unwrap().machine_insts;
        // Simulate GVN: replace l2 with l1 and delete the second load.
        let f = m.func_mut(id);
        let l2_id = f.blocks()[0].insts[1];
        f.apply(&[Edit::Replace(l2_id, l1)]);
        let after = lower_function(&m, id, None).unwrap().machine_insts;
        assert_eq!(after, before - 1);
    }

    #[test]
    fn module_stats_sum_one_lowering_per_function() {
        let mut m = Module::new("t");
        for name in ["wide", "small"] {
            let mut b = FunctionBuilder::new(&mut m, name, vec![Ty::Ptr], Some(Ty::I64));
            let p = b.arg(0);
            let n = if name == "wide" { 24 } else { 2 };
            let vals: Vec<Value> = (0..n)
                .map(|i| {
                    let a = b.gep(p, 8 * i);
                    b.load(Ty::I64, a)
                })
                .collect();
            let acc = vals[1..].iter().fold(vals[0], |acc, &v| b.add(acc, v));
            b.ret(Some(acc));
            b.finish();
        }
        let mut b = FunctionBuilder::new(&mut m, "k", vec![], None);
        b.set_target(Target::Device);
        b.ret(None);
        b.finish();
        let lowered: Vec<_> = m
            .funcs_for_target(Target::Host)
            .map(|fid| lower_function(&m, fid, None).unwrap())
            .collect();
        let insts = lowered.iter().map(|s| s.machine_insts).sum::<u64>();
        let spills = lowered.iter().map(|s| u64::from(s.spills)).sum::<u64>();
        assert!(spills > 0);
        let host = module_machine_stats(&m, Target::Host);
        assert_eq!(host, (insts, spills));
        assert_eq!(module_machine_insts(&m, Target::Host), insts);
        assert_eq!(module_spills(&m, Target::Host), spills);
        let device = lower_function(&m, FunctionId(2), None).unwrap();
        assert_eq!(
            module_machine_stats(&m, Target::Device),
            (device.machine_insts, 0)
        );
    }

    #[test]
    fn device_default_register_file() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "k", vec![Ty::Ptr], None);
        b.set_target(Target::Device);
        b.ret(None);
        let id = b.finish();
        // Just exercises the device path.
        let s = lower_function(&m, id, None).unwrap();
        assert_eq!(s.spills, 0);
    }
}
