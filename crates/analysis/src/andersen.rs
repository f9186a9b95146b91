//! Inclusion-based (Andersen-style) interprocedural points-to analysis,
//! standing in for LLVM's `CFLAndersAA`. Field-insensitive,
//! flow-insensitive, context-insensitive; solved with a worklist.

use crate::aa::{AliasAnalysis, QueryCtx};
use crate::constraints::{extract, Constraint, ConstraintSystem, NodeId, ObjId};
use crate::location::{AliasResult, MemoryLocation};
use oraql_ir::module::Module;
use std::collections::{BTreeSet, HashSet};

/// The solved Andersen points-to relation plus the AA adapter.
pub struct AndersenAA {
    sys: ConstraintSystem,
    /// Points-to sets, indexed by node id.
    pts: Vec<BTreeSet<ObjId>>,
    answered: u64,
}

impl AndersenAA {
    /// Extracts constraints from `m` and solves them.
    pub fn new(m: &Module) -> Self {
        let sys = extract(m);
        let pts = solve(&sys);
        AndersenAA {
            sys,
            pts,
            answered: 0,
        }
    }

    /// Immutable access to the constraint system (for diagnostics).
    pub fn system(&self) -> &ConstraintSystem {
        &self.sys
    }
}

/// Solves the constraint system with the standard worklist algorithm.
pub fn solve(sys: &ConstraintSystem) -> Vec<BTreeSet<ObjId>> {
    let n = sys.num_nodes();
    let mut pts: Vec<BTreeSet<ObjId>> = vec![BTreeSet::new(); n];
    // Copy edges: succs[x] = nodes whose pts include pts[x].
    let mut succs: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
    // Complex constraints indexed by the pointer node they dereference.
    let mut loads_at: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut stores_at: Vec<Vec<NodeId>> = vec![Vec::new(); n];

    let mut worklist: Vec<NodeId> = Vec::new();
    for c in &sys.constraints {
        match *c {
            Constraint::AddrOf { lhs, obj } => {
                if pts[lhs as usize].insert(obj) {
                    worklist.push(lhs);
                }
            }
            Constraint::Copy { lhs, rhs } => {
                succs[rhs as usize].insert(lhs);
            }
            Constraint::Load { lhs, ptr } => loads_at[ptr as usize].push(lhs),
            Constraint::Store { ptr, rhs } => stores_at[ptr as usize].push(rhs),
        }
    }
    // Seed propagation along pre-existing copy edges.
    for x in 0..n as NodeId {
        if !pts[x as usize].is_empty() {
            worklist.push(x);
        }
    }

    while let Some(x) = worklist.pop() {
        // Dereference-based edges implied by the current pts of x.
        let objs: Vec<ObjId> = pts[x as usize].iter().copied().collect();
        for o in objs {
            let content = sys.content_node[o as usize];
            for &lhs in &loads_at[x as usize] {
                // lhs ⊇ content
                if succs[content as usize].insert(lhs) {
                    let add: Vec<ObjId> = pts[content as usize].iter().copied().collect();
                    let mut grew = false;
                    for o2 in add {
                        grew |= pts[lhs as usize].insert(o2);
                    }
                    if grew {
                        worklist.push(lhs);
                    }
                }
            }
            for &rhs in &stores_at[x as usize] {
                // content ⊇ rhs
                if succs[rhs as usize].insert(content) {
                    let add: Vec<ObjId> = pts[rhs as usize].iter().copied().collect();
                    let mut grew = false;
                    for o2 in add {
                        grew |= pts[content as usize].insert(o2);
                    }
                    if grew {
                        worklist.push(content);
                    }
                }
            }
        }
        // Plain copy propagation.
        let targets: Vec<NodeId> = succs[x as usize].iter().copied().collect();
        let src: Vec<ObjId> = pts[x as usize].iter().copied().collect();
        for t in targets {
            let mut grew = false;
            for &o in &src {
                grew |= pts[t as usize].insert(o);
            }
            if grew {
                worklist.push(t);
            }
        }
    }
    pts
}

impl AliasAnalysis for AndersenAA {
    fn name(&self) -> &'static str {
        "AndersenAA"
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let (Some(na), Some(nb)) = (
            self.sys.node_of(ctx.func, a.ptr),
            self.sys.node_of(ctx.func, b.ptr),
        ) else {
            // Values created after extraction (by passes): walk to the
            // underlying base and retry once.
            let f = ctx.module.func(ctx.func);
            let node = |ptr| {
                let v = crate::pointer::decompose(f, ptr).base.value()?;
                self.sys.node_of(ctx.func, v)
            };
            match (node(a.ptr), node(b.ptr)) {
                (Some(na), Some(nb)) => return self.decide(na, nb),
                _ => return AliasResult::MayAlias,
            }
        };
        self.decide(na, nb)
    }

    fn stats(&self) -> Vec<(String, u64)> {
        vec![
            ("answered".into(), self.answered),
            ("nodes".into(), self.sys.num_nodes() as u64),
            ("objects".into(), self.sys.objects.len() as u64),
        ]
    }
}

impl AndersenAA {
    fn decide(&mut self, na: NodeId, nb: NodeId) -> AliasResult {
        let pa = &self.pts[na as usize];
        let pb = &self.pts[nb as usize];
        let u = self.sys.universal_obj;
        if pa.is_empty() || pb.is_empty() || pa.contains(&u) || pb.contains(&u) {
            return AliasResult::MayAlias;
        }
        if pa.intersection(pb).next().is_none() {
            self.answered += 1;
            AliasResult::NoAlias
        } else {
            AliasResult::MayAlias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::module::FunctionId;
    use oraql_ir::value::Value;
    use oraql_ir::Ty;

    fn ctx(m: &Module) -> QueryCtx<'_> {
        QueryCtx {
            module: m,
            func: FunctionId(0),
            pass: "t",
        }
    }

    #[test]
    fn pointers_loaded_from_disjoint_slots_no_alias() {
        // x and y stored into distinct slots, loaded back: the loads
        // cannot alias each other (BasicAA cannot see this, Andersen can).
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let sx = b.alloca(8, "sx");
        let sy = b.alloca(8, "sy");
        let x = b.alloca(64, "x");
        let y = b.alloca(64, "y");
        b.store(Ty::Ptr, x, sx);
        b.store(Ty::Ptr, y, sy);
        let lx = b.load(Ty::Ptr, sx);
        let ly = b.load(Ty::Ptr, sy);
        b.store(Ty::I64, Value::ConstInt(0), lx);
        b.store(Ty::I64, Value::ConstInt(0), ly);
        b.ret(None);
        b.finish();
        let mut aa = AndersenAA::new(&m);
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(lx, 8),
                &MemoryLocation::precise(ly, 8)
            ),
            AliasResult::NoAlias
        );
    }

    #[test]
    fn pointers_through_same_slot_may_alias() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let s = b.alloca(8, "s");
        let x = b.alloca(64, "x");
        let y = b.alloca(64, "y");
        b.store(Ty::Ptr, x, s);
        b.store(Ty::Ptr, y, s);
        let l1 = b.load(Ty::Ptr, s);
        let l2 = b.load(Ty::Ptr, s);
        b.store(Ty::I64, Value::ConstInt(0), l1);
        b.store(Ty::I64, Value::ConstInt(0), l2);
        b.ret(None);
        b.finish();
        let mut aa = AndersenAA::new(&m);
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(l1, 8),
                &MemoryLocation::precise(l2, 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn interprocedural_arg_flow() {
        // main passes x to callee's p and y to q; inside callee p/q do
        // not alias.
        let mut m = Module::new("t");
        let callee =
            oraql_ir::builder::declare_function(&mut m, "callee", vec![Ty::Ptr, Ty::Ptr], None);
        {
            let f = m.func_mut(callee);
            f.push_inst(
                oraql_ir::module::Function::ENTRY,
                oraql_ir::inst::Inst::Store {
                    ptr: Value::Arg(0),
                    value: Value::ConstInt(1),
                    ty: Ty::I64,
                    meta: Default::default(),
                },
                None,
            );
            f.push_inst(
                oraql_ir::module::Function::ENTRY,
                oraql_ir::inst::Inst::Ret { val: None },
                None,
            );
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(64, "x");
        let y = b.alloca(64, "y");
        b.call(callee, vec![x, y], None);
        b.ret(None);
        b.finish();
        let mut aa = AndersenAA::new(&m);
        let c = QueryCtx {
            module: &m,
            func: callee,
            pass: "t",
        };
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(Value::Arg(0), 8),
                &MemoryLocation::precise(Value::Arg(1), 8)
            ),
            AliasResult::NoAlias
        );
    }

    #[test]
    fn aliased_args_detected() {
        // main passes x to BOTH params: they may alias inside callee.
        let mut m = Module::new("t");
        let callee =
            oraql_ir::builder::declare_function(&mut m, "callee2", vec![Ty::Ptr, Ty::Ptr], None);
        {
            let f = m.func_mut(callee);
            f.push_inst(
                oraql_ir::module::Function::ENTRY,
                oraql_ir::inst::Inst::Ret { val: None },
                None,
            );
        }
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(64, "x");
        b.call(callee, vec![x, x], None);
        b.ret(None);
        b.finish();
        let mut aa = AndersenAA::new(&m);
        let c = QueryCtx {
            module: &m,
            func: callee,
            pass: "t",
        };
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(Value::Arg(0), 8),
                &MemoryLocation::precise(Value::Arg(1), 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn root_params_are_unknown() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "root", vec![Ty::Ptr, Ty::Ptr], None);
        b.store(Ty::I64, Value::ConstInt(0), b.arg(0));
        b.store(Ty::I64, Value::ConstInt(0), b.arg(1));
        b.ret(None);
        b.finish();
        let mut aa = AndersenAA::new(&m);
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(Value::Arg(0), 8),
                &MemoryLocation::precise(Value::Arg(1), 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn gep_inherits_base_points_to() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(64, "x");
        let y = b.alloca(64, "y");
        let gx = b.gep(x, 8);
        b.store(Ty::I64, Value::ConstInt(0), gx);
        b.store(Ty::I64, Value::ConstInt(0), y);
        b.ret(None);
        b.finish();
        let mut aa = AndersenAA::new(&m);
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(gx, 8),
                &MemoryLocation::precise(y, 8)
            ),
            AliasResult::NoAlias
        );
    }
}
