//! Unification-based (Steensgaard-style) points-to analysis, standing in
//! for LLVM's `CFLSteensAA`. Near-linear time via union-find; coarser
//! than Andersen but much cheaper to compute.

use crate::aa::{AliasAnalysis, QueryCtx};
use crate::constraints::{extract, Constraint, ConstraintSystem};
use crate::location::{AliasResult, MemoryLocation};
use oraql_ir::module::Module;

/// Union-find with pointee ("points-to successor") links.
struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    pointee: Vec<Option<u32>>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            pointee: vec![None; n],
        }
    }

    fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.pointee.push(None);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        // Path halving.
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Pointee class of `x`, creating a fresh one if absent.
    fn pointee_of(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        match self.pointee[r as usize] {
            Some(p) => self.find(p),
            None => {
                let p = self.fresh();
                self.pointee[r as usize] = Some(p);
                p
            }
        }
    }

    /// Joins the classes of `a` and `b`, recursively unifying pointees
    /// (Steensgaard's conditional join).
    fn join(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (win, lose) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        if self.rank[win as usize] == self.rank[lose as usize] {
            self.rank[win as usize] += 1;
        }
        self.parent[lose as usize] = win;
        // Merge pointee links.
        let pw = self.pointee[win as usize];
        let pl = self.pointee[lose as usize];
        match (pw, pl) {
            (Some(x), Some(y)) => self.join(x, y),
            (None, Some(y)) => self.pointee[win as usize] = Some(y),
            _ => {}
        }
    }
}

/// The solved Steensgaard relation plus the AA adapter.
pub struct SteensgaardAA {
    sys: ConstraintSystem,
    uf: UnionFind,
    /// Node id of each abstract object (indexed by `ObjId`).
    obj_nodes: Vec<u32>,
    universal_class_probe: u32,
    answered: u64,
}

impl SteensgaardAA {
    /// Extracts constraints from `m` and unifies them.
    pub fn new(m: &Module) -> Self {
        let sys = extract(m);
        let mut uf = UnionFind::new(sys.num_nodes());
        // One extra node per abstract object.
        let obj_nodes: Vec<u32> = sys.objects.iter().map(|_| uf.fresh()).collect();
        // Wire each object's Andersen-style content node to the object
        // node's pointee, so Load/Store constraints and AddrOf
        // constraints talk about the same thing.
        for (oi, &content) in sys.content_node.iter().enumerate() {
            let p = uf.pointee_of(obj_nodes[oi]);
            uf.join(content, p);
        }
        for c in &sys.constraints {
            match *c {
                Constraint::AddrOf { lhs, obj } => {
                    let p = uf.pointee_of(lhs);
                    uf.join(p, obj_nodes[obj as usize]);
                }
                Constraint::Copy { lhs, rhs } => uf.join(lhs, rhs),
                Constraint::Load { lhs, ptr } => {
                    let p1 = uf.pointee_of(ptr);
                    let p2 = uf.pointee_of(p1);
                    uf.join(lhs, p2);
                }
                Constraint::Store { ptr, rhs } => {
                    let p1 = uf.pointee_of(ptr);
                    let p2 = uf.pointee_of(p1);
                    uf.join(p2, rhs);
                }
            }
        }
        let universal_class_probe = obj_nodes[sys.universal_obj as usize];
        SteensgaardAA {
            sys,
            uf,
            obj_nodes,
            universal_class_probe,
            answered: 0,
        }
    }

    fn node_for(&self, ctx: &QueryCtx<'_>, ptr: oraql_ir::value::Value) -> Option<u32> {
        if let Some(n) = self.sys.node_of(ctx.func, ptr) {
            return Some(n);
        }
        // Pass-created value: fall back to the underlying object's value.
        let f = ctx.module.func(ctx.func);
        let v = crate::pointer::decompose(f, ptr).base.value()?;
        self.sys.node_of(ctx.func, v)
    }
}

impl AliasAnalysis for SteensgaardAA {
    fn name(&self) -> &'static str {
        "SteensgaardAA"
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let (Some(na), Some(nb)) = (self.node_for(ctx, a.ptr), self.node_for(ctx, b.ptr)) else {
            return AliasResult::MayAlias;
        };
        let pa = self.uf.pointee_of(na);
        let pb = self.uf.pointee_of(nb);
        let pa = self.uf.find(pa);
        let pb = self.uf.find(pb);
        let u = self.uf.find(self.universal_class_probe);
        if pa == pb || pa == u || pb == u {
            return AliasResult::MayAlias;
        }
        self.answered += 1;
        AliasResult::NoAlias
    }

    fn stats(&self) -> Vec<(String, u64)> {
        vec![
            ("answered".into(), self.answered),
            ("objects".into(), self.obj_nodes.len() as u64),
        ]
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
    fn disjoint_slots_no_alias() {
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
        let mut aa = SteensgaardAA::new(&m);
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
    fn unification_is_coarser_than_andersen() {
        // z = phi(x, y); afterwards Steensgaard has unified x and y's
        // classes, so x vs y becomes MayAlias even though Andersen would
        // still distinguish loads... check the coarsening is observable:
        // x vs w stays NoAlias but x vs y (merged through z) is May.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![Ty::I1], None);
        let x = b.alloca(64, "x");
        let y = b.alloca(64, "y");
        let w = b.alloca(64, "w");
        let z = b.select(Ty::Ptr, b.arg(0), x, y);
        b.store(Ty::I64, Value::ConstInt(0), z);
        b.store(Ty::I64, Value::ConstInt(0), w);
        b.ret(None);
        b.finish();
        let mut aa = SteensgaardAA::new(&m);
        let c = ctx(&m);
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(x, 8),
                &MemoryLocation::precise(y, 8)
            ),
            AliasResult::MayAlias
        );
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(x, 8),
                &MemoryLocation::precise(w, 8)
            ),
            AliasResult::NoAlias
        );
        assert_eq!(
            aa.alias(
                &c,
                &MemoryLocation::precise(z, 8),
                &MemoryLocation::precise(w, 8)
            ),
            AliasResult::NoAlias
        );
    }

    #[test]
    fn universal_flows_poison_queries() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "root", vec![Ty::Ptr], None);
        let x = b.alloca(64, "x");
        b.store(Ty::I64, Value::ConstInt(0), x);
        b.store(Ty::I64, Value::ConstInt(0), b.arg(0));
        b.ret(None);
        b.finish();
        let mut aa = SteensgaardAA::new(&m);
        // Root arg points to universal: may alias even a local alloca?
        // No: an alloca is an identified object a caller cannot pass in.
        // Steensgaard does not know that (BasicAA does); it answers
        // conservatively because arg's class is universal.
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(Value::Arg(0), 8),
                &MemoryLocation::precise(x, 8)
            ),
            AliasResult::MayAlias
        );
    }

    #[test]
    fn store_through_pointer_merges_contents() {
        // *s = x; l = *s; l and x must share a class (may alias).
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let s = b.alloca(8, "s");
        let x = b.alloca(64, "x");
        b.store(Ty::Ptr, x, s);
        let l = b.load(Ty::Ptr, s);
        b.store(Ty::I64, Value::ConstInt(0), l);
        b.ret(None);
        b.finish();
        let mut aa = SteensgaardAA::new(&m);
        assert_eq!(
            aa.alias(
                &ctx(&m),
                &MemoryLocation::precise(l, 8),
                &MemoryLocation::precise(x, 8)
            ),
            AliasResult::MayAlias
        );
    }
}
