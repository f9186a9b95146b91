//! The alias-analysis manager: a lazily queried *chain* of analyses.
//!
//! LLVM's `AAResults` asks each registered analysis in a predetermined
//! sequence and returns as soon as one responds with a definite answer;
//! `MayAlias` is the pessimistic fallback when every analysis gives up
//! (paper §III). The ORAQL pass is appended at the end of this chain by
//! the driver, so it only ever sees queries no conservative analysis
//! could answer.

use crate::location::{AliasResult, MemoryLocation};
use oraql_ir::hash::FxHashMap;
use oraql_ir::inst::{CallKind, FuncRef, Inst, InstId};
use oraql_ir::module::{FunctionId, Module};

/// Context handed to every analysis on every query.
pub struct QueryCtx<'a> {
    /// The module being compiled.
    pub module: &'a Module,
    /// The function the two pointers live in.
    pub func: FunctionId,
    /// Name of the transformation/analysis pass that issued the query
    /// (the paper associates pessimistic queries with the issuing pass).
    pub pass: &'static str,
}

/// One alias analysis in the chain.
pub trait AliasAnalysis {
    /// Short name used in reports and statistics.
    fn name(&self) -> &'static str;

    /// Answers a query or returns `MayAlias` to defer to the next
    /// analysis in the chain.
    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult;

    /// Analysis-specific statistics, reported like LLVM's `-stats`
    /// (the ORAQL driver reads the unique-query count through this).
    fn stats(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// Per-analysis answer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnswerCounts {
    /// Queries answered `NoAlias`.
    pub no_alias: u64,
    /// Queries answered `MustAlias`.
    pub must_alias: u64,
    /// Queries answered `PartialAlias`.
    pub partial_alias: u64,
}

/// The analysis chain plus bookkeeping.
pub struct AAManager {
    analyses: Vec<Box<dyn AliasAnalysis>>,
    counts: Vec<AnswerCounts>,
    /// Queries that fell through the whole chain.
    pub fallback_may_alias: u64,
    /// Total queries issued.
    pub total_queries: u64,
    /// Pass currently issuing queries (set by the pass manager).
    pub current_pass: &'static str,
    /// Analyses whose definite answers are discarded (treated as
    /// may-alias). The paper's §VIII proposes *blocking* existing
    /// analyses to categorize the effect of already-known queries —
    /// suppressed analyses still run (their statistics count), but the
    /// chain falls through them.
    pub suppressed: std::collections::HashSet<String>,
    /// Memory-effect summaries per callee: `(reads, writes)`. The pass
    /// manager fills them from the unoptimized module before its first
    /// pass ([`AAManager::summarize_callees`]). Sound to keep across
    /// transformations: passes only remove accesses, so a stale `true`
    /// is merely conservative.
    callee_effects: FxHashMap<FunctionId, (bool, bool)>,
}

impl AAManager {
    /// Creates an empty manager (no analyses: every query is MayAlias).
    pub fn new() -> Self {
        AAManager {
            analyses: Vec::new(),
            counts: Vec::new(),
            fallback_may_alias: 0,
            total_queries: 0,
            current_pass: "",
            suppressed: std::collections::HashSet::new(),
            callee_effects: FxHashMap::default(),
        }
    }

    /// Memory-effect summary of an internal callee: does its body (not
    /// following nested internal calls, which count conservatively)
    /// read / write memory? LLVM's function-attribute inference
    /// (`memory(none)` etc.) plays this role.
    pub fn callee_effects(&mut self, module: &Module, fid: FunctionId) -> (bool, bool) {
        if let Some(&e) = self.callee_effects.get(&fid) {
            return e;
        }
        let f = module.func(fid);
        let mut reads = false;
        let mut writes = false;
        for id in f.live_insts() {
            match f.inst(id) {
                Inst::Load { .. } => reads = true,
                Inst::Store { .. } => writes = true,
                Inst::Memcpy { .. } => {
                    reads = true;
                    writes = true;
                }
                Inst::Call { callee, .. } => match callee {
                    FuncRef::External(sym) if is_pure_external(module.strings.resolve(*sym)) => {}
                    _ => {
                        // Nested calls: conservative (no transitive walk,
                        // which would need recursion-cycle handling).
                        reads = true;
                        writes = true;
                    }
                },
                _ => {}
            }
            if reads && writes {
                break;
            }
        }
        self.callee_effects.insert(fid, (reads, writes));
        (reads, writes)
    }

    /// Summarizes every function of `m` now, so that every later ask
    /// reads the summary of `m` as it is, whatever the passes do to the
    /// callee afterwards. Filled at first ask instead, a caller's code
    /// would depend on how far the pipeline had got through its callee,
    /// and so on the alias answers given inside the callee. A function
    /// already summarized keeps its summary, so a caller that compiles
    /// a partly optimized copy of the unoptimized module summarizes the
    /// unoptimized one first.
    pub fn summarize_callees(&mut self, m: &Module) {
        for fi in 0..m.funcs.len() {
            self.callee_effects(m, FunctionId(fi as u32));
        }
    }

    /// Appends an analysis to the end of the chain.
    pub fn add(&mut self, analysis: Box<dyn AliasAnalysis>) {
        self.analyses.push(analysis);
        self.counts.push(AnswerCounts::default());
    }

    /// Per-analysis answer counters, in chain order.
    pub fn answer_counts(&self) -> &[AnswerCounts] {
        &self.counts
    }

    /// Total `NoAlias` answers across all analyses in the chain —
    /// the paper's "# No-Alias Results" column (Fig 4).
    pub fn no_alias_total(&self) -> u64 {
        self.counts.iter().map(|c| c.no_alias).sum()
    }

    /// Statistics from every analysis in the chain, prefixed by the
    /// analysis name (LLVM `-stats` analogue).
    pub fn stats(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for a in &self.analyses {
            for (k, v) in a.stats() {
                out.push((format!("{}.{}", a.name(), k), v));
            }
        }
        out
    }

    /// The core query entry point: asks each analysis in order, returns
    /// the first definite answer, `MayAlias` otherwise.
    pub fn alias(
        &mut self,
        module: &Module,
        func: FunctionId,
        a: &MemoryLocation,
        b: &MemoryLocation,
    ) -> AliasResult {
        self.total_queries += 1;
        // Identical pointers with identical size are trivially MustAlias;
        // LLVM answers this in AAResults before consulting analyses.
        if a.ptr == b.ptr {
            return if a.size == b.size {
                AliasResult::MustAlias
            } else {
                AliasResult::PartialAlias
            };
        }
        let ctx = QueryCtx {
            module,
            func,
            pass: self.current_pass,
        };
        for (i, analysis) in self.analyses.iter_mut().enumerate() {
            let r = analysis.alias(&ctx, a, b);
            if self.suppressed.contains(analysis.name()) {
                continue; // blocked: its answer is discarded (§VIII)
            }
            if r.is_definite() {
                match r {
                    AliasResult::NoAlias => self.counts[i].no_alias += 1,
                    AliasResult::MustAlias => self.counts[i].must_alias += 1,
                    AliasResult::PartialAlias => self.counts[i].partial_alias += 1,
                    AliasResult::MayAlias => unreachable!(),
                }
                return r;
            }
        }
        self.fallback_may_alias += 1;
        AliasResult::MayAlias
    }

    /// Whether instruction `id` may write to `loc` ("mod" side of LLVM's
    /// ModRef). Calls are handled conservatively: internal calls and
    /// parallel regions clobber everything; the VM's pure external math
    /// routines clobber nothing.
    pub fn may_clobber(
        &mut self,
        module: &Module,
        func: FunctionId,
        id: InstId,
        loc: &MemoryLocation,
    ) -> bool {
        let f = module.func(func);
        match f.inst(id) {
            Inst::Store { .. } => {
                let s = MemoryLocation::of_access(f, id).expect("store location");
                self.alias(module, func, &s, loc) != AliasResult::NoAlias
            }
            Inst::Memcpy { .. } => {
                let d = MemoryLocation::memcpy_dest(f, id).expect("memcpy dest");
                self.alias(module, func, &d, loc) != AliasResult::NoAlias
            }
            Inst::Call { callee, kind, .. } => match (callee, kind) {
                (FuncRef::External(sym), CallKind::Plain) => {
                    !is_pure_external(module.strings.resolve(*sym))
                }
                (FuncRef::Internal(fid), CallKind::Plain) => self.callee_effects(module, *fid).1,
                _ => true,
            },
            _ => false,
        }
    }

    /// Whether instruction `id` may read from `loc` ("ref" side).
    pub fn may_read(
        &mut self,
        module: &Module,
        func: FunctionId,
        id: InstId,
        loc: &MemoryLocation,
    ) -> bool {
        let f = module.func(func);
        match f.inst(id) {
            Inst::Load { .. } => {
                let l = MemoryLocation::of_access(f, id).expect("load location");
                self.alias(module, func, &l, loc) != AliasResult::NoAlias
            }
            Inst::Memcpy { .. } => {
                let s = MemoryLocation::memcpy_source(f, id).expect("memcpy src");
                self.alias(module, func, &s, loc) != AliasResult::NoAlias
            }
            Inst::Call { callee, kind, .. } => match (callee, kind) {
                (FuncRef::External(sym), CallKind::Plain) => {
                    !is_pure_external(module.strings.resolve(*sym))
                }
                (FuncRef::Internal(fid), CallKind::Plain) => self.callee_effects(module, *fid).0,
                _ => true,
            },
            _ => false,
        }
    }
}

impl Default for AAManager {
    fn default() -> Self {
        Self::new()
    }
}

/// External routines the VM implements without touching program-visible
/// memory. Calls to these do not block optimizations.
pub fn is_pure_external(name: &str) -> bool {
    matches!(
        name,
        "sqrt" | "exp" | "log" | "sin" | "cos" | "pow" | "fabs" | "floor" | "ceil" | "clock"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::value::Value;

    /// An analysis that always answers a fixed result.
    struct Fixed(&'static str, AliasResult);
    impl AliasAnalysis for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn alias(
            &mut self,
            _ctx: &QueryCtx<'_>,
            _a: &MemoryLocation,
            _b: &MemoryLocation,
        ) -> AliasResult {
            self.1
        }
    }

    fn locs() -> (MemoryLocation, MemoryLocation) {
        (
            MemoryLocation::precise(Value::Arg(0), 8),
            MemoryLocation::precise(Value::Arg(1), 8),
        )
    }

    #[test]
    fn first_definite_answer_wins() {
        let m = Module::new("t");
        let mut mgr = AAManager::new();
        mgr.add(Box::new(Fixed("may", AliasResult::MayAlias)));
        mgr.add(Box::new(Fixed("no", AliasResult::NoAlias)));
        mgr.add(Box::new(Fixed("must", AliasResult::MustAlias)));
        let (a, b) = locs();
        assert_eq!(mgr.alias(&m, FunctionId(0), &a, &b), AliasResult::NoAlias);
        assert_eq!(mgr.answer_counts()[1].no_alias, 1);
        assert_eq!(mgr.answer_counts()[2].must_alias, 0);
        assert_eq!(mgr.no_alias_total(), 1);
    }

    #[test]
    fn fallback_is_may_alias() {
        let m = Module::new("t");
        let mut mgr = AAManager::new();
        mgr.add(Box::new(Fixed("may", AliasResult::MayAlias)));
        let (a, b) = locs();
        assert_eq!(mgr.alias(&m, FunctionId(0), &a, &b), AliasResult::MayAlias);
        assert_eq!(mgr.fallback_may_alias, 1);
        assert_eq!(mgr.total_queries, 1);
    }

    #[test]
    fn identical_pointers_are_must_alias_without_consulting_chain() {
        let m = Module::new("t");
        let mut mgr = AAManager::new();
        mgr.add(Box::new(Fixed("no", AliasResult::NoAlias)));
        let a = MemoryLocation::precise(Value::Arg(0), 8);
        assert_eq!(
            mgr.alias(&m, FunctionId(0), &a, &a.clone()),
            AliasResult::MustAlias
        );
        // The chain analysis was never consulted.
        assert_eq!(mgr.answer_counts()[0].no_alias, 0);
    }

    #[test]
    fn pure_externals() {
        assert!(is_pure_external("sqrt"));
        assert!(!is_pure_external("memcpy"));
    }
}
