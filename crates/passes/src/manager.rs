//! The pass manager: runs a fixed pipeline of function passes, setting
//! the AA manager's `current_pass` before each so every alias query is
//! attributed to its issuer, and keeping each function's CFG facts
//! across the passes.
//!
//! Every pass reads and writes only the function it runs on. The one
//! thing a pass learns about another function, its callee's memory
//! effects, is summarized from the unoptimized module before the first
//! pass. So each function's optimized body depends on its own body and
//! the alias answers given for it, and on nothing the pipeline does to
//! the other functions: a caller may skip functions ([`PassManager::skip`]),
//! even ones it already optimized, and compile the rest exactly as a
//! full run would, as long as the chain's summaries come from the
//! unoptimized module ([`AAManager::summarize_callees`]).

use crate::stats::Stats;
use oraql_analysis::facts::FunctionFacts;
use oraql_analysis::AAManager;
use oraql_ir::hash::FxHashSet;
use oraql_ir::module::{FunctionId, Module};

/// Shared context handed to every pass invocation.
pub struct PassCx<'a> {
    /// The alias-analysis chain (queries go through here).
    pub aa: &'a mut AAManager,
    /// The statistics registry.
    pub stats: &'a mut Stats,
    /// The function's CFG facts, kept across the passes of one run:
    /// ask them for its dominator tree, loop forest and predecessors.
    pub facts: &'a mut FunctionFacts,
}

impl PassCx<'_> {
    /// Shorthand for bumping a statistic of the current pass.
    pub fn stat(&mut self, pass: &str, stat: &str, n: u64) {
        self.stats.add(pass, stat, n);
    }
}

/// A function transformation (or analysis-priming) pass.
pub trait Pass {
    /// Name used for statistics and query attribution (mirrors LLVM's
    /// pass names where one exists).
    fn name(&self) -> &'static str;

    /// Processes one function.
    fn run(&mut self, m: &mut Module, f: FunctionId, cx: &mut PassCx<'_>);
}

/// Runs a sequence of passes over every function of a module.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    /// Verify IR after each pass (tests turn this on; costs time).
    pub verify_each: bool,
    /// Functions no pass runs on: they keep the body they came in with.
    pub skip: FxHashSet<FunctionId>,
}

impl PassManager {
    /// Creates a manager over the given pass list.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager {
            passes,
            verify_each: false,
            skip: FxHashSet::default(),
        }
    }

    /// Runs the pipeline: for each pass, over each function not in
    /// [`PassManager::skip`], in order (pass-major, like LLVM's
    /// module-level CGSCC scheduling of our simple function passes).
    /// Callee effects the chain has not summarized yet are summarized
    /// first, from `m` as it comes in. One [`FunctionFacts`] per
    /// function lives for the whole run.
    pub fn run(&mut self, m: &mut Module, aa: &mut AAManager, stats: &mut Stats) {
        aa.summarize_callees(m);
        let mut facts: Vec<FunctionFacts> = Vec::new();
        for pass in &mut self.passes {
            facts.resize_with(m.funcs.len(), FunctionFacts::default);
            for (fi, facts) in facts.iter_mut().enumerate() {
                let fid = FunctionId(fi as u32);
                if self.skip.contains(&fid) {
                    continue;
                }
                aa.current_pass = pass.name();
                let mut cx = PassCx { aa, stats, facts };
                pass.run(m, fid, &mut cx);
                if self.verify_each {
                    if let Err(e) = oraql_ir::verify::verify_function(m, fid) {
                        panic!("IR broken after pass {}: {e}", pass.name());
                    }
                }
            }
        }
        aa.current_pass = "";
    }
}

/// The standard "O3-like" pipeline used by the ORAQL driver and the
/// benchmarks: a [`PassManager`] over [`standard_passes`].
pub fn standard_pipeline() -> PassManager {
    PassManager::new(standard_passes())
}

/// The passes of [`standard_pipeline`], in order. Order mirrors the
/// interplay the paper describes: memory SSA priming first (it issues
/// the bulk of queries), scalar cleanups, loop transforms,
/// vectorization, then late sinking. GVN and DSE run a second time to
/// pick up opportunities exposed by LICM.
pub fn standard_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(crate::memssa_prime::MemorySsaPrime),
        Box::new(crate::earlycse::EarlyCSE),
        Box::new(crate::gvn::Gvn),
        Box::new(crate::memcpyopt::MemCpyOpt),
        Box::new(crate::licm::Licm),
        Box::new(crate::gvn::Gvn),
        Box::new(crate::dse::Dse),
        Box::new(crate::loopdel::LoopDeletion),
        Box::new(crate::loopvec::LoopVectorize),
        Box::new(crate::slp::SlpVectorize),
        Box::new(crate::sink::MachineSink),
        Box::new(crate::dce::Dce),
    ]
}

/// Runs one pass over every function of `m` through a [`PassManager`]
/// over a BasicAA chain, checks the IR, and returns the statistics.
#[cfg(test)]
pub(crate) fn run_pass(m: &mut Module, pass: impl Pass + 'static) -> Stats {
    let mut aa = AAManager::new();
    aa.add(Box::new(oraql_analysis::basic::BasicAA::new()));
    let mut stats = Stats::new();
    PassManager::new(vec![Box::new(pass)]).run(m, &mut aa, &mut stats);
    oraql_ir::verify::assert_valid(m);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Ty, Value};

    struct CountingPass;
    impl Pass for CountingPass {
        fn name(&self) -> &'static str {
            "Counting"
        }
        fn run(&mut self, _m: &mut Module, _f: FunctionId, cx: &mut PassCx<'_>) {
            assert_eq!(cx.aa.current_pass, "Counting");
            cx.stat("Counting", "runs", 1);
        }
    }

    #[test]
    fn manager_attributes_and_counts() {
        let mut m = Module::new("t");
        for name in ["a", "b"] {
            let mut b = FunctionBuilder::new(&mut m, name, vec![], None);
            b.ret(None);
            b.finish();
        }
        let mut aa = AAManager::new();
        let mut stats = Stats::new();
        PassManager::new(vec![Box::new(CountingPass)]).run(&mut m, &mut aa, &mut stats);
        assert_eq!(stats.get("Counting", "runs"), 2);
    }

    #[test]
    fn standard_pipeline_runs_on_trivial_module() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        let x = b.alloca(8, "x");
        b.store(Ty::I64, Value::ConstInt(1), x);
        let v = b.load(Ty::I64, x);
        b.print("{}", vec![v]);
        b.ret(None);
        b.finish();
        let mut aa = AAManager::new();
        let mut stats = Stats::new();
        let mut pm = standard_pipeline();
        pm.verify_each = true;
        pm.run(&mut m, &mut aa, &mut stats);
        oraql_ir::verify::assert_valid(&m);
    }
}
